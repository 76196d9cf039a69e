"""The package's random draws equal numpy's for the same seed, bit for bit."""

import numpy as np
import pytest

from pdblearn import _rng

# small seeds, one past 32 bits, one past 64 bits and a 15-digit one
SEEDS = [*range(50), 2**32 + 7, 2**70 + 3, 123_456_789_012_345]
SIZES = [0, 1, 2, 17, 250, 1000]
# (n, k) for choice: the generators' draws, k == n, k == 0, n at numpy's
# tail-shuffle threshold, and a population of 2**32, the last 32-bit one
CHOICES = [(250, 6), (8, 3), (3, 3), (1, 1), (5, 0), (10000, 9000), (20000, 400), (2**32, 3)]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy(seed):
    ours, theirs = _rng.SeedSequence(seed), np.random.SeedSequence(seed)
    assert ours.generate_state(7) == theirs.generate_state(7).tolist()
    children = zip(ours.spawn(7), theirs.spawn(7))
    for mine, numpys in children:
        assert mine.generate_state(7) == numpys.generate_state(7).tolist()
        gen, ref = _rng.Generator(mine), np.random.default_rng(numpys)
        # interleaved, so a buffered 32-bit half carries across calls
        for n in SIZES:
            assert gen.permutation(n) == ref.permutation(n).tolist()
            assert gen.random() == ref.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_matches_numpy(seed):
    gen, ref = _rng.Generator(_rng.SeedSequence(seed)), np.random.default_rng(seed)
    # interleaved with the other draws, which share or skip the 32-bit buffer
    for n, k in CHOICES * 2:
        assert gen.choice(n, k) == ref.choice(n, k, replace=False).tolist()
        assert gen.random() == ref.random()
        assert gen.permutation(11) == ref.permutation(11).tolist()


def test_choice_refuses_what_it_does_not_copy():
    gen = _rng.Generator(_rng.SeedSequence(0))
    # too many, numpy's partial tail shuffle, numpy's 64-bit draws
    for n, k in [(3, 4), (0, 1), (5, -1), (10001, 201), (2**32 + 1, 3)]:
        with pytest.raises(ValueError):
            gen.choice(n, k)


def test_numpy_integers_and_bad_seeds():
    assert _rng.SeedSequence(np.uint32(9)).generate_state(3) == _rng.SeedSequence(
        9
    ).generate_state(3)
    with pytest.raises(ValueError):
        _rng.SeedSequence(-1)
    with pytest.raises(TypeError):
        _rng.SeedSequence(1.0)
