"""The learner's random draws equal numpy's for the same seed, bit for bit."""

import numpy as np
import pytest

from pdblearn import _rng

# small seeds, one past 32 bits, one past 64 bits and a 15-digit one
SEEDS = [*range(50), 2**32 + 7, 2**70 + 3, 123_456_789_012_345]
SIZES = [0, 1, 2, 17, 250, 1000]


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


def test_numpy_integers_and_bad_seeds():
    assert _rng.SeedSequence(np.uint32(9)).generate_state(3) == _rng.SeedSequence(
        9
    ).generate_state(3)
    with pytest.raises(ValueError):
        _rng.SeedSequence(-1)
    with pytest.raises(TypeError):
        _rng.SeedSequence(1.0)
