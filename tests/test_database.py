"""Base-tuple store: probabilities, learnable marks, arity enforcement."""

import pytest

from pdblearn import ArityError, MissingProbabilityError, ProbabilisticDatabase, TupleId

from conftest import story_db, tid


def test_add_and_contains():
    db = ProbabilisticDatabase()
    db.add(tid(1), 0.25)
    assert tid(1) in db
    assert tid(2) not in db
    assert len(db) == 1
    assert db.probability(tid(1)) == 0.25
    assert not db.learnable


def test_iteration_is_sorted():
    db = ProbabilisticDatabase()
    for i in (5, 1, 3):
        db.add(tid(i), 0.5)
    assert list(db) == [tid(1), tid(3), tid(5)]


def test_learnable_tuples_have_no_required_probability():
    db = ProbabilisticDatabase()
    db.add(tid(1))
    assert db.learnable == {tid(1)}
    assert not db.has_probability(tid(1))
    with pytest.raises(MissingProbabilityError):
        db.probability(tid(1))


def test_learnable_tuple_may_carry_an_estimate():
    db = ProbabilisticDatabase()
    db.add(tid(1), 0.4, learnable=True)
    assert db.learnable == {tid(1)}
    assert db.probability(tid(1)) == 0.4


def test_fixed_tuple_without_probability_is_rejected():
    db = ProbabilisticDatabase()
    with pytest.raises(MissingProbabilityError):
        db.add(tid(1), None, learnable=False)


def test_probability_range_is_validated():
    db = ProbabilisticDatabase()
    with pytest.raises(ValueError):
        db.add(tid(1), 1.5)
    with pytest.raises(ValueError):
        db.add(tid(1), -0.1)


def test_arity_is_enforced_per_relation():
    db = ProbabilisticDatabase()
    db.add(TupleId("r", (1, 2)), 0.5)
    with pytest.raises(ArityError):
        db.add(TupleId("r", (1,)), 0.5)
    db.add(TupleId("s", (1,)), 0.5)
    assert db.arity("r") == 2
    assert db.arity("s") == 1


def test_relations_and_relation_tuples():
    db, _ = story_db()
    assert db.relations == (
        "bornInExtraction",
        "fromDomain",
        "usingPattern",
        "wonPrizeExtraction",
    )


def test_readding_overwrites_annotation():
    db = ProbabilisticDatabase()
    db.add(tid(1), 0.3)
    db.add(tid(1))
    assert db.learnable == {tid(1)}
    assert not db.has_probability(tid(1))


def test_with_probabilities_returns_an_independent_copy():
    db, ids = story_db()
    out = db.with_probabilities({ids["t5"]: 0.9})
    assert out.probability(ids["t5"]) == 0.9
    assert not db.has_probability(ids["t5"])
    assert out.learnable == db.learnable


def test_with_probabilities_rejects_unknown_tuples_and_bad_values():
    db, ids = story_db()
    with pytest.raises(KeyError):
        db.with_probabilities({tid(99): 0.5})
    with pytest.raises(ValueError):
        db.with_probabilities({ids["t5"]: 1.01})


def test_copy_is_deep_enough():
    db, ids = story_db()
    clone = db.copy()
    assert clone.probabilities() == db.probabilities() != {}
    clone.add(tid(42), 0.1)
    assert tid(42) not in db
