"""Shared helpers for the test suite.

Random formulas are produced as plain *recipes* (nested tuples) that are
evaluated directly, without going through the package's constructors.  That
gives every structural test an oracle that is independent of whatever
canonicalization the constructors perform.

Recipe grammar::

    ("var", i)            variable over tuple t(i)
    ("const", bool)       boolean constant
    ("not", recipe)
    ("and", (recipe, ...))
    ("or", (recipe, ...))
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from pdblearn import And, FALSE, Not, Or, TRUE, TupleId, Var, tuple_set


# acceptance verdict lines, printed once the run ends: what a test writes
# while it runs is captured, so printing them there would hide them
VERDICT_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def tid(i: int) -> TupleId:
    return TupleId("t", (int(i),))


def build_formula(recipe):
    """Run a recipe through the package constructors."""
    kind = recipe[0]
    if kind == "var":
        return Var(tid(recipe[1]))
    if kind == "const":
        return TRUE if recipe[1] else FALSE
    if kind == "not":
        return Not(build_formula(recipe[1]))
    parts = [build_formula(r) for r in recipe[1]]
    return And(*parts) if kind == "and" else Or(*parts)


def eval_recipe(recipe, world) -> bool:
    """Evaluate a recipe under a world given as a set of variable indices."""
    kind = recipe[0]
    if kind == "var":
        return recipe[1] in world
    if kind == "const":
        return bool(recipe[1])
    if kind == "not":
        return not eval_recipe(recipe[1], world)
    if kind == "and":
        return all(eval_recipe(r, world) for r in recipe[1])
    return any(eval_recipe(r, world) for r in recipe[1])


def recipe_vars(recipe) -> set:
    kind = recipe[0]
    if kind == "var":
        return {recipe[1]}
    if kind == "const":
        return set()
    if kind == "not":
        return recipe_vars(recipe[1])
    out: set = set()
    for r in recipe[1]:
        out |= recipe_vars(r)
    return out


def recipes(max_vars: int = 8, max_leaves: int = 12):
    """Hypothesis strategy over recipes. Constants are deliberately rare."""
    atoms = st.one_of(
        st.integers(0, max_vars - 1).map(lambda i: ("var", i)),
        st.integers(0, max_vars - 1).map(lambda i: ("var", i)),
        st.integers(0, max_vars - 1).map(lambda i: ("var", i)),
        st.booleans().map(lambda b: ("const", b)),
    )

    def extend(children):
        return st.one_of(
            children.map(lambda c: ("not", c)),
            st.lists(children, min_size=1, max_size=4).map(
                lambda cs: ("and", tuple(cs))
            ),
            st.lists(children, min_size=1, max_size=4).map(
                lambda cs: ("or", tuple(cs))
            ),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


def random_recipe(rng: np.random.Generator, max_vars: int, max_depth: int = 4):
    """numpy-seeded mirror of the hypothesis strategy, for plain loops."""

    def go(depth: int):
        roll = rng.random()
        if depth >= max_depth or roll < 0.40:
            if rng.random() < 0.06:
                return ("const", bool(rng.integers(2)))
            return ("var", int(rng.integers(max_vars)))
        if roll < 0.55:
            return ("not", go(depth + 1))
        kind = "and" if rng.random() < 0.5 else "or"
        width = int(rng.integers(2, 5))
        return (kind, tuple(go(depth + 1) for _ in range(width)))

    return go(0)


def random_formula(rng: np.random.Generator, max_vars: int, max_depth: int = 4):
    """A random non-constant formula (retries degenerate draws)."""
    for _ in range(100):
        phi = build_formula(random_recipe(rng, max_vars, max_depth))
        if phi != TRUE and phi != FALSE:
            return phi
    return Var(tid(0))


def random_pmap(phi, rng: np.random.Generator, lo: float = 0.0, hi: float = 1.0):
    # draw in sorted order: a frozenset's order changes with the hash seed
    return {t: lo + (hi - lo) * float(rng.random()) for t in sorted(tuple_set(phi))}


def worlds_over(tuple_ids):
    """All subsets of the given tuple ids, as sets."""
    ids = list(tuple_ids)
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            yield set(combo)


# A small extraction-style database reused across suites: four extraction
# facts with known probabilities, five pattern/domain tuples to estimate.
STORY_RULES = """\
% lift extractions into facts when both pattern and domain are trusted
wonPrize(S,O) :- wonPrizeExtraction(S,O,Pid,Did), usingPattern(Pid,P), fromDomain(Did,D).
bornIn(S,O) :- bornInExtraction(S,O,Pid,Did), usingPattern(Pid,P), fromDomain(Did,D).
"""


def story_ids() -> dict:
    return {
        "t1": TupleId("wonPrizeExtraction", ("Spielberg", "AcademyAward", 1, 1)),
        "t2": TupleId("wonPrizeExtraction", ("Spielberg", "AcademyAward", 2, 1)),
        "t3": TupleId("bornInExtraction", ("Spielberg", "Cinncinati", 3, 1)),
        "t4": TupleId("bornInExtraction", ("Spielberg", "LosAngeles", 3, 2)),
        "t5": TupleId("usingPattern", (1, "Received")),
        "t6": TupleId("usingPattern", (2, "Won")),
        "t7": TupleId("usingPattern", (3, "Born")),
        "t8": TupleId("fromDomain", (1, "Wikipedia.org")),
        "t9": TupleId("fromDomain", (2, "Imdb.com")),
    }


def story_db():
    from pdblearn import ProbabilisticDatabase

    ids = story_ids()
    db = ProbabilisticDatabase()
    db.add(ids["t1"], 0.6)
    db.add(ids["t2"], 0.3)
    db.add(ids["t3"], 0.7)
    db.add(ids["t4"], 0.4)
    for name in ("t5", "t6", "t7", "t8", "t9"):
        db.add(ids[name])
    return db, ids
