"""Synthetic instance generators for experiments and benchmarks.

Both draw from ``_rng.Generator(_rng.SeedSequence(seed))``, which draws what
``numpy.random.default_rng(seed)`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import Generator, SeedSequence
from .database import ProbabilisticDatabase
from .errors import InconsistentConstraintsError
from .inference import _world_masks
from .learning import Label
from .lineage import And, Not, Or, TupleId, Var

__all__ = ["SrlInstance", "gen_synthetic_srl", "random_3sat"]


@dataclass
class SrlInstance:
    db: ProbabilisticDatabase  # base tuples t(0..n-1), all learnable
    labels: tuple  # of Label
    rules: str  # deduction-rule text deriving one head per label
    label_refs: tuple  # (head name text, target) rows matching the rules


def gen_synthetic_srl(
    n_labels: int,
    seed: int = 0,
    n_tuples: int = 100,
    blocks: int = 1,
) -> SrlInstance:
    """Random relation-learning style instance.

    Every label is a disjunction of two three-tuple conjunctions; in each
    conjunction the first tuple appears positively and the other two are
    negated with probability one half.  Targets are fair coin flips over
    {0, 1}.  With ``blocks > 1`` the tuple ids are split into equal ranges and
    each label draws only from one range, so the instance decomposes into that
    many independent parts.
    """
    _check_srl_size(n_labels, n_tuples, blocks)
    rng = Generator(SeedSequence(seed))
    db = ProbabilisticDatabase()
    ids = [TupleId("t", (i,)) for i in range(n_tuples)]
    for t in ids:
        db.add(t, learnable=True)
    size = n_tuples // blocks

    labels: list = []
    rules: list = []
    refs: list = []
    for j in range(n_labels):
        lo = (j % blocks) * size
        picks = [x + lo for x in rng.choice(size, 6)]
        flips = [rng.random() < 0.5 for _ in range(4)]
        disjuncts = []
        rule_bodies = []
        for c in range(2):
            # the conjunction's three literals: the first is positive
            negations = (False, flips[2 * c], flips[2 * c + 1])
            parts, body = [], []
            for x, negated in zip(picks[3 * c : 3 * c + 3], negations):
                parts.append(Not(Var(ids[x])) if negated else Var(ids[x]))
                body.append(f"!t({x})" if negated else f"t({x})")
            disjuncts.append(And(*parts))
            rule_bodies.append(", ".join(body))
        target = 1.0 if rng.random() < 0.5 else 0.0
        labels.append(Label(Or(*disjuncts), target))
        rules.append(f"q({j}) :- {rule_bodies[0]}.")
        rules.append(f"q({j}) :- {rule_bodies[1]}.")
        refs.append((f"q({j})", target))
    return SrlInstance(
        db=db,
        labels=tuple(labels),
        rules="\n".join(rules) + ("\n" if rules else ""),
        label_refs=tuple(refs),
    )


def _check_srl_size(n_labels: int, n_tuples: int, blocks: int):
    """Raise ValueError unless ``gen_synthetic_srl`` can build this size."""
    if n_labels < 1:
        raise ValueError("n_labels must be positive")
    if n_tuples < 6 * max(blocks, 1) or blocks < 1:
        raise ValueError("need at least 6 tuples per block")
    if n_tuples % blocks != 0:
        raise ValueError("blocks must divide n_tuples evenly")


def random_3sat(
    n_vars: int,
    n_clauses: int,
    seed: int = 0,
    max_tries: int = 1000,
) -> tuple:
    """Random 3-CNF guaranteed satisfiable, as signed 1-based literal triples.

    Draws clause sets uniformly (three distinct variables, fair signs) and
    rejects unsatisfiable ones.  As a draw's clauses are drawn, each one's
    satisfying worlds, from ``prob_bruteforce``'s masks, are ANDed into one
    set; once it is empty the rest are drawn but not tested.  n_vars is
    capped at 20, the oracle's cutoff.
    """
    if not 3 <= n_vars <= 20:
        raise ValueError("n_vars must lie in [3, 20]")
    if n_clauses < 0:
        raise ValueError("n_clauses must be >= 0")
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    rng = Generator(SeedSequence(seed))
    full = (1 << (1 << n_vars)) - 1
    worlds = {}  # literal -> the worlds where it holds
    for i, mask in enumerate(_world_masks(n_vars), start=1):
        worlds[i], worlds[-i] = mask, mask ^ full
    for _ in range(max_tries):
        clauses, satisfied = [], full
        for _k in range(n_clauses):
            chosen = rng.choice(n_vars, 3)
            clause = tuple(v + 1 if rng.random() < 0.5 else -(v + 1) for v in chosen)
            clauses.append(clause)
            if satisfied:
                satisfied &= worlds[clause[0]] | worlds[clause[1]] | worlds[clause[2]]
        if satisfied:
            return tuple(clauses)
    raise InconsistentConstraintsError(
        f"no satisfiable formula found in {max_tries} draws"
    )
