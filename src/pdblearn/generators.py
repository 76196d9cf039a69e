"""Synthetic instance generators for experiments and benchmarks.

Both draw from ``_rng.Generator(_rng.SeedSequence(seed))``, which draws what
``numpy.random.default_rng(seed)`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import Generator, SeedSequence
from .database import ProbabilisticDatabase
from .errors import InconsistentConstraintsError
from .inference import prob_bruteforce
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
    if n_labels < 1:
        raise ValueError("n_labels must be positive")
    if n_tuples < 6 * max(blocks, 1) or blocks < 1:
        raise ValueError("need at least 6 tuples per block")
    if n_tuples % blocks != 0:
        raise ValueError("blocks must divide n_tuples evenly")
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
            a, b, d = picks[3 * c : 3 * c + 3]
            neg_b, neg_d = flips[2 * c], flips[2 * c + 1]
            parts = [Var(ids[a])]
            parts.append(Not(Var(ids[b])) if neg_b else Var(ids[b]))
            parts.append(Not(Var(ids[d])) if neg_d else Var(ids[d]))
            disjuncts.append(And(*parts))
            body = [f"t({a})"]
            body.append(f"!t({b})" if neg_b else f"t({b})")
            body.append(f"!t({d})" if neg_d else f"t({d})")
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


def random_3sat(
    n_vars: int,
    n_clauses: int,
    seed: int = 0,
    max_tries: int = 1000,
) -> tuple:
    """Random 3-CNF guaranteed satisfiable, as signed 1-based literal triples.

    Draws clause sets uniformly (three distinct variables, fair signs) and
    rejects unsatisfiable ones, those of probability 0 under
    ``prob_bruteforce`` with every variable at one half; n_vars is therefore
    capped at 20, the oracle's cutoff.
    """
    if not 3 <= n_vars <= 20:
        raise ValueError("n_vars must lie in [3, 20]")
    if n_clauses < 0:
        raise ValueError("n_clauses must be >= 0")
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    rng = Generator(SeedSequence(seed))
    half = {TupleId.synthetic(i): 0.5 for i in range(1, n_vars + 1)}
    events = {}  # literal -> its event: variable i is tuple #i
    for i in range(1, n_vars + 1):
        events[i] = Var(TupleId.synthetic(i))
        events[-i] = Not(events[i])
    for _ in range(max_tries):
        clauses, cnf = [], []
        for _k in range(n_clauses):
            chosen = rng.choice(n_vars, 3)
            clause = tuple(v + 1 if rng.random() < 0.5 else -(v + 1) for v in chosen)
            clauses.append(clause)
            cnf.append(Or(*(events[lit] for lit in clause)))
        if prob_bruteforce(And(*cnf), half) > 0:
            return tuple(clauses)
    raise InconsistentConstraintsError(
        f"no satisfiable formula found in {max_tries} draws"
    )
