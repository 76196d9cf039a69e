"""Applications of tuple-probability learning.

Everything here reduces a database task to a labeled learning instance:

* :func:`condition` enforces constraint formulas by relearning all tuple
  probabilities until the constraints hold almost surely.
* :func:`update_clean` folds fractional evidence labels into an existing
  database, using the current probabilities as a prior, and reports which
  tuples became deletions or certainties.
* :func:`derive_from_incomplete` completes partially known rows from a
  multiset of fully known ones, with mutually exclusive candidate choices
  expressed through deduction rules and frequency targets.
* :func:`recover_missing` estimates probabilities for suspected-missing
  tuples from observations known to hold.
* :func:`encode_3sat` / :func:`solve_3sat` turn a CNF into a learning
  instance whose zero-error optima are exactly the satisfying assignments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .database import ProbabilisticDatabase
from .datalog import DeductionProgram, DeductionRule, Literal, ground, index_derived
from .errors import InconsistentConstraintsError, NoEvidenceError
from .inference import prob_exact
from .learning import (
    STATUS_ABS,
    Label,
    LearnerConfig,
    LearningProblem,
    LearnResult,
    learn,
    prior_augment,
)
from .lineage import And, LineageFormula, Not, Or, TupleId, Var, tuple_set

__all__ = [
    "ConditionResult",
    "condition",
    "CleanResult",
    "update_clean",
    "IncompleteReduction",
    "derive_from_incomplete",
    "RecoverResult",
    "recover_missing",
    "encode_3sat",
    "SatResult",
    "solve_3sat",
    "satisfies",
]


def _seed_ints(seed: int, n: int) -> list:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _best_restart(problem: LearningProblem, seed: int, restarts: int, **cfg_fields):
    """Seeded restarts, with eps_rel off, until one reaches eps_abs.

    Returns the run with the lowest error and the number of runs made.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best_run = None
    used = 0
    for run_seed in _seed_ints(seed, restarts):
        run = learn(problem, LearnerConfig(eps_rel=0.0, seed=run_seed, **cfg_fields))
        used += 1
        if best_run is None or run.best < best_run.best:
            best_run = run
        if run.status == STATUS_ABS:
            break
    return best_run, used


# --- conditioning ---------------------------------------------------------------


@dataclass
class ConditionResult:
    db: ProbabilisticDatabase
    probabilities: dict
    constraint_probability: float  # of the constraint conjunction, afterwards
    mse: float
    converged: bool
    restarts_used: int
    result: LearnResult


def condition(
    db: ProbabilisticDatabase,
    constraints: Sequence[LineageFormula],
    eps_abs: float = 1e-5,
    restarts: int = 10,
    seed: int = 0,
    max_outer_iterations: int = 10000,
    threads: int = 1,
) -> ConditionResult:
    """Relearn every tuple probability so all constraints hold together.

    The returned database satisfies ``P(constraint conjunction) >= 1 - eps_abs``
    whenever the run converged.  Raises InconsistentConstraintsError when the
    conjunction is unsatisfiable, since no probabilities can then help.
    """
    constraints = list(constraints)
    if not constraints:
        return ConditionResult(db.copy(), {}, 1.0, 0.0, True, 0, _empty_result())
    conjunction = And(*constraints)
    # satisfiable iff the conjunction has positive probability somewhere; at
    # p=1/2 every assignment carries equal weight, so zero means unsatisfiable
    half = {t: 0.5 for t in tuple_set(conjunction)}
    if prob_exact(conjunction, half) <= 0.0:
        raise InconsistentConstraintsError(
            "the constraint conjunction is unsatisfiable"
        )
    n = len(constraints)
    # if the weighted squared error drops below eps^2 / n^3, the union bound
    # over the n constraint complements keeps the conjunction above 1 - eps
    eps_mse = (eps_abs * eps_abs) / float(n**3)
    labels = tuple(Label(phi, 1.0) for phi in constraints)
    problem = LearningProblem(db, labels, learnable=db.tuples)
    best_run, used = _best_restart(
        problem,
        seed,
        restarts,
        eps_abs=eps_mse,
        max_outer_iterations=max_outer_iterations,
        threads=threads,
    )
    new_db = db.with_probabilities(best_run.probabilities)
    held = prob_exact(conjunction, new_db.probabilities())
    return ConditionResult(
        db=new_db,
        probabilities=dict(best_run.probabilities),
        constraint_probability=held,
        mse=best_run.best,
        converged=best_run.status == STATUS_ABS,
        restarts_used=used,
        result=best_run,
    )


def _empty_result() -> LearnResult:
    return LearnResult({}, 0.0, ((0, 0.0, 0.0),), STATUS_ABS, 0)


# --- updating and cleaning -------------------------------------------------------


@dataclass
class CleanResult:
    db: ProbabilisticDatabase
    probabilities: dict
    deletions: tuple  # tuples whose updated probability collapsed to ~0
    certain: tuple  # tuples whose updated probability reached ~1
    result: LearnResult


def update_clean(
    db: ProbabilisticDatabase,
    labels: Sequence[Label],
    learnable: Sequence[TupleId] | None = None,
    prior_weight: float = 0.5,
    zero_tol: float = 1e-3,
    one_tol: float = 1e-3,
    cfg: LearnerConfig | None = None,
) -> CleanResult:
    """Revise tuple probabilities against new evidence labels.

    By default every database tuple is revisable and its current probability
    acts as a prior with weight ``1 - prior_weight``, which needs the mse
    objective; tuples pushed to the boundaries are reported as deletions
    (<= zero_tol) or certain (>= 1 - one_tol).
    """
    cfg = cfg or LearnerConfig()
    chosen = frozenset(learnable) if learnable is not None else db.tuples
    prior = {t: db.probability(t) for t in sorted(chosen) if db.has_probability(t)}
    if prior:
        if cfg.objective != "mse":
            raise ValueError("priors require the mse objective")
        labels = prior_augment(labels, prior, prior_weight)
    result = learn(LearningProblem(db, labels, learnable=chosen), cfg)
    probabilities = dict(result.probabilities)
    ordered = sorted(probabilities)
    deletions = tuple(t for t in ordered if probabilities[t] <= zero_tol)
    certain = tuple(t for t in ordered if probabilities[t] >= 1.0 - one_tol)
    return CleanResult(
        db=db.with_probabilities(probabilities),
        probabilities=probabilities,
        deletions=deletions,
        certain=certain,
        result=result,
    )


# --- completing incomplete rows ---------------------------------------------------


@dataclass
class IncompleteReduction:
    db: ProbabilisticDatabase  # choice tuples, all learnable
    program: DeductionProgram  # block rules deriving completed rows
    problem: LearningProblem  # frequency-labeled instance
    result: LearnResult
    completions: tuple  # per incomplete row: {completed args: probability}
    best: tuple  # per incomplete row: most probable completed args


def derive_from_incomplete(
    complete_rows: Sequence[tuple],
    incomplete_rows: Sequence[tuple],
    relation: str = "r",
    anchor: Sequence[int] | None = None,
    cfg: LearnerConfig | None = None,
) -> IncompleteReduction:
    """Complete rows with missing fields from a multiset of full rows.

    ``incomplete_rows`` mark unknown fields with ``None``.  For each such row
    the candidate completions are the full rows agreeing with it on the anchor
    positions (all known positions unless ``anchor`` picks a subset), weighted
    by their multiplicity.  Each candidate becomes a learnable choice tuple;
    block rules make the choices mutually exclusive, and the derived lineage
    of every candidate is labeled with its observed frequency.
    """
    complete_rows = [tuple(r) for r in complete_rows]
    incomplete_rows = [tuple(r) for r in incomplete_rows]
    if not complete_rows:
        raise NoEvidenceError("no complete rows to draw completions from")
    width = len(complete_rows[0])
    for r in complete_rows:
        if len(r) != width or any(v is None for v in r):
            raise ValueError("complete rows must share one width with no gaps")
    choice_rel = relation + "_choice"

    db = ProbabilisticDatabase()
    rules: list = []
    label_specs: list = []  # (row index, completed args, frequency)
    for i, row in enumerate(incomplete_rows):
        if len(row) != width:
            raise ValueError(f"incomplete row {i} has width {len(row)}, not {width}")
        known = [j for j, v in enumerate(row) if v is not None]
        anchors = list(anchor) if anchor is not None else known
        for j in anchors:
            if j not in known:
                raise ValueError(f"anchor position {j} is unknown in row {i}")
        matches = [c for c in complete_rows if all(c[j] == row[j] for j in anchors)]
        if not matches:
            raise NoEvidenceError(
                f"incomplete row {i} matches no complete row on its anchor"
            )
        counts = Counter(
            tuple(row[j] if row[j] is not None else c[j] for j in range(width))
            for c in matches
        )
        total = sum(counts.values())
        candidates = sorted(counts)
        freqs = {args: counts[args] / total for args in candidates}
        # the frequencies must sum to exactly 1; fold any rounding residue
        # into the most frequent candidate (at most one ulp per candidate)
        residue = 1.0 - sum(freqs.values())
        if residue:
            top = max(candidates, key=lambda a: (counts[a], a))
            freqs[top] += residue
        for args in candidates:
            db.add(TupleId(choice_rel, (i,) + args), learnable=True)
        for args in candidates:
            body = [Literal(choice_rel, (i,) + args)]
            for other in candidates:
                if other != args:
                    body.append(Literal(choice_rel, (i,) + other, negated=True))
            rules.append(DeductionRule(Literal(relation, (i,) + args), tuple(body)))
            label_specs.append((i, args, freqs[args]))

    program = DeductionProgram(tuple(rules))
    derived = index_derived(ground(program, db))
    labels = tuple(
        Label(derived[(relation, (i,) + args)].lineage, freq)
        for i, args, freq in label_specs
    )
    problem = LearningProblem(db, labels)
    result = learn(problem, cfg or LearnerConfig())

    completions = tuple({} for _ in incomplete_rows)
    for (i, args, _freq), label in zip(label_specs, labels):
        completions[i][args] = prob_exact(label.formula, result.probabilities)
    return IncompleteReduction(
        db=db,
        program=program,
        problem=problem,
        result=result,
        completions=completions,
        best=tuple(max(sorted(row), key=row.__getitem__) for row in completions),
    )


# --- recovering missing tuples -----------------------------------------------------


@dataclass
class RecoverResult:
    db: ProbabilisticDatabase
    probabilities: dict
    result: LearnResult


def recover_missing(
    db: ProbabilisticDatabase,
    observations: Sequence[LineageFormula],
    cfg: LearnerConfig | None = None,
) -> RecoverResult:
    """Estimate probabilities of suspected-missing tuples from held facts.

    Every observation formula is labeled with target 1; only the database's
    learnable tuples, the suspected-missing ones, are adjusted.
    """
    labels = tuple(Label(phi, 1.0) for phi in observations)
    problem = LearningProblem(db, labels)
    result = learn(problem, cfg or LearnerConfig())
    return RecoverResult(
        db=db.with_probabilities(result.probabilities),
        probabilities=dict(result.probabilities),
        result=result,
    )


# --- satisfiability encoding --------------------------------------------------------


def encode_3sat(clauses: Sequence[tuple], n_vars: int):
    """Encode a CNF as a learning instance over 2*n_vars synthetic tuples.

    Variable i (1-based) gets a tuple pair (#i, #(n_vars+i)); a label per
    variable forces the pair to agree and be deterministic, and a label per
    clause asserts the clause.  All targets are 1, so an assignment satisfies
    the CNF exactly when the corresponding 0/1 probabilities reach zero error.
    Returns (database, labels).
    """
    if n_vars < 1:
        raise ValueError("n_vars must be positive")
    db = ProbabilisticDatabase()
    for i in range(1, 2 * n_vars + 1):
        db.add(TupleId.synthetic(i), learnable=True)
    labels = []
    for i in range(1, n_vars + 1):
        main = Var(TupleId.synthetic(i))
        twin = Var(TupleId.synthetic(n_vars + i))
        labels.append(Label(Or(And(main, twin), And(Not(main), Not(twin))), 1.0))
    for k, clause in enumerate(clauses):
        parts = []
        for lit in clause:
            if lit == 0 or abs(lit) > n_vars:
                raise ValueError(f"clause {k} holds an out-of-range literal {lit}")
            v = Var(TupleId.synthetic(abs(lit)))
            parts.append(v if lit > 0 else Not(v))
        labels.append(Label(Or(*parts), 1.0))
    return db, tuple(labels)


def satisfies(clauses: Sequence[tuple], assignment: Mapping[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


@dataclass
class SatResult:
    assignment: dict  # variable -> bool, rounded from the best run
    satisfied: bool
    mse: float
    restarts_used: int
    result: LearnResult


def solve_3sat(
    clauses: Sequence[tuple],
    n_vars: int,
    restarts: int = 20,
    seed: int = 0,
    max_outer_iterations: int = 10000,
) -> SatResult:
    """Search for a satisfying assignment by minimizing the encoded error.

    A restart stops when the error reaches ``LearnerConfig``'s default
    ``eps_abs`` of 1e-6.
    """
    db, labels = encode_3sat(clauses, n_vars)
    problem = LearningProblem(db, labels)
    best_run, used = _best_restart(
        problem, seed, restarts, max_outer_iterations=max_outer_iterations
    )
    assignment = {
        i: best_run.probabilities[TupleId.synthetic(i)] >= 0.5
        for i in range(1, n_vars + 1)
    }
    return SatResult(
        assignment=assignment,
        satisfied=satisfies(clauses, assignment),
        mse=best_run.best,
        restarts_used=used,
        result=best_run,
    )
