"""Estimating unknown tuple probabilities from labeled lineage formulas.

A labeled instance is a list of (formula, target) pairs over a database in
which some tuples are learnable.  Two objectives are supported:

* ``mse``: the mean squared error ``sum_i w_i (P(phi_i) - target_i)^2`` where
  ``w_i`` defaults to ``1/|labels|`` and can be overridden per label.  A prior
  enters as weighted single-tuple labels: :func:`prior_augment` builds them,
  and ``applications.update_clean`` folds them in.  Minimized.
* ``logical``: the probability of the conjunction that asserts every label
  with target 1.0 and refutes every label with target 0.0.  Targets must be
  exactly Boolean.  Maximized; the optimum of a consistent instance is 1.

The optimizer steps one tuple at a time with one adaptive learning rate per
tuple, in the same pass for both objectives.  Parameters live in logit space
(clamped to +-LOGIT_CAP); a step goes against the exact slope of the
objective in p(t), negated for logical since it is maximized; it is accepted
only if it improves the objective; acceptance doubles the tuple's rate and
rejection halves it.  Rates start at RATE_INIT and stay within
[RATE_MIN, RATE_MAX].  An accepted step that crosses a valley (the slope
changes sign) halves the rate instead, which never happens for logical: its
one conjunction is multilinear, so the slope in p(t) does not depend on p(t).
Variants: ``sgd-single`` shares one rate across all tuples; ``gd`` visits the
tuples in order, drawing nothing from the RNG, and takes all their steps from
one point as a single step with one rate.

Tuples that never co-occur in a label cannot influence each other, so the
tuple-label incidence graph is split into connected components which are
optimized independently.  Each component is one object that compiles, keeps
its state and runs its passes in the process that owns it: the calling
process, and when ``LearnerConfig.threads > 1`` up to ``threads - 1`` forked
workers besides, all of which serve the same requests the same way.  Only
objective parts travel back after each pass, and the learned weights once at
the end.  Components run their passes in lockstep so the trace remains a
global convergence curve; with ``threads=1`` the exact same sequence runs
inline, which makes the single-threaded run the deterministic reference.

Stopping: the run converges when the objective reaches ``eps_abs`` (for mse;
``1 - eps_abs`` for logical), or when a full outer pass improves it by less
than ``eps_rel`` times the current value (for logical: times the remaining
gap).  It also stops when a pass accepts no step in any component and every
rate is at RATE_MIN, since no later pass can change anything: with status
``eps_rel``, or ``max_iterations`` when ``eps_rel`` is 0.  Otherwise it stops
at ``max_outer_iterations`` and reports non-convergence.

The declarative entry points (:func:`mse`, :func:`mse_gradient`,
:func:`logical_objective`) use plain exact inference; :func:`learn` compiles
each shape of label formula once per component and exploits multilinearity -
evaluating the compiled polynomial with p(t) pinned to 0 and 1 yields both
the exact derivative and, as an affine function of the trial value, the new
objective without any further inference.  The compiled forms read a
component's probabilities from one list, indexed by slot: its learnable
tuples first, then the known tuples its formulas mention, in sorted order.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import multiprocessing
import numpy as np

from .database import ProbabilisticDatabase
from .errors import (
    DanglingReferenceError,
    IntractableFormulaError,
    NonBooleanLabelError,
)
from .inference import _compile_shared, _run, derivative, prob_exact
from .lineage import (
    And,
    LineageFormula,
    Not,
    TupleId,
    Var,
    connected_components,
    tuple_set,
)

__all__ = [
    "LOGIT_CAP",
    "logit",
    "expit",
    "Label",
    "LearningProblem",
    "LearnerConfig",
    "LearnResult",
    "STATUS_ABS",
    "STATUS_REL",
    "STATUS_MAX_ITERATIONS",
    "mse",
    "mse_gradient",
    "logical_conjunction",
    "logical_objective",
    "prior_augment",
    "learn",
]

# ln(1e9): probabilities are representable down to ~1e-9 from either boundary
LOGIT_CAP = math.log(1e9)
RATE_INIT = 1.0
RATE_MIN = 1e-12
RATE_MAX = 1e12

STATUS_ABS = "eps_abs"
STATUS_REL = "eps_rel"
STATUS_MAX_ITERATIONS = "max_iterations"

OBJECTIVES = ("mse", "logical")
OPTIMIZERS = ("sgd-per-tuple", "sgd-single", "gd")


def logit(p: float) -> float:
    """Map a probability to its log-odds, clamped to [-LOGIT_CAP, LOGIT_CAP]."""
    if p <= 0.0:
        return -LOGIT_CAP
    if p >= 1.0:
        return LOGIT_CAP
    w = math.log(p / (1.0 - p))
    return min(LOGIT_CAP, max(-LOGIT_CAP, w))


def expit(w: float) -> float:
    """Inverse of :func:`logit`; always lands strictly inside (0, 1)."""
    w = min(LOGIT_CAP, max(-LOGIT_CAP, w))
    return 0.5 * (1.0 + math.tanh(0.5 * w))


@dataclass(frozen=True)
class Label:
    """A lineage formula annotated with a target probability.

    ``weight`` overrides the label's share of the mse objective; ``None``
    means the default 1/|labels|.
    """

    formula: LineageFormula
    target: float
    weight: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.target <= 1.0:
            raise ValueError(f"label target must lie in [0, 1], got {self.target}")
        if self.weight is not None and not 0.0 <= self.weight < math.inf:
            raise ValueError(
                f"label weight must be finite and non-negative, got {self.weight}"
            )


@dataclass(frozen=True)
class LearningProblem:
    db: ProbabilisticDatabase
    labels: tuple
    learnable: frozenset | None = None  # defaults to db.learnable

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.learnable is not None:
            object.__setattr__(self, "learnable", frozenset(self.learnable))


@dataclass(frozen=True)
class LearnerConfig:
    objective: str = "mse"
    optimizer: str = "sgd-per-tuple"
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_outer_iterations: int = 10000
    seed: int = 0
    threads: int = 1
    record_accepted: bool = False

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if not (self.eps_abs >= 0 and self.eps_rel >= 0):
            raise ValueError("tolerances must be non-negative numbers")
        if self.max_outer_iterations < 0:
            raise ValueError("max_outer_iterations must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class LearnResult:
    probabilities: dict  # learnable TupleId -> estimate
    best: float
    trace: tuple  # rows (outer_iteration, objective, elapsed_ms)
    status: str
    iterations: int
    accepted: tuple | None = None  # per-acceptance objective parts, if recorded

    @property
    def converged(self) -> bool:
        return self.status != STATUS_MAX_ITERATIONS


# --- declarative objectives ----------------------------------------------------


def _effective_weights(labels: Sequence[Label]) -> list:
    n = len(labels)
    return [lab.weight if lab.weight is not None else 1.0 / n for lab in labels]


def mse(labels: Sequence[Label], p: Mapping[TupleId, float]) -> float:
    """Weighted mean squared error of the labels under probability map p."""
    if not labels:
        return 0.0
    weights = _effective_weights(labels)
    total = 0.0
    for i, lab in enumerate(labels):
        try:
            residual = prob_exact(lab.formula, p) - lab.target
        except IntractableFormulaError as exc:
            raise IntractableFormulaError(f"label {i}: {exc}") from exc
        total += weights[i] * residual * residual
    return total


def mse_gradient(
    labels: Sequence[Label], p: Mapping[TupleId, float], tuple_id: TupleId
) -> float:
    """Partial derivative of :func:`mse` with respect to p(tuple_id)."""
    if not labels:
        return 0.0
    weights = _effective_weights(labels)
    total = 0.0
    for i, lab in enumerate(labels):
        if tuple_id not in tuple_set(lab.formula):
            continue
        try:
            residual = prob_exact(lab.formula, p) - lab.target
            slope = derivative(lab.formula, tuple_id, p)
        except IntractableFormulaError as exc:
            raise IntractableFormulaError(f"label {i}: {exc}") from exc
        total += weights[i] * 2.0 * residual * slope
    return total


def _asserted(i: int, lab: Label) -> LineageFormula:
    """Label i's formula if its target is 1.0, its negation if it is 0.0."""
    if lab.target == 1.0:
        return lab.formula
    if lab.target == 0.0:
        return Not(lab.formula)
    raise NonBooleanLabelError(
        f"label {i} target {lab.target} is not Boolean; "
        "the logical objective needs targets of exactly 0.0 or 1.0"
    )


def logical_conjunction(labels: Sequence[Label]) -> LineageFormula:
    """The formula asserting all 1.0-labels and refuting all 0.0-labels."""
    return And(*(_asserted(i, lab) for i, lab in enumerate(labels)))


def logical_objective(labels: Sequence[Label], p: Mapping[TupleId, float]) -> float:
    """Probability that every label holds with its Boolean target."""
    return prob_exact(logical_conjunction(labels), p)


def prior_augment(
    labels: Sequence[Label],
    prior: Mapping[TupleId, float],
    prior_weight: float,
) -> tuple:
    """Fold prior probabilities into the mse objective as weighted labels.

    Data labels keep their share scaled by ``prior_weight``; every prior tuple
    contributes a single-event label with weight ``(1-prior_weight)/|prior|``.
    ``prior_weight=1`` reduces to the plain objective, ``prior_weight=0``
    ignores the data entirely.
    """
    if not 0.0 <= prior_weight <= 1.0:
        raise ValueError("prior_weight must lie in [0, 1]")
    weights = _effective_weights(labels) if labels else []
    out = [
        replace(lab, weight=prior_weight * weights[i]) for i, lab in enumerate(labels)
    ]
    ordered = sorted(prior)
    for t in ordered:
        target = prior[t]
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"prior for {t} outside [0, 1]")
        out.append(Label(Var(t), target, (1.0 - prior_weight) / len(ordered)))
    return tuple(out)


# --- component decomposition ---------------------------------------------------


def _label_components(keysets: Sequence[frozenset]) -> list:
    """Group keysets that share a key: (keyset indices, keys) per group.

    Empty keysets join no group.  Groups are ordered by their smallest key.
    """
    grouped = []
    for idxs in connected_components(keysets):
        keys = frozenset().union(*(keysets[i] for i in idxs))
        if keys:
            grouped.append((tuple(idxs), keys))
    grouped.sort(key=lambda group: min(group[1]).sort_key)
    return grouped


def _clamp(w: float) -> float:
    if w > LOGIT_CAP:
        return LOGIT_CAP
    if w < -LOGIT_CAP:
        return -LOGIT_CAP
    return w


def _pin(probs: list, idx: int, lists: tuple) -> tuple:
    """The values of ``lists`` with tuple idx's p pinned to 0, then to 1.

    ``probs`` is the component's probability list and ``lists`` the operation
    lists of the formulas that mention tuple idx, which read it by slot;
    tuple idx is slot idx.  P is multilinear in that p, so the two value
    lists give its value anywhere on that line, and their difference the
    exact partial derivative.
    """
    p_t = probs[idx]
    probs[idx] = 0.0
    lows = _run(lists, probs)
    probs[idx] = 1.0
    highs = _run(lists, probs)
    probs[idx] = p_t
    return lows, highs


def _adapt(rate: float, grow: bool) -> float:
    if grow:
        return min(rate * 2.0, RATE_MAX)
    return max(rate * 0.5, RATE_MIN)


@dataclass
class _Component:
    """A group of labels and the learnable tuples they mention, optimized alone.

    It lives in one process for the whole run: :meth:`start` compiles it
    there, each :meth:`step` runs one pass over the operation lists and the
    probability list it keeps, and :meth:`result` gives back what
    :func:`learn` reads.  Only objective parts travel in between.
    """

    index: int
    tuples: tuple  # learnable tuples optimized here, sorted
    start_p: tuple  # their initial probabilities, aligned with tuples
    formulas: tuple  # label formulas (mse) or the single conjunction (logical)
    label_indices: tuple  # the caller's indices of the labels behind formulas
    targets: tuple  # per label, aligned with label_indices; read by mse only
    label_weights: tuple  # likewise
    fixed: dict  # known probabilities the formulas need, in sorted tuple order
    cfg: LearnerConfig
    rng: np.random.Generator

    def __post_init__(self):
        self.weights = [logit(p) for p in self.start_p]  # logit-space parameters
        per_tuple = self.cfg.optimizer == "sgd-per-tuple"
        self.rates = [RATE_INIT] * (len(self.tuples) if per_tuple else 1)
        self.accepted_log = [] if self.cfg.record_accepted else None
        self.done = False

    def start(self):
        """Compile, then return the initial objective part or the error that stopped it.

        Each shape of formula is decomposed once.  Every tuple the operations
        read is replaced by its slot in the probability list: the learnable
        tuples take slots 0 to n-1 in ``tuples`` order, then the fixed tuples
        follow in sorted order.  The incidence lists, per learnable tuple, the
        formulas that mention it, in order; for logical it is [0] for every
        tuple.  ``touched_ops`` holds, per learnable tuple, those formulas'
        operation lists as one tuple, which ``_pin`` runs in one call.  An
        intractable formula's error names its label, or the labels of the
        logical conjunction; it is returned, not raised, so that the caller
        can report the first component's.  The initial values come
        from the compiled forms, the same polynomials every later pass
        evaluates, with the tuples at ``start_p``.  The passes then read
        expit of each weight from the probability list.
        """
        n = len(self.tuples)
        slot = {t: k for k, t in enumerate((*self.tuples, *self.fixed))}
        compiled: list = []
        incidence: list = [[] for _ in range(n)]
        try:
            for ops, slots in _compile_shared(self.formulas, slot):
                for k in slots:
                    if k < n:
                        incidence[k].append(len(compiled))
                compiled.append(ops)
        except IntractableFormulaError as exc:
            if self.cfg.objective == "logical":
                where = f"labels {list(self.label_indices)}"
            else:
                where = f"label {self.label_indices[len(compiled)]}"
            return IntractableFormulaError(f"{where}: {exc}")
        self.compiled, self.incidence = tuple(compiled), incidence
        self.touched_ops = [tuple([compiled[i] for i in idxs]) for idxs in incidence]
        probs = [*self.start_p, *self.fixed.values()]
        self.label_p = _run(self.compiled, probs)  # P per formula
        self.value = self._part(self.label_p)
        probs[:n] = [expit(w) for w in self.weights]
        self.probs = probs
        return self.value

    def _slope(self, label_p, touched, lows, highs) -> float:
        """d(part)/dp(t) in the descent sense, from the touched formulas pinned.

        The logical part is maximized, so for it this is the negated derivative.
        """
        if self.cfg.objective == "logical":
            return lows[0] - highs[0]
        weights, targets = self.label_weights, self.targets
        grad = 0.0
        for k, i in enumerate(touched):
            grad += weights[i] * 2.0 * (label_p[i] - targets[i]) * (highs[k] - lows[k])
        return grad

    def _trial(self, value: float, label_p, touched, trial_p) -> float:
        """The part once the touched formulas take the values trial_p.

        For mse only the touched terms change, so their change is added to the
        current part; for logical the one conjunction is the part.
        """
        if self.cfg.objective == "logical":
            return trial_p[0]
        weights, targets = self.label_weights, self.targets
        delta = 0.0
        for k, i in enumerate(touched):
            r_new = trial_p[k] - targets[i]
            r_old = label_p[i] - targets[i]
            delta += weights[i] * (r_new * r_new - r_old * r_old)
        return value + delta

    def _part(self, label_p) -> float:
        """The objective part, from the value of every formula."""
        if self.cfg.objective == "logical":
            return label_p[0]
        value = 0.0
        for j, p in enumerate(label_p):
            residual = p - self.targets[j]
            value += self.label_weights[j] * residual * residual
        return value

    def _improves(self, candidate: float, value: float) -> bool:
        """mse is minimized and logical maximized."""
        if self.cfg.objective == "logical":
            return candidate > value
        return candidate < value

    def step(self) -> tuple:
        """One pass over the tuples: the new part, and whether the component is done.

        sgd tries a step per tuple, in a fresh random order.  gd visits the
        tuples in order, drawing nothing from the RNG, collects every tuple's
        step from the same point and tries them all as one step.  The
        probability list holds expit of each weight before and after the
        pass.  A component that is done runs no more passes.
        """
        if self.done:
            return self.value, True
        gd = self.cfg.optimizer == "gd"
        per_tuple = self.cfg.optimizer == "sgd-per-tuple"
        n = len(self.tuples)
        weights, rates, label_p = self.weights, self.rates, self.label_p
        probs, incidence, touched_ops = self.probs, self.incidence, self.touched_ops
        value = self.value
        steps = [0.0] * n
        kept = []  # the part after each accepted step
        order = range(n) if gd else self.rng.permutation(n).tolist()
        for idx in order:
            touched = incidence[idx]
            p_t = probs[idx]
            lows, highs = _pin(probs, idx, touched_ops[idx])
            grad = self._slope(label_p, touched, lows, highs)
            if gd:
                steps[idx] = grad * p_t * (1.0 - p_t)
                continue
            slot = idx if per_tuple else 0
            w_new = _clamp(weights[idx] - rates[slot] * grad * p_t * (1.0 - p_t))
            p_new = expit(w_new)
            trial_p = [low + p_new * (high - low) for low, high in zip(lows, highs)]
            candidate = self._trial(value, label_p, touched, trial_p)
            grow = self._improves(candidate, value)
            if grow:
                weights[idx] = w_new
                probs[idx] = p_new
                for k, i in enumerate(touched):
                    label_p[i] = trial_p[k]
                value = candidate
                kept.append(value)
                # crossed a valley: growing the rate would lock in a reflection
                # cycle around the optimum, so shrink instead
                grow = not (self._slope(label_p, touched, lows, highs) * grad < 0.0)
            rates[slot] = _adapt(rates[slot], grow)
        if gd:
            rate = rates[0]
            w_new = [_clamp(weights[i] - rate * steps[i]) for i in range(n)]
            probs[:n] = [expit(w) for w in w_new]
            trial_p = _run(self.compiled, probs)
            candidate = self._part(trial_p)
            grow = self._improves(candidate, value)
            if grow:
                self.weights = w_new
                self.label_p = trial_p
                value = candidate
                kept.append(value)
            else:
                probs[:n] = [expit(w) for w in weights]
            rates[0] = _adapt(rate, grow)
        self.value = value
        if self.accepted_log is not None:
            self.accepted_log.extend(kept)
        if not kept and max(rates) <= RATE_MIN:
            self.done = True  # no step can change anything anymore
        return value, self.done

    def result(self) -> tuple:
        """The logit-space weights, aligned with ``tuples``, and the accepted parts."""
        return self.weights, self.accepted_log


def _serve(components, method: str) -> dict:
    """Call ``method`` on each component; the replies by component index."""
    return {comp.index: getattr(comp, method)() for comp in components}


# The first slot's components stay in the calling process, which would
# otherwise only wait for the others; each other slot gets a worker process
# that owns its components for the whole run.  A worker starts its components
# unasked, as soon as it is forked, so it compiles while the parent forks the
# next worker and then starts its own; it sends that reply, then serves one
# method name at a time on its pipe, one reply each, until it reads None.
# The processes are first moved to the usable CPUs in turn and then let free:
# left to itself, the kernel was seen to keep newly forked workers on the
# parent's CPU for up to a second while another CPU stayed idle.  Plain
# processes rather than an executor per slot: every executor starts a manager
# thread, and forking the next worker from a threaded process is unsafe.


def _move_to(cpu) -> None:
    """Move this thread to ``cpu``, then let it run on every CPU it could before."""
    if cpu is None:
        return
    usable = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # that CPU is no longer usable: stay put
        return
    os.sched_setaffinity(0, usable)


def _worker_main(conn, components, cpu) -> None:
    _move_to(cpu)
    method = "start"
    while method is not None:
        try:
            reply = (True, _serve(components, method))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        try:
            conn.send(reply)
            method = conn.recv()
        except (EOFError, OSError):  # the parent closed the pipe
            return


class _Workers:
    """The first slot's components here, and a worker process per other slot.

    With one slot, nothing is forked, moved or frozen.
    """

    def __init__(self, slots):
        self.local = slots[0]
        self.conns: list = []
        self.procs: list = []
        if len(slots) == 1:
            return
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = multiprocessing.get_context()
        if hasattr(os, "sched_getaffinity"):
            usable = sorted(os.sched_getaffinity(0))
        else:
            usable = [None]  # cannot tell: nothing is moved
        cpus = [usable[k % len(usable)] for k in range(len(slots))]
        _move_to(cpus[0])
        # forked workers would otherwise run their collections over the heap
        # they inherit, and so copy its pages; a heap the caller froze stays so
        frozen = gc.get_freeze_count()
        gc.freeze()
        try:
            for slot, cpu in zip(slots[1:], cpus[1:]):
                conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main, args=(child_conn, slot, cpu), daemon=True
                )
                proc.start()
                child_conn.close()
                self.conns.append(conn)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            if not frozen:
                gc.unfreeze()

    def _gather(self, out: dict) -> dict:
        """Add one reply from each worker to ``out``; the first error is raised."""
        error = None
        for conn in self.conns:
            ok, result = conn.recv()
            if ok:
                out.update(result)
            elif error is None:
                error = result
        if error is not None:
            raise error
        return out

    def start(self) -> dict:
        """Start the components here and collect each worker's own start."""
        return self._gather(_serve(self.local, "start"))

    def call(self, method: str) -> dict:
        """Call ``method`` on every component; the replies by component index."""
        for conn in self.conns:
            conn.send(method)
        return self._gather(_serve(self.local, method))

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(None)
            except OSError:  # that worker is already gone
                pass
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


# --- the learner -----------------------------------------------------------------


def _validate_problem(labels, learnable, known: frozenset):
    missing = learnable - known
    if missing:
        raise DanglingReferenceError(
            f"learnable tuple(s) not in the database: {sorted(missing)[:3]}"
        )
    for i, lab in enumerate(labels):
        unknown = tuple_set(lab.formula) - known
        if unknown:
            raise DanglingReferenceError(
                f"label {i} references tuple(s) not in the database: "
                f"{sorted(unknown)[:3]}"
            )


def learn(problem: LearningProblem, cfg: LearnerConfig | None = None) -> LearnResult:
    """Estimate probabilities for the problem's learnable tuples."""
    cfg = cfg or LearnerConfig()
    start = time.perf_counter()

    labels = problem.labels
    learnable = frozenset(
        problem.learnable if problem.learnable is not None else problem.db.learnable
    )
    _validate_problem(labels, learnable, problem.db.tuples)

    logical = cfg.objective == "logical"
    if logical:
        asserted = [_asserted(i, lab) for i, lab in enumerate(labels)]
    label_weights = _effective_weights(labels)

    # group labels into independently optimizable components
    keysets = [tuple_set(lab.formula) for lab in labels]
    if not logical:  # a label's own tuple set serves when all of it is learnable
        keysets = [keys if keys <= learnable else keys & learnable for keys in keysets]
    # a label that no key reaches (logical: no tuple, mse: no learnable tuple)
    # is a group of its own, after the others
    grouped = _label_components(keysets)
    grouped += [((i,), keys) for i, keys in enumerate(keysets) if not keys]

    elapsed_ms = lambda: (time.perf_counter() - start) * 1000.0

    # deterministic initialization in sorted tuple order
    seed_seq = np.random.SeedSequence(cfg.seed)
    children = seed_seq.spawn(len(grouped) + 1)
    init_rng = np.random.default_rng(children[0])
    ordered_learnable = sorted(learnable)
    init_p = {}
    for t in ordered_learnable:
        # one logit/expit round trip.  It is not a fixed point: for about one
        # draw in a hundred, expit(logit(p)) is an ulp away from p, so the
        # initial parts, evaluated at start_p, can differ in the last bit from
        # the same parts at expit(w)
        init_p[t] = expit(logit(float(init_rng.random())))

    components: list = []
    fixed_part = 1.0 if logical else 0.0
    for label_indices, keys in grouped:
        comp_labels = [labels[i] for i in label_indices]
        mentioned = frozenset().union(*(tuple_set(lab.formula) for lab in comp_labels))
        tuples = tuple(sorted(keys & learnable))
        if logical:
            formulas = (And(*(asserted[i] for i in label_indices)),)
        else:
            formulas = tuple(lab.formula for lab in comp_labels)
        comp = _Component(
            index=len(components),
            tuples=tuples,
            start_p=tuple(init_p[t] for t in tuples),
            formulas=formulas,
            label_indices=label_indices,
            targets=tuple(lab.target for lab in comp_labels),
            label_weights=tuple(label_weights[i] for i in label_indices),
            fixed={t: problem.db.probability(t) for t in sorted(mentioned - learnable)},
            cfg=cfg,
            rng=np.random.default_rng(children[len(components) + 1]),
        )
        if tuples:
            components.append(comp)
            continue
        # logical keysets keep fixed tuples and keyless labels form groups of
        # their own, so a group may have no learnable tuple: its part is a
        # constant, and it takes no index
        part = comp.start()
        if isinstance(part, IntractableFormulaError):
            raise part
        fixed_part = fixed_part * part if logical else fixed_part + part

    def combine(values) -> float:
        if logical:
            out = fixed_part
            for value in values:
                out *= value
            return out
        return fixed_part + sum(values)

    def satisfied(value: float) -> bool:
        if logical:
            return value >= 1.0 - cfg.eps_abs
        return value <= cfg.eps_abs

    # every component lives in one process for the whole run: this one, or
    # the worker of its slot, which compiles it and runs all of its passes
    n_slots = max(1, min(cfg.threads, len(components)))
    workers = _Workers([components[k::n_slots] for k in range(n_slots)])
    everyone = range(len(components))
    try:
        started = workers.start()
        for index in everyone:
            if isinstance(started[index], IntractableFormulaError):
                raise started[index]

        best = combine(started[index] for index in everyone)
        trace = [(0, best, elapsed_ms())]
        status = STATUS_MAX_ITERATIONS
        iterations = 0

        if satisfied(best) or not components:
            if satisfied(best):
                status = STATUS_ABS
            elif cfg.eps_rel > 0:
                # nothing to optimize: a zero-improvement pass trips the rel criterion
                status = STATUS_REL
        else:
            prev = best
            for outer in range(1, cfg.max_outer_iterations + 1):
                stepped = workers.call("step")
                best = combine(stepped[index][0] for index in everyone)
                iterations = outer
                trace.append((outer, best, elapsed_ms()))
                if satisfied(best):
                    status = STATUS_ABS
                    break
                improvement = (best - prev) if logical else (prev - best)
                scale = (1.0 - prev) if logical else prev
                if improvement < cfg.eps_rel * scale:
                    status = STATUS_REL
                    break
                if all(done for _, done in stepped.values()):
                    # every rate hit the floor with nothing accepted: stalled
                    status = STATUS_REL if cfg.eps_rel > 0 else STATUS_MAX_ITERATIONS
                    break
                prev = best
        final = workers.call("result")
    finally:
        workers.close()

    # in sorted tuple order; tuples in no component keep their initial value
    probabilities = dict(init_p)
    for comp in components:
        for t, w in zip(comp.tuples, final[comp.index][0]):
            probabilities[t] = expit(w)

    accepted = None
    if cfg.record_accepted:
        accepted = tuple(v for index in everyone for v in final[index][1])
    return LearnResult(
        probabilities=probabilities,
        best=best,
        trace=tuple(trace),
        status=status,
        iterations=iterations,
        accepted=accepted,
    )
