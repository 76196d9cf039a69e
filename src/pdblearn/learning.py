"""Estimating unknown tuple probabilities from labeled lineage formulas.

A labeled instance is a list of (formula, target) pairs over a database in
which some tuples are learnable.  Two objectives are supported:

* ``mse``: the mean squared error ``sum_i w_i (P(phi_i) - target_i)^2`` where
  ``w_i`` defaults to ``1/|labels|`` and can be overridden per label (that is
  how prior terms are folded in: see :func:`prior_augment`).  Minimized.
* ``logical``: the probability of the conjunction that asserts every label
  with target 1.0 and refutes every label with target 0.0.  Targets must be
  exactly Boolean.  Maximized; the optimum of a consistent instance is 1.

The optimizer follows a stochastic gradient scheme with one adaptive learning
rate per tuple: parameters live in logit space (clamped to +-logit_cap), each
step updates a single tuple, a step is accepted only if it improves the
objective, acceptance doubles that tuple's rate and rejection halves it.
Variants: ``sgd-single`` shares one rate across all tuples; ``gd`` updates
every coordinate simultaneously from one gradient evaluation per outer
iteration.

Tuples that never co-occur in a label cannot influence each other, so the
tuple-label incidence graph is split into connected components which are
optimized independently - in parallel worker processes when
``LearnerConfig.threads > 1``.  Components run their passes in lockstep so the
trace remains a global convergence curve; with ``threads=1`` the exact same
sequence runs inline, which makes the single-threaded run the deterministic
reference.

Stopping: the run converges when the objective reaches ``eps_abs`` (for mse;
``1 - eps_abs`` for logical), or when a full outer pass improves it by less
than ``eps_rel`` times the current value (for logical: times the remaining
gap).  Otherwise it stops at ``max_outer_iterations`` and reports
non-convergence.

The declarative entry points (:func:`mse`, :func:`mse_gradient`,
:func:`logical_objective`) use plain exact inference; :func:`learn` compiles
each label formula once and exploits multilinearity - evaluating the compiled
polynomial with p(t) pinned to 0 and 1 yields both the exact derivative and,
as an affine function of the trial value, the new objective without any
further inference.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import multiprocessing
import numpy as np

from .database import ProbabilisticDatabase
from .errors import (
    DanglingReferenceError,
    IntractableFormulaError,
    NonBooleanLabelError,
)
from .inference import InferenceConfig, compile_probability, prob_exact, derivative
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

STATUS_ABS = "eps_abs"
STATUS_REL = "eps_rel"
STATUS_MAX_ITERATIONS = "max_iterations"

OBJECTIVES = ("mse", "logical")
OPTIMIZERS = ("sgd-per-tuple", "sgd-single", "gd")


def logit(p: float, cap: float = LOGIT_CAP) -> float:
    """Map a probability to its log-odds, clamped to [-cap, cap]."""
    if p <= 0.0:
        return -cap
    if p >= 1.0:
        return cap
    w = math.log(p / (1.0 - p))
    return min(cap, max(-cap, w))


def expit(w: float, cap: float = LOGIT_CAP) -> float:
    """Inverse of :func:`logit`; always lands strictly inside (0, 1)."""
    w = min(cap, max(-cap, w))
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
        if self.weight is not None and self.weight < 0.0:
            raise ValueError(f"label weight must be non-negative, got {self.weight}")


@dataclass(frozen=True)
class LearningProblem:
    db: ProbabilisticDatabase
    labels: tuple
    learnable: frozenset | None = None  # defaults to db.learnable
    prior: Mapping | None = None  # TupleId -> prior probability
    prior_weight: float = 1.0  # balance: data weight c, prior weight 1-c

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
    logit_cap: float = LOGIT_CAP
    rate_init: float = 1.0
    rate_min: float = 1e-12
    rate_max: float = 1e12
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    record_accepted: bool = False

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.eps_abs < 0 or self.eps_rel < 0:
            raise ValueError("tolerances must be non-negative")
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


def _check_targets(labels: Sequence[Label]):
    for i, lab in enumerate(labels):
        if not 0.0 <= lab.target <= 1.0:
            raise ValueError(f"label {i} target {lab.target} outside [0, 1]")


def mse(
    labels: Sequence[Label],
    p: Mapping[TupleId, float],
    cfg: InferenceConfig | None = None,
) -> float:
    """Weighted mean squared error of the labels under probability map p."""
    _check_targets(labels)
    if not labels:
        return 0.0
    weights = _effective_weights(labels)
    total = 0.0
    for i, lab in enumerate(labels):
        try:
            residual = prob_exact(lab.formula, p, cfg) - lab.target
        except IntractableFormulaError as exc:
            raise IntractableFormulaError(f"label {i}: {exc}") from exc
        total += weights[i] * residual * residual
    return total


def mse_gradient(
    labels: Sequence[Label],
    p: Mapping[TupleId, float],
    tuple_id: TupleId,
    cfg: InferenceConfig | None = None,
) -> float:
    """Partial derivative of :func:`mse` with respect to p(tuple_id)."""
    _check_targets(labels)
    if not labels:
        return 0.0
    weights = _effective_weights(labels)
    total = 0.0
    for i, lab in enumerate(labels):
        if tuple_id not in tuple_set(lab.formula):
            continue
        try:
            residual = prob_exact(lab.formula, p, cfg) - lab.target
            slope = derivative(lab.formula, tuple_id, p, cfg)
        except IntractableFormulaError as exc:
            raise IntractableFormulaError(f"label {i}: {exc}") from exc
        total += weights[i] * 2.0 * residual * slope
    return total


def logical_conjunction(labels: Sequence[Label]) -> LineageFormula:
    """The formula asserting all 1.0-labels and refuting all 0.0-labels."""
    parts = []
    for i, lab in enumerate(labels):
        if lab.target == 1.0:
            parts.append(lab.formula)
        elif lab.target == 0.0:
            parts.append(Not(lab.formula))
        else:
            raise NonBooleanLabelError(
                f"label {i} target {lab.target} is not Boolean; "
                "the logical objective needs targets of exactly 0.0 or 1.0"
            )
    return And(*parts)


def logical_objective(
    labels: Sequence[Label],
    p: Mapping[TupleId, float],
    cfg: InferenceConfig | None = None,
) -> float:
    """Probability that every label holds with its Boolean target."""
    return prob_exact(logical_conjunction(labels), p, cfg)


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


@dataclass(frozen=True)
class _CompSpec:
    """Static per-component data; handed once to the process that owns it."""

    index: int
    tuples: tuple  # learnable tuples optimized here, sorted
    start_p: tuple  # their initial probabilities, aligned with tuples
    formulas: tuple  # label formulas (mse) or the single conjunction (logical)
    label_indices: tuple  # the caller's indices of the labels behind formulas
    targets: tuple
    label_weights: tuple
    incidence: tuple  # per tuple: indices into formulas; (0,) for logical
    fixed: dict  # known probabilities needed by the formulas
    objective: str
    optimizer: str
    logit_cap: float
    rate_min: float
    rate_max: float
    inference: InferenceConfig


@dataclass
class _CompState:
    """Mutable per-component state; stays in the process that owns it."""

    index: int
    weights: list  # logit-space parameters, aligned with spec.tuples
    rates: list  # one per tuple, or a single shared entry
    rng: np.random.Generator
    value: float = 0.0  # this component's objective part
    label_p: list = field(default_factory=list)  # cached P per formula (mse)
    done: bool = False
    accepted_log: list | None = None


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


def _clamp(w: float, cap: float) -> float:
    if w > cap:
        return cap
    if w < -cap:
        return -cap
    return w


# --- per-pass optimizers --------------------------------------------------------


def _base_pmap(spec: _CompSpec, state: _CompState) -> dict:
    pmap = dict(spec.fixed)
    cap = spec.logit_cap
    for i, t in enumerate(spec.tuples):
        pmap[t] = expit(state.weights[i], cap)
    return pmap


def _pin(pmap: dict, tid: TupleId, compiled, touched) -> tuple:
    """The touched formulas' values with p(tid) pinned to 0, then to 1.

    P is multilinear in p(tid), so the two lists give its value anywhere on
    that line, and their difference the exact partial derivative.
    """
    p_t = pmap[tid]
    pmap[tid] = 0.0
    lows = [compiled[i](pmap) for i in touched]
    pmap[tid] = 1.0
    highs = [compiled[i](pmap) for i in touched]
    pmap[tid] = p_t
    return lows, highs


def _sgd_pass_mse(spec: _CompSpec, state: _CompState, compiled) -> int:
    pmap = _base_pmap(spec, state)
    order = state.rng.permutation(len(spec.tuples))
    single = spec.optimizer == "sgd-single"
    cap = spec.logit_cap
    weights, rates, label_p = state.weights, state.rates, state.label_p
    targets, lweights = spec.targets, spec.label_weights
    value = state.value
    accepted = 0
    for raw in order:
        idx = int(raw)
        touched = spec.incidence[idx]
        tid = spec.tuples[idx]
        p_t = pmap[tid]
        lows, highs = _pin(pmap, tid, compiled, touched)
        grad = 0.0
        for k, i in enumerate(touched):
            grad += lweights[i] * 2.0 * (label_p[i] - targets[i]) * (highs[k] - lows[k])
        rate_slot = 0 if single else idx
        w_new = _clamp(weights[idx] - rates[rate_slot] * grad * p_t * (1.0 - p_t), cap)
        p_new = expit(w_new, cap)
        delta = 0.0
        for k, i in enumerate(touched):
            r_new = lows[k] + p_new * (highs[k] - lows[k]) - targets[i]
            r_old = label_p[i] - targets[i]
            delta += lweights[i] * (r_new * r_new - r_old * r_old)
        candidate = value + delta
        if candidate < value:
            weights[idx] = w_new
            pmap[tid] = p_new
            for k, i in enumerate(touched):
                label_p[i] = lows[k] + p_new * (highs[k] - lows[k])
            value = candidate
            grad_new = 0.0
            for k, i in enumerate(touched):
                grad_new += (
                    lweights[i] * 2.0 * (label_p[i] - targets[i]) * (highs[k] - lows[k])
                )
            if grad_new * grad < 0.0:
                # crossed a valley: growing the rate would lock in a
                # reflection cycle around the optimum, so shrink instead
                rates[rate_slot] = max(rates[rate_slot] * 0.5, spec.rate_min)
            else:
                rates[rate_slot] = min(rates[rate_slot] * 2.0, spec.rate_max)
            accepted += 1
            if state.accepted_log is not None:
                state.accepted_log.append(value)
        else:
            rates[rate_slot] = max(rates[rate_slot] * 0.5, spec.rate_min)
    state.value = value
    return accepted


def _sgd_pass_logical(spec: _CompSpec, state: _CompState, compiled) -> int:
    pmap = _base_pmap(spec, state)
    order = state.rng.permutation(len(spec.tuples))
    single = spec.optimizer == "sgd-single"
    cap = spec.logit_cap
    weights, rates = state.weights, state.rates
    value = state.value
    accepted = 0
    for raw in order:
        idx = int(raw)
        tid = spec.tuples[idx]
        p_t = pmap[tid]
        (low,), (high,) = _pin(pmap, tid, compiled, spec.incidence[idx])
        slope = high - low
        rate_slot = 0 if single else idx
        # ascent: the logical objective is maximized
        w_new = _clamp(weights[idx] + rates[rate_slot] * slope * p_t * (1.0 - p_t), cap)
        p_new = expit(w_new, cap)
        candidate = low + p_new * slope
        if candidate > value:
            weights[idx] = w_new
            pmap[tid] = p_new
            value = candidate
            rates[rate_slot] = min(rates[rate_slot] * 2.0, spec.rate_max)
            accepted += 1
            if state.accepted_log is not None:
                state.accepted_log.append(value)
        else:
            rates[rate_slot] = max(rates[rate_slot] * 0.5, spec.rate_min)
    state.value = value
    return accepted


def _gd_pass(spec: _CompSpec, state: _CompState, compiled) -> int:
    logical = spec.objective == "logical"
    pmap = _base_pmap(spec, state)
    cap = spec.logit_cap
    n = len(spec.tuples)
    gradient = [0.0] * n
    for idx in range(n):
        tid = spec.tuples[idx]
        p_t = pmap[tid]
        touched = spec.incidence[idx]
        lows, highs = _pin(pmap, tid, compiled, touched)
        if logical:
            gradient[idx] = (highs[0] - lows[0]) * p_t * (1.0 - p_t)
        else:
            grad = 0.0
            for k, i in enumerate(touched):
                grad += (
                    spec.label_weights[i]
                    * 2.0
                    * (state.label_p[i] - spec.targets[i])
                    * (highs[k] - lows[k])
                )
            gradient[idx] = grad * p_t * (1.0 - p_t)
    rate = state.rates[0]
    sign = 1.0 if logical else -1.0
    w_new = [_clamp(state.weights[i] + sign * rate * gradient[i], cap) for i in range(n)]
    for i, t in enumerate(spec.tuples):
        pmap[t] = expit(w_new[i], cap)
    if logical:
        candidate = compiled[0](pmap)
        improved = candidate > state.value
        new_label_p = state.label_p
    else:
        new_label_p = [fn(pmap) for fn in compiled]
        candidate = 0.0
        for i, value in enumerate(new_label_p):
            residual = value - spec.targets[i]
            candidate += spec.label_weights[i] * residual * residual
        improved = candidate < state.value
    if improved:
        state.weights = w_new
        state.label_p = new_label_p
        state.value = candidate
        state.rates[0] = min(rate * 2.0, spec.rate_max)
        if state.accepted_log is not None:
            state.accepted_log.append(candidate)
        return 1
    state.rates[0] = max(rate * 0.5, spec.rate_min)
    return 0


def _compile_component(spec: _CompSpec, state: _CompState) -> tuple:
    """Compile the component's formulas and set its initial objective part.

    The initial values come from the compiled closures, the same polynomials
    every later pass evaluates.
    """
    compiled = []
    for j, formula in enumerate(spec.formulas):
        try:
            compiled.append(compile_probability(formula, spec.inference))
        except IntractableFormulaError as exc:
            if spec.objective == "logical":
                where = f"labels {list(spec.label_indices)}"
            else:
                where = f"label {spec.label_indices[j]}"
            raise IntractableFormulaError(f"{where}: {exc}") from exc
    pmap = dict(spec.fixed)
    pmap.update(zip(spec.tuples, spec.start_p))
    if spec.objective == "logical":
        state.value = compiled[0](pmap)
    else:
        state.label_p = [fn(pmap) for fn in compiled]
        value = 0.0
        for j, p in enumerate(state.label_p):
            residual = p - spec.targets[j]
            value += spec.label_weights[j] * residual * residual
        state.value = value
    return tuple(compiled)


def _run_pass(spec: _CompSpec, state: _CompState, compiled) -> None:
    if spec.optimizer == "gd":
        accepted = _gd_pass(spec, state, compiled)
    elif spec.objective == "logical":
        accepted = _sgd_pass_logical(spec, state, compiled)
    else:
        accepted = _sgd_pass_mse(spec, state, compiled)
    if accepted == 0 and max(state.rates) <= spec.rate_min:
        state.done = True  # no step can change anything anymore


class _Resident:
    """The components one process owns, kept there for the whole run.

    Each component is compiled and initialized on its first call and runs
    every pass where it lives; only objective values travel back, and the
    states once at the end.  Compiled closures do not pickle;
    compiling where the component lives serves fork and spawn alike.
    """

    def __init__(self, members):
        self.members = {spec.index: (spec, state) for spec, state in members}
        self.compiled: dict = {}

    def start(self, indices) -> list:
        """Initial objective part per component, or the error that stopped it."""
        out = []
        for index in indices:
            spec, state = self.members[index]
            try:
                self.compiled[index] = _compile_component(spec, state)
            except IntractableFormulaError as exc:
                out.append(exc)
            else:
                out.append(state.value)
        return out

    def step(self, indices) -> list:
        """One pass per component: its new objective part and whether it is done."""
        out = []
        for index in indices:
            spec, state = self.members[index]
            _run_pass(spec, state, self.compiled[index])
            out.append((state.value, state.done))
        return out

    def states(self, indices) -> list:
        return [self.members[index][1] for index in indices]


# Worker processes: one per slot, owning that slot's components for the whole
# run and serving (method, indices) requests on a pipe until it reads None.
# Plain processes rather than an executor per slot: every executor starts a
# manager thread, and forking the next worker from a threaded process is
# unsafe.


def _worker_main(conn, members) -> None:
    resident = _Resident(members)
    while True:
        request = conn.recv()
        if request is None:
            return
        method, indices = request
        try:
            reply = (True, getattr(resident, method)(indices))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        conn.send(reply)


class _Workers:
    """One worker process per slot, each owning that slot's components."""

    def __init__(self, slots, members):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = multiprocessing.get_context()
        self.slots = slots
        self.conns: list = []
        self.procs: list = []
        # forked workers would otherwise run their collections over the heap
        # they inherit, and so copy its pages
        gc.freeze()
        try:
            for slot in slots:
                conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    args=(child_conn, [members[i] for i in slot]),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(conn)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            gc.unfreeze()

    def call(self, method: str, wanted) -> dict:
        """Run ``method`` on every wanted component; results by component index."""
        jobs = [[i for i in slot if wanted[i]] for slot in self.slots]
        for conn, ids in zip(self.conns, jobs):
            if ids:
                conn.send((method, ids))
        out: dict = {}
        error = None
        for conn, ids in zip(self.conns, jobs):
            if ids:
                ok, result = conn.recv()
                if ok:
                    out.update(zip(ids, result))
                elif error is None:
                    error = result
        if error is not None:
            raise error
        return out

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
    _check_targets(labels)
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

    labels = list(problem.labels)
    learnable = frozenset(
        problem.learnable if problem.learnable is not None else problem.db.learnable
    )
    known = problem.db.tuples
    _validate_problem(labels, learnable, known)

    if problem.prior is not None:
        if cfg.objective != "mse":
            raise ValueError("priors require the mse objective")
        n_data = len(labels)
        labels = list(prior_augment(labels, problem.prior, problem.prior_weight))
        for lab in labels[n_data:]:
            unknown = tuple_set(lab.formula) - known
            if unknown:
                raise DanglingReferenceError(
                    f"prior references tuple(s) not in the database: {sorted(unknown)[:3]}"
                )

    logical = cfg.objective == "logical"
    if logical:
        logical_conjunction(labels)  # validates Boolean targets
    label_weights = _effective_weights(labels)

    # probabilities of every non-learnable tuple any label mentions
    fixed: dict = {}
    for lab in labels:
        for t in tuple_set(lab.formula):
            if t not in learnable and t not in fixed:
                fixed[t] = problem.db.probability(t)

    # group labels into independently optimizable components
    if logical:
        keysets = [frozenset(tuple_set(lab.formula)) for lab in labels]
    else:
        keysets = [frozenset(tuple_set(lab.formula) & learnable) for lab in labels]
    grouped = _label_components(keysets)

    elapsed_ms = lambda: (time.perf_counter() - start) * 1000.0

    # deterministic initialization in sorted tuple order
    seed_seq = np.random.SeedSequence(cfg.seed)
    children = seed_seq.spawn(len(grouped) + 1)
    init_rng = np.random.default_rng(children[0])
    ordered_learnable = sorted(learnable)
    init_p = {}
    for t in ordered_learnable:
        # round-trip once so cached values match exactly what expit(w) yields
        init_p[t] = expit(logit(float(init_rng.random()), cfg.logit_cap), cfg.logit_cap)

    specs: list = []
    states: list = []
    fixed_part = 1.0 if logical else 0.0
    for label_indices, key_tuples in grouped:
        comp_learnable = tuple(sorted(key_tuples & learnable))
        comp_labels = [labels[i] for i in label_indices]
        # fixed probabilities for every tuple the component's formulas mention
        comp_tuples: set = set()
        for lab in comp_labels:
            comp_tuples |= tuple_set(lab.formula)
        comp_fixed = {t: fixed[t] for t in comp_tuples if t in fixed}
        if logical:
            conjunction = logical_conjunction(comp_labels)
            if not comp_learnable:
                try:
                    fixed_part *= prob_exact(conjunction, comp_fixed, cfg.inference)
                except IntractableFormulaError as exc:
                    raise IntractableFormulaError(
                        f"labels {list(label_indices)}: {exc}"
                    ) from exc
                continue
            formulas = (conjunction,)
            targets = ()
            weights = ()
            incidence = ((0,),) * len(comp_learnable)
        else:
            if not comp_learnable:
                # cannot happen for mse keysets (they are learnable-only)
                continue
            formulas = tuple(lab.formula for lab in comp_labels)
            targets = tuple(lab.target for lab in comp_labels)
            weights = tuple(label_weights[i] for i in label_indices)
            tuple_pos = {t: k for k, t in enumerate(comp_learnable)}
            incidence_lists: list = [[] for _ in comp_learnable]
            for j, formula in enumerate(formulas):
                for t in tuple_set(formula):
                    pos = tuple_pos.get(t)
                    if pos is not None:
                        incidence_lists[pos].append(j)
            incidence = tuple(tuple(lst) for lst in incidence_lists)
        index = len(specs)
        spec = _CompSpec(
            index=index,
            tuples=comp_learnable,
            start_p=tuple(init_p[t] for t in comp_learnable),
            formulas=formulas,
            label_indices=label_indices,
            targets=targets,
            label_weights=weights,
            incidence=incidence,
            fixed=comp_fixed,
            objective=cfg.objective,
            optimizer=cfg.optimizer,
            logit_cap=cfg.logit_cap,
            rate_min=cfg.rate_min,
            rate_max=cfg.rate_max,
            inference=cfg.inference,
        )
        n_rates = 1 if cfg.optimizer in ("sgd-single", "gd") else len(comp_learnable)
        state = _CompState(
            index=index,
            weights=[logit(init_p[t], cfg.logit_cap) for t in comp_learnable],
            rates=[cfg.rate_init] * n_rates,
            rng=np.random.default_rng(children[index + 1]),
            accepted_log=[] if cfg.record_accepted else None,
        )
        specs.append(spec)
        states.append(state)

    # labels in no component (mse: no learnable tuples) are a constant part
    if not logical:
        for i, lab in enumerate(labels):
            if keysets[i]:
                continue
            value = prob_exact(lab.formula, fixed, cfg.inference)
            residual = value - lab.target
            fixed_part += label_weights[i] * residual * residual

    values: list = []
    done: list = [False] * len(specs)

    def combine() -> float:
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

    # every component lives in one place for the whole run: in this process,
    # or in the worker of its slot, which compiles it, initializes it and
    # runs all of its passes
    n_slots = max(1, min(cfg.threads, len(specs)))
    slots = [list(range(k, len(specs), n_slots)) for k in range(n_slots)]
    members = list(zip(specs, states))
    if len(slots) > 1:
        workers = _Workers(slots, members)
        call = workers.call
    else:
        workers = None
        resident = _Resident(members)

        def call(method: str, wanted) -> dict:
            ids = [i for i, w in enumerate(wanted) if w]
            return dict(zip(ids, getattr(resident, method)(ids)))

    try:
        everyone = [True] * len(specs)
        started = call("start", everyone)
        for index in range(len(specs)):
            if isinstance(started[index], IntractableFormulaError):
                raise started[index]
            values.append(started[index])

        best = combine()
        trace = [(0, best, elapsed_ms())]
        status = STATUS_MAX_ITERATIONS
        iterations = 0

        if satisfied(best) or not specs:
            if satisfied(best):
                status = STATUS_ABS
            elif cfg.eps_rel > 0:
                # nothing to optimize: a zero-improvement pass trips the rel criterion
                status = STATUS_REL
        else:
            prev = best
            for outer in range(1, cfg.max_outer_iterations + 1):
                stepped = call("step", [not d for d in done])
                for index, (value, finished) in stepped.items():
                    values[index] = value
                    done[index] = finished
                best = combine()
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
                if all(done):
                    # every rate hit the floor with nothing accepted: stalled
                    status = STATUS_REL if cfg.eps_rel > 0 else STATUS_MAX_ITERATIONS
                    break
                prev = best
        final = call("states", everyone)
        states = [final[index] for index in range(len(specs))]
    finally:
        if workers is not None:
            workers.close()

    probabilities = {}
    by_tuple = {}
    for spec, state in zip(specs, states):
        for i, t in enumerate(spec.tuples):
            by_tuple[t] = expit(state.weights[i], cfg.logit_cap)
    for t in ordered_learnable:
        probabilities[t] = by_tuple.get(t, init_p[t])

    accepted = None
    if cfg.record_accepted:
        accepted = tuple(v for state in states for v in state.accepted_log or ())
    return LearnResult(
        probabilities=probabilities,
        best=best,
        trace=tuple(trace),
        status=status,
        iterations=iterations,
        accepted=accepted,
    )
