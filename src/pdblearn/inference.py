"""Exact marginal probabilities of lineage formulas.

Under tuple independence the marginal of a formula is the total weight of the
possible worlds that satisfy it.  ``prob_bruteforce`` computes that sum by
enumerating worlds (the oracle).  ``prob_exact`` instead applies, recursively:

* ``P(t) = p(t)`` and ``P(!phi) = 1 - P(phi)``;
* independent-and: ``P(phi_1 & ... & phi_n) = prod P(phi_i)`` when the
  conjuncts mention pairwise disjoint tuple sets (children are grouped into
  connected components of the tuple-overlap graph first, so the rule fires on
  the groups);
* independent-or: ``P(phi_1 | ... | phi_n) = 1 - prod (1 - P(phi_i))`` under
  the same side condition;
* disjoint-or: ``P(phi | psi) = P(phi) + P(psi)`` when the disjuncts are
  pairwise inconsistent, detected syntactically: one contains the literal t
  and the other !t at its top conjunction level;
* Shannon expansion ``P(phi) = p(t) P(phi[t:=true]) + (1-p(t)) P(phi[t:=false])``
  when nothing else applies, on the tuple occurring in the most blocked
  sibling subformulas (ties: smallest TupleId).

The decomposition is a d-tree (Olteanu, Huang & Koch, ICDE 2010).  One
routine decides the rules above once per canonical subformula; that memo is
component caching (Sang et al., SAT 2004).  ``MAX_NODES`` bounds the number
of distinct nodes one call decides, and a formula that needs more raises
``IntractableFormulaError`` naming its size and the count, so a hard formula
fails after a bounded amount of work instead of enumerating worlds.
The routine builds one closure per node, the only compiled form of a
formula: ``compile_probability`` returns the root closure, which evaluates
P(phi) from any probability map and computes each node once per call, and
``prob_exact`` compiles and calls it once.  ``derivative`` compiles the two
pinned formulas.

Memoization is call-local on canonical subformulas.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    FormulaTooLargeError,
    IntractableFormulaError,
    MissingProbabilityError,
)
from .lineage import (
    And,
    Constant,
    LineageFormula,
    Not,
    Or,
    TupleId,
    Var,
    connected_components,
    substitute,
    tuple_set,
)

__all__ = [
    "MAX_NODES",
    "prob_bruteforce",
    "prob_exact",
    "derivative",
    "compile_probability",
]

# most distinct decomposition nodes one top-level call builds
MAX_NODES = 4096


# --- possible-worlds enumeration ---------------------------------------------


def _eval_vectorized(phi: LineageFormula, bits: dict) -> np.ndarray:
    if isinstance(phi, Var):
        return bits[phi.tuple_id]
    if isinstance(phi, Constant):
        some = next(iter(bits.values()))
        return np.full(some.shape, phi.value, dtype=bool)
    if isinstance(phi, Not):
        return ~_eval_vectorized(phi.child, bits)
    if isinstance(phi, And):
        return np.logical_and.reduce([_eval_vectorized(c, bits) for c in phi.children])
    return np.logical_or.reduce([_eval_vectorized(c, bits) for c in phi.children])


def prob_bruteforce(
    phi: LineageFormula,
    p: Mapping[TupleId, float],
    cutoff: int = 20,
) -> float:
    """Marginal probability by exhaustive world enumeration.

    Refuses formulas with more than ``cutoff`` tuples.  Serves as the oracle
    that ``prob_exact`` is verified against.
    """
    ordered = sorted(tuple_set(phi))
    n = len(ordered)
    if n > cutoff:
        raise FormulaTooLargeError(
            f"formula has {n} tuples, brute-force cutoff is {cutoff}"
        )
    if n == 0:
        return 1.0 if isinstance(phi, Constant) and phi.value else 0.0
    try:
        probs = [float(p[t]) for t in ordered]
    except KeyError as exc:
        raise MissingProbabilityError(exc.args[0]) from None
    indices = np.arange(1 << n, dtype=np.int64)
    bits = {t: (indices >> i & 1).astype(bool) for i, t in enumerate(ordered)}
    weights = np.ones(1 << n, dtype=np.float64)
    for i, t in enumerate(ordered):
        weights *= np.where(bits[t], probs[i], 1.0 - probs[i])
    satisfied = _eval_vectorized(phi, bits)
    return float(weights[satisfied].sum())


# --- decomposition -------------------------------------------------------------


def _top_literals(phi: LineageFormula) -> dict:
    """Map tuple -> sign for literals at the top conjunction level, else {}."""
    if isinstance(phi, Var):
        return {phi.tuple_id: 1}
    if isinstance(phi, Not) and isinstance(phi.child, Var):
        return {phi.child.tuple_id: -1}
    if isinstance(phi, And):
        out = {}
        for c in phi.children:
            if isinstance(c, Var):
                out[c.tuple_id] = 1
            elif isinstance(c, Not) and isinstance(c.child, Var):
                out[c.child.tuple_id] = -1
        return out
    return {}


def _pairwise_event_disjoint(children: Sequence[LineageFormula]) -> bool:
    literal_maps = [_top_literals(c) for c in children]
    for i in range(len(children)):
        for j in range(i + 1, len(children)):
            a, b = literal_maps[i], literal_maps[j]
            if len(b) < len(a):
                a, b = b, a
            if not any(-sign == b.get(t) for t, sign in a.items()):
                return False
    return True


def _shannon_tuple(children: Sequence[LineageFormula]) -> TupleId:
    counts: dict[TupleId, int] = {}
    for child in children:
        for t in child._tuples:
            counts[t] = counts.get(t, 0) + 1
    top = max(counts.values())
    return min(t for t, c in counts.items() if c == top)


def _decompose(phi: LineageFormula):
    """Compile phi by the rules above into one :class:`_Closures` node each.

    The first pass decides the rule for each canonical subformula once, so a
    subformula reached twice is decomposed once and counts once against
    ``MAX_NODES``, read at each call; needing one node more raises
    IntractableFormulaError.  The second pass builds the closures, children
    first, and routes each one reached from more than one parent through
    ``_Closures.shared``, so that one evaluation computes it once.
    """
    steps: dict = {}  # subformula -> (constructor, argument, subformulas)
    parents: dict = {}
    limit, size = MAX_NODES, len(phi._tuples)

    def plan(phi):
        if phi in parents:
            parents[phi] += 1
            return
        if len(parents) == limit:
            raise IntractableFormulaError(
                f"decomposition of a {size}-tuple formula reached "
                f"{limit} nodes, the MAX_NODES limit of {limit}"
            )
        parents[phi] = 1
        if isinstance(phi, Constant):
            step = (_Closures.const, phi.value, ())
        elif isinstance(phi, Var):
            step = (_Closures.leaf, phi.tuple_id, ())
        elif isinstance(phi, Not):
            step = (_Closures.neg, None, (phi.child,))
        else:
            children = phi.children
            groups = connected_components([c._tuples for c in children])
            if len(groups) > 1:
                op = And if isinstance(phi, And) else Or
                parts = [op(*(children[i] for i in g)) for g in groups]
                make = _Closures.indep_and if op is And else _Closures.indep_or
                step = (make, None, parts)
            elif isinstance(phi, Or) and _pairwise_event_disjoint(children):
                step = (_Closures.disjoint_or, None, children)
            else:
                t = _shannon_tuple(children)
                branches = (substitute(phi, t, True), substitute(phi, t, False))
                step = (_Closures.shannon, t, branches)
        for sub in step[2]:
            plan(sub)
        steps[phi] = step

    try:
        plan(phi)
    except RecursionError:
        raise IntractableFormulaError(
            f"decomposition nested too deep after {len(parents)} nodes"
        ) from None
    nodes: dict = {}
    epoch = [0]  # counts evaluations; a shared node's value is valid for one
    for sub, (make, arg, subs) in steps.items():
        node = make(arg, tuple(map(nodes.__getitem__, subs)))
        nodes[sub] = _Closures.shared(node, epoch) if parents[sub] > 1 else node
    if max(parents.values()) == 1:
        return nodes[phi]
    calls: dict = {}  # longest chain of nested calls one evaluation makes
    for sub, (_, _, subs) in steps.items():
        calls[sub] = max((calls[s] for s in subs), default=0) + 1 + (parents[sub] > 1)
    if calls[phi] > sys.getrecursionlimit() // 2:
        raise IntractableFormulaError(
            f"{len(parents)} nodes nest {calls[phi]} calls deep, past half the "
            "recursion limit"
        )
    return _Closures.root(nodes[phi], epoch)


class _Closures:
    """Nodes as closures that evaluate P from a probability map."""

    @staticmethod
    def const(value, _):
        def fn(p, _v=1.0 if value else 0.0):
            return _v

        return fn

    @staticmethod
    def leaf(t, _):
        def fn(p, _t=t):
            return p[_t]

        return fn

    @staticmethod
    def neg(_, kids):
        def fn(p, _c=kids[0]):
            return 1.0 - _c(p)

        return fn

    @staticmethod
    def indep_and(_, parts):
        def fn(p, _parts=tuple(parts)):
            out = 1.0
            for part in _parts:
                out *= part(p)
            return out

        return fn

    @staticmethod
    def indep_or(_, parts):
        def fn(p, _parts=tuple(parts)):
            out = 1.0
            for part in _parts:
                out *= 1.0 - part(p)
            return 1.0 - out

        return fn

    @staticmethod
    def disjoint_or(_, parts):
        def fn(p, _parts=tuple(parts)):
            out = 0.0
            for part in _parts:
                out += part(p)
            return out

        return fn

    @staticmethod
    def shannon(t, kids):
        def fn(p, _t=t, _hi=kids[0], _lo=kids[1]):
            x = p[_t]
            return x * _hi(p) + (1.0 - x) * _lo(p)

        return fn

    @staticmethod
    def shared(node, epoch):
        cell = [-1, 0.0]  # (evaluation, value)

        def fn(p, _node=node, _cell=cell, _epoch=epoch):
            if _cell[0] != _epoch[0]:
                _cell[1] = _node(p)
                _cell[0] = _epoch[0]
            return _cell[1]

        return fn

    @staticmethod
    def root(node, epoch):
        def fn(p, _node=node, _epoch=epoch):
            _epoch[0] += 1
            return _node(p)

        return fn


def compile_probability(
    phi: LineageFormula,
) -> Callable[[Mapping[TupleId, float]], float]:
    """Compile P(phi) into a closure for repeated evaluation.

    The closure evaluates the multilinear polynomial directly from a
    probability map; missing tuples surface as KeyError.  Because P is
    multilinear, calling the closure with p(t) pinned to 0 and 1 yields the
    exact partial derivative as the difference.  Shared nodes keep the value
    of the current call, so one closure must not run in two threads at once.
    """
    return _decompose(phi)


def prob_exact(phi: LineageFormula, p: Mapping[TupleId, float]) -> float:
    """Exact marginal probability via the decomposition rules above."""
    fn = compile_probability(phi)
    try:
        return float(fn(p))
    except KeyError as exc:
        raise MissingProbabilityError(exc.args[0]) from None


def derivative(
    phi: LineageFormula, tuple_id: TupleId, p: Mapping[TupleId, float]
) -> float:
    """Partial derivative of P(phi) with respect to p(tuple_id).

    P is multilinear, so the derivative is
    ``P(phi[t:=true]) - P(phi[t:=false])``; tuples absent from phi yield 0.
    """
    if tuple_id not in tuple_set(phi):
        return 0.0
    high = prob_exact(substitute(phi, tuple_id, True), p)
    low = prob_exact(substitute(phi, tuple_id, False), p)
    return high - low
