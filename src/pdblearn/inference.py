"""Exact marginal probabilities of lineage formulas.

Under tuple independence the marginal of a formula is the total weight of the
possible worlds that satisfy it.  ``prob_bruteforce`` computes that sum by
enumerating worlds (the oracle), all at once as the bits of Python ints.
``prob_exact`` instead applies, recursively:

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
The routine emits one operation per node, children first, into a flat list,
the only compiled form of a formula (a circuit, as in Darwiche, JACM 2003).
A conjunction or disjunction of independent literals, each a tuple or its
negation, is one literal operation that reads the literals' probabilities
straight from the map.  ``compile_probability`` returns a callable that runs
the list once over a probability map, computing each node once in one loop,
and ``prob_exact`` compiles and calls it once.  ``derivative`` compiles the
two pinned formulas.

Memoization is call-local on canonical subformulas.  Across formulas,
``_compile_shared`` decomposes each shape once, the same caching applied
across labels: formulas that are equal up to a renaming of their tuples that
keeps the tuples' order have equal shape keys (``_shape``) and decompose into
the same operations up to that renaming.  Each formula takes those
operations with its own tuples mapped in, written as slots of a probability
list, which ``_run`` indexes as it would index a map.  The learner compiles
its components this way.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    _worlds,
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


def prob_bruteforce(
    phi: LineageFormula,
    p: Mapping[TupleId, float],
    cutoff: int = 20,
) -> float:
    """Marginal probability by exhaustive world enumeration.

    Refuses formulas with more than ``cutoff`` tuples.  Serves as the oracle
    that ``prob_exact`` is verified against, and shares none of its rules.
    Tuple i of the n sorted tuples takes mask i of ``_world_masks(n)``;
    ``lineage._worlds`` finds the satisfying worlds as the bits of one int,
    and ``_world_weight`` sums their weights.
    """
    ordered = sorted(tuple_set(phi))
    n = len(ordered)
    if n > cutoff:
        raise FormulaTooLargeError(
            f"formula has {n} tuples, brute-force cutoff is {cutoff}"
        )
    try:
        probs = [float(p[t]) for t in ordered]
    except KeyError as exc:
        raise MissingProbabilityError(exc.args[0]) from None
    masks = dict(zip(ordered, _world_masks(n)))
    fulls = [(1 << (1 << m)) - 1 for m in range(n + 1)]
    return _world_weight(_worlds(phi, masks, fulls[n]), probs, fulls, n)


def _world_masks(n: int) -> list:
    """The 2**n worlds as one mask per variable i: bit w is set when w has bit i set."""
    size = 1 << n
    masks = []
    for i in range(n):
        half = 1 << i  # a period: 2**i worlds without variable i, then 2**i with it
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _world_weight(bits: int, probs: list, fulls: list, n: int) -> float:
    """Total weight of the worlds set in ``bits``, worlds over the first n tuples.

    Splits on tuple n - 1: the low half of the bits are the worlds without
    it, the high half those with it.
    """
    if not bits:
        return 0.0
    if bits == fulls[n]:
        return 1.0
    n -= 1
    p = probs[n]
    low = _world_weight(bits & fulls[n], probs, fulls, n)
    return (1.0 - p) * low + p * _world_weight(bits >> (1 << n), probs, fulls, n)


# --- decomposition -------------------------------------------------------------


def _top_literals(phi: LineageFormula) -> dict:
    """Map tuple -> sign for literals at the top conjunction level, else {}."""
    out = {}
    for c in phi.children if isinstance(phi, And) else (phi,):
        if isinstance(c, Var):
            out[c.tuple_id] = 1
        elif isinstance(c, Not) and isinstance(c.child, Var):
            out[c.child.tuple_id] = -1
    return out


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


# operation codes; each operation is (code, tuple or constant, child indices),
# except that a literal operation is (code, positive tuples, negated tuples)
_CONST, _LEAF, _NEG, _AND, _OR, _DISJOINT, _SHANNON, _LITAND, _LITOR = range(9)
_ON_TUPLES = (_LEAF, _SHANNON)  # the codes whose argument is a tuple


def _decompose(phi: LineageFormula) -> tuple:
    """Compile phi by the rules above into a post-order tuple of operations.

    Each distinct canonical subformula is decided once and becomes one
    operation ``(code, argument, children)``: the argument is a TupleId or a
    constant, and the children are the indices of earlier operations.  A
    conjunction or disjunction whose children are independent literals
    becomes ``(_LITAND or _LITOR, positive tuples, negated tuples)``:
    ``_LITAND`` multiplies ``p[t]``, then ``1.0 - p[t]``, and ``_LITOR``
    multiplies ``1.0 - p[t]``, then ``1.0 - (1.0 - p[t])``, and takes one
    minus the product.  Those are the IEEE operations of the node over leaf
    and negation operations, in canonical order, which puts every tuple ahead
    of every negation, so the values are bit-identical.  The product's
    literals, and the tuple under each negation, still count as nodes, and a
    leaf gets an operation only when another kind of node reaches it.  A
    subformula reached twice counts once against ``MAX_NODES``, read at each
    call; needing one node more raises IntractableFormulaError.  The root is
    the last operation.
    """
    ops: list = []
    index: dict = {}  # subformula -> its operation; None: counted, none yet
    limit, size = MAX_NODES, len(phi._tuples)

    def count(phi):
        if len(index) == limit:
            raise IntractableFormulaError(
                f"decomposition of a {size}-tuple formula reached "
                f"{limit} nodes, the MAX_NODES limit of {limit}"
            )
        index[phi] = None

    def plan(phi):
        at = index.get(phi)
        if at is not None:
            return at
        if phi not in index:
            count(phi)
        if isinstance(phi, Constant):
            code, arg, subs = _CONST, 1.0 if phi.value else 0.0, ()
        elif isinstance(phi, Var):
            code, arg, subs = _LEAF, phi.tuple_id, ()
        elif isinstance(phi, Not):
            code, arg, subs = _NEG, None, (phi.child,)
        else:
            children = phi.children
            groups = connected_components([c._tuples for c in children])
            lits = [c.child if c.__class__ is Not else c for c in children]
            if len(groups) == len(lits) and all(x.__class__ is Var for x in lits):
                pos, neg = [], []
                for c, x in zip(children, lits):
                    for node in (c, x):  # x is c unless c negates it
                        if node not in index:
                            count(node)
                    (pos if c is x else neg).append(x.tuple_id)
                code = _LITAND if isinstance(phi, And) else _LITOR
                at = index[phi] = len(ops)
                ops.append((code, tuple(pos), tuple(neg)))
                return at
            if len(groups) > 1:
                op, code = (And, _AND) if isinstance(phi, And) else (Or, _OR)
                arg, subs = None, [op(*(children[i] for i in g)) for g in groups]
            elif isinstance(phi, Or) and _pairwise_event_disjoint(children):
                code, arg, subs = _DISJOINT, None, children
            else:
                t = _shannon_tuple(children)
                code, arg = _SHANNON, t
                subs = (substitute(phi, t, True), substitute(phi, t, False))
        kids = []
        for sub in subs:
            kids.append(plan(sub))
        at = index[phi] = len(ops)
        ops.append((code, arg, tuple(kids)))
        return at

    try:
        plan(phi)
    except RecursionError:
        raise IntractableFormulaError(
            f"decomposition nested too deep after {len(index)} nodes"
        ) from None
    return tuple(ops)


_SORT_KEY = attrgetter("sort_key")


def _shape(phi: LineageFormula) -> tuple:
    """phi's shape key and its tuples in sorted order.

    The key is phi's canonical form, in pre-order, with each tuple replaced
    by its rank among phi's sorted tuples: a leaf is its rank, a negation -1,
    a conjunction or disjunction -2 or -3 then its arity, and a constant its
    ``_skey``.  Renaming by rank keeps every ``_skey`` comparison and every
    ``_shannon_tuple`` tie-break, and ``connected_components`` orders groups
    by index, so formulas with equal keys decompose into the same operations
    up to that renaming.
    """
    ordered = sorted(phi._tuples, key=_SORT_KEY)
    rank = {t.sort_key: r for r, t in enumerate(ordered)}
    key = []
    stack = [phi]
    while stack:
        f = stack.pop()
        kind = f.__class__
        if kind is Var:
            key.append(rank[f.tuple_id.sort_key])
        elif kind is Not:
            key.append(-1)
            stack.append(f.child)
        elif kind is Constant:
            key.append(f._skey)
        else:
            key += (-f._kind, len(f.children))
            stack += f.children
    return tuple(key), ordered


def _relabel(ops: tuple, new) -> tuple:
    """ops with each tuple t that an operation reads replaced by new[t]."""
    get = new.__getitem__
    out = []
    for op in ops:
        code = op[0]
        if code in _ON_TUPLES:
            op = (code, new[op[1]], op[2])
        elif code == _LITAND or code == _LITOR:
            op = (code, tuple(map(get, op[1])), tuple(map(get, op[2])))
        out.append(op)
    return tuple(out)


def _compile_shared(
    formulas: Iterable[LineageFormula], slot: Mapping[TupleId, int]
) -> Iterator[tuple]:
    """Each formula's operations and its tuples' slots; one decomposition per shape.

    The first formula of a shape key is decomposed; every later one takes
    those operations with its own tuples mapped in by rank.  In the lists
    yielded, a leaf or Shannon node on tuple t holds ``slot[t]``, and a
    literal operation the slots of its positive and of its negated tuples,
    so ``_run`` reads them from a list indexed by slot.  The slots come in
    sorted tuple order and cover every tuple of the formula, also one that
    no operation reads.  An intractable formula raises when it is reached,
    after the pairs of the formulas before it.
    """
    shapes: dict = {}  # shape key -> operations whose tuples are ranks
    for phi in formulas:
        key, ordered = _shape(phi)
        ops = shapes.get(key)
        if ops is None:
            rank = {t: r for r, t in enumerate(ordered)}
            ops = shapes[key] = _relabel(_decompose(phi), rank)
        slots = [slot[t] for t in ordered]
        yield _relabel(ops, slots), slots


def _run(lists: tuple, p) -> list:
    """P of each compiled formula in ``lists`` under ``p``, in order.

    Each formula's operations are computed once, children first.  ``p`` is
    indexed by the tuples the operations read: a map keyed by tuple, or a
    list keyed by slot for the operations of ``_compile_shared``.  A literal
    operation reads its tuples' probabilities from ``p`` itself, so it needs
    no leaf operations.
    """
    values = []
    for ops in lists:
        vals: list = []
        for code, arg, kids in ops:  # the most frequent codes are tested first
            if code == _LEAF:
                out = p[arg]
            elif code == _SHANNON:
                x = p[arg]
                out = x * vals[kids[0]] + (1.0 - x) * vals[kids[1]]
            elif code == _LITAND:  # arg and kids: positive and negated tuples
                out = 1.0
                for t in arg:
                    out *= p[t]
                for t in kids:
                    out *= 1.0 - p[t]
            elif code == _OR:
                out = 1.0
                for k in kids:
                    out *= 1.0 - vals[k]
                out = 1.0 - out
            elif code == _AND:
                out = 1.0
                for k in kids:
                    out *= vals[k]
            elif code == _LITOR:
                out = 1.0
                for t in arg:
                    out *= 1.0 - p[t]
                for t in kids:
                    out *= 1.0 - (1.0 - p[t])
                out = 1.0 - out
            elif code == _DISJOINT:
                out = 0.0
                for k in kids:
                    out += vals[k]
            elif code == _NEG:
                out = 1.0 - vals[kids[0]]
            else:
                out = arg
            vals.append(out)
        values.append(out)  # the root's value: it is the last operation
    return values


def _value(ops: tuple, p) -> float:
    """P of one compiled formula under ``p``."""
    return _run((ops,), p)[0]


def compile_probability(
    phi: LineageFormula,
) -> Callable[[Mapping[TupleId, float]], float]:
    """Compile P(phi) into a callable for repeated evaluation.

    The callable runs phi's operation list over a probability map, computing
    each distinct node once per call; missing tuples surface as KeyError.
    Because P is multilinear, calling it with p(t) pinned to 0 and 1 yields
    the exact partial derivative as the difference.  It keeps no state
    between calls and pickles.
    """
    return partial(_value, _decompose(phi))


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
