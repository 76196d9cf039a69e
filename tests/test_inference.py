"""Exact marginal computation, derivatives, and compiled closures."""

import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdblearn import (
    And,
    FALSE,
    FormulaTooLargeError,
    IntractableFormulaError,
    MissingProbabilityError,
    Not,
    Or,
    TRUE,
    Var,
    compile_probability,
    derivative,
    encode_3sat,
    evaluate,
    logical_conjunction,
    prob_bruteforce,
    prob_exact,
    random_3sat,
    satisfies,
    substitute,
    tuple_set,
)
from pdblearn import inference
from pdblearn.lineage import Constant, connected_components

from conftest import build_formula, random_pmap, recipes, tid


def v(i):
    return Var(tid(i))


def shared_pair():
    """Two conjunctions overlapping on t(8): needs one Shannon expansion."""
    phi = Or(And(v(1), v(5), v(8)), And(v(2), v(6), v(8)))
    p = {tid(1): 0.6, tid(2): 0.3, tid(5): 0.5, tid(6): 0.6, tid(8): 0.8}
    return phi, p


class TestBruteForce:
    def test_disjunction_matches_inclusion_exclusion(self):
        a, b = 0.37, 0.81
        got = prob_bruteforce(Or(v(1), v(2)), {tid(1): a, tid(2): b})
        want = a * b + a * (1 - b) + (1 - a) * b
        assert got == pytest.approx(want, abs=1e-15)

    def test_false_has_probability_zero(self):
        assert prob_bruteforce(FALSE, {}) == 0.0
        assert prob_bruteforce(TRUE, {}) == 1.0

    def test_shared_tuple_disjunction_golden(self):
        phi, p = shared_pair()
        assert prob_bruteforce(phi, p) == pytest.approx(0.3408, abs=1e-12)

    def test_cutoff_is_enforced(self):
        wide = Or(*[v(i) for i in range(21)])
        with pytest.raises(FormulaTooLargeError):
            prob_bruteforce(wide, {tid(i): 0.5 for i in range(21)}, cutoff=20)
        assert prob_bruteforce(
            wide, {tid(i): 0.5 for i in range(21)}, cutoff=21
        ) == pytest.approx(1 - 0.5**21, abs=1e-12)

    def test_missing_probability_names_the_tuple(self):
        with pytest.raises(MissingProbabilityError) as err:
            prob_bruteforce(And(v(1), v(2)), {tid(1): 0.5})
        assert "t(2)" in str(err.value)


class TestPossibleWorlds:
    """The worlds the oracle enumerates, each read back as a full conjunction."""

    def test_enumerates_every_subset_once_with_normalized_weights(self):
        ids = [1, 2, 3]
        p = {tid(1): 0.2, tid(2): 0.5, tid(3): 0.9}
        weights = []
        for mask in range(8):
            world = And(*(v(i) if mask >> k & 1 else Not(v(i)) for k, i in enumerate(ids)))
            weights.append(prob_bruteforce(world, p))
        assert min(weights) > 0.0
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_world_weight_is_product_form(self):
        p = {tid(1): 0.2, tid(2): 0.5}
        absent = prob_bruteforce(And(Not(v(1)), Not(v(2))), p)
        assert absent == pytest.approx(0.8 * 0.5, abs=1e-15)
        one = prob_bruteforce(And(v(1), Not(v(2))), p)
        assert one == pytest.approx(0.2 * 0.5, abs=1e-15)
        assert prob_bruteforce(And(v(1), v(2)), p) == pytest.approx(0.2 * 0.5, abs=1e-15)


class TestExact:
    def test_shared_tuple_disjunction_golden(self):
        phi, p = shared_pair()
        assert prob_exact(phi, p) == pytest.approx(0.3408, abs=1e-12)

    def test_single_tuple_returns_its_probability(self):
        assert prob_exact(v(3), {tid(3): 0.6}) == 0.6

    def test_negated_conjunction(self):
        got = prob_exact(Not(And(v(1), v(2))), {tid(1): 0.5, tid(2): 0.5})
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_golden_needs_no_brute_force(self, monkeypatch):
        # one Shannon expansion on t(8), then independence: the root, the
        # high branch, its two conjunctions, their four tuples and FALSE
        phi, p = shared_pair()
        monkeypatch.setattr(inference, "MAX_NODES", 9)
        assert prob_exact(phi, p) == pytest.approx(0.3408, abs=1e-12)

    def test_intractable_formula_raises(self, monkeypatch):
        phi, p = shared_pair()
        monkeypatch.setattr(inference, "MAX_NODES", 8)
        with pytest.raises(IntractableFormulaError) as err:
            prob_exact(phi, p)
        assert "reached 8 nodes" in str(err.value)
        assert "MAX_NODES limit of 8" in str(err.value)

    def test_budget_error_names_the_formula_size(self, monkeypatch):
        # the node that does not fit is a constant left by substitution; the
        # message names the formula being compiled instead
        chain = Or(*(And(v(i), v(i + 1)) for i in range(10, 21)))
        monkeypatch.setattr(inference, "MAX_NODES", 4)
        with pytest.raises(IntractableFormulaError) as err:
            compile_probability(chain)
        assert str(err.value) == (
            "decomposition of a 12-tuple formula reached 4 nodes, "
            "the MAX_NODES limit of 4"
        )

    def test_conjunction_of_more_than_twenty_tuples_is_exact(self):
        # 24 tuples, past what world enumeration takes by default; at p = 1/2
        # every world weighs 2^-24, so P is #SAT / 2^24 exactly
        cnf = random_3sat(12, 40, seed=1)
        _, labels = encode_3sat(cnf, 12)
        phi = logical_conjunction(labels)
        assert len(tuple_set(phi)) == 24
        models = sum(
            satisfies(cnf, {v: bool(mask >> (v - 1) & 1) for v in range(1, 13)})
            for mask in range(1 << 12)
        )
        assert models == 29
        half = {t: 0.5 for t in tuple_set(phi)}
        assert prob_exact(phi, half) == models / 2**24

    def test_shared_nodes_are_computed_once_per_evaluation(self):
        # the chain t0&t1 | t1&t2 | ... decomposes into 232 nodes, but its
        # DAG has about 10^8 paths from the root
        n = 60
        lookups = []

        class CountingMap(dict):
            def __getitem__(self, t):
                lookups.append(t)
                assert len(lookups) <= 1000, "a shared node was computed twice"
                return dict.__getitem__(self, t)

        p = CountingMap({tid(i): 0.5 for i in range(n)})
        # Fib(n + 2) of the 2^n worlds have no two adjacent tuples present
        fib = (1, 1)
        for _ in range(n):
            fib = (fib[1], fib[0] + fib[1])
        got = prob_exact(Or(*[And(v(i), v(i + 1)) for i in range(n - 1)]), p)
        assert got == pytest.approx(1.0 - fib[1] / 2**n, abs=1e-12)

    def test_a_deep_chain_evaluates_under_a_low_recursion_limit(self):
        # 340 frames above this one: planning fits the 200-tuple chain, and
        # evaluation runs the operation list in one loop, without recursing
        n = 200
        chain = Or(*[And(v(i), v(i + 1)) for i in range(n - 1)])
        fib = (1, 1)
        for _ in range(n):
            fib = (fib[1], fib[0] + fib[1])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 340)
        try:
            got = prob_exact(chain, {tid(i): 0.5 for i in range(n)})
        finally:
            sys.setrecursionlimit(limit)
        assert got == pytest.approx(1.0 - fib[1] / 2**n, abs=1e-12)

    @pytest.mark.parametrize("n, message", [(600, "too deep")])
    def test_too_deep_a_decomposition_raises(self, n, message):
        # 340 frames above this one: planning the 600-tuple chain nests
        # deeper than the limit
        chain = Or(*[And(v(i), v(i + 1)) for i in range(n - 1)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 340)
        try:
            with pytest.raises(IntractableFormulaError) as err:
                compile_probability(chain)
        finally:
            sys.setrecursionlimit(limit)
        assert message in str(err.value)

    def test_contradictory_conjunction_is_zero(self):
        assert prob_exact(And(v(1), Not(v(1))), {tid(1): 0.4}) == 0.0
        assert prob_exact(Or(v(1), Not(v(1))), {tid(1): 0.4}) == 1.0


class TestDerivative:
    def test_disjunction_slope_is_one_minus_other(self):
        got = derivative(Or(v(1), v(2)), tid(2), {tid(1): 0.6})
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_self_derivative_of_leaf_is_one(self):
        assert derivative(v(1), tid(1), {}) == 1.0

    def test_conjunction_slope_is_partner_probability(self):
        got = derivative(And(v(1), v(2)), tid(1), {tid(2): 0.3})
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_absent_tuple_has_zero_slope(self):
        assert derivative(Or(v(1), v(2)), tid(9), {tid(1): 0.5, tid(2): 0.5}) == 0.0

    def test_negation_flips_sign(self):
        got = derivative(Not(v(1)), tid(1), {})
        assert got == pytest.approx(-1.0, abs=1e-15)


class TestCompile:
    def test_compiled_closure_matches_interpreter(self):
        phi, p = shared_pair()
        fn = compile_probability(phi)
        assert fn(p) == pytest.approx(prob_bruteforce(phi, p), abs=1e-15)

    def test_compiled_closure_is_reusable_across_maps(self):
        phi, p = shared_pair()
        fn = compile_probability(phi)
        for t8 in (0.0, 0.25, 1.0):
            q = {**p, tid(8): t8}
            assert fn(q) == pytest.approx(prob_bruteforce(phi, q), abs=1e-12)


@pytest.mark.property
@settings(max_examples=220, derandomize=True, deadline=None)
@given(recipes(max_vars=12, max_leaves=14), st.integers(0, 2**31 - 1))
def test_exact_matches_enumeration(recipe, seed):
    phi = build_formula(recipe)
    rng = np.random.default_rng(seed)
    p = random_pmap(phi, rng)
    assert prob_exact(phi, p) == pytest.approx(prob_bruteforce(phi, p), abs=1e-9)


@pytest.mark.property
@settings(max_examples=150, derandomize=True, deadline=None)
@given(recipes(max_vars=8, max_leaves=14), st.integers(0, 2**31 - 1))
def test_oracle_sums_the_worlds_evaluate_accepts(recipe, seed):
    # the oracle's world masks and split sum against one world at a time
    phi = build_formula(recipe)
    p = random_pmap(phi, np.random.default_rng(seed))
    ids = sorted(p)
    total = 0.0
    for present in itertools.product((False, True), repeat=len(ids)):
        weight = 1.0
        for t, here in zip(ids, present):
            weight *= p[t] if here else 1.0 - p[t]
        world = {t for t, here in zip(ids, present) if here}
        total += weight * evaluate(phi, world)
    # up to 256 terms summed in another order: about 1e-15 apart at worst
    assert prob_bruteforce(phi, p) == pytest.approx(total, abs=1e-14)


@pytest.mark.property
@settings(max_examples=120, derandomize=True, deadline=None)
@given(recipes(max_vars=8, max_leaves=10), st.integers(0, 2**31 - 1))
def test_derivative_matches_finite_differences(recipe, seed):
    phi = build_formula(recipe)
    ids = sorted(tuple_set(phi))
    if not ids:
        return
    rng = np.random.default_rng(seed)
    p = random_pmap(phi, rng, lo=0.1, hi=0.9)
    t = ids[seed % len(ids)]
    h = 1e-6
    up = prob_bruteforce(phi, {**p, t: p[t] + h})
    down = prob_bruteforce(phi, {**p, t: p[t] - h})
    assert derivative(phi, t, p) == pytest.approx((up - down) / (2 * h), abs=1e-6)


@pytest.mark.property
@settings(max_examples=120, derandomize=True, deadline=None)
@given(recipes(max_vars=8, max_leaves=10), st.integers(0, 2**31 - 1))
def test_probability_is_affine_in_each_tuple(recipe, seed):
    phi = build_formula(recipe)
    ids = sorted(tuple_set(phi))
    if not ids:
        return
    rng = np.random.default_rng(seed)
    p = random_pmap(phi, rng)
    t = ids[seed % len(ids)]
    x0, x1 = float(rng.random()), float(rng.random())
    v0 = prob_exact(phi, {**p, t: x0})
    v1 = prob_exact(phi, {**p, t: x1})
    vm = prob_exact(phi, {**p, t: (x0 + x1) / 2})
    assert vm == pytest.approx((v0 + v1) / 2, abs=1e-9)


@pytest.mark.property
@settings(max_examples=150, derandomize=True, deadline=None)
@given(recipes(max_vars=10, max_leaves=12), st.integers(0, 2**31 - 1))
def test_range_and_complement(recipe, seed):
    phi = build_formula(recipe)
    p = random_pmap(phi, np.random.default_rng(seed))
    prob = prob_exact(phi, p)
    assert 0.0 <= prob <= 1.0
    assert prob_exact(Not(phi), p) == pytest.approx(1.0 - prob, abs=1e-12)


@pytest.mark.property
@settings(max_examples=120, derandomize=True, deadline=None)
@given(recipes(max_vars=8, max_leaves=10), st.integers(0, 2**31 - 1))
def test_pinning_decomposes_the_marginal(recipe, seed):
    phi = build_formula(recipe)
    ids = sorted(tuple_set(phi))
    if not ids:
        return
    p = random_pmap(phi, np.random.default_rng(seed))
    t = ids[seed % len(ids)]
    hi = prob_exact(substitute(phi, t, True), p)
    lo = prob_exact(substitute(phi, t, False), p)
    assert p[t] * hi + (1 - p[t]) * lo == pytest.approx(prob_exact(phi, p), abs=1e-9)


@pytest.mark.property
@settings(max_examples=100, derandomize=True, deadline=None)
@given(recipes(max_vars=8, max_leaves=10), st.integers(0, 2**31 - 1))
def test_compiled_closure_agrees_with_interpreter(recipe, seed):
    phi = build_formula(recipe)
    p = random_pmap(phi, np.random.default_rng(seed))
    assert compile_probability(phi)(p) == pytest.approx(
        prob_bruteforce(phi, p), abs=1e-12
    )


@pytest.mark.property
@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(4, 8), st.integers(3, 14), st.integers(0, 2**31 - 1))
def test_one_closure_serves_successive_maps(n_vars, n_clauses, seed):
    # Shannon branches of a 3-CNF conjunction share subformulas, whose cached
    # values must be recomputed on every call of the closure
    cnf = random_3sat(n_vars, n_clauses, seed=seed)
    phi = And(*(Or(*(v(l) if l > 0 else Not(v(-l)) for l in c)) for c in cnf))
    fn = compile_probability(phi)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        p = random_pmap(phi, rng)
        assert fn(p) == pytest.approx(prob_bruteforce(phi, p), abs=1e-12)


def _template(rng):
    """Two or three conjunctions of literals over tuple positions 0 to 4.

    The first two conjunctions share position 0 unnegated, so deciding their
    disjunction needs a Shannon expansion.  Other literals are negated with
    probability 0.3, and the whole disjunction with probability 0.2.
    """
    terms = []
    for k in range(int(rng.integers(2, 4))):
        others = rng.choice(np.arange(1, 5), size=int(rng.integers(1, 3)), replace=False)
        term = [(int(i), bool(rng.random() < 0.3)) for i in others]
        terms.append([(0, False)] + term if k < 2 else term)
    return terms, bool(rng.random() < 0.2)


def _instance(template, pool):
    """The template's formula with position i read as tuple pool[i]."""
    terms, negated = template
    phi = Or(
        *(And(*(Not(v(pool[i])) if neg else v(pool[i]) for i, neg in term)) for term in terms)
    )
    return Not(phi) if negated else phi


@pytest.mark.property
@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_formulas_compiled_together_match_each_compiled_alone(seed):
    # four templates, each instantiated on random tuples: a pool in ascending
    # order repeats its template's shape, a shuffled one may not
    rng = np.random.default_rng(seed)
    templates = [_template(rng) for _ in range(4)]
    formulas = []
    for k in range(16):
        pool = rng.choice(40, size=5, replace=False)
        formulas.append(_instance(templates[k % 4], sorted(pool) if k % 2 else pool))
    shapes = {inference._shape(phi)[0] for phi in formulas}
    assert len(shapes) < len(formulas)
    tuples = sorted(set().union(*map(tuple_set, formulas)))
    slot = {t: k for k, t in enumerate(reversed(tuples))}
    together = []
    for phi, (ops, slots) in zip(formulas, inference._compile_shared(formulas, slot)):
        assert slots == [slot[t] for t in sorted(tuple_set(phi))]
        together.append(ops)
    assert any(op[0] == inference._SHANNON for ops in together for op in ops)
    for _ in range(3):
        p = {t: float(rng.random()) for t in tuples}
        probs = [p[t] for t in reversed(tuples)]
        values = inference._run(tuple(together), probs)
        assert len(values) == len(formulas)
        for phi, value in zip(formulas, values):
            alone = compile_probability(phi)(p)
            assert value.hex() == alone.hex(), str(phi)


def _reference(phi, p):
    """P(phi) by the decomposition rules, recursing over the formula itself.

    It decides each node as ``_decompose`` does, but computes a product of
    literals child by child, as the node and its leaf and negation children
    would, so it shares no code with the literal operations it checks.
    """
    if isinstance(phi, Constant):
        return 1.0 if phi.value else 0.0
    if isinstance(phi, Var):
        return p[phi.tuple_id]
    if isinstance(phi, Not):
        return 1.0 - _reference(phi.child, p)
    children = phi.children
    groups = connected_components([c._tuples for c in children])
    if len(groups) > 1:
        op = And if isinstance(phi, And) else Or
        parts = [_reference(op(*(children[i] for i in g)), p) for g in groups]
        out = 1.0
        if isinstance(phi, And):
            for part in parts:
                out *= part
            return out
        for part in parts:
            out *= 1.0 - part
        return 1.0 - out
    if isinstance(phi, Or) and inference._pairwise_event_disjoint(children):
        out = 0.0
        for c in children:
            out += _reference(c, p)
        return out
    t = inference._shannon_tuple(children)
    x = p[t]
    high = _reference(substitute(phi, t, True), p)
    return x * high + (1.0 - x) * _reference(substitute(phi, t, False), p)


class TestLiteralOperations:
    def test_conjunctions_and_disjunctions_of_literals_are_one_operation_each(self):
        a, b, c, d, e, f = (v(i) for i in range(6))
        two_terms = Or(And(a, b, Not(c)), And(d, Not(e), Not(f)))
        assert len(compile_probability(two_terms).args[0]) == 3
        assert len(compile_probability(Or(a, b, Not(c))).args[0]) == 1

    @pytest.mark.parametrize(
        "phi, code",
        [
            # the group {a, a | b} is a compound child ahead of the literal c
            (And(v(1), Or(v(1), v(2)), v(3)), inference._AND),
            # one group: not a product of literals
            (And(v(1), Not(v(1))), inference._SHANNON),
            (Or(v(1), Not(v(1))), inference._DISJOINT),
        ],
        ids=["compound-ahead-of-literal", "x-and-not-x", "x-or-not-x"],
    )
    def test_the_fold_leaves_other_nodes_alone(self, phi, code):
        ops = inference._decompose(phi)
        assert ops[-1][0] == code
        p = {t: 0.3 + 0.1 * k for k, t in enumerate(sorted(tuple_set(phi)))}
        assert inference._run((ops,), p)[0].hex() == _reference(phi, p).hex()

    def test_a_leaf_read_elsewhere_is_kept(self):
        # t(0) and t(1) are literals of the first conjunction; the second
        # conjunction, whose last child is compound, reads t(1) as a leaf
        # and t(0) under a negation
        x = v(0)
        phi = Or(And(x, v(1), v(2)), And(Not(x), v(1), Or(And(v(3), v(4)), v(5))))
        ops = inference._decompose(phi)
        assert ops == (
            (inference._LITAND, (tid(0), tid(1), tid(2)), ()),
            (inference._LEAF, tid(1), ()),
            (inference._LEAF, tid(0), ()),
            (inference._NEG, None, (2,)),
            (inference._LEAF, tid(5), ()),
            (inference._LITAND, (tid(3), tid(4)), ()),
            (inference._OR, None, (4, 5)),
            (inference._AND, None, (1, 3, 6)),
            (inference._DISJOINT, None, (0, 7)),
        )
        p = {tid(i): 0.375 + 0.0625 * i for i in range(6)}
        assert inference._run((ops,), p)[0].hex() == _reference(phi, p).hex()


def _mixed_formulas(max_vars=7):
    """Conjunctions and disjunctions whose children mix terms of literals with recipes.

    Tuples repeat across children, so the decomposition groups and expands
    them: the operation lists hold literal products next to nodes with a
    compound child, and terms such as x & !x.
    """
    literal = st.tuples(st.integers(0, max_vars - 1), st.booleans())
    term = st.tuples(st.sampled_from("&|"), st.lists(literal, min_size=1, max_size=4))
    child = st.one_of(term, term, recipes(max_vars=max_vars, max_leaves=5))
    return st.tuples(st.sampled_from("&|"), st.lists(child, min_size=1, max_size=4))


def _build_mixed(spec):
    kind, children = spec
    parts = []
    for child in children:
        if child[0] in "&|":
            lits = [Not(v(i)) if negated else v(i) for i, negated in child[1]]
            parts.append(And(*lits) if child[0] == "&" else Or(*lits))
        else:
            parts.append(build_formula(child))
    return And(*parts) if kind == "&" else Or(*parts)


@pytest.mark.property
@settings(max_examples=200, derandomize=True, deadline=None)
@given(_mixed_formulas(), st.integers(0, 2**31 - 1))
def test_literal_operations_match_the_rules_bit_for_bit(spec, seed):
    phi = _build_mixed(spec)
    ops = inference._decompose(phi)
    # every conjunction or disjunction of independent literals is one operation
    leaves = {at for at, op in enumerate(ops) if op[0] == inference._LEAF}
    negations = {at for at, op in enumerate(ops) if op[0] == inference._NEG}
    literal = leaves | {at for at in negations if ops[at][2][0] in leaves}
    for code, _, kids in ops:
        if code in (inference._AND, inference._OR):
            assert not literal.issuperset(kids), str(phi)
    # probabilities near 0 and 1 too, where a reordered product or a step
    # such as 1 - (1 - x) read as x changes the low bits of the result
    rng = np.random.default_rng(seed)
    for _ in range(10):
        p = {t: float(rng.random()) ** int(rng.choice([1, 8])) for t in tuple_set(phi)}
        p = {t: 1.0 - x if rng.random() < 0.5 else x for t, x in p.items()}
        assert inference._run((ops,), p)[0].hex() == _reference(phi, p).hex(), str(phi)
