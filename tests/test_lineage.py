"""Formula ADT: construction, canonical forms, worlds, parsing."""

import pickle
import weakref

import pytest
from hypothesis import given, settings

from pdblearn import (
    And,
    FALSE,
    Not,
    Or,
    ParseError,
    TRUE,
    TupleId,
    Var,
    evaluate,
    format_formula,
    gen_synthetic_srl,
    parse_formula,
    substitute,
    tuple_set,
)
from pdblearn.lineage import connected_components

from conftest import (
    build_formula,
    eval_recipe,
    recipe_vars,
    recipes,
    tid,
    worlds_over,
)


def v(i):
    return Var(tid(i))


class TestTupleId:
    def test_equality_and_hash(self):
        assert TupleId("r", (1, "x")) == TupleId("r", (1, "x"))
        assert TupleId("r", (1,)) != TupleId("s", (1,))
        assert TupleId("r", (1,)) != TupleId("r", (2,))
        assert len({TupleId("r", (1,)), TupleId("r", (1,))}) == 1

    def test_ordering_is_total_and_stable(self):
        ids = [tid(3), tid(1), TupleId("a", (9,)), TupleId.synthetic(0), tid(2)]
        once = sorted(ids)
        assert sorted(list(reversed(ids))) == once
        assert once[0] < once[-1]

    def test_str_forms(self):
        assert str(tid(7)) == "t(7)"
        assert str(TupleId("likes", ("ann", "bob"))) == "likes(ann,bob)"
        assert str(TupleId.synthetic(5)) == "#5"

    def test_synthetic_ids_are_flagged(self):
        s = TupleId.synthetic(4)
        assert s.is_synthetic
        assert not tid(4).is_synthetic
        assert s != tid(4)

    def test_mixed_arg_types_do_not_collide(self):
        assert TupleId("r", (1,)) != TupleId("r", ("1",))

    @pytest.mark.parametrize("relation", [5, None, ("r",)])
    def test_relation_must_be_a_string(self, relation):
        with pytest.raises(TypeError, match="tuple relation must be str"):
            TupleId(relation, (1,))

    def test_bad_argument_is_named(self):
        with pytest.raises(TypeError, match=r"must be int or str, got 1\.5"):
            TupleId("r", (1, 1.5, None))


def leaves(formulas):
    """Every Var node reachable from ``formulas``, one entry per object."""
    found, stack = {}, list(formulas)
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            found[id(f)] = f
        elif isinstance(f, Not):
            stack.append(f.child)
        elif isinstance(f, (And, Or)):
            stack.extend(f.children)
    return list(found.values())


class TestVarInterning:
    def test_equal_tuple_ids_give_the_same_node(self):
        first = Var(TupleId("intern", (1, "x")))
        assert Var(TupleId("intern", (1, "x"))) is first
        assert Var(TupleId("intern", (2, "x"))) is not first

    def test_the_registry_holds_no_node_alive(self):
        ref = weakref.ref(Var(TupleId("intern_weak", (1,))))
        assert ref() is None
        fresh = Var(TupleId("intern_weak", (1,)))
        assert fresh.tuple_id == TupleId("intern_weak", (1,))
        assert Var(TupleId("intern_weak", (1,))) is fresh

    def test_unpickling_returns_the_live_nodes(self):
        live = [v(1), v(2), v(3)]
        phi = Or(And(v(1), Not(v(2))), v(3))
        back = pickle.loads(pickle.dumps(phi))
        assert back == phi
        assert {id(leaf) for leaf in leaves([back])} == {id(leaf) for leaf in live}

    @pytest.mark.parametrize("bad", ["x", ["x"], None])
    def test_non_tuple_ids_are_refused(self, bad):
        with pytest.raises(TypeError) as err:
            Var(bad)
        assert str(err.value) == f"Var expects a TupleId, got {bad!r}"

    def test_generated_labels_share_one_node_per_tuple(self):
        srl = gen_synthetic_srl(2000, n_tuples=200)
        found = leaves(lab.formula for lab in srl.labels)
        assert len(found) == 200
        assert len({leaf.tuple_id for leaf in found}) == 200


class TestCanonicalForms:
    def test_connective_order_does_not_matter(self):
        assert And(v(1), v(2)) == And(v(2), v(1))
        assert Or(v(1), v(2), v(3)) == Or(v(3), v(1), v(2))

    def test_nested_same_connective_is_flattened(self):
        assert And(v(1), And(v(2), v(3))) == And(v(1), v(2), v(3))
        assert Or(Or(v(1), v(2)), Or(v(3), v(4))) == Or(v(1), v(2), v(3), v(4))

    def test_mixed_connectives_are_not_flattened(self):
        phi = And(v(1), Or(v(2), v(3)))
        assert phi != And(v(1), v(2), v(3))
        assert len(phi.children) == 2

    def test_duplicate_children_collapse(self):
        assert And(v(1), v(1)) == v(1)
        assert Or(v(1), v(2), v(1)) == Or(v(1), v(2))

    def test_constants_fold(self):
        assert And(v(1), TRUE) == v(1)
        assert And(v(1), FALSE) == FALSE
        assert Or(v(1), FALSE) == v(1)
        assert Or(v(1), TRUE) == TRUE
        assert Not(TRUE) == FALSE
        assert Not(FALSE) == TRUE

    def test_empty_connectives_are_units(self):
        assert And() == TRUE
        assert Or() == FALSE

    def test_single_child_passes_through(self):
        assert And(v(5)) == v(5)
        assert Or(Not(v(5))) == Not(v(5))

    def test_double_negation_cancels(self):
        assert Not(Not(v(1))) == v(1)
        assert Not(Not(Not(v(1)))) == Not(v(1))

    def test_contradictory_literals_are_kept_syntactically(self):
        # x & !x is not folded away: its tuple set must stay visible.
        phi = And(v(7), Not(v(7)))
        assert phi != FALSE
        assert tuple_set(phi) == {tid(7)}
        psi = Or(v(7), Not(v(7)))
        assert psi != TRUE
        assert tuple_set(psi) == {tid(7)}


class TestTupleCollection:
    def test_nested_formula_lists_every_tuple_once(self):
        phi = Or(And(v(1), v(5), v(8)), And(v(2), v(6), v(8)))
        assert tuple_set(phi) == {tid(1), tid(2), tid(5), tid(6), tid(8)}

    def test_constants_have_no_tuples(self):
        assert tuple_set(TRUE) == frozenset()
        assert tuple_set(FALSE) == frozenset()

    def test_contradiction_still_reports_its_tuple(self):
        assert tuple_set(And(v(7), Not(v(7)))) == {tid(7)}

    def test_order_is_sorted_and_deduplicated(self):
        phi = Or(v(3), And(v(1), v(3)), Not(v(2)))
        assert sorted(tuple_set(phi)) == [tid(1), tid(2), tid(3)]


class TestEvaluate:
    def test_disjunction(self):
        phi = Or(v(1), v(2))
        assert evaluate(phi, {tid(1)}) is True
        assert evaluate(phi, set()) is False

    def test_negation_conjunction(self):
        phi = And(v(1), Not(v(2)))
        assert evaluate(phi, {tid(1)}) is True
        assert evaluate(phi, {tid(1), tid(2)}) is False

    def test_constants(self):
        assert evaluate(TRUE, set()) is True
        assert evaluate(FALSE, {tid(1)}) is False

    def test_world_may_contain_extraneous_tuples(self):
        phi = And(v(1), v(5), v(8))
        world = {tid(1), tid(5), tid(8), tid(99)}
        assert evaluate(phi, world) is True


class TestSubstitute:
    def test_pinning_true_can_collapse_to_constant(self):
        assert substitute(Or(v(1), v(2)), tid(1), True) == TRUE

    def test_pinning_false_removes_the_literal(self):
        assert substitute(Or(v(1), v(2)), tid(1), False) == v(2)

    def test_shared_tuple_substitution(self):
        phi = Or(And(v(1), v(5), v(8)), And(v(2), v(6), v(8)))
        hi = substitute(phi, tid(8), True)
        assert hi == Or(And(v(1), v(5)), And(v(2), v(6)))
        assert substitute(phi, tid(8), False) == FALSE

    def test_absent_tuple_is_a_no_op(self):
        phi = And(v(1), Not(v(2)))
        assert substitute(phi, tid(9), True) == phi

    @pytest.mark.property
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(recipes(max_vars=10, max_leaves=10))
    def test_substitution_commutes_with_evaluation(self, recipe):
        phi = build_formula(recipe)
        variables = sorted(recipe_vars(recipe)) or [0]
        ids = [tid(i) for i in variables]
        # pick one variable per case, both truth values, every world
        target = ids[len(ids) // 2]
        for value in (True, False):
            pinned = substitute(phi, target, value)
            for world in worlds_over(ids):
                adjusted = (world | {target}) if value else (world - {target})
                assert evaluate(pinned, world) == evaluate(phi, adjusted)

    @pytest.mark.property
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(recipes(max_vars=8, max_leaves=12))
    def test_substitution_never_introduces_tuples(self, recipe):
        phi = build_formula(recipe)
        before = tuple_set(phi)
        for i in sorted(recipe_vars(recipe) | {0}):
            for value in (True, False):
                after = tuple_set(substitute(phi, tid(i), value))
                assert after <= before - {tid(i)}


class TestIndependentPartition:
    """Formulas fall into the groups that inference treats as independent."""

    def groups(self, *parts):
        return connected_components([tuple_set(part) for part in parts])

    def test_disjoint_tuple_sets_are_independent(self):
        assert self.groups(And(v(1), v(5)), And(v(2), v(6))) == [[0], [1]]

    def test_shared_tuple_breaks_independence(self):
        assert self.groups(And(v(1), v(8)), And(v(2), v(8))) == [[0, 1]]

    def test_single_part_is_trivially_independent(self):
        assert self.groups(v(1)) == [[0]]

    def test_constants_share_nothing(self):
        assert self.groups(TRUE, v(1), FALSE) == [[0], [1], [2]]


class TestParsing:
    def test_round_trips_basic_connectives(self):
        for text in (
            "t(1)",
            "!t(2)",
            "t(1) & t(2)",
            "t(1) | t(2) & t(3)",
            "!(t(1) | t(2))",
            "true",
            "false",
        ):
            assert format_formula(parse_formula(text)) == format_formula(
                parse_formula(format_formula(parse_formula(text)))
            )

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("t(1) | t(2) & t(3)") == Or(v(1), And(v(2), v(3)))

    def test_parentheses_override_precedence(self):
        assert parse_formula("(t(1) | t(2)) & t(3)") == And(Or(v(1), v(2)), v(3))

    def test_quoted_and_numeric_arguments(self):
        phi = parse_formula('person("Ann Smith",42)')
        assert phi == Var(TupleId("person", ("Ann Smith", 42)))
        # a backslash escapes the next character, a line break too
        phi = parse_formula('t("a\\"b\\\\c\\\nd")')
        assert phi == Var(TupleId("t", ('a"b\\c\nd',)))

    def test_synthetic_atom_syntax(self):
        assert parse_formula("#5") == Var(TupleId.synthetic(5))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("t(1) &")
        assert err.value.line == 1
        assert err.value.col == 7

    @pytest.mark.parametrize(
        "text, col", [('t("ab', 6), ('t("ab\\', 6), ('t("a\\"b', 8)]
    )
    def test_unterminated_string_is_reported_where_its_body_ends(self, text, col):
        # an escaped quote does not close the string, and a lone backslash at
        # the end of the text escapes nothing
        with pytest.raises(ParseError, match="unterminated string literal") as err:
            parse_formula(text)
        assert (err.value.line, err.value.col) == (1, col)

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("t(1) t(2)")

    @pytest.mark.property
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(recipes(max_vars=8, max_leaves=12))
    def test_print_then_parse_is_identity(self, recipe):
        phi = build_formula(recipe)
        assert parse_formula(format_formula(phi)) == phi


@pytest.mark.property
@settings(max_examples=150, derandomize=True, deadline=None)
@given(recipes(max_vars=10, max_leaves=12))
def test_canonicalization_preserves_truth_tables(recipe):
    """Constructor rewrites never change the boolean function."""
    phi = build_formula(recipe)
    ids = sorted(recipe_vars(recipe))
    for world in worlds_over(ids):
        assert evaluate(phi, {tid(i) for i in world}) == eval_recipe(recipe, world)


@pytest.mark.property
@settings(max_examples=120, derandomize=True, deadline=None)
@given(recipes(max_vars=8, max_leaves=12), recipes(max_vars=8, max_leaves=12))
def test_structural_equality_is_order_insensitive(left, right):
    """Building the same connective from permuted parts yields equal values."""
    a, b = build_formula(left), build_formula(right)
    assert And(a, b) == And(b, a)
    assert Or(a, b) == Or(b, a)
    assert hash(And(a, b)) == hash(And(b, a))
