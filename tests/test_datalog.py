"""Deduction rules: parsing, validation, and grounding to lineage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdblearn import (
    And,
    ArityError,
    Comparison,
    ComparisonTypeError,
    CyclicProgramError,
    DeductionProgram,
    DeductionRule,
    Literal,
    Not,
    Or,
    ParseError,
    ProbabilisticDatabase,
    SafetyError,
    TupleId,
    UnknownRelationError,
    Var,
    Variable,
    evaluate,
    format_program,
    format_rule,
    ground,
    index_derived,
    parse_program,
    parse_rule,
)

from pdblearn import datalog

from conftest import STORY_RULES, story_db, worlds_over


X, Y = Variable("X"), Variable("Y")


def _built(text):
    """The program of ``text`` assembled in code from its rules' parts."""
    rules = [parse_rule(line) for line in text.splitlines()]
    return DeductionProgram(tuple(DeductionRule(r.head, r.body) for r in rules))


class TestParsing:
    def test_join_rule_parses_and_is_safe(self):
        prog = parse_program(
            "wonPrize(S,O) :- wonPrizeExtraction(S,O,Pid,Did), "
            "usingPattern(Pid,P), fromDomain(Did,D)."
        )
        assert len(prog.rules) == 1
        rule = prog.rules[0]
        assert rule.head.relation == "wonPrize"
        assert [lit.relation for lit in rule.positive] == [
            "wonPrizeExtraction",
            "usingPattern",
            "fromDomain",
        ]

    def test_unbound_head_variable_is_rejected(self):
        # a rule built in code is checked as a parsed one is
        for build in (
            lambda: parse_program("bad(X) :- r(Y)."),
            lambda: DeductionRule(Literal("bad", (X,)), (Literal("r", (Y,)),)),
        ):
            with pytest.raises(SafetyError) as err:
                build()
            assert "X" in str(err.value)

    def test_unbound_negated_variable_is_rejected(self):
        with pytest.raises(SafetyError):
            parse_program("q(X) :- r(X), !s(Y).")

    def test_rule_with_comparison_parses(self):
        prog = parse_program(
            "c4(E1,E2) :- b(E1,E2,T1,T2), d(E1,E2,T3,T4), T3 < T2."
        )
        rule = prog.rules[0]
        assert len(rule.comparisons) == 1
        assert rule.comparisons[0].op == "<"

    def test_rule_needs_a_positive_literal(self):
        with pytest.raises((SafetyError, ParseError)):
            parse_program("q(1) :- !r(1).")
        with pytest.raises(SafetyError):
            DeductionRule(Literal("q", (1,)), (Literal("r", (1,), negated=True),))

    @pytest.mark.parametrize("constant", [1.0, True, None, b"1"])
    def test_constants_are_ints_or_strs(self, constant):
        with pytest.raises(TypeError):
            Literal("r", (X, constant))
        with pytest.raises(TypeError):
            Comparison("<", X, constant)

    @pytest.mark.parametrize("parse", [parse_program, _built], ids=["parsed", "built"])
    def test_relation_at_two_arities_is_rejected(self, parse):
        text = "q(X) :- r(X).\nq(X,X) :- r(X)."
        with pytest.raises(ArityError) as err:
            parse(text)
        assert str(err.value) == "relation q used with arity 2 and 1"

    def test_comments_and_blank_lines_are_skipped(self):
        prog = parse_program("% nothing here\n\nq(X) :- r(X).\n% tail\n")
        assert len(prog.rules) == 1

    def test_recursion_is_rejected_naming_the_cycle(self):
        for parse in (parse_program, _built):
            # c reads the cycle but is not on it
            with pytest.raises(CyclicProgramError) as err:
                parse("a(X) :- b(X).\nb(X) :- a(X).\nc(X) :- a(X).")
            assert str(err.value) == "recursive program: cycle through relation(s) a, b"
            with pytest.raises(CyclicProgramError) as err:
                parse("a(X) :- a(X).")
            assert str(err.value) == "recursive program: cycle through relation(s) a"

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("q(X) :- r(X)")
        assert err.value.line == 1 and err.value.col == 13

    def test_format_parse_round_trip(self):
        text = (
            "q(X,1) :- r(X,Y), !s(Y), X < Y.\n"
            "p(Z) :- q(Z,W)."
        )
        prog = parse_program(text)
        again = parse_program(format_program(prog))
        assert format_program(again) == format_program(prog)
        assert format_rule(parse_rule("q(X) :- r(X).")) == "q(X) :- r(X)."


class TestGrounding:
    def test_extraction_database_golden_lineages(self):
        db, ids = story_db()
        derived = index_derived(ground(parse_program(STORY_RULES), db))
        t = lambda n: Var(ids[n])

        won = derived[("wonPrize", ("Spielberg", "AcademyAward"))]
        assert won.lineage == Or(
            And(t("t1"), t("t5"), t("t8")), And(t("t2"), t("t6"), t("t8"))
        )
        born1 = derived[("bornIn", ("Spielberg", "Cinncinati"))]
        assert born1.lineage == And(t("t3"), t("t7"), t("t8"))
        born2 = derived[("bornIn", ("Spielberg", "LosAngeles"))]
        assert born2.lineage == And(t("t4"), t("t7"), t("t9"))
        assert len(derived) == 3

    def test_zero_matching_instantiations_yield_nothing(self):
        db, _ = story_db()
        prog = parse_program("q(S) :- wonPrizeExtraction(S,O,Pid,Did), Pid = 99.")
        assert ground(prog, db) == ()

    def test_block_rules_produce_exclusive_lineage(self):
        db = ProbabilisticDatabase()
        tx = db.add(TupleId("rp", ("x",)))
        ty = db.add(TupleId("rp", ("y",)))
        prog = parse_program(
            'r(x) :- rp(x), !rp(y).\n'
            'r(y) :- rp(y), !rp(x).'
        )
        derived = index_derived(ground(prog, db))
        assert derived[("r", ("x",))].lineage == And(Var(tx), Not(Var(ty)))
        assert derived[("r", ("y",))].lineage == And(Var(ty), Not(Var(tx)))

    def test_unmatched_negated_literal_contributes_nothing(self):
        db = ProbabilisticDatabase()
        tn = db.add(TupleId("n", (1,)), 0.5)
        db.add(TupleId("m", (2,)), 0.5)
        derived = index_derived(ground(parse_program("s(X) :- n(X), !m(X)."), db))
        assert derived[("s", (1,))].lineage == Var(tn)

    def test_negation_over_derived_relation_negates_its_lineage(self):
        db = ProbabilisticDatabase()
        tn = db.add(TupleId("n", (1,)), 0.5)
        tm = db.add(TupleId("m", (1,)), 0.5)
        prog = parse_program("f(X) :- n(X), m(X).\ng(X) :- n(X), !f(X).")
        derived = index_derived(ground(prog, db))
        assert derived[("g", (1,))].lineage == And(
            Var(tn), Not(And(Var(tn), Var(tm)))
        )

    def test_duplicate_derivations_merge_into_disjunction(self):
        db = ProbabilisticDatabase()
        ta = db.add(TupleId("a", (1,)), 0.5)
        tb = db.add(TupleId("b", (1,)), 0.5)
        prog = parse_program("q(X) :- a(X).\nq(X) :- b(X).")
        derived = index_derived(ground(prog, db))
        assert derived[("q", (1,))].lineage == Or(Var(ta), Var(tb))
        assert len(derived) == 1

    def test_unknown_relation_is_reported(self):
        db, _ = story_db()
        with pytest.raises(UnknownRelationError):
            ground(parse_program("q(X) :- zz(X)."), db)

    def test_body_arity_mismatch_is_reported(self):
        db, _ = story_db()
        with pytest.raises(ArityError):
            ground(parse_program("q(P) :- usingPattern(P)."), db)

    def test_comparisons_filter_instantiations(self):
        db = ProbabilisticDatabase()
        for i, stamp in ((1, 10), (2, 20), (3, 30)):
            db.add(TupleId("e", (i, stamp)), 0.5)
        prog = parse_program("lt(X,Y) :- e(X,S), e(Y,T), S < T.")
        derived = index_derived(ground(prog, db))
        assert set(derived) == {
            ("lt", (1, 2)),
            ("lt", (1, 3)),
            ("lt", (2, 3)),
        }

    def test_all_comparison_operators_work(self):
        db = ProbabilisticDatabase()
        db.add(TupleId("e", (1,)), 0.5)
        db.add(TupleId("e", (2,)), 0.5)
        cases = {
            "=": {(1, 1), (2, 2)},
            "!=": {(1, 2), (2, 1)},
            "<": {(1, 2)},
            "<=": {(1, 1), (1, 2), (2, 2)},
            ">": {(2, 1)},
            ">=": {(1, 1), (2, 1), (2, 2)},
        }
        for op, want in cases.items():
            prog = parse_program(f"q(X,Y) :- e(X), e(Y), X {op} Y.")
            got = {d.args for d in ground(prog, db)}
            assert got == want, op

    def test_string_comparison_is_lexicographic(self):
        db = ProbabilisticDatabase()
        db.add(TupleId("w", ("apple",)), 0.5)
        db.add(TupleId("w", ("banana",)), 0.5)
        prog = parse_program("q(X,Y) :- w(X), w(Y), X < Y.")
        assert {d.args for d in ground(prog, db)} == {("apple", "banana")}

    def test_mixed_type_comparison_is_an_error(self):
        db = ProbabilisticDatabase()
        db.add(TupleId("e", (1, 5)), 0.5)
        db.add(TupleId("e", (2, "x")), 0.5)
        with pytest.raises(ComparisonTypeError):
            ground(parse_program("lt(X,Y) :- e(X,S), e(Y,T), S < T."), db)

    def test_grounding_is_deterministic(self):
        db, _ = story_db()
        prog = parse_program(STORY_RULES)
        first = ground(prog, db)
        second = ground(prog, db)
        assert [(d.relation, d.args) for d in first] == [
            (d.relation, d.args) for d in second
        ]
        assert [d.lineage for d in first] == [d.lineage for d in second]

    def test_chain_join_inspects_linearly_many_rows(self, monkeypatch):
        # each edge(Y,Z) probe reads only the rows whose first argument is Y;
        # a scan of every row per binding would inspect about n * n of them
        n = 2000
        db = ProbabilisticDatabase()
        for i in range(n):
            db.add(TupleId("edge", (i, i + 1)), 0.5)
        inspected = 0
        bind = datalog._bind

        def counting_bind(theta, fresh, key):
            nonlocal inspected
            inspected += 1
            return bind(theta, fresh, key)

        monkeypatch.setattr(datalog, "_bind", counting_bind)
        derived = ground(parse_program("path(X,Z) :- edge(X,Y), edge(Y,Z)."), db)
        assert [d.args for d in derived] == [(i, i + 2) for i in range(n - 1)]
        assert inspected <= 3 * n, inspected


# Fixed programs paired with hand-written world evaluators.  The evaluators
# derive facts from a deterministic world directly, sharing no code with the
# grounding engine, so they act as an independent oracle.

def _eval_join(world):
    a = {t.key for t in world if t.relation == "a"}
    b = {t.key for t in world if t.relation == "b"}
    c = {t.key for t in world if t.relation == "c"}
    out = {("p", (x,)) for (x, y) in a if (y,) in b}
    return out | {("p", k) for k in c}


def _eval_negation(world):
    n = {t.key for t in world if t.relation == "n"}
    m = {t.key for t in world if t.relation == "m"}
    return {("s", k) for k in n - m}


def _eval_two_strata(world):
    n = {t.key for t in world if t.relation == "n"}
    m = {t.key for t in world if t.relation == "m"}
    f = n & m
    return {("f", k) for k in f} | {("g", k) for k in n - f}


def _eval_comparison(world):
    e = {t.key for t in world if t.relation == "e"}
    return {("lt", (x, y)) for (x, s) in e for (y, u) in e if s < u}


def _eval_constants(world):
    # 1 and "1" are different constants, in rules and in rows alike
    a = {t.key for t in world if t.relation == "a"}
    out = {("i", (x,)) for (x, y) in a if y == 1}
    out |= {("s", (x,)) for (x, y) in a if y == "1"}
    out |= {("k", (y,)) for (x, y) in a if x == 1}
    return out | {("b", (x,)) for (x, y) in a if (x, 1) in a and (x, "1") in a}


def _eval_repeated_variable(world):
    e = {t.key for t in world if t.relation == "e"}
    out = {("loop", (x,)) for (x, y) in e if x == y}
    return out | {("back", (x, y)) for (x, y) in e if (y, x) in e}


def _eval_non_prefix_join(world):
    a = {t.key for t in world if t.relation == "a"}
    b = {t.key for t in world if t.relation == "b"}
    return {("r", (x, z)) for (x, y) in a for (z, w) in b if y == w}


def _eval_derived_join(world):
    a = {t.key for t in world if t.relation == "a"}
    b = {t.key for t in world if t.relation == "b"}
    c = {t.key for t in world if t.relation == "c"}
    f = {(x, y) for (x, y) in a if (y,) not in c}
    g = {(x, z) for (x, y) in b for (w, z) in f if y == w}
    h = {(x,) for (x, z) in g if x == z and (x, 2) in f}
    return {("f", k) for k in f} | {("g", k) for k in g} | {("h", k) for k in h}


INTS = st.integers(0, 2)

# (rule text, relation arities, world evaluator, argument values)
WORLD_PROGRAMS = [
    (
        "p(X) :- a(X,Y), b(Y).\np(X) :- c(X).",
        {"a": 2, "b": 1, "c": 1},
        _eval_join,
        INTS,
    ),
    ("s(X) :- n(X), !m(X).", {"n": 1, "m": 1}, _eval_negation, INTS),
    (
        "f(X) :- n(X), m(X).\ng(X) :- n(X), !f(X).",
        {"n": 1, "m": 1},
        _eval_two_strata,
        INTS,
    ),
    ("lt(X,Y) :- e(X,S), e(Y,T), S < T.", {"e": 2}, _eval_comparison, INTS),
    (
        'i(X) :- a(X,1).\ns(X) :- a(X,"1").\nk(Y) :- a(1,Y).\n'
        'b(X) :- a(X,1), a(X,"1").',
        {"a": 2},
        _eval_constants,
        st.sampled_from([0, 1, "1"]),
    ),
    (
        "loop(X) :- e(X,X).\nback(X,Y) :- e(X,Y), e(Y,X).",
        {"e": 2},
        _eval_repeated_variable,
        INTS,
    ),
    ("r(X,Z) :- a(X,Y), b(Z,Y).", {"a": 2, "b": 2}, _eval_non_prefix_join, INTS),
    (
        "f(X,Y) :- a(X,Y), !c(Y).\ng(X,Z) :- b(X,Y), f(Y,Z).\n"
        "h(X) :- g(X,X), f(X,2).",
        {"a": 2, "b": 2, "c": 1},
        _eval_derived_join,
        INTS,
    ),
]


def _facts_strategy(schema, values):
    parts = []
    for relation, arity in sorted(schema.items()):
        args = st.tuples(*[values] * arity)
        parts.append(
            st.sets(args, min_size=0, max_size=3).map(
                lambda keys, rel=relation: {TupleId(rel, k) for k in keys}
            )
        )
    return st.tuples(*parts).map(lambda groups: set().union(*groups))


@pytest.mark.property
@pytest.mark.parametrize("case", range(len(WORLD_PROGRAMS)))
@settings(max_examples=110, derandomize=True, deadline=None)
@given(data=st.data())
def test_lineage_agrees_with_every_deterministic_world(case, data):
    """evaluate(lineage, W) must equal derivability from the world W."""
    text, schema, oracle, values = WORLD_PROGRAMS[case]
    base = data.draw(_facts_strategy(schema, values))
    if len(base) > 10:
        base = set(sorted(base)[:10])
    db = ProbabilisticDatabase()
    for t in sorted(base):
        db.add(t, 0.5)
    # every relation must exist even when empty
    for relation, arity in schema.items():
        if not any(t.relation == relation for t in base):
            placeholder = TupleId(relation, tuple(range(arity)))
            db.add(placeholder, 0.0)
            base.add(placeholder)

    derived = ground(parse_program(text), db)
    keys = [(d.relation, d.args) for d in derived]
    assert len(keys) == len(set(keys))  # merged: no duplicate heads
    assert ground(parse_program(text), db) == derived  # deterministic rerun

    for world in worlds_over(sorted(base)):
        truths = {
            (d.relation, d.args) for d in derived if evaluate(d.lineage, world)
        }
        assert truths == oracle(world)
