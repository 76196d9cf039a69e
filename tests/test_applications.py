"""Conditioning, cleaning, completion, SAT encoding, and the generators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdblearn import (
    TRUE,
    And,
    InconsistentConstraintsError,
    Label,
    LearnerConfig,
    LearningProblem,
    NoEvidenceError,
    Not,
    Or,
    ProbabilisticDatabase,
    TupleId,
    Var,
    condition,
    derive_from_incomplete,
    encode_3sat,
    evaluate,
    gen_synthetic_srl,
    ground,
    index_derived,
    learn,
    mse,
    parse_program,
    prob_exact,
    random_3sat,
    recover_missing,
    satisfies,
    solve_3sat,
    tuple_set,
    update_clean,
)
from pdblearn import cli

from conftest import build_formula, random_recipe, story_db, tid


def v(i):
    return Var(tid(i))


TIGHT = LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=0)


class TestCondition:
    def test_pair_constraint_holds_almost_surely(self):
        db = ProbabilisticDatabase()
        db.add(tid(1), 0.5)
        db.add(tid(2), 0.5)
        phi = Or(v(1), v(2))
        res = condition(db, [phi], eps_abs=1e-6, seed=0)
        assert res.converged
        assert res.constraint_probability >= 1.0 - 1e-6
        p = res.db.probabilities()
        # conjoining the enforced constraint no longer changes anything
        for psi in (v(1), v(2), And(v(1), v(2))):
            assert prob_exact(And(psi, phi), p) == pytest.approx(
                prob_exact(psi, p), abs=1e-6
            )

    def test_vacuous_constraint(self):
        db = ProbabilisticDatabase()
        db.add(tid(1), 0.5)
        res = condition(db, [TRUE], seed=0)
        assert res.converged
        assert res.constraint_probability == 1.0

    def test_no_constraints_is_identity(self):
        db = ProbabilisticDatabase()
        db.add(tid(1), 0.3)
        res = condition(db, [])
        assert res.converged
        assert res.restarts_used == 0
        assert res.db.probabilities() == {tid(1): 0.3}

    def test_restarts_below_one_are_rejected(self, tmp_path, capsys):
        db = ProbabilisticDatabase()
        db.add(tid(1), 0.5)
        for restarts in (0, -5):
            with pytest.raises(ValueError, match="restarts must be >= 1"):
                solve_3sat([(1,)], 1, restarts=restarts)
            with pytest.raises(ValueError, match="restarts must be >= 1"):
                condition(db, [v(1)], restarts=restarts)
        assert condition(db, [], restarts=0).restarts_used == 0
        (tmp_path / "tuples.tsv").write_text("t\t1\t0.5\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text("F\tt(1)\t1\n", encoding="utf-8")
        argv = ["condition", "--tuples", str(tmp_path / "tuples.tsv")]
        argv += ["--labels", str(tmp_path / "labels.tsv"), "--restarts", "0"]
        assert cli.main(argv) == 1
        assert "restarts must be >= 1" in capsys.readouterr().err

    def test_contradictory_constraints_rejected(self):
        db = ProbabilisticDatabase()
        db.add(tid(1), 0.5)
        with pytest.raises(InconsistentConstraintsError):
            condition(db, [v(1), Not(v(1))])

    @pytest.mark.property
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_conditioning_removes_the_constraint(self, seed):
        # once the constraints hold almost surely, conjoining them onto any
        # query formula must leave its probability unchanged
        rng = np.random.default_rng(seed)
        db = ProbabilisticDatabase()
        for i in range(4):
            db.add(tid(i), float(rng.uniform(0.05, 0.95)))
        phi = None
        for _ in range(60):
            cand = build_formula(random_recipe(rng, max_vars=4))
            half = {t: 0.5 for t in tuple_set(cand)}
            if prob_exact(cand, half) > 0.0:
                phi = cand
                break
        assert phi is not None
        res = condition(db, [phi], eps_abs=1e-6, seed=int(rng.integers(2**31)))
        p = res.db.probabilities()
        assert prob_exact(phi, p) >= 1.0 - 1e-5
        for _ in range(20):
            psi = build_formula(random_recipe(rng, max_vars=4))
            assert prob_exact(And(psi, phi), p) == pytest.approx(
                prob_exact(psi, p), abs=1e-5
            )


class TestUpdateClean:
    def one_tuple_db(self):
        db = ProbabilisticDatabase()
        db.add(TupleId("u", (1,)), 0.5)
        return db, TupleId("u", (1,))

    def test_zero_label_marks_deletion(self):
        db, u = self.one_tuple_db()
        res = update_clean(db, [Label(Var(u), 0.0)], prior_weight=1.0, cfg=TIGHT)
        assert res.deletions == (u,)
        assert res.certain == ()
        assert res.probabilities[u] <= 1e-3

    def test_one_label_marks_certain(self):
        db, u = self.one_tuple_db()
        res = update_clean(db, [Label(Var(u), 1.0)], prior_weight=1.0, cfg=TIGHT)
        assert res.certain == (u,)
        assert res.deletions == ()
        assert res.probabilities[u] >= 1.0 - 1e-3

    def test_unlabeled_tuples_stay_at_their_prior(self):
        db = ProbabilisticDatabase()
        a, b = TupleId("u", (1,)), TupleId("u", (2,))
        db.add(a, 0.3)
        db.add(b, 0.9)
        res = update_clean(db, [Label(Var(a), 1.0)], prior_weight=0.5, cfg=TIGHT)
        assert set(res.probabilities) == {a, b}
        # b carries only its prior term, so it should not move
        assert res.probabilities[b] == pytest.approx(0.9, abs=1e-3)
        assert res.probabilities[a] > 0.3

    def test_extraction_revision_scenario(self):
        # two evidence labels over the shared extraction tuples: the prize
        # story is mostly believed, the birth-place story is retracted
        db, ids = story_db()
        phi1 = Or(
            And(Var(ids["t1"]), Var(ids["t5"]), Var(ids["t8"])),
            And(Var(ids["t2"]), Var(ids["t6"]), Var(ids["t8"])),
        )
        phi2 = And(Var(ids["t3"]), Var(ids["t7"]), Var(ids["t9"]))
        res = update_clean(
            db,
            [Label(phi1, 0.7), Label(phi2, 0.0)],
            learnable=sorted(db.learnable),
            prior_weight=1.0,
            cfg=LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=2),
        )
        p = res.db.probabilities()
        assert prob_exact(phi1, p) == pytest.approx(0.7, abs=1e-3)
        assert prob_exact(phi2, p) == pytest.approx(0.0, abs=1e-3)
        # the retraction zeroes the pattern-domain product, not one factor
        assert p[ids["t7"]] * p[ids["t9"]] <= 1e-3
        assert set(res.probabilities) == set(db.learnable)

    def test_original_database_is_not_mutated(self):
        db, u = self.one_tuple_db()
        update_clean(db, [Label(Var(u), 1.0)], prior_weight=1.0, cfg=TIGHT)
        assert db.probability(u) == 0.5

    @pytest.mark.parametrize("objective", ["mse", "logical"])
    def test_without_a_prior_matches_plain_learn(self, objective):
        # no chosen tuple has a probability, so there is no prior to fold in
        # and the labels keep their weights whatever prior_weight says
        db = ProbabilisticDatabase()
        for i in range(1, 6):
            db.add(tid(i))
        db.add(tid(9), 0.4)
        labels = [
            Label(Or(And(v(1), v(2)), v(9)), 1.0),
            Label(And(v(2), Not(v(3))), 0.0),
            Label(Or(v(3), v(4)), 1.0),
        ]
        chosen = [tid(i) for i in (1, 2, 3, 4)]
        cfg = LearnerConfig(objective=objective, eps_rel=0.0, max_outer_iterations=40)
        res = update_clean(db, labels, learnable=chosen, prior_weight=0.3, cfg=cfg)
        plain = learn(LearningProblem(db, labels, learnable=chosen), cfg)
        assert res.result.best.hex() == plain.best.hex()
        assert [row[:2] for row in res.result.trace] == [row[:2] for row in plain.trace]
        assert res.result.probabilities == plain.probabilities

    def test_priors_require_mse(self, tmp_path, capsys):
        db, u = self.one_tuple_db()
        with pytest.raises(ValueError, match="priors require the mse objective"):
            update_clean(db, [Label(Var(u), 1.0)], cfg=LearnerConfig(objective="logical"))
        (tmp_path / "tuples.tsv").write_text("u\t1\t0.5\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text("F\tu(1)\t1\n", encoding="utf-8")
        argv = ["clean", "--tuples", str(tmp_path / "tuples.tsv")]
        argv += ["--labels", str(tmp_path / "labels.tsv"), "--objective", "logical"]
        assert cli.main(argv) == 1
        assert "priors require the mse objective" in capsys.readouterr().err


class TestIncompleteCompletion:
    def test_frequency_labels_from_counts(self):
        red = derive_from_incomplete(
            [("a", "x"), ("a", "x"), ("a", "y")],
            [("a", None)],
            cfg=LearnerConfig(eps_rel=0.0, seed=3),
        )
        assert [lab.target for lab in red.problem.labels] == [2 / 3, 1 / 3]
        assert red.best == (("a", "x"),)
        probs = red.completions[0]
        assert set(probs) == {("a", "x"), ("a", "y")}
        assert probs[("a", "x")] > probs[("a", "y")]

    def test_single_completion_becomes_certain(self):
        red = derive_from_incomplete([("a", "x")], [("a", None)], cfg=TIGHT)
        assert [lab.target for lab in red.problem.labels] == [1.0]
        assert red.completions[0][("a", "x")] >= 1.0 - 1e-3
        assert red.best == (("a", "x"),)

    def test_choice_tuples_and_block_rules(self):
        red = derive_from_incomplete(
            [("a", "x"), ("a", "y")], [("a", None)], relation="r"
        )
        cx = TupleId("r_choice", (0, "a", "x"))
        cy = TupleId("r_choice", (0, "a", "y"))
        assert red.db.tuples == {cx, cy}
        assert red.db.learnable == {cx, cy}
        # each completed row is its own choice with every sibling blocked
        derived = index_derived(ground(red.program, red.db))
        assert derived[("r", (0, "a", "x"))].lineage == And(Var(cx), Not(Var(cy)))
        assert derived[("r", (0, "a", "y"))].lineage == And(Var(cy), Not(Var(cx)))

    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_block_exclusivity_exhaustive(self, data):
        # 1-4 candidate completions, every world checked by enumeration
        values = data.draw(
            st.lists(st.sampled_from("uvwxyz"), min_size=1, max_size=4, unique=True)
        )
        rows = [("a", c) for c in values]
        n_incomplete = data.draw(st.integers(1, 2))
        red = derive_from_incomplete(
            rows,
            [("a", None)] * n_incomplete,
            cfg=LearnerConfig(max_outer_iterations=1),
        )
        choices = sorted(red.db.tuples)
        assert len(choices) == len(values) * n_incomplete
        by_row: dict = {}
        for lab in red.problem.labels:
            row = next(iter(tuple_set(lab.formula))).key[0]
            by_row.setdefault(row, []).append(lab.formula)
        for bits in itertools.product((False, True), repeat=len(choices)):
            world = {t for t, bit in zip(choices, bits) if bit}
            for lineages in by_row.values():
                assert sum(evaluate(phi, world) for phi in lineages) <= 1

    def test_no_matching_evidence(self):
        with pytest.raises(NoEvidenceError, match="row 0"):
            derive_from_incomplete([("b", "x")], [("a", None)])
        with pytest.raises(NoEvidenceError):
            derive_from_incomplete([], [("a", None)])

    def test_anchor_subset_widens_the_candidate_pool(self):
        # an empty anchor ignores the known fields entirely
        red = derive_from_incomplete(
            [("a", "x"), ("b", "y")],
            [("a", None)],
            anchor=[],
            cfg=TIGHT,
        )
        assert set(red.completions[0]) == {("a", "x"), ("a", "y")}
        assert [lab.target for lab in red.problem.labels] == [0.5, 0.5]

    def test_bad_anchor_and_widths_rejected(self):
        with pytest.raises(ValueError, match="anchor"):
            derive_from_incomplete([("a", "x")], [("a", None)], anchor=[1])
        with pytest.raises(ValueError, match="width"):
            derive_from_incomplete([("a", "x")], [("a", None, "z")])
        with pytest.raises(ValueError):
            derive_from_incomplete([("a", "x"), ("a",)], [("a", None)])

    @pytest.mark.property
    @settings(max_examples=110, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from("xyz")),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    def test_row_frequencies_sum_to_one_exactly(self, rows, data):
        k = data.draw(st.integers(0, len(rows) - 1))
        m = data.draw(st.integers(0, len(rows) - 1))
        incomplete = [(rows[k][0], None), (None, rows[m][1])]
        red = derive_from_incomplete(
            rows, incomplete, cfg=LearnerConfig(max_outer_iterations=1)
        )
        sums = {0: 0.0, 1: 0.0}
        for lab in red.problem.labels:
            row = next(iter(tuple_set(lab.formula))).key[0]
            sums[row] += lab.target
        assert sums[0] == 1.0
        assert sums[1] == 1.0


class TestRecoverMissing:
    def test_only_missing_tuples_are_estimated(self):
        db = ProbabilisticDatabase()
        known = TupleId("seen", (1,))
        gap = TupleId("gap", (1,))
        db.add(known, 0.9)
        db.add(gap, learnable=True)
        res = recover_missing(db, [And(Var(known), Var(gap))], cfg=TIGHT)
        assert set(res.probabilities) == {gap}
        # the held observation needs the missing tuple, so it must be likely
        assert res.probabilities[gap] >= 0.99
        assert res.db.probability(known) == 0.9

    def test_defaults_to_database_learnable_set(self):
        db = ProbabilisticDatabase()
        a, b = tid(1), tid(2)
        db.add(a, learnable=True)
        db.add(b, learnable=True)
        res = recover_missing(db, [Or(Var(a), Var(b))], cfg=TIGHT)
        assert set(res.probabilities) == {a, b}
        assert prob_exact(Or(Var(a), Var(b)), res.probabilities) >= 1.0 - 1e-3


class TestSatEncoding:
    def test_single_positive_clause(self):
        db, labels = encode_3sat([(1,)], 1)
        s1, s2 = TupleId.synthetic(1), TupleId.synthetic(2)
        assert db.tuples == {s1, s2} == db.learnable
        pair = Or(And(Var(s1), Var(s2)), And(Not(Var(s1)), Not(Var(s2))))
        assert [lab.formula for lab in labels] == [pair, Var(s1)]
        assert all(lab.target == 1.0 for lab in labels)
        # the intended assignment hits zero error exactly
        assert mse(labels, {s1: 1.0, s2: 1.0}) == 0.0

    def test_sizes_follow_the_cnf(self):
        clauses = random_3sat(6, 11, seed=5)
        db, labels = encode_3sat(clauses, 6)
        assert len(db.tuples) == 12
        assert len(labels) == 6 + 11

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            encode_3sat([(1,)], 0)
        with pytest.raises(ValueError, match="clause 0"):
            encode_3sat([(1, 0, 2)], 3)
        with pytest.raises(ValueError, match="out-of-range"):
            encode_3sat([(4,)], 3)

    def test_satisfies_helper(self):
        clauses = [(1, -2, 3), (-1, 2, -3)]
        assert satisfies(clauses, {1: True, 2: True, 3: False})
        assert not satisfies([(1,), (-1,)], {1: True})

    def test_unsatisfiable_instance_keeps_positive_error(self):
        res = solve_3sat([(1,), (-1,)], 1, restarts=3, seed=0, max_outer_iterations=400)
        assert not res.satisfied
        assert res.mse > 0.05

    def test_small_roundtrip(self):
        clauses = random_3sat(4, 6, seed=7)
        res = solve_3sat(clauses, 4, restarts=20, seed=1)
        assert res.satisfied
        assert res.mse <= 1e-6
        assert set(res.assignment) == {1, 2, 3, 4}
        assert satisfies(clauses, res.assignment)

    @pytest.mark.property
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_roundtrip_on_random_satisfiable_formulas(self, seed):
        clauses = random_3sat(4, 7, seed=seed)
        res = solve_3sat(clauses, 4, restarts=20, seed=seed)
        assert res.satisfied
        assert res.mse <= 1e-6
        assert satisfies(clauses, res.assignment)


class TestSrlGenerator:
    def test_deterministic_per_seed(self):
        a = gen_synthetic_srl(10, seed=42)
        b = gen_synthetic_srl(10, seed=42)
        assert [(l.formula, l.target) for l in a.labels] == [
            (l.formula, l.target) for l in b.labels
        ]
        assert a.rules == b.rules
        assert a.label_refs == b.label_refs
        c = gen_synthetic_srl(10, seed=43)
        assert [l.formula for l in a.labels] != [l.formula for l in c.labels]

    def test_shape(self):
        inst = gen_synthetic_srl(10, seed=4, n_tuples=40, blocks=4)
        assert len(inst.db.tuples) == 40
        assert inst.db.learnable == inst.db.tuples
        assert len(inst.labels) == 10
        for j, lab in enumerate(inst.labels):
            ts = tuple_set(lab.formula)
            assert len(ts) == 6
            assert lab.target in (0.0, 1.0)
            lo = (j % 4) * 10
            assert all(lo <= t.key[0] < lo + 10 for t in ts)

    def test_rule_text_grounds_to_the_same_lineage(self):
        inst = gen_synthetic_srl(5, seed=9, n_tuples=30)
        derived = index_derived(ground(parse_program(inst.rules), inst.db))
        for j, lab in enumerate(inst.labels):
            assert derived[("q", (j,))].lineage == lab.formula
        assert [name for name, _ in inst.label_refs] == [
            f"q({j})" for j in range(5)
        ]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_srl(0)
        with pytest.raises(ValueError):
            gen_synthetic_srl(5, n_tuples=10, blocks=3)
        with pytest.raises(ValueError):
            gen_synthetic_srl(5, n_tuples=10, blocks=2)


class TestRandom3Sat:
    def test_clauses_are_well_formed_and_satisfiable(self):
        clauses = random_3sat(4, 9, seed=11)
        assert len(clauses) == 9
        for clause in clauses:
            assert len(clause) == 3
            assert len({abs(l) for l in clause}) == 3
            assert all(1 <= abs(l) <= 4 for l in clause)
        sat = any(
            satisfies(clauses, dict(zip(range(1, 5), bits)))
            for bits in itertools.product((False, True), repeat=4)
        )
        assert sat

    def test_deterministic_per_seed(self):
        assert random_3sat(5, 8, seed=3) == random_3sat(5, 8, seed=3)
        assert random_3sat(5, 8, seed=3) != random_3sat(5, 8, seed=4)

    def test_variable_bounds(self):
        with pytest.raises(ValueError):
            random_3sat(2, 5)
        with pytest.raises(ValueError):
            random_3sat(21, 5)

    def test_rejection_budget_exhausted(self):
        # 300 random clauses over three variables are unsatisfiable in
        # practice, so a single draw cannot succeed
        with pytest.raises(InconsistentConstraintsError):
            random_3sat(3, 300, seed=0, max_tries=1)
