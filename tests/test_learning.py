"""Objectives, gradients, and the accept/reject learner."""

import gc
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdblearn import (
    And,
    DanglingReferenceError,
    FALSE,
    IntractableFormulaError,
    Label,
    LearnerConfig,
    LearningProblem,
    MissingProbabilityError,
    NonBooleanLabelError,
    Not,
    Or,
    ProbabilisticDatabase,
    TRUE,
    TupleId,
    Var,
    expit,
    gen_synthetic_srl,
    learn,
    logical_conjunction,
    logical_objective,
    logit,
    mse,
    mse_gradient,
    prior_augment,
    prob_exact,
    tuple_set,
)
from pdblearn import inference, learning
from pdblearn.learning import _label_components

from conftest import random_formula, random_pmap, tid


def v(i):
    return Var(tid(i))


def two_tuple_db():
    db = ProbabilisticDatabase()
    db.add(tid(7))
    db.add(tid(8))
    return db


PAIR_LABELS = (Label(Or(v(1), v(2)), 1.0), Label(v(1), 0.0))

# every objective x optimizer combination
VARIANTS = [
    (objective, optimizer)
    for objective in learning.OBJECTIVES
    for optimizer in learning.OPTIMIZERS
]


class TestMse:
    def test_mean_of_squared_residuals(self):
        p = {tid(1): 0.7, tid(2): 0.5}
        assert mse(PAIR_LABELS, p) == pytest.approx(0.25625, abs=1e-12)
        # un-normalized residual sum, realized through explicit unit weights
        raw = [Label(l.formula, l.target, weight=1.0) for l in PAIR_LABELS]
        assert mse(raw, p) == pytest.approx(0.5125, abs=1e-12)

    def test_satisfied_labels_give_zero(self):
        p = {tid(1): 0.0, tid(2): 1.0}
        assert mse(PAIR_LABELS, p) == 0.0

    def test_inconsistent_instance_has_positive_floor(self):
        # three labels over two tuples cannot all be met
        labels = (
            Label(v(1), 0.2),
            Label(v(2), 0.3),
            Label(And(v(1), v(2)), 0.9),
        )
        grid = np.linspace(0.0, 1.0, 501)
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        surface = ((p1 - 0.2) ** 2 + (p2 - 0.3) ** 2 + (p1 * p2 - 0.9) ** 2) / 3
        assert float(surface.min()) > 0.05
        best = mse(labels, {tid(1): 0.2, tid(2): 0.3})
        assert best > float(surface.min()) - 1e-9

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Label(v(1), 1.5)
        with pytest.raises(ValueError):
            Label(v(1), -0.1)
        with pytest.raises(ValueError):
            Label(v(1), 0.5, weight=-1.0)
        with pytest.raises(ValueError):
            Label(v(1), 0.3, weight=float("nan"))
        with pytest.raises(ValueError):
            Label(v(1), 0.3, weight=float("inf"))

    def test_intractable_label_is_reported_with_its_index(self, monkeypatch):
        labels = (Label(v(1), 1.0), Label(Or(And(v(1), v(2)), And(v(2), v(3))), 0.5))
        monkeypatch.setattr(inference, "MAX_NODES", 4)
        with pytest.raises(IntractableFormulaError) as err:
            mse(labels, {tid(i): 0.5 for i in (1, 2, 3)})
        assert "label 1" in str(err.value)


class TestMseGradient:
    def test_golden_pair(self):
        p = {tid(1): 0.5, tid(2): 0.5}
        assert mse_gradient(PAIR_LABELS, p, tid(1)) == pytest.approx(0.375, abs=1e-12)
        assert mse_gradient(PAIR_LABELS, p, tid(2)) == pytest.approx(-0.125, abs=1e-12)

    def test_absent_tuple_has_zero_gradient(self):
        assert mse_gradient(PAIR_LABELS, {tid(1): 0.5, tid(2): 0.5}, tid(9)) == 0.0

    def test_reweighting_one_label_rescales_its_term(self):
        labels = (
            Label(Or(v(1), v(2)), 1.0, weight=0.5),
            Label(v(1), 0.0, weight=1.0),
        )
        p = {tid(1): 0.5, tid(2): 0.5}
        assert mse_gradient(labels, p, tid(1)) == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.property
    @settings(max_examples=110, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        labels = tuple(
            Label(random_formula(rng, 5), float(rng.random()))
            for _ in range(int(rng.integers(1, 4)))
        )
        ids = sorted({t for l in labels for t in tuple_set(l.formula)})
        if not ids:
            return
        p = {t: 0.1 + 0.8 * float(rng.random()) for t in ids}
        t = ids[seed % len(ids)]
        h = 1e-6
        up = mse(labels, {**p, t: p[t] + h})
        down = mse(labels, {**p, t: p[t] - h})
        assert mse_gradient(labels, p, t) == pytest.approx(
            (up - down) / (2 * h), abs=1e-6
        )


class TestLogicalObjective:
    def test_labels_fold_into_one_conjunction(self):
        conj = logical_conjunction(PAIR_LABELS)
        assert conj == And(Or(v(1), v(2)), Not(v(1)))

    def test_satisfying_point_reaches_one(self):
        p = {tid(1): 0.0, tid(2): 1.0}
        assert logical_objective(PAIR_LABELS, p) == pytest.approx(1.0, abs=1e-12)

    def test_contradictory_labels_are_zero_everywhere(self):
        labels = (Label(v(1), 1.0), Label(v(1), 0.0))
        for p1 in (0.0, 0.3, 0.9):
            assert logical_objective(labels, {tid(1): p1}) == 0.0

    def test_uniform_point_value(self):
        p = {tid(1): 0.5, tid(2): 0.5}
        assert logical_objective(PAIR_LABELS, p) == pytest.approx(0.25, abs=1e-12)

    def test_non_boolean_target_is_rejected(self):
        with pytest.raises(NonBooleanLabelError):
            logical_objective((Label(v(1), 0.4),), {tid(1): 0.5})

    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_duplicating_a_label_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        labels = tuple(
            Label(random_formula(rng, 4), float(rng.integers(2)))
            for _ in range(int(rng.integers(1, 4)))
        )
        ids = {t for l in labels for t in tuple_set(l.formula)}
        p = {t: float(rng.random()) for t in ids}
        doubled = labels + (labels[0],)
        assert logical_objective(doubled, p) == pytest.approx(
            logical_objective(labels, p), abs=1e-12
        )


class TestLogitExpit:
    def test_midpoint_maps_to_zero(self):
        assert logit(0.5) == 0.0
        assert expit(0.0) == 0.5

    def test_endpoints_clamp_to_the_cap(self):
        cap = math.log(1e9)
        assert logit(1.0) == pytest.approx(cap, abs=1e-12)
        assert logit(0.0) == pytest.approx(-cap, abs=1e-12)
        assert expit(1e6) == expit(cap)
        assert 0.0 < expit(-1e6) < expit(1e6) < 1.0

    def test_roundtrip(self):
        assert expit(logit(0.3)) == pytest.approx(0.3, abs=1e-12)
        for p in (0.001, 0.25, 0.75, 0.999):
            assert expit(logit(p)) == pytest.approx(p, abs=1e-9)


class TestPriorAugment:
    def test_full_data_weight_reduces_to_plain_mse(self):
        prior = {tid(1): 0.8, tid(2): 0.1}
        augmented = prior_augment(PAIR_LABELS, prior, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = {tid(1): float(rng.random()), tid(2): float(rng.random())}
            assert mse(augmented, p) == pytest.approx(mse(PAIR_LABELS, p), abs=1e-12)

    def test_zero_data_weight_is_minimized_at_the_prior(self):
        db = two_tuple_db()
        prior = {tid(7): 0.35, tid(8): 0.8}
        problem = LearningProblem(db, prior_augment((Label(v(7), 1.0),), prior, 0.0))
        out = learn(problem, LearnerConfig(eps_abs=1e-12, eps_rel=0.0, seed=1))
        assert out.probabilities[tid(7)] == pytest.approx(0.35, abs=1e-3)
        assert out.probabilities[tid(8)] == pytest.approx(0.8, abs=1e-3)

    def test_even_mix_splits_the_difference(self):
        db = ProbabilisticDatabase()
        db.add(tid(7))
        problem = LearningProblem(
            db, prior_augment((Label(v(7), 0.2),), {tid(7): 0.8}, 0.5)
        )
        out = learn(problem, LearnerConfig(eps_abs=1e-12, eps_rel=0.0, seed=0))
        assert out.probabilities[tid(7)] == pytest.approx(0.5, abs=1e-3)

    def test_mixing_constant_is_validated(self):
        with pytest.raises(ValueError):
            prior_augment(PAIR_LABELS, {tid(1): 0.5}, 2.0)
        with pytest.raises(ValueError):
            prior_augment(PAIR_LABELS, {tid(1): 0.5}, -0.5)


class TestComponents:
    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_union_find_matches_a_naive_merge(self, seed):
        rng = np.random.default_rng(seed)
        keysets = [
            frozenset(
                tid(int(i))
                for i in rng.choice(30, size=int(rng.integers(0, 4)), replace=False)
            )
            for _ in range(int(rng.integers(0, 25)))
        ]
        # merge each keyset with every group it shares a key with
        groups = []
        for i, ks in enumerate(keysets):
            if not ks:
                continue
            idxs, keys = [i], set(ks)
            for group in [g for g in groups if g[1] & keys]:
                groups.remove(group)
                idxs += group[0]
                keys |= group[1]
            groups.append((idxs, keys))
        expected = sorted(
            ((tuple(sorted(idxs)), frozenset(keys)) for idxs, keys in groups),
            key=lambda group: min(group[1]),
        )
        assert _label_components(keysets) == expected


class TestLearn:
    def test_config_validation(self):
        nan = float("nan")
        bad = [
            {"objective": "mae"},
            {"optimizer": "adam"},
            {"eps_abs": -1e-6},
            {"eps_rel": -1e-4},
            {"eps_abs": nan},
            {"eps_rel": nan},
            {"threads": 0},
            {"max_outer_iterations": -3},
        ]
        for fields in bad:
            with pytest.raises(ValueError):
                LearnerConfig(**fields)
        assert LearnerConfig(max_outer_iterations=0).max_outer_iterations == 0

    def test_unique_solution_instance(self):
        db = two_tuple_db()
        labels = (Label(v(7), 0.4), Label(v(8), 0.7))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=0),
        )
        assert out.converged and out.status == "eps_abs"
        assert out.probabilities[tid(7)] == pytest.approx(0.4, abs=1e-3)
        assert out.probabilities[tid(8)] == pytest.approx(0.7, abs=1e-3)

    def test_two_solution_instance_reaches_either_optimum(self):
        db = two_tuple_db()
        labels = (Label(And(v(7), v(8)), 0.1), Label(Or(v(7), v(8)), 0.6))
        for seed in range(4):
            out = learn(
                LearningProblem(db, labels),
                LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=seed),
            )
            got = (out.probabilities[tid(7)], out.probabilities[tid(8)])
            close = min(
                max(abs(got[0] - 0.2), abs(got[1] - 0.5)),
                max(abs(got[0] - 0.5), abs(got[1] - 0.2)),
            )
            assert out.converged and close <= 1e-3, (seed, got)

    def test_all_optimizers_find_the_unique_optimum(self):
        db = two_tuple_db()
        labels = (Label(v(7), 0.4), Label(v(8), 0.7))
        for optimizer in ("sgd-per-tuple", "sgd-single", "gd"):
            out = learn(
                LearningProblem(db, labels),
                LearnerConfig(
                    optimizer=optimizer, eps_abs=1e-10, eps_rel=0.0, seed=2
                ),
            )
            assert out.probabilities[tid(7)] == pytest.approx(0.4, abs=1e-3), optimizer
            assert out.probabilities[tid(8)] == pytest.approx(0.7, abs=1e-3), optimizer

    def test_gd_on_disjoint_labels_matches_per_coordinate_averages(self):
        db = two_tuple_db()
        labels = (Label(v(7), 0.3), Label(v(7), 0.5), Label(v(8), 0.8))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(optimizer="gd", eps_abs=1e-12, eps_rel=0.0, seed=0),
        )
        # squared loss over an affine marginal: optimum is the target mean
        assert out.probabilities[tid(7)] == pytest.approx(0.4, abs=1e-3)
        assert out.probabilities[tid(8)] == pytest.approx(0.8, abs=1e-3)

    def test_logical_objective_drives_probabilities_to_certainty(self):
        db = two_tuple_db()
        labels = (Label(Or(v(7), v(8)), 1.0), Label(v(7), 0.0))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(objective="logical", eps_abs=1e-6, eps_rel=0.0, seed=0),
        )
        assert out.best >= 1.0 - 1e-6
        assert out.probabilities[tid(7)] <= 1e-3
        assert out.probabilities[tid(8)] >= 1.0 - 1e-3

    def test_inconsistent_instance_stops_on_relative_criterion(self):
        db = two_tuple_db()
        labels = (Label(v(7), 1.0), Label(v(7), 0.0))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-9, eps_rel=1e-4, seed=0),
        )
        assert out.status == "eps_rel"
        # a plateau stop is a sanctioned outcome, not an exhausted budget
        assert out.converged
        # the objective cannot beat the analytic floor of the instance
        assert out.best >= 0.25 - 1e-12
        assert out.best < out.trace[0][1]
        # disabling the relative criterion lets the run polish the optimum
        tight = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-9, eps_rel=0.0, seed=0),
        )
        assert tight.best == pytest.approx(0.25, abs=1e-9)
        assert tight.probabilities[tid(7)] == pytest.approx(0.5, abs=1e-6)

    def test_iteration_budget_is_respected(self):
        db = two_tuple_db()
        labels = (Label(v(7), 1.0), Label(v(7), 0.0))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-12, eps_rel=0.0, max_outer_iterations=3),
        )
        assert out.status == "max_iterations"
        assert out.iterations <= 3

    def test_trace_starts_at_the_initial_objective_and_never_worsens(self):
        db = two_tuple_db()
        labels = (Label(Or(v(7), v(8)), 0.9), Label(v(7), 0.3))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=5),
        )
        iters = [row[0] for row in out.trace]
        assert iters[0] == 0 and iters == sorted(iters)
        values = [row[1] for row in out.trace]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert all(row[2] >= 0.0 for row in out.trace)
        assert out.iterations == out.trace[-1][0]

    def test_empty_label_set_returns_the_seeded_initialization(self):
        db = two_tuple_db()
        first = learn(LearningProblem(db, ()), LearnerConfig(seed=9))
        second = learn(LearningProblem(db, ()), LearnerConfig(seed=9))
        assert first.status == "eps_abs"
        assert first.probabilities == second.probabilities
        assert set(first.probabilities) == {tid(7), tid(8)}
        assert all(0.0 < x < 1.0 for x in first.probabilities.values())

    def test_fixed_tuples_are_left_alone(self):
        db = ProbabilisticDatabase()
        db.add(tid(1), 0.6)
        db.add(tid(7))
        labels = (Label(And(v(1), v(7)), 0.3),)
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=0),
        )
        assert set(out.probabilities) == {tid(7)}
        assert db.probability(tid(1)) == 0.6
        assert out.probabilities[tid(7)] == pytest.approx(0.5, abs=1e-3)

    def test_dangling_references_are_rejected(self):
        db = two_tuple_db()
        with pytest.raises(DanglingReferenceError):
            learn(LearningProblem(db, (Label(v(9), 0.5),)))
        with pytest.raises(DanglingReferenceError):
            learn(LearningProblem(db, (), learnable=frozenset({tid(9)})))

    def test_missing_probability_names_the_first_tuple_in_sorted_order(self):
        # tuples 2 and 3 are neither learnable here nor known
        db = ProbabilisticDatabase()
        for i in (1, 2, 3):
            db.add(tid(i))
        labels = (Label(And(v(3), v(1), v(2)), 0.5),)
        problem = LearningProblem(db, labels, learnable=frozenset({tid(1)}))
        with pytest.raises(MissingProbabilityError) as err:
            learn(problem)
        assert err.value.tuple_id == tid(2)

    def test_logical_learn_names_the_first_non_boolean_label(self):
        # label 1 sits in the first component, but label 0 comes first
        db = ProbabilisticDatabase()
        for i in (1, 5):
            db.add(tid(i))
        labels = (Label(v(5), 0.5), Label(v(1), 0.4))
        with pytest.raises(NonBooleanLabelError, match="^label 0 target 0.5 "):
            learn(LearningProblem(db, labels), LearnerConfig(objective="logical"))

    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_duplicated_label_leaves_the_optimum_in_place(self, seed):
        db = two_tuple_db()
        labels = (Label(v(7), 0.4), Label(v(8), 0.7))
        base = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=seed),
        )
        doubled = learn(
            LearningProblem(db, labels + (labels[0],)),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=seed),
        )
        # the unique minimiser (0.4, 0.7) must survive duplication
        for t in (tid(7), tid(8)):
            assert doubled.probabilities[t] == pytest.approx(
                base.probabilities[t], abs=1e-3
            )

    def test_intractable_label_error_names_the_label(self, monkeypatch):
        db = ProbabilisticDatabase()
        for i in (1, 2, 3):
            db.add(tid(i))
        for i in range(10, 22):
            db.add(tid(i), 0.5)
        # over fixed tuples only: a constant part of either objective
        chain = Or(*(And(v(i), v(i + 1)) for i in range(10, 21)))
        cases = [
            ("mse", (Label(Or(And(v(1), v(2)), And(v(2), v(3))), 0.5),), "label 0: "),
            ("mse", (Label(v(1), 0.3), Label(chain, 0.2)), "label 1: "),
            ("logical", (Label(v(1), 1.0), Label(chain, 1.0)), "labels [1]: "),
        ]
        monkeypatch.setattr(inference, "MAX_NODES", 4)
        for objective, labels, where in cases:
            with pytest.raises(IntractableFormulaError) as err:
                learn(LearningProblem(db, labels), LearnerConfig(objective=objective))
            assert str(err.value).startswith(where), (objective, str(err.value))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_intractable_label_named_when_compiled_in_a_worker(
        self, threads, monkeypatch
    ):
        # four components; labels 1 and 2 cannot compile, and with two or
        # more threads they land in different workers: the first is reported.
        # The workers see the lowered budget only because they are forked.
        db = ProbabilisticDatabase()
        for i in range(1, 9):
            db.add(tid(i))
        labels = (
            Label(v(1), 0.3),
            Label(Or(And(v(2), v(3)), And(v(3), v(4))), 0.5),
            Label(Or(And(v(5), v(6)), And(v(6), v(7))), 0.5),
            Label(v(8), 0.6),
        )
        monkeypatch.setattr(inference, "MAX_NODES", 4)
        with pytest.raises(IntractableFormulaError) as err:
            learn(LearningProblem(db, labels), LearnerConfig(threads=threads))
        assert str(err.value).startswith("label 1: ")
        assert "reached 4 nodes, the MAX_NODES limit of 4" in str(err.value)

    def test_each_shape_is_decomposed_once_per_component(self, monkeypatch):
        # labels that differ only in which tuples they name, in the same
        # order, share one decomposition within their component
        inst = gen_synthetic_srl(2000, n_tuples=200, blocks=4)
        decomposed = []
        decompose = inference._decompose

        def counting(phi):
            decomposed.append(phi)
            return decompose(phi)

        monkeypatch.setattr(inference, "_decompose", counting)
        learn(
            LearningProblem(inst.db, inst.labels),
            LearnerConfig(max_outer_iterations=0),
        )
        calls = len(decomposed)
        assert calls < 0.6 * len(inst.labels)
        keysets = [frozenset(tuple_set(lab.formula)) for lab in inst.labels]
        shapes = [
            {inference._shape(inst.labels[i].formula)[0] for i in indices}
            for indices, _ in _label_components(keysets)
        ]
        assert len(shapes) == 4
        assert calls == sum(map(len, shapes))

    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_seed_determinism_produces_identical_traces(self, seed):
        db = two_tuple_db()
        labels = (Label(And(v(7), v(8)), 0.1), Label(Or(v(7), v(8)), 0.6))
        cfg = LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=seed)
        a = learn(LearningProblem(db, labels), cfg)
        b = learn(LearningProblem(db, labels), cfg)
        # wall-clock column aside, traces must agree bit for bit
        assert [(i, v) for i, v, _ in a.trace] == [(i, v) for i, v, _ in b.trace]
        assert a.probabilities == b.probabilities

    def test_thread_count_does_not_change_the_result(self):
        db = ProbabilisticDatabase()
        for i in range(8):
            db.add(tid(i))
        labels = tuple(
            Label(Or(v(2 * k), v(2 * k + 1)), 0.2 + 0.15 * k) for k in range(4)
        )
        solo = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=4, threads=1),
        )
        pooled = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-10, eps_rel=0.0, seed=4, threads=4),
        )
        assert solo.probabilities == pooled.probabilities
        assert solo.best == pooled.best

    @pytest.mark.skipif(
        not hasattr(learning.os, "sched_setaffinity"), reason="no CPU affinity"
    )
    def test_a_refused_cpu_move_leaves_the_run_unchanged(self, monkeypatch):
        # each process of a parallel run is first moved to a CPU of its own;
        # where the system refuses, the processes stay put and run as before
        def refuse(pid, cpus):
            raise PermissionError("CPU affinity is not allowed here")

        inst = gen_synthetic_srl(200, seed=3, n_tuples=40, blocks=4)
        cfg = dict(eps_abs=0.0, eps_rel=0.0, max_outer_iterations=4, seed=2)
        serial = learn(LearningProblem(inst.db, inst.labels), LearnerConfig(**cfg))
        monkeypatch.setattr(learning.os, "sched_setaffinity", refuse)
        pooled = learn(
            LearningProblem(inst.db, inst.labels), LearnerConfig(threads=4, **cfg)
        )
        assert pooled.probabilities == serial.probabilities
        assert pooled.best == serial.best

    @pytest.mark.parametrize(
        "objective, optimizer",
        [("mse", "sgd-per-tuple"), ("mse", "sgd-single"), ("mse", "gd"),
         ("logical", "sgd-per-tuple"), ("logical", "gd")],
    )
    def test_every_variant_is_identical_with_components_sharing_a_worker(
        self, objective, optimizer
    ):
        # five components of unequal size over two and three workers, so some
        # worker owns several; a fixed tuple joins every label
        db = ProbabilisticDatabase()
        db.add(tid(99), 0.9)
        sizes = (1, 2, 3, 2, 1)
        labels, first = [], 0
        for k, size in enumerate(sizes):
            ids = range(first, first + size + 1)
            for i in ids:
                db.add(tid(i))
            labels.append(Label(And(v(99), Or(*map(v, ids))), 1.0))
            labels.append(Label(Or(v(99), And(*map(v, ids))), float(k % 2)))
            first += size + 1
        cfg = dict(objective=objective, optimizer=optimizer, eps_abs=0.0,
                   eps_rel=0.0, max_outer_iterations=30, seed=11,
                   record_accepted=True)
        runs = [
            learn(LearningProblem(db, tuple(labels)), LearnerConfig(threads=n, **cfg))
            for n in (1, 2, 3)
        ]
        for other in runs[1:]:
            assert other.probabilities == runs[0].probabilities
            assert other.best == runs[0].best
            assert [row[:2] for row in other.trace] == [row[:2] for row in runs[0].trace]
            assert other.status == runs[0].status
            assert other.accepted == runs[0].accepted

    def test_a_parallel_run_keeps_the_callers_frozen_heap(self):
        # the fork freezes the heap for the workers' sake; a parallel run
        # unfreezes it afterwards only if the caller had frozen nothing
        inst = gen_synthetic_srl(200, seed=3, n_tuples=40, blocks=4)
        problem = LearningProblem(inst.db, inst.labels)
        cfg = LearnerConfig(max_outer_iterations=1, threads=2)
        was_frozen = gc.get_freeze_count()
        try:
            if not was_frozen:
                learn(problem, cfg)
                assert gc.get_freeze_count() == 0
            gc.freeze()
            frozen = gc.get_freeze_count()
            assert frozen > 0
            learn(problem, cfg)
            assert gc.get_freeze_count() >= frozen
        finally:
            if not was_frozen:
                gc.unfreeze()

    def test_spawned_workers_match_the_serial_run(self, monkeypatch):
        # where fork is missing, workers are spawned and get their components
        # pickled, with their fixed tuples and RNG streams, instead of inherited
        real = multiprocessing.get_context

        def without_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real("spawn")

        srl = gen_synthetic_srl(200, seed=3, n_tuples=40, blocks=4)
        # four components, each joined by a fixed tuple of its own, and a
        # label over a fixed tuple alone, which touches no learnable tuple
        db = ProbabilisticDatabase()
        labels, first = [], 0
        for k, size in enumerate((1, 2, 3, 2)):
            db.add(tid(100 + k), 0.5 + 0.1 * k)
            ids = range(first, first + size + 1)
            for i in ids:
                db.add(tid(i))
            labels.append(Label(Or(v(100 + k), And(*map(v, ids))), 1.0))
            labels.append(Label(And(v(100 + k), Or(*map(v, ids))), float(k % 2)))
            first += size + 1
        db.add(tid(104), 0.8)
        labels.append(Label(v(104), 1.0))
        cases = [
            (LearningProblem(srl.db, srl.labels), "mse"),
            (LearningProblem(db, tuple(labels)), "mse"),
            (LearningProblem(db, tuple(labels)), "logical"),
        ]
        for problem, objective in cases:
            cfg = dict(objective=objective, eps_abs=0.0, eps_rel=0.0,
                       max_outer_iterations=8, seed=2, record_accepted=True)
            serial = learn(problem, LearnerConfig(**cfg))
            with monkeypatch.context() as patched:
                patched.setattr(learning.multiprocessing, "get_context", without_fork)
                spawned = learn(problem, LearnerConfig(threads=2, **cfg))
            assert spawned.probabilities == serial.probabilities
            assert spawned.best == serial.best
            assert [r[:2] for r in spawned.trace] == [r[:2] for r in serial.trace]
            assert spawned.accepted == serial.accepted

    @pytest.mark.parametrize("objective, optimizer", VARIANTS)
    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_accepted_objective_values_strictly_improve(
        self, objective, optimizer, seed
    ):
        rng = np.random.default_rng(seed)
        logical = objective == "logical"
        draw = (lambda: float(rng.integers(2))) if logical else rng.random
        n = int(rng.integers(2, 5))
        db = ProbabilisticDatabase()
        for i in range(n):
            db.add(tid(i))
        # tie every formula to t(0) so the instance is a single component
        labels = [Label(Or(v(0), random_formula(rng, n)), float(draw()))]
        for _ in range(int(rng.integers(1, 3))):
            labels.append(Label(And(v(0), random_formula(rng, n)), float(draw())))
        out = learn(
            LearningProblem(db, tuple(labels)),
            LearnerConfig(
                objective=objective,
                optimizer=optimizer,
                eps_abs=1e-12,
                eps_rel=0.0,
                max_outer_iterations=25,
                seed=seed,
                record_accepted=True,
            ),
        )
        assert out.accepted is not None
        pairs = list(zip(out.accepted, out.accepted[1:]))
        if logical:  # maximized
            assert all(a < b for a, b in pairs), out.accepted[:10]
        else:
            assert all(b < a for a, b in pairs), out.accepted[:10]

    @pytest.mark.parametrize("objective, optimizer", VARIANTS)
    def test_best_matches_exact_inference(self, objective, optimizer):
        # three components, each with its own fixed tuple, and one label over
        # fixed tuples alone: best must equal the objective evaluated from
        # scratch at the learned probabilities
        logical = objective == "logical"
        for seed in range(8):
            rng = np.random.default_rng(seed)
            db = ProbabilisticDatabase()
            for i in range(50, 55):
                db.add(tid(i), float(rng.uniform(0.2, 0.8)))
            labels = []
            for block in range(3):
                for i in range(3 * block, 3 * block + 3):
                    db.add(tid(i))
                for _ in range(int(rng.integers(1, 4))):
                    a, b, c = (v(int(i)) for i in rng.permutation(3) + 3 * block)
                    fixed = v(50 + block)
                    phi = [
                        Or(a, And(b, fixed)),
                        And(a, Not(c)),
                        Or(And(a, b), And(Not(b), c, fixed)),
                    ][int(rng.integers(3))]
                    target = float(rng.integers(2)) if logical else float(rng.random())
                    labels.append(Label(phi, target))
            labels.append(Label(Or(v(53), v(54)), 1.0 if logical else 0.3))
            labels = tuple(labels[i] for i in rng.permutation(len(labels)))
            out = learn(
                LearningProblem(db, labels),
                LearnerConfig(
                    objective=objective,
                    optimizer=optimizer,
                    eps_abs=0.0,
                    eps_rel=0.0,
                    max_outer_iterations=30,
                    seed=seed,
                ),
            )
            p = {**db.probabilities(), **out.probabilities}
            exact = logical_objective(labels, p) if logical else mse(labels, p)
            assert out.best == pytest.approx(exact, abs=1e-12), (seed, out.best, exact)

    @pytest.mark.parametrize(
        "constant, target",
        [(FALSE, 1.0), (TRUE, 0.0)],
        ids=["false-1", "true-0"],
    )
    def test_logical_label_over_no_tuple_is_a_constant_factor(self, constant, target):
        # such a label joins no component; its probability, 0 here, still multiplies best
        db = ProbabilisticDatabase()
        db.add(tid(1))
        labels = (Label(constant, target), Label(v(1), 1.0))
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(objective="logical", max_outer_iterations=50, seed=0),
        )
        exact = logical_objective(labels, out.probabilities)
        assert out.best == pytest.approx(exact, abs=1e-12), (out.best, exact)
        assert exact == 0.0

    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_learned_values_stay_inside_the_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        db = ProbabilisticDatabase()
        for i in range(n):
            db.add(tid(i))
        labels = tuple(
            Label(random_formula(rng, n), float(rng.random()))
            for _ in range(int(rng.integers(1, 4)))
        )
        out = learn(
            LearningProblem(db, labels),
            LearnerConfig(eps_abs=1e-8, max_outer_iterations=40, seed=seed),
        )
        assert all(0.0 <= x <= 1.0 for x in out.probabilities.values())
        fixed_point = out.probabilities
        assert set(fixed_point) == set(db.learnable)
