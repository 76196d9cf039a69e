"""The benchmark's checkers accept right answers and reject wrong ones.

    python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from pdblearn import LearnerConfig, LearningProblem, learn, solve_3sat  # noqa: E402


def _learn(label_set, **cfg):
    db, labels = workloads.instance(label_set, range(label_set.n_tuples))
    return learn(LearningProblem(db, labels), LearnerConfig(seed=3, **cfg))


def test_label_probability_matches_a_hand_computation():
    label = (((0, False), (1, True)), ((2, False),))
    p = {0: 0.3, 1: 0.6, 2: 0.25}
    expected = 1.0 - (1.0 - 0.3 * 0.4) * (1.0 - 0.25)
    assert abs(check.label_probability(label, p) - expected) < 1e-15


def test_mse_by_enumeration_rejects_a_perturbed_probability():
    labels = gen.srl_labels(gen.streams(5, 1)[0], 20, 12, 1)
    res = _learn(labels, eps_abs=0.0, eps_rel=0.0, max_outer_iterations=5)
    p = workloads.by_index(res.probabilities)
    assert check.close(check.mse(labels.labels, labels.targets, p), res.best, 1e-9)
    used = labels.labels[0][0][0][0]
    p[used] += 1e-4
    assert not check.close(check.mse(labels.labels, labels.targets, p), res.best, 1e-9)


def test_certified_conjunction_rejects_a_perturbed_probability():
    labels = gen.conjunction_set(gen.streams(7, 1)[0], 3)
    res = _learn(labels, objective="logical", eps_abs=1e-6, eps_rel=0.0)
    p = workloads.by_index(res.probabilities)
    certainty = check.conjunction_probability(labels.labels, labels.targets, p)
    assert certainty >= 1.0 - 1e-6 and check.close(certainty, res.best, 1e-9)
    p[labels.labels[0][0][0][0]] = 0.5
    assert check.conjunction_probability(labels.labels, labels.targets, p) < 1.0 - 1e-6


def test_clause_evaluator_rejects_a_flipped_variable():
    clauses = gen.planted_3cnf(gen.streams(11, 1)[0], 8, 15)
    res = solve_3sat(clauses, 8, restarts=20, seed=2)
    assert check.satisfies(clauses, res.assignment)
    rejected = 0
    for v in range(1, 9):
        flipped = dict(res.assignment)
        flipped[v] = not flipped[v]
        rejected += not check.satisfies(clauses, flipped)
    assert rejected > 0


def test_monotone_rejects_a_step_the_wrong_way():
    assert check.monotone([0.5, 0.4, 0.4, 0.1])
    assert not check.monotone([0.5, 0.4, 0.41, 0.1])
    assert check.monotone([0.1, 0.9, 0.99], increasing=True)
    assert not check.monotone([0.1, 0.9, 0.8], increasing=True)


def test_results_at_one_and_two_workers_must_be_identical():
    labels = gen.srl_labels(gen.streams(13, 1)[0], 40, 24, 4)
    fixed = dict(eps_abs=0.0, eps_rel=0.0, max_outer_iterations=4)
    one = _learn(labels, threads=1, **fixed)
    two = _learn(labels, threads=2, **fixed)
    assert check.same_results(one, two)
    t = next(iter(two.probabilities))
    two.probabilities[t] = two.probabilities[t] * (1.0 + 1e-12)
    assert not check.same_results(one, two)


def test_generators_are_seeded_and_stand_apart_from_the_program():
    draw = lambda seed: gen.srl_labels(gen.streams(seed, 1)[0], 30, 24, 4)
    assert draw(1) == draw(1) and draw(1) != draw(2)
    tree = ast.parse((HERE / "gen.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not any(name.startswith("pdblearn") for name in imported)
    hidden_ok = gen.planted_3cnf(gen.streams(3, 1)[0], 8, 15)
    assert len(hidden_ok) == 15 and all(len({abs(l) for l in c}) == 3 for c in hidden_ok)
