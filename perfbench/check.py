"""Checkers that recompute results apart from the program under test.

Probabilities are recomputed by enumerating possible worlds with numpy over
the benchmark's own label shapes (see ``gen``); nothing here calls into
``pdblearn``.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    pass


def _worlds(n: int) -> np.ndarray:
    """All 2^n worlds as an (2^n, n) Boolean table; bit i is column i."""
    index = np.arange(1 << n, dtype=np.int64)
    return ((index[:, None] >> np.arange(n)) & 1).astype(bool)


def _world_weights(table: np.ndarray, probs) -> np.ndarray:
    weights = np.ones(table.shape[0])
    for i, p in enumerate(probs):
        weights *= np.where(table[:, i], p, 1.0 - p)
    return weights


def _holds(label, table, column) -> np.ndarray:
    out = np.zeros(table.shape[0], dtype=bool)
    for conj in label:
        part = np.ones(table.shape[0], dtype=bool)
        for t, negated in conj:
            bit = table[:, column[t]]
            part &= ~bit if negated else bit
        out |= part
    return out


def conjunction_probability(labels, targets, p) -> float:
    """P(every label holds with its target) by enumerating all worlds.

    ``p`` maps tuple index to probability; only tuples the labels mention
    are enumerated.
    """
    ids = sorted({t for label in labels for conj in label for t, _ in conj})
    column = {t: i for i, t in enumerate(ids)}
    table = _worlds(len(ids))
    alive = np.ones(table.shape[0], dtype=bool)
    for label, y in zip(labels, targets):
        holds = _holds(label, table, column)
        alive &= holds if y == 1.0 else ~holds
    return float(_world_weights(table, [p[t] for t in ids])[alive].sum())


def label_probability(label, p) -> float:
    return conjunction_probability((label,), (1.0,), p)


def mse(labels, targets, p) -> float:
    """Mean squared error with the default weight 1/|labels| per label."""
    total = 0.0
    for label, y in zip(labels, targets):
        residual = label_probability(label, p) - y
        total += residual * residual
    return total / len(labels)


def satisfies(clauses, assignment) -> bool:
    """Whether ``assignment`` (1-based variable -> bool) satisfies every clause."""
    return all(any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses)


def monotone(objectives, increasing: bool = False) -> bool:
    """Whether a convergence trace never moves the wrong way."""
    pairs = zip(objectives, objectives[1:])
    if increasing:
        return all(b >= a for a, b in pairs)
    return all(b <= a for a, b in pairs)


def same_results(one, two) -> bool:
    """Whether two learner results hold identical probabilities and objective."""
    return one.probabilities == two.probabilities and one.best == two.best


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)
