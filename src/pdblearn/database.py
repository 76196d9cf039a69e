"""Tuple-independent probabilistic database.

Holds a finite set of base tuples partitioned into relations.  Every tuple
either carries a known marginal probability in [0, 1] or is marked learnable
(probability unknown, to be estimated).  Learnable tuples may also carry a
value, which then serves as their current estimate or prior.
"""

from __future__ import annotations

from typing import Mapping

from .errors import ArityError, DanglingReferenceError, MissingProbabilityError
from .lineage import TupleId

__all__ = ["ProbabilisticDatabase"]


def _unit(tuple_id: TupleId, prob: float) -> float:
    """``prob`` as a float; ValueError unless it lies in [0, 1] (so also for nan)."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability of {tuple_id} must lie in [0, 1], got {prob}")
    return float(prob)


class ProbabilisticDatabase:
    def __init__(self):
        self._tuples: set[TupleId] = set()
        self._prob: dict[TupleId, float] = {}
        self._learnable: set[TupleId] = set()
        self._arity: dict[str, int] = {}

    def add(self, tuple_id: TupleId, prob: float | None = None, learnable: bool | None = None) -> TupleId:
        """Insert a base tuple.

        ``prob=None`` marks the tuple learnable; passing both a probability
        and ``learnable=True`` records the value as the current estimate.
        Re-adding an existing tuple overwrites its annotation.
        """
        known_arity = self._arity.get(tuple_id.relation)
        if known_arity is not None and known_arity != len(tuple_id.key):
            raise ArityError(
                f"relation {tuple_id.relation} has arity {known_arity}, "
                f"got {len(tuple_id.key)} in {tuple_id}"
            )
        if learnable is None:
            learnable = prob is None
        if prob is None and not learnable:
            raise MissingProbabilityError(tuple_id)
        if prob is not None:
            prob = _unit(tuple_id, prob)
        self._arity.setdefault(tuple_id.relation, len(tuple_id.key))
        self._tuples.add(tuple_id)
        if prob is None:
            self._prob.pop(tuple_id, None)
        else:
            self._prob[tuple_id] = prob
        if learnable:
            self._learnable.add(tuple_id)
        else:
            self._learnable.discard(tuple_id)
        return tuple_id

    def __contains__(self, tuple_id: TupleId) -> bool:
        return tuple_id in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self):
        return iter(sorted(self._tuples))

    @property
    def tuples(self) -> frozenset:
        return frozenset(self._tuples)

    def check_tuples(self, tuple_ids, source: str) -> None:
        """Raise DanglingReferenceError, naming ``source``, unless every tuple is here."""
        unknown = frozenset(tuple_ids) - self._tuples
        if unknown:
            raise DanglingReferenceError(
                f"{source} references tuple(s) not in the database: "
                + ", ".join(map(str, sorted(unknown)[:3]))
            )

    @property
    def learnable(self) -> frozenset:
        """The tuples whose probability is to be estimated."""
        return frozenset(self._learnable)

    @property
    def relations(self) -> tuple:
        return tuple(sorted(self._arity))

    def arity(self, relation: str) -> int:
        if relation not in self._arity:
            raise KeyError(relation)
        return self._arity[relation]

    def has_probability(self, tuple_id: TupleId) -> bool:
        return tuple_id in self._prob

    def probability(self, tuple_id: TupleId) -> float:
        if tuple_id not in self._prob:
            raise MissingProbabilityError(tuple_id)
        return self._prob[tuple_id]

    def probabilities(self) -> dict:
        """Known probabilities as a plain map (a copy)."""
        return dict(self._prob)

    def copy(self) -> "ProbabilisticDatabase":
        clone = ProbabilisticDatabase()
        clone._tuples = set(self._tuples)
        clone._prob = dict(self._prob)
        clone._learnable = set(self._learnable)
        clone._arity = dict(self._arity)
        return clone

    def with_probabilities(self, updates: Mapping[TupleId, float]) -> "ProbabilisticDatabase":
        """A copy with the given probabilities written in (tuples must exist)."""
        clone = self.copy()
        for tuple_id, prob in updates.items():
            if tuple_id not in clone._tuples:
                raise KeyError(tuple_id)
            clone._prob[tuple_id] = _unit(tuple_id, prob)
        return clone
