"""Seeded input generators owned by the benchmark.

Every generator returns plain Python data (tuple indices, negation flags,
targets) so that the checkers can recompute results without touching the
program under test.  Nothing here imports ``pdblearn.generators``: a change
there cannot change a workload.

Label shape used throughout: a label is a tuple of conjunctions, and a
conjunction is a tuple of literals ``(tuple_index, negated)``.  The label
holds when any of its conjunctions holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabelSet:
    """Labels over base tuples t(0) .. t(n_tuples - 1)."""

    n_tuples: int
    labels: tuple  # of label shapes, see the module docstring
    targets: tuple  # floats in {0.0, 1.0}


def streams(seed: int, n: int) -> list:
    """``n`` independent generators derived from one workload seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def srl_labels(rng, n_labels: int, n_tuples: int, blocks: int) -> LabelSet:
    """Relation-learning style labels: two three-literal conjunctions each.

    Label j draws six distinct tuples from block ``j % blocks`` (the tuple
    range is split into equal blocks).  In each conjunction the first literal
    is positive and the other two are negated by a fair coin.  Targets are
    fair coin flips over {0, 1}.
    """
    if n_tuples % blocks or n_tuples // blocks < 6:
        raise ValueError("need an equal split with at least 6 tuples per block")
    size = n_tuples // blocks
    labels = []
    targets = []
    for j in range(n_labels):
        lo = (j % blocks) * size
        picks = [lo + int(x) for x in rng.choice(size, 6, replace=False)]
        negated = [False, *(bool(x) for x in rng.random(2) < 0.5)]
        negated += [False, *(bool(x) for x in rng.random(2) < 0.5)]
        labels.append(
            tuple(
                tuple((picks[k], negated[k]) for k in range(c, c + 3))
                for c in (0, 3)
            )
        )
        targets.append(1.0 if rng.random() < 0.5 else 0.0)
    return LabelSet(n_tuples, tuple(labels), tuple(targets))


def conjunction_set(rng, n_labels: int, n_tuples: int = 16) -> LabelSet:
    """Overlapping positive two-clause labels, all with target 1.

    Each label picks six distinct tuples of the pool; the first three form
    one conjunction and the last three the other.
    """
    labels = []
    for _ in range(n_labels):
        picks = [int(x) for x in rng.choice(n_tuples, 6, replace=False)]
        labels.append(
            (tuple((t, False) for t in picks[:3]), tuple((t, False) for t in picks[3:]))
        )
    return LabelSet(n_tuples, tuple(labels), (1.0,) * n_labels)


def planted_3cnf(rng, n_vars: int, n_clauses: int) -> tuple:
    """A 3-CNF that a hidden assignment satisfies, as signed literal triples.

    Clauses draw three distinct variables and fair signs; a clause the hidden
    assignment falsifies is drawn again.  Variables are 1-based.
    """
    hidden = rng.random(n_vars) < 0.5
    clauses = []
    while len(clauses) < n_clauses:
        chosen = rng.choice(n_vars, 3, replace=False)
        positive = rng.random(3) < 0.5
        if any(bool(hidden[v]) == bool(s) for v, s in zip(chosen, positive)):
            clauses.append(
                tuple(int(v) + 1 if s else -(int(v) + 1) for v, s in zip(chosen, positive))
            )
    return tuple(clauses)


def sat_label_set(clauses, n_vars: int) -> LabelSet:
    """The learning encoding of a CNF over tuples t(1) .. t(2 n_vars).

    Variable i has the twin t(n_vars + i); a twin label forces the pair to
    agree, and each clause is a label of single-literal conjunctions.  All
    targets are 1.  It mirrors the encoding ``solve_3sat`` describes.
    """
    labels = [
        (((i, False), (n_vars + i, False)), ((i, True), (n_vars + i, True)))
        for i in range(1, n_vars + 1)
    ]
    labels += [tuple(((abs(l), l < 0),) for l in clause) for clause in clauses]
    return LabelSet(2 * n_vars, tuple(labels), (1.0,) * len(labels))


def components(labels) -> int:
    """Connected components of the tuple-label incidence graph."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for label in labels:
        ids = [t for conj in label for t, _ in conj]
        for t in ids:
            parent.setdefault(t, t)
        for t in ids[1:]:
            parent[find(t)] = find(ids[0])
    return len({find(t) for t in parent})


def tuple_ids(label_set: LabelSet) -> list:
    return sorted({t for label in label_set.labels for conj in label for t, _ in conj})


# --- file text in the program's TSV formats -------------------------------------


def tuples_text(ids) -> str:
    return "".join(f"t\t{i}\t?\n" for i in ids)


def _literal_text(t: int, negated: bool) -> str:
    return f"!t({t})" if negated else f"t({t})"


def rules_text(label_set: LabelSet) -> str:
    """One rule per conjunction; label j is the derived tuple q(j)."""
    lines = []
    for j, label in enumerate(label_set.labels):
        for conj in label:
            body = ", ".join(_literal_text(t, neg) for t, neg in conj)
            lines.append(f"q({j}) :- {body}.\n")
    return "".join(lines)


def query_labels_text(label_set: LabelSet) -> str:
    return "".join(f"Q\tq({j})\t{y:g}\n" for j, y in enumerate(label_set.targets))


def formula_labels_text(label_set: LabelSet) -> str:
    rows = []
    for label, y in zip(label_set.labels, label_set.targets):
        text = " | ".join(
            " & ".join(_literal_text(t, neg) for t, neg in conj) for conj in label
        )
        rows.append(f"F\t{text}\t{y:g}\n")
    return "".join(rows)


def read_probabilities(text: str) -> dict:
    """Parse ``t<TAB>i<TAB>p`` rows into {i: p}."""
    out = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("%"):
            continue
        relation, index, prob = line.split("\t")
        if relation != "t":
            raise ValueError(f"unexpected relation {relation!r}")
        out[int(index)] = float(prob)
    return out
