"""Reading and writing the tab-separated instance files.

Formats (``%`` starts a comment line, blank lines are ignored):

* tuples file: ``relation<TAB>arg...<TAB>probability`` with ``?`` in the last
  column marking a learnable tuple.  All-digit arguments are read as ints.
* rules file: one deduction rule per line, as accepted by the rule parser.
* labels file: ``Q<TAB>relation(args)<TAB>target`` referencing a derived
  tuple of the rules, or ``F<TAB>formula<TAB>target`` with an explicit
  lineage formula over base tuples.
* trace file: CSV with header ``outer_iter,objective,elapsed_ms``.
* probabilities file: ``relation<TAB>arg...<TAB>probability``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .database import ProbabilisticDatabase
from .datalog import DeductionProgram, ground, index_derived, parse_program
from .errors import DanglingReferenceError, ParseError
from .learning import Label
from .lineage import (
    And,
    LineageFormula,
    Not,
    Or,
    TupleId,
    Var,
    format_formula,
    parse_arg_token,
    parse_formula,
    parse_tuple_id,
    tuple_set,
)

__all__ = [
    "load_tuples",
    "save_tuples",
    "tuples_text",
    "load_rules",
    "save_rules",
    "load_labels",
    "save_labels",
    "save_label_refs",
    "load_probabilities",
    "save_probabilities",
    "probabilities_text",
    "write_trace",
    "expand_derived",
    "Instance",
    "load_instance",
]


def _data_lines(path):
    text = Path(path).read_text(encoding="utf-8")
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        yield n, line


def _probability(text: str, n: int) -> float:
    """The probability column of line n; ParseError unless a number in [0, 1]."""
    try:
        prob = float(text)
    except ValueError:
        raise ParseError(f"bad probability {text!r}", line=n) from None
    if not 0.0 <= prob <= 1.0:  # also refuses nan
        raise ParseError(f"probability {prob} outside [0, 1]", line=n)
    return prob


def _tuple_rows(path):
    """Each data line's number, TupleId and last column, from a tuples-like file."""
    for n, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) < 2:
            raise ParseError("expected relation, arguments, probability", line=n)
        relation, *args, last = fields
        yield n, TupleId(relation, tuple(parse_arg_token(a) for a in args)), last


def load_tuples(path) -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    for n, tid, last in _tuple_rows(path):
        if last.strip() == "?":
            db.add(tid, learnable=True)
        else:
            db.add(tid, _probability(last, n))
    return db


def _breaks(text: str) -> bool:
    """Whether ``text`` holds a line break, which would split a line."""
    return text.splitlines() not in ([], [text])


def _splits(text: str) -> bool:
    """Whether ``text`` holds a tab or a line break, which would split a row."""
    return "\t" in text or _breaks(text)


def _row(t: TupleId, last: str) -> str:
    """The tab-separated row of ``t`` with ``last`` as its final column.

    Raises ValueError for an argument that would not read back as itself: a
    str that reads as an int, or text that holds a tab or a line break.  It
    does the same for a relation that holds a tab or a line break, or that
    would start a comment line: the row's text after leading whitespace
    starts with ``%``.
    """
    for value in t.key:
        if isinstance(value, str) and (
            parse_arg_token(value) != value or _splits(value)
        ):
            raise ValueError(
                f"tuple {t}: argument {value!r} would not read back as itself"
            )
    row = "\t".join([t.relation, *map(str, t.key), last])
    if _splits(t.relation) or row.lstrip().startswith("%"):
        raise ValueError(
            f"tuple {t}: relation {t.relation!r} would not read back as itself"
        )
    return row + "\n"


def tuples_text(db: ProbabilisticDatabase) -> str:
    return "".join(
        _row(t, f"{db.probability(t):.17g}" if db.has_probability(t) else "?")
        for t in db
    )


def save_tuples(db: ProbabilisticDatabase, path) -> None:
    Path(path).write_text(tuples_text(db), encoding="utf-8")


def load_rules(path) -> DeductionProgram:
    return parse_program(Path(path).read_text(encoding="utf-8"))


def save_rules(program, path) -> None:
    """Write rule text as it is, or a program one rule per line.

    Raises ValueError for a rule whose constant holds a line break.
    """
    if not isinstance(program, str):
        for line in map(str, program.rules):
            if _breaks(line):
                raise ValueError(f"rule {line!r} would not read back: it holds a line break")
    text = program if isinstance(program, str) else str(program)
    if text and not text.endswith("\n"):
        text += "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_labels(path, db: ProbabilisticDatabase, derived: Mapping | None = None) -> tuple:
    """Read labels, resolving Q rows in ``derived`` (from ``index_derived``)."""
    known = db.tuples  # builds a new frozenset on every access
    labels = []
    for n, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected kind, reference, target", line=n)
        kind, ref, raw_target = fields
        try:
            target = float(raw_target)
        except ValueError:
            raise ParseError(f"bad target {raw_target!r}", line=n) from None
        if not 0.0 <= target <= 1.0:
            raise ParseError(f"label target must lie in [0, 1], got {target}", line=n)
        if kind not in ("Q", "F"):
            raise ParseError(f"unknown label kind {kind!r}, expected Q or F", line=n)
        if kind == "Q" and derived is None:
            raise DanglingReferenceError(
                f"label line {n} references a derived tuple but no rules were given"
            )
        try:
            parsed = (parse_tuple_id if kind == "Q" else parse_formula)(ref, n)
        except ParseError as exc:
            exc.col += len(kind) + 1  # the reference follows the kind and a tab
            raise
        if kind == "Q":
            hit = derived.get((parsed.relation, parsed.key))
            if hit is None:
                raise DanglingReferenceError(
                    f"label line {n}: {ref} is not derived by the rules"
                )
            labels.append(Label(hit.lineage, target))
        else:
            unknown = tuple_set(parsed) - known
            if unknown:
                raise DanglingReferenceError(
                    f"label line {n} references tuple(s) not in the database: "
                    f"{sorted(unknown)[:3]}"
                )
            labels.append(Label(parsed, target))
    return tuple(labels)


def _label_rows(kind: str, refs) -> str:
    """``kind<TAB>reference<TAB>target`` rows; ValueError for a reference that splits its row."""
    rows = []
    for ref, target in refs:
        if _splits(ref):
            raise ValueError(f"label {ref!r} would not read back: it holds a tab or a line break")
        rows.append(f"{kind}\t{ref}\t{target:.17g}\n")
    return "".join(rows)


def save_labels(labels: Sequence[Label], path) -> None:
    refs = ((format_formula(lab.formula), lab.target) for lab in labels)
    Path(path).write_text(_label_rows("F", refs), encoding="utf-8")


def save_label_refs(refs: Sequence[tuple], path) -> None:
    """Write Q-style label rows from (derived name text, target) pairs."""
    Path(path).write_text(_label_rows("Q", refs), encoding="utf-8")


def load_probabilities(path) -> dict:
    return {tid: _probability(last, n) for n, tid, last in _tuple_rows(path)}


def probabilities_text(probabilities: Mapping[TupleId, float]) -> str:
    return "".join(_row(t, f"{probabilities[t]:.17g}") for t in sorted(probabilities))


def save_probabilities(probabilities: Mapping[TupleId, float], path) -> None:
    Path(path).write_text(probabilities_text(probabilities), encoding="utf-8")


def write_trace(trace: Sequence[tuple], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["outer_iter", "objective", "elapsed_ms"])
        for outer, objective, ms in trace:
            writer.writerow([outer, f"{objective:.17g}", f"{ms:.3f}"])


def expand_derived(phi: LineageFormula, derived: Mapping) -> LineageFormula:
    """Replace references to derived tuples with their lineage."""
    if isinstance(phi, Var):
        hit = derived.get((phi.tuple_id.relation, phi.tuple_id.key))
        return hit.lineage if hit is not None else phi
    if isinstance(phi, Not):
        return Not(expand_derived(phi.child, derived))
    if isinstance(phi, And):
        return And(*(expand_derived(c, derived) for c in phi.children))
    if isinstance(phi, Or):
        return Or(*(expand_derived(c, derived) for c in phi.children))
    return phi


@dataclass
class Instance:
    db: ProbabilisticDatabase
    labels: tuple


def load_instance(tuples_path, rules_path=None, labels_path=None) -> Instance:
    """Read the files; the rules are grounded only when there are labels to resolve."""
    db = load_tuples(tuples_path)
    program = load_rules(rules_path) if rules_path else None
    derived = None
    if program is not None and labels_path:
        derived = index_derived(ground(program, db))
    labels = load_labels(labels_path, db, derived) if labels_path else ()
    return Instance(db=db, labels=labels)
