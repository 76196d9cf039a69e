"""Safe non-recursive Datalog with lineage-producing grounding.

Rule syntax, one rule per line; a ``%`` outside a double-quoted string starts
a comment that runs to the end of the line::

    WonPrize(S, O) :- WonPrizeExtraction(S, O, Pid, Did), UsingPattern(Pid, P), FromDomain(Did, D).
    Conflict(X) :- Claim(X, V1), Claim(X, V2), V1 != V2, !Retracted(X).

Tokens starting with an uppercase letter (or ``_``) are variables; lowercase
identifiers, integers, and double-quoted strings are constants.  ``!`` negates
a literal.  Comparisons use ``=  !=  <  <=  >  >=`` over integers or strings
(lexicographic); comparing an integer against a string is an error.

Every check runs once, when a rule or program is built, parsed or not.
Constants are ints or strs, and comparisons use the six operators above.  A
rule's head is a positive literal, and its body holds only literals and
comparisons.  A rule is safe: it has a positive body literal, and every
variable of the head, of negated literals, and of comparisons occurs in one.
A program is non-recursive (the dependency graph over derived relations is
acyclic) and uses each relation at one arity.  It keeps those arities and its
strata: each derived relation with its rules, in a
``graphlib.TopologicalSorter`` order that takes the least ready relation
first.  ``ground`` checks once each relation the program reads from the
database.

Grounding semantics over a probabilistic database:

* a positive literal contributes the matched tuple's event (base tuple) or
  the matched derived tuple's lineage;
* a negated literal with a match contributes the negation of that lineage;
  with no match it contributes the constant true (closed world);
* each rule instantiation contributes the conjunction of its body lineages,
  and instantiations deriving the same head tuple merge by disjunction.

No derived lineage is a constant, so no derived tuple is dropped: a base
row's lineage is a ``Var``, every rule has a positive literal, and by
induction over the strata each body conjunction and each head's disjunction
joins non-constant formulas and their negations, which fold to no constant.

Joins are hash joins.  A positive literal's bound argument positions are its
constants plus the variables of the positive literals before it, so they are
known before any row is read.  Each ``ground`` call keeps one index per
(relation, bound positions), built on first use from one sort of the
relation: it maps the bound values to the matching rows in argument order.
Strata run in dependency order, so a derived relation is complete before any
rule reads it.  Every partial binding probes the index, which matches the
literal's constants and bound variables, so each row it returns only binds
the literal's new variables and checks a variable repeated inside it, as in
``e(X, X)``.  Matching is type-strict: ``1`` and ``"1"`` differ.  A negated
literal is fully bound, so it looks its row up by its arguments.
"""

from __future__ import annotations

import heapq
import operator
import re
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Mapping, Sequence

from .database import ProbabilisticDatabase
from .errors import (
    ArityError,
    ComparisonTypeError,
    CyclicProgramError,
    SafetyError,
    UnknownRelationError,
)
from .lineage import (
    And,
    LineageFormula,
    Not,
    Or,
    TupleId,
    Var,
    args_sort_key,
)
from .lineage import _IDENT, _INT_TOKEN, _Scanner, _quoted

__all__ = [
    "Variable",
    "Literal",
    "Comparison",
    "DeductionRule",
    "DeductionProgram",
    "DerivedTuple",
    "parse_rule",
    "parse_program",
    "format_rule",
    "format_program",
    "ground",
    "index_derived",
]

_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


def _check_terms(terms):
    for term in terms:
        if isinstance(term, bool) or not isinstance(term, (Variable, int, str)):
            raise TypeError(f"rule constant must be int or str, got {term!r}")


@dataclass(frozen=True)
class Literal:
    relation: str
    args: tuple
    negated: bool = False

    def __post_init__(self):
        _check_terms(self.args)

    def variables(self) -> set:
        return {a for a in self.args if isinstance(a, Variable)}

    def __str__(self):
        body = ", ".join(_format_term(a) for a in self.args)
        return f"{'!' if self.negated else ''}{self.relation}({body})"


@dataclass(frozen=True)
class Comparison:
    op: str
    left: object
    right: object

    def __post_init__(self):
        if self.op not in _COMPARATORS:
            raise ValueError(
                f"unknown comparison operator {self.op!r}, expected one of "
                + " ".join(_COMPARATORS)
            )
        _check_terms((self.left, self.right))

    def variables(self) -> set:
        return {a for a in (self.left, self.right) if isinstance(a, Variable)}

    def __str__(self):
        return f"{_format_term(self.left)} {self.op} {_format_term(self.right)}"


def _format_term(term) -> str:
    if isinstance(term, Variable):
        return term.name
    # a string constant written bare must not re-parse as a variable or an integer
    if isinstance(term, int) or re.fullmatch(r"[a-z][A-Za-z0-9_]*", term):
        return str(term)
    return _quoted(term)


@dataclass(frozen=True)
class DeductionRule:
    head: Literal
    body: tuple  # Literals and Comparisons in source order
    positive: tuple = field(init=False, repr=False, compare=False)
    negative: tuple = field(init=False, repr=False, compare=False)
    comparisons: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.head.negated:
            raise ValueError(f"rule head {self.head} must not be negated")
        for item in self.body:
            if not isinstance(item, (Literal, Comparison)):
                raise TypeError(
                    f"rule body item must be a Literal or a Comparison, got {item!r}"
                )
        literals = [b for b in self.body if isinstance(b, Literal)]
        object.__setattr__(self, "positive", tuple(b for b in literals if not b.negated))
        object.__setattr__(self, "negative", tuple(b for b in literals if b.negated))
        object.__setattr__(
            self, "comparisons", tuple(b for b in self.body if isinstance(b, Comparison))
        )
        _check_safety(self)

    def __str__(self):
        return format_rule(self)


@dataclass(frozen=True)
class DeductionProgram:
    rules: tuple
    # (derived relation, its rules) in dependency order
    strata: tuple = field(init=False, repr=False, compare=False)
    # relation -> arity, for every relation the rules name, in order of first use
    arities: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "strata", _strata(self.rules))
        object.__setattr__(self, "arities", _arities(self.rules))

    def __str__(self):
        return format_program(self)


@dataclass(frozen=True)
class DerivedTuple:
    relation: str
    args: tuple
    lineage: LineageFormula

    @property
    def name(self) -> TupleId:
        """The derived tuple's identity in label files: relation(args)."""
        return TupleId(self.relation, self.args)

    def __str__(self):
        return f"{self.name}"


def _check_safety(rule: DeductionRule):
    if not rule.positive:
        raise SafetyError(
            f"rule for {rule.head.relation} has no positive body literal"
        )
    bound = set()
    for literal in rule.positive:
        bound |= literal.variables()
    demanded = rule.head.variables()
    for item in (*rule.negative, *rule.comparisons):
        demanded |= item.variables()
    unbound = sorted(v.name for v in demanded - bound)
    if unbound:
        raise SafetyError(
            f"unsafe rule for {rule.head.relation}: "
            f"variable(s) {', '.join(unbound)} not bound by a positive literal"
        )


def _strata(rules: Sequence[DeductionRule]) -> tuple:
    by_head: dict[str, list] = {}
    for rule in rules:
        by_head.setdefault(rule.head.relation, []).append(rule)
    graph = TopologicalSorter()
    for rule in rules:
        below = (lit.relation for lit in (*rule.positive, *rule.negative))
        graph.add(rule.head.relation, *(rel for rel in below if rel in by_head))
    try:
        graph.prepare()
    except CycleError as exc:
        cycle = sorted(set(exc.args[1]))
        raise CyclicProgramError(
            f"recursive program: cycle through relation(s) {', '.join(cycle)}"
        ) from None
    # the least ready relation first, so the order does not depend on the rules' order
    ready, strata = sorted(graph.get_ready()), []
    while ready:
        relation = heapq.heappop(ready)
        strata.append((relation, tuple(by_head[relation])))
        graph.done(relation)
        for above in graph.get_ready():
            heapq.heappush(ready, above)
    return tuple(strata)


def _arities(rules: Sequence[DeductionRule]) -> dict:
    arity: dict[str, int] = {}
    for rule in rules:
        for literal in (rule.head, *rule.positive, *rule.negative):
            seen = arity.setdefault(literal.relation, len(literal.args))
            if seen != len(literal.args):
                raise ArityError(
                    f"relation {literal.relation} used with arity {len(literal.args)} "
                    f"and {seen}"
                )
    return arity


# --- parsing ------------------------------------------------------------------


def _parse_term(scanner: _Scanner):
    c = scanner.peek()
    if c == '"':
        return scanner.quoted()
    token = scanner.regex(_INT_TOKEN)
    if token is not None:
        return int(token)
    name = scanner.regex(_IDENT)
    if name is None:
        raise scanner.error("expected a term")
    if name[0].isupper() or name[0] == "_":
        return Variable(name)
    return name


def _parse_literal(scanner: _Scanner, negated: bool) -> Literal:
    name = scanner.regex(_IDENT)
    if name is None:
        raise scanner.error("expected a relation name")
    return Literal(name, scanner.items(_parse_term), negated)


def _parse_body_item(scanner: _Scanner):
    if scanner.peek() == "!" and scanner.peek(1) != "=":
        scanner.take("!")
        return _parse_literal(scanner, negated=True)
    # could be a literal or the left side of a comparison
    start = scanner.pos
    term = _parse_term(scanner)
    if scanner.peek() == "(" and not isinstance(term, int):
        scanner.pos = start
        return _parse_literal(scanner, negated=False)
    for op in ("!=", "<=", ">=", "<", ">", "="):
        if scanner.take(op):
            right = _parse_term(scanner)
            return Comparison(op, term, right)
    raise scanner.error("expected '(' for a literal or a comparison operator")


def parse_rule(text: str, line_no: int = 1) -> DeductionRule:
    """Parse a single ``Head(...) :- Body.`` rule."""
    scanner = _Scanner(text, line_no)
    head = _parse_literal(scanner, negated=False)
    if not scanner.take(":-"):
        raise scanner.error("expected ':-' after the rule head")
    body = [_parse_body_item(scanner)]
    while scanner.take(","):
        body.append(_parse_body_item(scanner))
    scanner.expect(".")
    scanner.end("rule")
    return DeductionRule(head, tuple(body))


# a line's text before its comment: quoted strings may hold a ``%``
_BEFORE_COMMENT = re.compile(r'(?:[^"%]|"(?:\\.|[^"\\])*"?)*')


def parse_program(text: str) -> DeductionProgram:
    """Parse a rule file: one rule per line, ``%`` comments, blank lines ignored."""
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # parsed as it stands, so error columns count from the start of the line
        line = _BEFORE_COMMENT.match(raw).group(0)
        if line.strip():
            rules.append(parse_rule(line, line_no))
    return DeductionProgram(tuple(rules))


def format_rule(rule: DeductionRule) -> str:
    body = ", ".join(str(item) for item in rule.body)
    return f"{rule.head} :- {body}."


def format_program(program: DeductionProgram) -> str:
    return "\n".join(format_rule(rule) for rule in program.rules) + "\n"


# --- grounding ----------------------------------------------------------------


def ground(program: DeductionProgram, db: ProbabilisticDatabase) -> tuple:
    """Bottom-up grounding; returns DerivedTuples sorted by relation and arguments."""
    _validate_against_db(program, db)

    # rows per relation: ground args -> lineage; derived relations shadow stored ones
    rows: dict[str, dict] = {}
    for t in db.tuples:
        rows.setdefault(t.relation, {})[t.key] = Var(t)
    rows.update({relation: {} for relation, _ in program.strata})
    # (relation, bound positions) -> bound values -> [(args, lineage)] in args_sort_key order
    indexes: dict[tuple, dict] = {}

    def matches(relation: str, positions: tuple, values: tuple):
        index = indexes.get((relation, positions))
        if index is None:
            index = indexes[relation, positions] = {}
            table = rows[relation]
            for key in sorted(table, key=args_sort_key):
                index.setdefault(tuple(key[i] for i in positions), []).append((key, table[key]))
        return index.get(values, ())

    for relation, rules in program.strata:
        collected: dict[tuple, list] = {}
        for rule in rules:
            for theta, parts in _instantiate(rule, rows, matches):
                head_args = tuple(_apply(theta, a) for a in rule.head.args)
                collected.setdefault(head_args, []).append(And(*parts))
        for args in sorted(collected, key=args_sort_key):
            rows[relation][args] = Or(*collected[args])

    return tuple(
        DerivedTuple(relation, args, formula)
        for relation in sorted(relation for relation, _ in program.strata)
        for args, formula in rows[relation].items()  # filled in args_sort_key order
    )


def _validate_against_db(program: DeductionProgram, db: ProbabilisticDatabase):
    derived = {relation for relation, _ in program.strata}
    stored = set(db.relations)
    for relation, arity in program.arities.items():
        if relation in derived:
            continue
        if relation not in stored:
            raise UnknownRelationError(f"relation {relation} is neither stored nor derived")
        if db.arity(relation) != arity:
            raise ArityError(
                f"relation {relation} has arity {db.arity(relation)}, used with {arity}"
            )


def _apply(theta: Mapping, term):
    if isinstance(term, Variable):
        return theta[term]
    return term


def _instantiate(rule: DeductionRule, rows, matches):
    """Yield (theta, lineage parts) for every satisfied body instantiation."""
    bindings = [({}, [])]
    seen: set = set()  # variables bound by the positive literals so far
    for literal in rule.positive:
        args = literal.args
        positions = tuple(
            i for i, a in enumerate(args) if not isinstance(a, Variable) or a in seen
        )
        fresh = tuple(
            (i, a) for i, a in enumerate(args) if isinstance(a, Variable) and a not in seen
        )
        seen |= literal.variables()
        next_bindings = []
        for theta, parts in bindings:
            values = tuple(_apply(theta, args[i]) for i in positions)
            for key, lineage in matches(literal.relation, positions, values):
                theta2 = _bind(theta, fresh, key)
                if theta2 is not None:
                    next_bindings.append((theta2, parts + [lineage]))
        bindings = next_bindings
        if not bindings:
            return
    for theta, parts in bindings:
        if not all(_holds(c, theta) for c in rule.comparisons):
            continue
        for literal in rule.negative:
            args = tuple(_apply(theta, a) for a in literal.args)
            match = rows[literal.relation].get(args)
            if match is not None:
                parts = parts + [Not(match)]
        yield theta, parts


def _bind(theta: Mapping, fresh: tuple, key: tuple):
    """``theta`` with ``fresh``'s (position, variable) pairs bound from ``key``; None on a clash."""
    out = dict(theta)
    for i, var in fresh:
        if out.setdefault(var, key[i]) != key[i]:
            return None
    return out


def _holds(comparison: Comparison, theta) -> bool:
    left = _apply(theta, comparison.left)
    right = _apply(theta, comparison.right)
    if isinstance(left, int) != isinstance(right, int):
        raise ComparisonTypeError(
            f"cannot compare {left!r} with {right!r} in '{comparison}'"
        )
    return _COMPARATORS[comparison.op](left, right)


def index_derived(derived: Sequence[DerivedTuple]) -> dict:
    """Index grounding output by (relation, args) for label lookups."""
    return {(d.relation, d.args): d for d in derived}
