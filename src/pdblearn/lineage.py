"""Boolean lineage formulas over base tuples.

A lineage formula records how a derived fact depends on the base tuples of a
tuple-independent probabilistic database.  Nodes are immutable and the
constructors canonicalize eagerly:

* constant folding (``!true -> false``, an ``&`` containing ``false`` -> ``false``, ...),
* double-negation elimination,
* one ``Var`` per tuple, and one ``Not(Var)`` per tuple, each held weakly,
* flattening of nested conjunctions/disjunctions,
* structural deduplication of equal children,
* children sorted by a deterministic structural key.

Canonicalization is purely syntactic: ``x & !x`` stays a conjunction (its
tuple set must remain visible), no tautology or contradiction detection.

Two formulas are therefore structurally equal exactly when canonicalization
maps them to the same tree, and ``==`` / ``hash`` work on that form.  Nodes
have ``__slots__`` and no ``__dict__``, since a run holds one node per
literal and connective of every label.

Text syntax (round-trips through :func:`parse_formula` / :func:`format_formula`)::

    formula := or
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | atom
    atom    := "(" formula ")" | "true" | "false"
             | "#" integer                      (opaque synthetic tuple id)
             | relation "(" arg ("," arg)* ")"  (named tuple id)

Arguments are integers (all-digit tokens), bare strings, or double-quoted
strings with backslash escapes.  ``!`` binds tighter than ``&``, which binds
tighter than ``|``.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Sequence

from .errors import ParseError

__all__ = [
    "TupleId",
    "LineageFormula",
    "Constant",
    "TRUE",
    "FALSE",
    "Var",
    "Not",
    "And",
    "Or",
    "evaluate",
    "substitute",
    "tuple_set",
    "parse_formula",
    "format_formula",
]

SYNTHETIC_RELATION = "#"

_BARE_ARG = re.compile(r"[A-Za-z0-9_.+\-/:@']+")
_INT_TOKEN = re.compile(r"-?[0-9]+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WS = re.compile(r"[ \t\r\n]*")
# a quoted string's body: any character but a quote, or a backslash and the next one
_STRING_BODY = re.compile(r'(?:[^"\\]|\\.)*', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _arg_rank(value) -> tuple:
    # ints sort before strings so mixed keys still order deterministically
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"tuple argument must be int or str, got {value!r}")
    if isinstance(value, int):
        return (0, "", value)
    return (1, value, 0)


@total_ordering
@dataclass(frozen=True)
class TupleId:
    """Identity of a base tuple: a relation name plus its argument constants.

    Synthetic instances use the reserved relation ``"#"`` with a single
    integer key and print as ``#<int>``.  Tuple ids order by ``sort_key``:
    relation, arity, then the arguments in ``args_sort_key`` order, where
    ints come before strs.
    """

    relation: str
    key: tuple

    def __post_init__(self):
        if not isinstance(self.relation, str):
            raise TypeError(f"tuple relation must be str, got {self.relation!r}")
        object.__setattr__(self, "key", tuple(self.key))
        # args_sort_key also validates each argument
        object.__setattr__(
            self, "sort_key", (self.relation, len(self.key), args_sort_key(self.key))
        )

    @classmethod
    def synthetic(cls, index: int) -> "TupleId":
        return cls(SYNTHETIC_RELATION, (index,))

    @property
    def is_synthetic(self) -> bool:
        return self.relation == SYNTHETIC_RELATION

    def __lt__(self, other: "TupleId") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        if self.is_synthetic and len(self.key) == 1 and isinstance(self.key[0], int):
            return f"#{self.key[0]}"
        return f"{self.relation}({','.join(format_arg(v) for v in self.key)})"

    def __repr__(self) -> str:
        return f"TupleId({self})"


def args_sort_key(args: Iterable) -> tuple:
    """Deterministic ordering key for a tuple of int/str arguments."""
    return tuple(_arg_rank(v) for v in args)


def format_arg(value) -> str:
    """Render a tuple argument so that parsing it back preserves the value."""
    if isinstance(value, int):
        return str(value)
    if _BARE_ARG.fullmatch(value) and not _INT_TOKEN.fullmatch(value):
        return value
    return _quoted(value)


def _quoted(value: str) -> str:
    """``value`` in double quotes, with its backslashes and quotes escaped."""
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def parse_arg_token(token: str):
    """Interpret a bare argument token: all-digit tokens become ints."""
    if _INT_TOKEN.fullmatch(token):
        return int(token)
    return token


class LineageFormula:
    """Base class of all formula nodes.  Use the subclasses as constructors.

    Every node caches ``_hash`` and ``_skey``.  The key encodes the node's
    kind and its whole subtree, so equal keys mean equal formulas: a ``Var``
    is ``(0, sort_key)``, a ``Not`` ``(1, child key)``, an ``And`` or ``Or``
    one flat tuple ``(2 or 3, *child keys)`` and a constant ``(4, value)``.
    """

    __slots__ = ("_tuples", "_skey", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, LineageFormula)
            and self._hash == other._hash
            and self._skey == other._skey
        )

    def __and__(self, other: "LineageFormula") -> "LineageFormula":
        return And(self, other)

    def __or__(self, other: "LineageFormula") -> "LineageFormula":
        return Or(self, other)

    def __invert__(self) -> "LineageFormula":
        return Not(self)

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"


class Constant(LineageFormula):
    """The constants ``true`` and ``false``, built once as ``TRUE`` and ``FALSE``.

    ``Constant(value)`` and unpickling return one of the two.
    """

    __slots__ = ("value",)

    def __new__(cls, value: bool):
        return TRUE if value else FALSE

    def __reduce__(self):
        return (Constant, (self.value,))


def _constant(value: bool) -> Constant:
    self = object.__new__(Constant)
    self.value = value
    self._tuples = frozenset()
    self._skey = (4, value)
    self._hash = hash(("lineage-const", value))
    return self


TRUE = _constant(True)
FALSE = _constant(False)


# TupleId -> its live Var, and Var -> its live negation; an entry goes when
# its node does
_VARS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NOTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Var(LineageFormula):
    """A single base-tuple event.

    There is one ``Var`` per tuple, held weakly: while a ``Var`` of a tuple
    is alive, ``Var`` of any equal ``TupleId`` returns that same node, and
    the registry keeps no node alive.  The node keeps the first ``TupleId``
    object it was built from, so ``Var(t).tuple_id == t`` holds but
    ``Var(t).tuple_id is t`` may not.  Unpickling and copying go through
    this constructor too, so they return the process's live node.  ``Not``
    interns a ``Var``'s negation the same way.
    """

    __slots__ = ("tuple_id", "__weakref__")

    def __new__(cls, tuple_id: TupleId):
        if not isinstance(tuple_id, TupleId):
            raise TypeError(f"Var expects a TupleId, got {tuple_id!r}")
        self = _VARS.get(tuple_id)
        if self is None:
            self = object.__new__(cls)
            self.tuple_id = tuple_id
            self._tuples = frozenset((tuple_id,))
            self._skey = (0, tuple_id.sort_key)
            self._hash = hash(("lineage-var", tuple_id))
            _VARS[tuple_id] = self
        return self

    def __reduce__(self):
        return (Var, (self.tuple_id,))


class Not(LineageFormula):
    """Negation; folds constants and double negation.

    The negation of a ``Var`` is built once per tuple and held weakly, as
    ``Var`` is: while it is alive, ``Not`` of that ``Var`` returns it.  The
    registry maps the ``Var`` to its negation, so it keeps no node alive.
    """

    __slots__ = ("child", "__weakref__")

    def __new__(cls, child: LineageFormula):
        if child is TRUE:
            return FALSE
        if child is FALSE:
            return TRUE
        if isinstance(child, Not):
            return child.child
        if child.__class__ is not Var:
            return _negation(child)
        self = _NOTS.get(child)
        if self is None:
            self = _NOTS[child] = _negation(child)
        return self

    def __reduce__(self):
        return (Not, (self.child,))


def _negation(child: LineageFormula) -> Not:
    self = object.__new__(Not)
    self.child = child
    self._tuples = child._tuples
    self._skey = (1, child._skey)
    self._hash = hash(("lineage-not", child._hash))
    return self


class _NAry(LineageFormula):
    """The constructor And and Or share.

    Flattens nested nodes of the same kind, folds constants, drops repeated
    children and sorts the rest by ``_skey``.  Keeps complementary literals
    as they are: x & !x stays a conjunction (so its tuple set is preserved),
    only constants are folded away.

    One level of flattening suffices: every child was built by a constructor,
    also under unpickling, and a node built here holds no child of its own
    kind and no constant.  The key is flat, ``(kind, *child keys)``, and
    orders as ``(kind, (child keys))`` would.
    """

    __slots__ = ("children",)

    def __new__(cls, *children: LineageFormula):
        seen = {}  # the first of equal children, in order of appearance
        for child in children:
            if child is cls._absorbing:
                return child
            if isinstance(child, cls):
                for c in child.children:
                    seen.setdefault(c)
            elif child is not cls._identity:
                seen.setdefault(child)
        if len(seen) < 2:
            return next(iter(seen), cls._identity)
        flat = tuple(sorted(seen, key=lambda c: c._skey))
        self = object.__new__(cls)
        self.children = flat
        self._tuples = frozenset().union(*(c._tuples for c in flat))
        self._skey = (cls._kind, *[c._skey for c in flat])
        self._hash = hash((cls._tag, *[c._hash for c in flat]))
        return self

    def __reduce__(self):
        return (type(self), self.children)


class And(_NAry):
    """Conjunction; canonical n-ary node with sorted, deduplicated children."""

    __slots__ = ()
    _kind, _tag, _absorbing, _identity = 2, "lineage-and", FALSE, TRUE


class Or(_NAry):
    """Disjunction; canonical n-ary node with sorted, deduplicated children."""

    __slots__ = ()
    _kind, _tag, _absorbing, _identity = 3, "lineage-or", TRUE, FALSE


def tuple_set(phi: LineageFormula) -> frozenset:
    """The set of TupleIds reachable through Var nodes (cached, O(1))."""
    return phi._tuples


def evaluate(phi: LineageFormula, world: Iterable[TupleId]) -> bool:
    """Truth value of ``phi`` in the possible world ``world`` (a set of present tuples).

    It runs the bitwise evaluator of ``prob_bruteforce`` over this one world,
    where a tuple's bit is 1 when it is present.
    """
    if not isinstance(world, (set, frozenset)):
        world = frozenset(world)
    return _worlds(phi, {t: int(t in world) for t in phi._tuples}, 1) == 1


def _worlds(phi: LineageFormula, masks: dict, full: int) -> int:
    """The worlds that satisfy ``phi``, as the bits of an int.

    Bit w of ``masks[t]`` is set when world w holds tuple t, and ``full`` has
    the bit of every world set, so ``&`` and ``|`` are conjunction and
    disjunction over all worlds at once and xor with ``full`` is negation.
    """
    if isinstance(phi, Var):
        return masks[phi.tuple_id]
    if isinstance(phi, Constant):
        return full if phi.value else 0
    if isinstance(phi, Not):
        return _worlds(phi.child, masks, full) ^ full
    if isinstance(phi, And):
        out = full
        for c in phi.children:
            out &= _worlds(c, masks, full)
            if not out:
                break
        return out
    if isinstance(phi, Or):
        out = 0
        for c in phi.children:
            out |= _worlds(c, masks, full)
            if out == full:
                break
        return out
    raise TypeError(f"not a lineage formula: {phi!r}")


def substitute(phi: LineageFormula, tuple_id: TupleId, value: bool) -> LineageFormula:
    """Replace the event ``tuple_id`` by a truth constant and re-canonicalize.

    The result never mentions ``tuple_id`` and introduces no new tuples.
    """
    replacement = TRUE if value else FALSE

    def go(f):
        if tuple_id not in f._tuples:
            return f
        if isinstance(f, Var):
            return replacement
        if isinstance(f, Not):
            return Not(go(f.child))
        if isinstance(f, And):
            return And(*(go(c) for c in f.children))
        return Or(*(go(c) for c in f.children))

    return go(phi)


def connected_components(keysets: Sequence[Iterable]) -> list:
    """Group the indices of keysets that share a key, directly or transitively.

    Returns lists of indices, each in ascending order, with the groups ordered
    by their first member.  A keyset with no keys forms a group of its own.
    """
    parent = list(range(len(keysets)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict = {}
    for i, keys in enumerate(keysets):
        root = i  # i joins no group before its own keys are read
        for key in keys:
            j = owner.setdefault(key, i)
            if j != i:
                other = find(j)
                if other != root:
                    parent[root] = other
                    root = other
    groups: dict = {}
    for i in range(len(keysets)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# --- text syntax ------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def format_formula(phi: LineageFormula) -> str:
    """Render ``phi``; ``parse_formula`` maps the result back to ``phi``."""
    return _fmt(phi, 0)


def _fmt(phi, parent_prec: int) -> str:
    if isinstance(phi, Constant):
        return "true" if phi.value else "false"
    if isinstance(phi, Var):
        return str(phi.tuple_id)
    if isinstance(phi, Not):
        return "!" + _fmt(phi.child, _PREC_UNARY)
    if isinstance(phi, And):
        text = " & ".join(_fmt(c, _PREC_AND) for c in phi.children)
        return f"({text})" if parent_prec >= _PREC_AND else text
    if isinstance(phi, Or):
        text = " | ".join(_fmt(c, _PREC_OR) for c in phi.children)
        return f"({text})" if parent_prec >= _PREC_OR else text
    raise TypeError(f"not a lineage formula: {phi!r}")


class _Scanner:
    """Tokenizer shared by formula, tuple-id and rule text.

    ``line_no`` is the line the text starts on, so errors in one line of a
    larger file name that file's line.  Whitespace is skipped once, after
    each token, so ``pos`` is never on whitespace and ``peek``, ``take`` and
    ``regex`` read at ``pos`` directly.
    """

    def __init__(self, text: str, line_no: int = 1):
        self.text = text
        self.line_no = line_no
        self.advance(0)

    def error(self, message: str) -> ParseError:
        consumed = self.text[: self.pos]
        line = self.line_no + consumed.count("\n")
        col = self.pos - (consumed.rfind("\n") + 1) + 1
        return ParseError(message, line, col)

    def advance(self, end: int):
        """Move to ``end``, the end of a token, then past any whitespace."""
        self.pos = _WS.match(self.text, end).end()

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.advance(self.pos + len(literal))
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def regex(self, pattern: re.Pattern) -> str | None:
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.advance(m.end())
        return m.group(0)

    def quoted(self) -> str:
        # caller saw the opening quote; a lone backslash at the end ends the body
        body = _STRING_BODY.match(self.text, self.pos + 1)
        if not self.text.startswith('"', body.end()):
            self.pos = body.end()
            raise self.error("unterminated string literal")
        self.advance(body.end() + 1)
        value = body.group()
        return _ESCAPE.sub(r"\1", value) if "\\" in value else value

    def items(self, read_item) -> tuple:
        """``(item, ...)``, each item read by ``read_item(self)``; ``()`` is empty."""
        self.expect("(")
        out = []
        if self.peek() != ")":
            out.append(read_item(self))
            while self.take(","):
                out.append(read_item(self))
        self.expect(")")
        return tuple(out)

    def end(self, what: str):
        """Raise unless only whitespace is left after the ``what`` just read."""
        if self.peek():
            raise self.error(f"trailing input after {what}")


def _parse_arg(scanner: _Scanner):
    if scanner.peek() == '"':
        return scanner.quoted()
    token = scanner.regex(_BARE_ARG)
    if token is None:
        raise scanner.error("expected a tuple argument")
    return parse_arg_token(token)


def parse_tuple_id(text: str, line_no: int = 1) -> TupleId:
    """Parse ``rel(arg,...)`` or ``#<int>``, text from line ``line_no``, into a TupleId."""
    scanner = _Scanner(text, line_no)
    tid = _parse_tuple_id(scanner)
    scanner.end("tuple id")
    return tid


def _parse_tuple_id(scanner: _Scanner) -> TupleId:
    if scanner.take("#"):
        token = scanner.regex(_INT_TOKEN)
        if token is None:
            raise scanner.error("expected an integer after '#'")
        return TupleId.synthetic(int(token))
    name = scanner.regex(_IDENT)
    if name is None:
        raise scanner.error("expected a relation name")
    return TupleId(name, scanner.items(_parse_arg))


def parse_formula(text: str, line_no: int = 1) -> LineageFormula:
    """Parse the syntax of the module docstring; ``text`` starts on line ``line_no``."""
    scanner = _Scanner(text, line_no)
    try:
        phi = _parse_or(scanner)
    except RecursionError:
        raise scanner.error("formula nested too deep") from None
    scanner.end("formula")
    return phi


def _parse_or(scanner: _Scanner) -> LineageFormula:
    parts = [_parse_and(scanner)]
    while scanner.take("|"):
        parts.append(_parse_and(scanner))
    return Or(*parts) if len(parts) > 1 else parts[0]


def _parse_and(scanner: _Scanner) -> LineageFormula:
    parts = [_parse_unary(scanner)]
    while scanner.take("&"):
        parts.append(_parse_unary(scanner))
    return And(*parts) if len(parts) > 1 else parts[0]


def _parse_unary(scanner: _Scanner) -> LineageFormula:
    if scanner.take("!"):
        return Not(_parse_unary(scanner))
    return _parse_atom(scanner)


def _parse_atom(scanner: _Scanner) -> LineageFormula:
    if scanner.take("("):
        phi = _parse_or(scanner)
        scanner.expect(")")
        return phi
    if scanner.peek() == "#":
        return Var(_parse_tuple_id(scanner))
    name = scanner.regex(_IDENT)
    if name is None:
        raise scanner.error("expected a formula atom")
    if name == "true":
        return TRUE
    if name == "false":
        return FALSE
    return Var(TupleId(name, scanner.items(_parse_arg)))
