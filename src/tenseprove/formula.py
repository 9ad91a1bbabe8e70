"""Formula ASTs for the tense language, concrete syntax, and syntactic measures.

Surface connectives (~, &, |, <F>, <P>) are definitional sugar; ``desugar``
rewrites them away so that everything downstream handles only the core
connectives ->, false, [F], [P].

The core nodes (Atom, Bottom, Implies, Box, BlackBox) are hash-consed: each
constructor returns the one live node for its class and arguments, so equal
formulas are the same object, equality is identity and hashing is O(1).  The
canonical order (``sort_key``) is the printed text, cached on the node.  The
surface nodes are frozen dataclasses that only the parser builds.
"""

from __future__ import annotations

import enum
import re
import weakref
from dataclasses import dataclass

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+")


class Polarity(enum.Enum):
    """Direction of a structural link: FORWARD goes with [F], BACKWARD with [P]."""

    FORWARD = "fwd"
    BACKWARD = "bwd"


class Formula:
    """Base class of the core nodes below and the surface dataclasses."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_ascii(self)


# Every live core node, keyed by (class, *arguments), held by a weak
# reference, so a node leaves the table when the last formula using it is
# dropped.  A plain dict keeps the hit path in C: one get and one ref call.
_INTERNED: dict[tuple, weakref.ref] = {}
_lookup = _INTERNED.get
_set = object.__setattr__


class _Core(Formula):
    """A hash-consed core node: equal formulas are the same object.

    Equality is identity and the hash is the default id hash, both O(1).
    The printed text (``sort_key``), ``modal_degree`` and ``complexity``
    are cached on the node the first time they are asked for.
    """

    __slots__ = ("_text", "_degree", "_size", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _lookup(key)
        node = ref() if ref is not None else None
        if node is None:
            node = cls._create(key, args)
        return node

    @classmethod
    def _create(cls, key: tuple, args: tuple) -> _Core:
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
        node = object.__new__(cls)
        for name, value in zip(cls._fields, args):
            _set(node, name, value)
        _set(node, "_text", None)
        _set(node, "_degree", None)
        _set(node, "_size", None)

        # The table is bound here, not looked up as a global, so a node
        # that dies at interpreter exit still finds it.  A dead node's key
        # may already hold a newer node's ref, which must stay.
        def forget(ref, key=key, table=_INTERNED):
            if table.get(key) is ref:
                del table[key]

        _INTERNED[key] = weakref.ref(node, forget)
        return node

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned formula")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned formula")

    def __reduce__(self):
        return (type(self), self._args())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._args()))
        return f"{type(self).__name__}({inner})"


class Atom(_Core):
    __slots__ = _fields = ("name",)

    @classmethod
    def _create(cls, key, args):
        if args and (not args[0] or args[0] == "false" or not _ATOM_RE.fullmatch(args[0])):
            raise ValueError(f"bad atom name: {args[0]!r}")
        return super()._create(key, args)


class Bottom(_Core):
    __slots__ = ()


class Implies(_Core):
    __slots__ = _fields = ("left", "right")


class Box(_Core):
    __slots__ = _fields = ("body",)


class BlackBox(_Core):
    __slots__ = _fields = ("body",)


# Surface-only nodes, eliminated by desugar().


@dataclass(frozen=True)
class Diamond(Formula):
    body: Formula


@dataclass(frozen=True)
class BlackDiamond(Formula):
    body: Formula


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


def neg(f: Formula) -> Formula:
    """Core negation: A -> false."""
    return Implies(f, Bottom())


def top() -> Formula:
    """Core verum: false -> false."""
    return Implies(Bottom(), Bottom())


def core_and(a: Formula, b: Formula) -> Formula:
    return neg(Implies(a, neg(b)))


def core_or(a: Formula, b: Formula) -> Formula:
    return Implies(neg(a), b)


def is_core(f: Formula) -> bool:
    if isinstance(f, (Atom, Bottom)):
        return True
    if isinstance(f, Implies):
        return is_core(f.left) and is_core(f.right)
    if isinstance(f, (Box, BlackBox)):
        return is_core(f.body)
    return False


def desugar(f: Formula) -> Formula:
    """Rewrite ~, &, |, <F>, <P> into the core connectives.

    Idempotent on core formulas: diamonds become negated boxes, conjunction
    and disjunction become implications.  A core node whose children come
    back unchanged is returned itself.
    """
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, Implies):
        left, right = desugar(f.left), desugar(f.right)
        return f if left is f.left and right is f.right else Implies(left, right)
    if isinstance(f, (Box, BlackBox)):
        body = desugar(f.body)
        return f if body is f.body else type(f)(body)
    if isinstance(f, Not):
        return neg(desugar(f.body))
    if isinstance(f, And):
        return core_and(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return core_or(desugar(f.left), desugar(f.right))
    if isinstance(f, Diamond):
        return neg(Box(neg(desugar(f.body))))
    if isinstance(f, BlackDiamond):
        return neg(BlackBox(neg(desugar(f.body))))
    raise TypeError(f"not a formula: {f!r}")


def collapse_backward(f: Formula) -> Formula:
    """Identify the backward box with the forward one in a core formula (KB
    reading); a node with nothing to change is returned itself."""
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, Implies):
        left, right = collapse_backward(f.left), collapse_backward(f.right)
        return f if left is f.left and right is f.right else Implies(left, right)
    if isinstance(f, Box):
        body = collapse_backward(f.body)
        return f if body is f.body else Box(body)
    if isinstance(f, BlackBox):
        return Box(collapse_backward(f.body))
    raise TypeError(f"not a core formula: {f!r}")


def _require_core(f: Formula):
    if not is_core(f):
        raise ValueError(f"not a core formula: {f}")


def modal_degree(f: Formula) -> int:
    """Maximal nesting depth of [F]/[P] in a core formula, cached on the node."""
    if not isinstance(f, _Core):
        _require_core(f)
    d = f._degree
    if d is None:
        if isinstance(f, Implies):
            d = max(modal_degree(f.left), modal_degree(f.right))
        elif isinstance(f, (Box, BlackBox)):
            d = 1 + modal_degree(f.body)
        else:
            d = 0
        _set(f, "_degree", d)
    return d


def complexity(f: Formula) -> int:
    """Number of connective nodes (->, [F], [P]) in a core formula, cached
    on the node."""
    if not isinstance(f, _Core):
        _require_core(f)
    n = f._size
    if n is None:
        if isinstance(f, Implies):
            n = 1 + complexity(f.left) + complexity(f.right)
        elif isinstance(f, (Box, BlackBox)):
            n = 1 + complexity(f.body)
        else:
            n = 0
        _set(f, "_size", n)
    return n


def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, Bottom):
        return frozenset()
    if isinstance(f, (Implies, And, Or)):
        return atoms(f.left) | atoms(f.right)
    if isinstance(f, (Box, BlackBox, Diamond, BlackDiamond, Not)):
        return atoms(f.body)
    raise TypeError(f"not a formula: {f!r}")


def strict_subformulas(f: Formula) -> frozenset[Formula]:
    out: set[Formula] = set()

    def walk(g: Formula):
        if isinstance(g, Implies):
            kids = (g.left, g.right)
        elif isinstance(g, (Box, BlackBox)):
            kids = (g.body,)
        else:
            kids = ()
        for k in kids:
            if k not in out:
                out.add(k)
                walk(k)

    walk(f)
    return frozenset(out)


def sort_key(f: Formula) -> str:
    """Canonical total order on core formulas, used wherever determinism
    matters: the printed text, cached on the node.  It does not depend on
    which formulas were built before, as an order by object id would.

    A node's text is composed from its children's cached text with
    print_ascii's parentheses: only an implication that is a left side or a
    box body gets them."""
    text = f._text
    if text is None:
        cls = type(f)
        if cls is Atom:
            text = f.name
        elif cls is Bottom:
            text = _ASCII["bot"]
        elif cls is Implies:
            left = sort_key(f.left)
            if type(f.left) is Implies:
                left = f"({left})"
            text = f"{left} {_ASCII['imp']} {sort_key(f.right)}"
        else:
            body = sort_key(f.body)
            if type(f.body) is Implies:
                body = f"({body})"
            text = _ASCII["box" if cls is Box else "bbox"] + body
        _set(f, "_text", text)
    return text


# --- concrete syntax ---------------------------------------------------------


class ParseError(Exception):
    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at byte {offset}: found {found!r}, expected {exp}")


_PREFIX_TOKENS = ("~", "[F]", "<F>", "[P]", "<P>")
_ATOMISH_EXPECTED = frozenset(("atom", "'false'", "'('")) | frozenset(f"'{t}'" for t in _PREFIX_TOKENS)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok_kind = ""
        self.tok_value = ""
        self.tok_start = 0
        self.advance()

    def byte_offset(self, i: int) -> int:
        return len(self.text[:i].encode("utf-8"))

    def error(self, expected) -> ParseError:
        found = self.tok_value if self.tok_kind != "eof" else "end of input"
        return ParseError(self.byte_offset(self.tok_start), expected, found)

    def advance(self):
        t, i = self.text, self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.tok_start = i
        if i >= len(t):
            self.tok_kind, self.tok_value, self.pos = "eof", "", i
            return
        c = t[i]
        if c in "()&|~":
            self.tok_kind, self.tok_value, self.pos = c, c, i + 1
        elif c == "-":
            if t.startswith("->", i):
                self.tok_kind, self.tok_value, self.pos = "->", "->", i + 2
            else:
                raise ParseError(self.byte_offset(i), ("'->'",), t[i : i + 2])
        elif c in "[<":
            close = "]" if c == "[" else ">"
            word = t[i : i + 3]
            if len(word) == 3 and word[1] in "FP" and word[2] == close:
                self.tok_kind, self.tok_value, self.pos = word, word, i + 3
            else:
                exp = (f"'{c}F{close}'", f"'{c}P{close}'")
                raise ParseError(self.byte_offset(i), exp, word)
        else:
            m = _ATOM_RE.match(t, i)
            if not m:
                raise ParseError(self.byte_offset(i), _ATOMISH_EXPECTED, c)
            word = m.group(0)
            self.tok_kind = "false" if word == "false" else "atom"
            self.tok_value = word
            self.pos = m.end()

    def expect(self, kind: str):
        if self.tok_kind != kind:
            raise self.error((f"'{kind}'",))
        self.advance()


def parse(text: str) -> Formula:
    """Parse the surface grammar.

    A ::= p | false | ~A | A -> A | A & A | A | A | [F]A | <F>A | [P]A | <P>A

    Precedence: ~ and the modalities bind tightest, then &, then |, then ->
    (right associative). Parentheses group.
    """
    s = _Scanner(text)
    f = _parse_implies(s)
    if s.tok_kind != "eof":
        raise s.error(("end of input",))
    return f


def _parse_implies(s: _Scanner) -> Formula:
    left = _parse_or(s)
    if s.tok_kind == "->":
        s.advance()
        return Implies(left, _parse_implies(s))
    return left


def _parse_or(s: _Scanner) -> Formula:
    f = _parse_and(s)
    while s.tok_kind == "|":
        s.advance()
        f = Or(f, _parse_and(s))
    return f


def _parse_and(s: _Scanner) -> Formula:
    f = _parse_unary(s)
    while s.tok_kind == "&":
        s.advance()
        f = And(f, _parse_unary(s))
    return f


_PREFIX_NODE = {"~": Not, "[F]": Box, "<F>": Diamond, "[P]": BlackBox, "<P>": BlackDiamond}


def _parse_unary(s: _Scanner) -> Formula:
    if s.tok_kind in _PREFIX_NODE:
        ctor = _PREFIX_NODE[s.tok_kind]
        s.advance()
        return ctor(_parse_unary(s))
    return _parse_atomish(s)


def _parse_atomish(s: _Scanner) -> Formula:
    if s.tok_kind == "atom":
        name = s.tok_value
        s.advance()
        return Atom(name)
    if s.tok_kind == "false":
        s.advance()
        return Bottom()
    if s.tok_kind == "(":
        s.advance()
        f = _parse_implies(s)
        s.expect(")")
        return f
    raise s.error(_ATOMISH_EXPECTED)


# Precedence levels: -> is 0, | is 1, & is 2, prefix operators 3, atoms 4.

_ASCII = {"bot": "false", "imp": "->", "or": "|", "and": "&", "not": "~",
          "box": "[F]", "dia": "<F>", "bbox": "[P]", "bdia": "<P>"}
_UNICODE = {"bot": "⊥", "imp": "→", "or": "∨", "and": "∧", "not": "¬",
            "box": "□", "dia": "◇", "bbox": "■", "bdia": "◆"}


def _pp(f: Formula, level: int, sym: dict) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return sym["bot"]
    if isinstance(f, Implies):
        own = 0
        s = f"{_pp(f.left, 1, sym)} {sym['imp']} {_pp(f.right, 0, sym)}"
    elif isinstance(f, Or):
        own = 1
        s = f"{_pp(f.left, 1, sym)} {sym['or']} {_pp(f.right, 2, sym)}"
    elif isinstance(f, And):
        own = 2
        s = f"{_pp(f.left, 2, sym)} {sym['and']} {_pp(f.right, 3, sym)}"
    else:
        own = 3
        op = {Not: "not", Box: "box", Diamond: "dia", BlackBox: "bbox", BlackDiamond: "bdia"}[type(f)]
        s = f"{sym[op]}{_pp(f.body, 3, sym)}"
    return f"({s})" if own < level else s


def print_ascii(f: Formula) -> str:
    """Render in the input syntax; parse(print_ascii(f)) == f.  A core node
    whose text sort_key has cached returns that text."""
    if isinstance(f, _Core) and f._text is not None:
        return f._text
    return _pp(f, 0, _ASCII)


def print_unicode(f: Formula) -> str:
    return _pp(f, 0, _UNICODE)
