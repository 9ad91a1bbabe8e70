"""Formula ASTs for the tense language, concrete syntax, and syntactic measures.

Surface connectives (~, &, |, <F>, <P>) are definitional sugar; ``desugar``
rewrites them away so that everything downstream handles only the core
connectives ->, false, [F], [P].

Every node, core or surface, is hash-consed: each constructor returns the
one live node for its class and operands, so equal formulas are the same
object, equality is identity and hashing is O(1).  There is one constructor
per operand shape (binary, unary, atom, bottom); each makes one key and one
table lookup, and enters a new node under a weak reference that carries its
key, so that one callback can drop a dead node's entry.  One grammar table
(symbols, precedences and operands) drives the parser, both printers and
``subformulas``, the one walk the syntactic measures fold over; the ASCII
text is cached on the node and is also the canonical order (``sort_key``).
"""

from __future__ import annotations

import enum
import itertools
import re
import weakref

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+")


class Polarity(enum.Enum):
    """Direction of a structural link: FORWARD goes with [F], BACKWARD with [P].
    The two members are singletons, so they hash by identity, in C: search
    looks up its rules by the last link at every node."""

    __hash__ = object.__hash__

    FORWARD = "fwd"
    BACKWARD = "bwd"


# Every live node, keyed by (class, *operands), held by a weak reference
# that carries its key, so a node leaves the table when the last formula
# using it is dropped.  A plain dict keeps the hit path in C: one get and
# one ref call.
_INTERNED: dict[tuple, _KeyedRef] = {}
_lookup = _INTERNED.get
_new = object.__new__


class _KeyedRef(weakref.ref):
    """A node's entry in the intern table, which knows its key."""

    __slots__ = ("key",)


def _forget(ref: _KeyedRef, table=_INTERNED) -> None:
    """Every entry's death callback.  The table is bound here, not looked up
    as a global, so a node that dies at interpreter exit still finds it.  A
    dead node's key may already hold a newer node's ref, which must stay."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def _intern(key: tuple, node: Formula) -> Formula:
    """Enter a new node, its operands written, under key."""
    _set_text(node, None)
    _set_size(node, None)
    _INTERNED[key] = ref = _KeyedRef(node, _forget)
    ref.key = key
    return node


class Formula:
    """A hash-consed formula node: equal formulas are the same object.

    Equality is identity and the hash is the default id hash, both O(1).
    The constructors are the operand shapes' ``__new__``: each takes its
    operands by name, looks its key up once, and on a miss writes the slots
    and enters the node.  The printed text (``print_ascii``) and
    ``complexity`` are cached on the node the first time they are asked for.
    """

    __slots__ = ("_text", "_size", "__weakref__")
    _fields: tuple[str, ...] = ()

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

    def __str__(self) -> str:
        return print_ascii(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not name or name == "false" or not _ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name: {name!r}")
        node = _new(cls)
        _set_name(node, name)
        return _intern(key, node)


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        return _intern(key, _new(cls))


class _Unary(Formula):
    __slots__ = _fields = ("body",)

    def __new__(cls, body: Formula):
        key = (cls, body)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _set_body(node, body)
        return _intern(key, node)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _set_left(node, left)
        _set_right(node, right)
        return _intern(key, node)


_set_text, _set_size = Formula._text.__set__, Formula._size.__set__
_set_name, _set_body = Atom.name.__set__, _Unary.body.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Implies(_Binary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class BlackBox(_Unary):
    __slots__ = ()


# Surface-only nodes, eliminated by desugar().


class Diamond(_Unary):
    __slots__ = ()


class BlackDiamond(_Unary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


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


def subformulas(*fs: Formula) -> list[Formula]:
    """The distinct subformulas of fs, fs included, each after its operands
    and the left operand's before the right's.

    The walk keeps an explicit stack, so a deep formula takes no frame per
    level, and expands each node once, since an interned node is its own
    key.  A node's operands are read by the grammar table's operand column,
    so the walk covers every connective; a non-formula raises TypeError."""
    out: dict[Formula, None] = {}
    stack = list(fs)
    stack.reverse()
    pop = stack.pop
    while stack:
        f = pop()
        if f is _OPERANDS_DONE:
            out[pop()] = None
        elif f not in out:
            n = _ARITY.get(f.__class__)
            if n == 2:
                stack += (f, _OPERANDS_DONE, f.right, f.left)
            elif n == 1:
                stack += (f, _OPERANDS_DONE, f.body)
            elif n == 0:
                out[f] = None
            else:
                raise TypeError(f"not a formula: {f!r}")
    return list(out)


# Popped off subformulas' stack, it says that the node below it has all its
# operands walked.
_OPERANDS_DONE = object()
_CORE = (Atom, Bottom, Implies, Box, BlackBox)


def is_core(f: Formula) -> bool:
    return all(g.__class__ in _CORE for g in subformulas(f))


def modal_degree(f: Formula) -> int:
    """Maximal nesting depth of [F]/[P] in a core formula."""
    degree: dict[Formula, int] = {}
    for g in subformulas(f):
        t = g.__class__
        if t is Implies:
            degree[g] = max(degree[g.left], degree[g.right])
        elif t is Box or t is BlackBox:
            degree[g] = degree[g.body] + 1
        elif t is Atom or t is Bottom:
            degree[g] = 0
        else:
            raise ValueError(f"not a core formula: {g}")
    return degree[f]


def complexity(f: Formula) -> int:
    """Number of connective nodes (->, [F], [P]) in a core formula, cached
    on the node."""
    if f._size is None:
        for g in subformulas(f):
            if g._size is None:
                t = g.__class__
                if t is Implies:
                    n = 1 + g.left._size + g.right._size
                elif t is Box or t is BlackBox:
                    n = 1 + g.body._size
                elif t is Atom or t is Bottom:
                    n = 0
                else:
                    raise ValueError(f"not a core formula: {g}")
                _set_size(g, n)
    return f._size


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if g.__class__ is Atom)


# --- concrete syntax ---------------------------------------------------------


# The grammar, read by the parser and both printers: each connective's ASCII
# and Unicode symbol, its precedence, and the precedence each operand needs
# to go without parentheses.  -> is right associative, | and & left
# associative; prefix operators bind tightest, and an atom or false never
# needs parentheses.
_SYNTAX = {
    Atom: (None, None, 4, ()),
    Bottom: ("false", "⊥", 4, ()),
    Implies: ("->", "→", 0, (1, 0)),
    Or: ("|", "∨", 1, (1, 2)),
    And: ("&", "∧", 2, (2, 3)),
    Not: ("~", "¬", 3, (3,)),
    Box: ("[F]", "□", 3, (3,)),
    Diamond: ("<F>", "◇", 3, (3,)),
    BlackBox: ("[P]", "■", 3, (3,)),
    BlackDiamond: ("<P>", "◆", 3, (3,)),
}
_ASCII, _UNICODE = 0, 1  # the symbol columns
_ARITY = {c: len(row[3]) for c, row in _SYNTAX.items()}


class ParseError(Exception):
    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at byte {offset}: found {found!r}, expected {exp}")


# The table's ASCII column, keyed by symbol.  A pending operator is
# (precedence, connective, left operand), the left operand None for a
# prefix connective; a pending "(" has precedence -1.
_WORDS = {row[_ASCII]: c for c, row in _SYNTAX.items() if row[_ASCII] and not row[3]}
_PREFIX = {row[_ASCII]: (row[2], c, None) for c, row in _SYNTAX.items() if len(row[3]) == 1}
_INFIX = {row[_ASCII]: (row[2], c, row[3][0]) for c, row in _SYNTAX.items() if len(row[3]) == 2}
_OPEN = (-1, None, None)
_ATOMISH_EXPECTED = frozenset(("atom", "'('", *(f"'{s}'" for s in (*_WORDS, *_PREFIX))))
_TOKEN = "|".join(map(re.escape, (*_PREFIX, *_INFIX, "(", ")"))) + "|" + _ATOM_RE.pattern
# A character that starts no token is a token of its own, so that the
# parser can report it when it gets there.  \s is str.isspace.
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S)")


def parse(text: str) -> Formula:
    """Parse the surface grammar.

    A ::= p | false | ~A | A -> A | A & A | A | A | [F]A | <F>A | [P]A | <P>A

    Precedence: ~ and the modalities bind tightest, then &, then |, then ->
    (right associative). Parentheses group.

    Symbols and precedences are _SYNTAX's.  One loop keeps the operators
    still waiting for an operand on a stack, so a deep formula takes no
    frame per level.  A pending binary operator is applied while its
    precedence is at least the next operator's left-operand need; a prefix
    operator, tighter than every binary one, is applied as soon as its
    operand is complete.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end of input
    pending: list[tuple] = []
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        op = _PREFIX.get(tok)
        if op is not None:
            pending.append(op)
            continue
        if tok == "(":
            pending.append(_OPEN)
            continue
        if tok in _WORDS:
            f = _WORDS[tok]()
        else:
            # Atom rejects every token that is not an atom name: an
            # operator, ")", a stray character or the end of input.
            try:
                f = Atom(tok)
            except ValueError:
                raise _error(text, i - 1, _ATOMISH_EXPECTED) from None
        # f is complete: apply what binds at least as tightly as the next
        # operator needs; ")" and the end of input apply all back to a "(".
        while True:
            tok = tokens[i]
            i += 1
            op = _INFIX.get(tok)
            need = 0 if op is None else op[2]
            while pending and pending[-1][0] >= need:
                _, connective, left = pending.pop()
                f = connective(f) if left is None else connective(left, f)
            if op is not None:
                pending.append((op[0], op[1], f))
                break
            if tok == ")" and pending:
                pending.pop()
            elif tok or pending:
                raise _error(text, i - 1, ("')'",) if pending else ("end of input",))
            else:
                return f


def _error(text: str, k: int, expected) -> ParseError:
    """The error at text's k-th token, or at its end when it has k tokens.
    A character that starts no token expects the symbols that start with it
    and shows as many characters as they have, or else expects an operand."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), k, None), None)
    if m is None:
        return ParseError(len(text.encode("utf-8")), expected, "end of input")
    tok, start = m.group(1), m.start(1)
    offset = len(text[:start].encode("utf-8"))
    if re.fullmatch(_TOKEN, tok):
        return ParseError(offset, expected, tok)
    symbols = [s for s in (*_PREFIX, *_INFIX) if s[0] == tok]
    if symbols:
        return ParseError(offset, (f"'{s}'" for s in symbols), text[start : start + len(symbols[0])])
    return ParseError(offset, _ATOMISH_EXPECTED, tok)


def _render(f: Formula, column: int, text_of, store) -> str:
    """f's text with the symbols of `column`.  A node's text is
    text_of(node) when that is not None; otherwise it is composed from its
    operands' texts, each parenthesised when it binds more loosely than its
    place needs, and passed to store.  One frame per level of f."""
    text = text_of(f)
    if text is None:
        row = _SYNTAX[type(f)]
        symbol, needs = row[column], row[3]
        if len(needs) == 2:
            left, right = f.left, f.right
            ltext = _render(left, column, text_of, store)
            rtext = _render(right, column, text_of, store)
            if _SYNTAX[type(left)][2] < needs[0]:
                ltext = f"({ltext})"
            if _SYNTAX[type(right)][2] < needs[1]:
                rtext = f"({rtext})"
            text = f"{ltext} {symbol} {rtext}"
        elif needs:
            body = f.body
            text = _render(body, column, text_of, store)
            text = symbol + (f"({text})" if _SYNTAX[type(body)][2] < needs[0] else text)
        else:
            text = f.name if symbol is None else symbol
        store(f, text)
    return text


_cached_text = Formula._text.__get__


def print_ascii(f: Formula) -> str:
    """Render in the input syntax; parse(print_ascii(f)) is f.  The text is
    cached on the node, so a node's text is composed from its operands'
    cached text.  It is also the canonical total order, ``sort_key``, used
    wherever determinism matters: unlike an order by object id, it does not
    depend on which formulas were built before."""
    text = f._text
    if text is None:
        text = _render(f, _ASCII, _cached_text, _set_text)
    return text


sort_key = print_ascii


def print_unicode(f: Formula) -> str:
    texts: dict[Formula, str] = {}
    return _render(f, _UNICODE, texts.get, texts.__setitem__)
