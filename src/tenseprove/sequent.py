"""Components, linear nested sequents, and the formula translation.

The values a search step builds (a premiss, the component it changes and
that component's multiset) come from the edits here and from the builders
in `calculus`, through `object.__new__` and the slot setters, as
`formula` builds its nodes: a class call would cost an `__init__` frame
entered from C.  So does every multiset operation's result.  Merge and
the transforms' builders live in `metatheory`, outside the trusted base.
The constructors still check a sequent's shape, so a value built through
them is checked as before.
"""

from __future__ import annotations

import itertools

from .formula import (
    BlackBox,
    Bottom,
    Box,
    Formula,
    Implies,
    Polarity,
    core_and,
    core_or,
    parse,
    print_ascii,
    sort_key,
    top,
)


_new = object.__new__


class Multiset:
    """Immutable multiset of formulas."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, items=()):
        counts: dict[Formula, int] = {}
        for f in items:
            counts[f] = counts.get(f, 0) + 1
        self._counts = counts
        self._hash = None

    def add(self, f: Formula) -> Multiset:
        counts = self._counts.copy()
        counts[f] = counts.get(f, 0) + 1
        m = _new(Multiset)
        m._counts = counts
        m._hash = None
        return m

    def remove_one(self, f: Formula) -> Multiset:
        """One copy fewer of f; raises KeyError if f is absent."""
        counts = dict(self._counts)
        k = counts[f] - 1
        if k:
            counts[f] = k
        else:
            del counts[f]
        m = _new(Multiset)
        m._counts = counts
        m._hash = None
        return m

    def _union_less(self, other: Multiset, f: Formula) -> Multiset:
        """self and other less one copy of f, in one dict copy; raises
        KeyError if f is in neither."""
        counts = self._counts.copy()
        for g, n in other._counts.items():
            counts[g] = counts.get(g, 0) + n
        k = counts[f] - 1
        if k:
            counts[f] = k
        else:
            del counts[f]
        m = _new(Multiset)
        m._counts = counts
        m._hash = None
        return m

    def minus(self, other: Multiset) -> Multiset:
        """Multiset difference; raises KeyError unless other is contained in self."""
        if not other._counts:
            return self
        counts = dict(self._counts)
        for f, n in other._counts.items():
            k = counts.get(f, 0) - n
            if k < 0:
                raise KeyError(f"{f} not in multiset {n} times")
            if k:
                counts[f] = k
            else:
                del counts[f]
        m = _new(Multiset)
        m._counts = counts
        m._hash = None
        return m

    def union(self, other: Multiset) -> Multiset:
        # Values are immutable, so an empty operand gives back the other.
        if not other._counts:
            return self
        if not self._counts:
            return other
        counts = dict(self._counts)
        for f, n in other._counts.items():
            counts[f] = counts.get(f, 0) + n
        m = _new(Multiset)
        m._counts = counts
        m._hash = None
        return m

    def diff(self, other: Multiset) -> Multiset:
        """Saturating multiset difference."""
        counts = {}
        for f, n in self._counts.items():
            k = n - other.count(f)
            if k > 0:
                counts[f] = k
        m = _new(Multiset)
        m._counts = counts
        m._hash = None
        return m

    def subset(self, other: Multiset) -> bool:
        return all(n <= other.count(f) for f, n in self._counts.items())

    def count(self, f: Formula) -> int:
        return self._counts.get(f, 0)

    def is_plus(self, base: Multiset, f: Formula) -> bool:
        """True iff this multiset is base with one more copy of f; no
        multiset is built."""
        counts = base._counts.copy()
        counts[f] = counts.get(f, 0) + 1
        return counts == self._counts

    def members(self):
        """The distinct elements, in no particular order."""
        return self._counts.keys()

    def distinct(self) -> tuple[Formula, ...]:
        """The distinct elements in sort_key order, sorted on each call."""
        return tuple(sorted(self._counts, key=sort_key))

    def __contains__(self, f: Formula) -> bool:
        return f in self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Multiset({[print_ascii(f) for f in self.distinct()]})"


_tags = itertools.count()


def fresh_tag() -> int:
    return next(_tags)


class ReadOnly:
    """Base of the slotted value types built at every search, replay and
    transform step: `__init__`, or a builder on a hot path that starts from
    `object.__new__`, writes each field once through its slot's setter (see
    `slot_setters`), and the fields are read-only after that, as in a
    frozen dataclass.  `_fields` are the constructor's arguments in order;
    `repr` shows every slot, in the dataclass form."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({inner})"


def slot_setters(cls: type) -> tuple:
    """The `__set__` of each of cls's slot descriptors, in `__slots__` order:
    they write a field past the `__setattr__` guard, without the attribute
    lookup `object.__setattr__` makes."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Component(ReadOnly):
    """One antecedent/succedent pair; the tag identifies a world across rules.
    Equality and hash ignore the tag and the restart count."""

    __slots__ = _fields = ("ant", "succ", "tag", "restarts")

    def __init__(self, ant: Multiset, succ: Multiset, tag: int = -1, restarts: int = 0):
        _set_ant(self, ant)
        _set_succ(self, succ)
        _set_tag(self, tag)
        _set_restarts(self, restarts)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Component:
            return NotImplemented
        return (self.ant, self.succ) == (other.ant, other.succ)

    def __hash__(self) -> int:
        return hash((self.ant, self.succ))

    def with_ant(self, f: Formula) -> Component:
        c = _new(Component)
        _set_ant(c, self.ant.add(f))
        _set_succ(c, self.succ)
        _set_tag(c, self.tag)
        _set_restarts(c, self.restarts)
        return c

    def with_succ(self, f: Formula) -> Component:
        c = _new(Component)
        _set_ant(c, self.ant)
        _set_succ(c, self.succ.add(f))
        _set_tag(c, self.tag)
        _set_restarts(c, self.restarts)
        return c

    def render(self) -> str:
        left = ", ".join(map(print_ascii, self.ant.distinct()))
        right = ", ".join(map(print_ascii, self.succ.distinct()))
        return f"{left} => {right}".strip()


_set_ant, _set_succ, _set_tag, _set_restarts = slot_setters(Component)


def component(ants=(), succs=(), tag: int = -1) -> Component:
    return Component(Multiset(ants), Multiset(succs), tag=tag)


_LINK_TEXT = {Polarity.FORWARD: "/F/", Polarity.BACKWARD: "\\P\\"}


class LinearNestedSequent(ReadOnly):
    __slots__ = _fields = ("components", "links")

    def __init__(self, components: tuple[Component, ...], links: tuple[Polarity, ...]):
        if not components:
            raise ValueError("a linear nested sequent needs at least one component")
        if len(links) != len(components) - 1:
            raise ValueError("link count must be component count - 1")
        _set_components(self, components)
        _set_links(self, links)

    def __eq__(self, other) -> bool:
        if other.__class__ is not LinearNestedSequent:
            return NotImplemented
        return (self.components, self.links) == (other.components, other.links)

    def __hash__(self) -> int:
        return hash((self.components, self.links))

    @property
    def length(self) -> int:
        return len(self.components)

    @property
    def last(self) -> Component:
        return self.components[-1]

    def replace_component(self, i: int, c: Component) -> LinearNestedSequent:
        """This sequent with component i, counted from the end when
        negative, replaced by c; raises IndexError when there is none."""
        comps = self.components
        n = len(comps)
        j = i + n if i < 0 else i
        if not 0 <= j < n:
            raise IndexError(f"component index {i} out of range for length {n}")
        s = _new(LinearNestedSequent)
        _set_components(s, comps[:j] + (c,) + comps[j + 1:])
        _set_links(s, self.links)
        return s

    def drop_last(self) -> LinearNestedSequent:
        return LinearNestedSequent(self.components[:-1], self.links[:-1])

    def extend(self, link: Polarity, c: Component) -> LinearNestedSequent:
        s = _new(LinearNestedSequent)
        _set_components(s, self.components + (c,))
        _set_links(s, self.links + (link,))
        return s

    def prefix(self, k: int) -> LinearNestedSequent:
        return LinearNestedSequent(self.components[:k], self.links[: k - 1])

    def render(self) -> str:
        parts = [self.components[0].render()]
        for link, c in zip(self.links, self.components[1:]):
            parts.append(_LINK_TEXT[link])
            parts.append(c.render())
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "components": [
                {
                    "antecedent": [print_ascii(f) for f in c.ant.distinct() for _ in range(c.ant.count(f))],
                    "succedent": [print_ascii(f) for f in c.succ.distinct() for _ in range(c.succ.count(f))],
                }
                for c in self.components
            ],
            "links": [link.value for link in self.links],
        }

    @classmethod
    def from_json(cls, data: dict) -> LinearNestedSequent:
        comps = tuple(
            component([parse(s) for s in c["antecedent"]], [parse(s) for s in c["succedent"]])
            for c in data["components"]
        )
        links = tuple(Polarity(v) for v in data.get("links", []))
        return cls(comps, links)


_set_components, _set_links = slot_setters(LinearNestedSequent)


def single(ants=(), succs=(), tag: int = -1) -> LinearNestedSequent:
    return LinearNestedSequent((component(ants, succs, tag),), ())


def _disjunction(fs: list[Formula]) -> Formula:
    if not fs:
        return Bottom()
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = core_or(f, out)
    return out


# Kept alive here, so the empty conjunction is not built and freed again at
# every translation.
_TOP = top()


def _conjunction(fs: list[Formula]) -> Formula:
    if not fs:
        return _TOP
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = core_and(f, out)
    return out


def formula_translation(s: LinearNestedSequent) -> Formula:
    """Read a sequent as one core formula, with /F/ as [F] and \\P\\ as [P].
    Built from the last component back to the first, so a long sequent needs
    no deep recursion."""
    f = None
    for i in range(len(s.components) - 1, -1, -1):
        c = s.components[i]
        head = _conjunction(c.ant.distinct())
        succ = _disjunction(c.succ.distinct())
        if f is not None:
            op = Box if s.links[i] is Polarity.FORWARD else BlackBox
            succ = core_or(succ, op(f))
        f = Implies(head, succ)
    return f
