"""Components, linear nested sequents, and the formula translation.

This module holds the read side of the values the kernel judges: the
constructors with their shape checks, counts, comparisons, printers and
JSON.  With `kernel` and `formula` it is the trusted base.  A component is
two multisets and nothing else: the world it stands for and its restart
count are kept by search, in its tag chain (`prover`).

The values a search, replay or transform step builds come from builders
in the untrusted modules that call them, past the class call and its
`__init__` frame, as `formula` builds its nodes: `calculus` adds one copy
of a formula to a multiset, makes a component, replaces a component and
extends a sequent; `metatheory` takes multiset unions and differences and
merges sequents.  A builder writes only the fields a constructor writes,
and nothing here caches a field derived from them, so a wrong builder
can only make one of the kernel's comparisons fail (see `kernel`).
"""

from __future__ import annotations

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


class Multiset:
    """Immutable multiset of formulas, held as a dict from each distinct
    element to its count.  The builders in `calculus` and `metatheory` make
    one from a counts dict of their own, which nothing changes after."""

    __slots__ = ("_counts",)

    def __init__(self, items=()):
        counts: dict[Formula, int] = {}
        for f in items:
            counts[f] = counts.get(f, 0) + 1
        self._counts = counts

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
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        return f"Multiset({[print_ascii(f) for f in self.distinct()]})"


class ReadOnly:
    """Base of the slotted value types built at every search, replay and
    transform step: `__init__`, or a builder on a hot path that starts from
    a bare instance, writes each field once through its slot's setter (see
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
    """One antecedent/succedent pair Γ ⇒ Δ, equal and hashed by content.
    The keyword `tag` is ignored; perfbench's workloads still pass it."""

    __slots__ = _fields = ("ant", "succ")

    def __init__(self, ant: Multiset, succ: Multiset, *, tag=None):
        _set_ant(self, ant)
        _set_succ(self, succ)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Component:
            return NotImplemented
        return (self.ant, self.succ) == (other.ant, other.succ)

    def __hash__(self) -> int:
        return hash((self.ant, self.succ))

    def render(self) -> str:
        left = ", ".join(map(print_ascii, self.ant.distinct()))
        right = ", ".join(map(print_ascii, self.succ.distinct()))
        return f"{left} => {right}".strip()


_set_ant, _set_succ = slot_setters(Component)


def component(ants=(), succs=()) -> Component:
    return Component(Multiset(ants), Multiset(succs))


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

    def drop_last(self) -> LinearNestedSequent:
        return LinearNestedSequent(self.components[:-1], self.links[:-1])

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


def single(ants=(), succs=()) -> LinearNestedSequent:
    return LinearNestedSequent((component(ants, succs),), ())


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
