"""Inference rules of the three linear nested sequent calculi.

One table holds an instance generator per rule; the modal ones come from
three makers given the box kind and the links the rule acts across.  A
priority-ordered rule tuple per variant gives its rule set and search order.
The generators yield RuleInstance values carrying their premisses, so the
same code serves backward search (saturating=True, with the side conditions
that force progress) and checking (saturating=False, schema only).  The
conclusion, the rule and the principal formula fix the premisses, so given
a principal (`only`) a generator builds that one instance: `instance` is
how the checker and certificate replay build premisses.

ImpL keeps its principal formula, so it is invertible and any order of its
instances is complete; the order only sets the size of the tree.  In search
an instance with a premiss that is an axiom (closed by id or botL) goes
first, found in the same pass over the antecedent's implications.  On the
pigeonhole formulas ph(n) this takes ph(2) from 240 search nodes to 70 and
ph(3) from 15,782 to 376, and ph(4) decides in 2,412.
"""

from __future__ import annotations

import enum

from .formula import Atom, BlackBox, Bottom, Box, Formula, Implies, Polarity
from .sequent import Component, LinearNestedSequent, Multiset, ReadOnly, fresh_tag, slot_setters


# The members of both enums are singletons compared by identity, so they
# hash by identity too: Enum.__hash__ runs Python code, and search and the
# checker test a rule against the frozensets below at every node.

class CalculusVariant(enum.Enum):
    __hash__ = object.__hash__

    KT = "kt"
    KT_STAR = "kt-star"
    KB = "kb"


class RuleId(enum.Enum):
    __hash__ = object.__hash__

    ID = "id"
    BOT_L = "botL"
    IMP_R = "impR"
    IMP_L = "impL"
    BOX_R1 = "boxR1"
    BBOX_R1 = "bboxR1"
    BOX_R2 = "boxR2"
    BBOX_R2 = "bboxR2"
    BOX_L1 = "boxL1"
    BBOX_L1 = "bboxL1"
    BOX_L2 = "boxL2"
    BBOX_L2 = "bboxL2"
    EW = "ew"
    BOX_R = "boxR"
    BBOX_R = "bboxR"
    KB_BOX_R = "kb.boxR"
    KB_BOX_L1 = "kb.boxL1"
    KB_BOX_L2 = "kb.boxL2"


RESTART_RULES = frozenset((RuleId.BOX_L2, RuleId.BBOX_L2, RuleId.KB_BOX_L2))
RIGHT_BOX_RULES = frozenset(
    (RuleId.BOX_R1, RuleId.BBOX_R1, RuleId.BOX_R2, RuleId.BBOX_R2,
     RuleId.BOX_R, RuleId.BBOX_R, RuleId.KB_BOX_R)
)
TWO_PREMISS_BOX_RULES = frozenset((RuleId.BOX_R1, RuleId.BBOX_R1))

# The link a right box rule opens for each box kind.
BOX_LINK = {Box: Polarity.FORWARD, BlackBox: Polarity.BACKWARD}


class VariantMismatch(Exception):
    pass


class RuleInstance(ReadOnly):
    __slots__ = _fields = ("rule", "principal", "premisses")

    def __init__(self, rule: RuleId, principal: Formula | None,
                 premisses: tuple[LinearNestedSequent, ...]):
        _set_rule(self, rule)
        _set_principal(self, principal)
        _set_premisses(self, premisses)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RuleInstance:
            return NotImplemented
        return ((self.rule, self.principal, self.premisses)
                == (other.rule, other.principal, other.premisses))

    def __hash__(self) -> int:
        return hash((self.rule, self.principal, self.premisses))


_set_rule, _set_principal, _set_premisses = slot_setters(RuleInstance)


def _check_variant(s: LinearNestedSequent, v: CalculusVariant):
    if v is CalculusVariant.KB and Polarity.BACKWARD in s.links:
        raise VariantMismatch("KB sequents use forward links only")


def _last_link(s: LinearNestedSequent) -> Polarity | None:
    return s.links[-1] if s.links else None


# botL's one principal, interned for as long as this module is loaded.
_BOTTOM = Bottom()

# The `only` of a generator that yields the instances of every principal.
ANY = object()


# --- propositional rules and external weakening -------------------------------


def _id(s, saturating, tags, only=ANY):
    last = s.last
    for f in last.ant.of_kind(Atom) if only is ANY else (
            (only,) if type(only) is Atom and only in last.ant else ()):
        if f in last.succ:
            yield RuleInstance(RuleId.ID, f, ())


def _bot_l(s, saturating, tags, only=ANY):
    if (only is ANY or only is _BOTTOM) and _BOTTOM in s.last.ant:
        yield RuleInstance(RuleId.BOT_L, _BOTTOM, ())


def _imp_r(s, saturating, tags, only=ANY):
    last = s.last
    for f in last.succ.of_kind(Implies) if only is ANY else (
            (only,) if type(only) is Implies and only in last.succ else ()):
        if saturating and f.left in last.ant and f.right in last.succ:
            continue
        p = s.replace_component(s.length - 1, Component(
            last.ant.add(f.left), last.succ.add(f.right), last.tag, last.restarts))
        yield RuleInstance(RuleId.IMP_R, f, (p,))


def _imp_l(s, saturating, tags, only=ANY):
    """In search, an instance one of whose premisses is an axiom comes
    first: its right side is bottom or an atom of the last succedent
    (premiss 1 closes by botL or id), or its left side is an atom of the
    last antecedent (premiss 2 closes by id).  The others follow in
    sort_key order."""
    last = s.last
    ant, succ = last.ant, last.succ
    later = []
    for f in ant.of_kind(Implies) if only is ANY else (
            (only,) if type(only) is Implies and only in ant else ()):
        if saturating:
            left, right = f.left, f.right
            if right in ant or left in succ:
                continue
            if not (right is _BOTTOM or type(right) is Atom and right in succ
                    or type(left) is Atom and left in ant):
                later.append(f)
                continue
        yield _imp_l_instance(s, last, f)
    for f in later:
        yield _imp_l_instance(s, last, f)


def _imp_l_instance(s, last, f):
    p1 = s.replace_component(s.length - 1, last.with_ant(f.right))
    p2 = s.replace_component(s.length - 1, last.with_succ(f.left))
    return RuleInstance(RuleId.IMP_L, f, (p1, p2))


def _ew(s, saturating, tags, only=ANY):
    # Search never weakens; EW only appears in derivations it assembles.
    # It has no principal formula.
    if not saturating and s.length >= 2 and (only is ANY or only is None):
        yield RuleInstance(RuleId.EW, None, (s.drop_last(),))


# --- the three makers of modal rules ------------------------------------------


def _propagation(rule: RuleId, kind, link: Polarity):
    """A `kind` box in the second-last antecedent sends its body across a
    last link of polarity `link` into the last antecedent."""

    def instances(s, saturating, tags, only=ANY):
        if _last_link(s) is not link:
            return
        last, second = s.last, s.components[-2]
        for f in second.ant.of_kind(kind) if only is ANY else (
                (only,) if type(only) is kind and only in second.ant else ()):
            if saturating and f.body in last.ant:
                continue
            yield RuleInstance(rule, f, (s.replace_component(s.length - 1, last.with_ant(f.body)),))

    return instances


def _restart(rule: RuleId, kind, link: Polarity):
    """A `kind` box in the last antecedent, across a last link of polarity
    `link`, deletes the last component and hands its body to the one before."""

    def instances(s, saturating, tags, only=ANY):
        if _last_link(s) is not link:
            return
        shorter = s.drop_last()
        second = shorter.last
        for f in s.last.ant.of_kind(kind) if only is ANY else (
                (only,) if type(only) is kind and only in s.last.ant else ()):
            if saturating and f.body in second.ant:
                continue
            absorber = Component(second.ant.add(f.body), second.succ, second.tag,
                                 second.restarts + 1)
            yield RuleInstance(rule, f, (shorter.replace_component(s.length - 2, absorber),))

    return instances


def _right_box(rule: RuleId, kind, links: tuple):
    """A `kind` box in the last succedent, when the last link (None for a
    single component) is in `links`, opens a component holding its body.

    The two-premiss form adds a premiss where the body is also falsified at
    the predecessor; when it already is, the instance adds nothing the search
    could use.
    """
    two_premiss = rule in TWO_PREMISS_BOX_RULES

    def instances(s, saturating, tags, only=ANY):
        if _last_link(s) not in links:
            return
        for f in s.last.succ.of_kind(kind) if only is ANY else (
                (only,) if type(only) is kind and only in s.last.succ else ()):
            left = ()
            if two_premiss:
                second = s.components[-2]
                if saturating and f.body in second.succ:
                    continue
                left = (s.replace_component(s.length - 2, second.with_succ(f.body)),)
            opened = Component(Multiset(), Multiset((f.body,)), tag=tags())
            yield RuleInstance(rule, f, left + (s.extend(BOX_LINK[kind], opened),))

    return instances


FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
_ANY_LINK = (None, FWD, BWD)

_INSTANCES = {
    RuleId.ID: _id,
    RuleId.BOT_L: _bot_l,
    RuleId.IMP_R: _imp_r,
    RuleId.IMP_L: _imp_l,
    RuleId.EW: _ew,
    RuleId.BOX_L1: _propagation(RuleId.BOX_L1, Box, FWD),
    RuleId.BBOX_L1: _propagation(RuleId.BBOX_L1, BlackBox, BWD),
    RuleId.KB_BOX_L1: _propagation(RuleId.KB_BOX_L1, Box, FWD),
    RuleId.BOX_L2: _restart(RuleId.BOX_L2, Box, BWD),
    RuleId.BBOX_L2: _restart(RuleId.BBOX_L2, BlackBox, FWD),
    RuleId.KB_BOX_L2: _restart(RuleId.KB_BOX_L2, Box, FWD),
    RuleId.BOX_R1: _right_box(RuleId.BOX_R1, Box, (BWD,)),
    RuleId.BBOX_R1: _right_box(RuleId.BBOX_R1, BlackBox, (FWD,)),
    RuleId.BOX_R2: _right_box(RuleId.BOX_R2, Box, (None, FWD)),
    RuleId.BBOX_R2: _right_box(RuleId.BBOX_R2, BlackBox, (None, BWD)),
    RuleId.BOX_R: _right_box(RuleId.BOX_R, Box, _ANY_LINK),
    RuleId.BBOX_R: _right_box(RuleId.BBOX_R, BlackBox, _ANY_LINK),
    RuleId.KB_BOX_R: _right_box(RuleId.KB_BOX_R, Box, _ANY_LINK),
}

# Priority order: closure, propositional, propagation, restart, right box.
_CLOSURE_AND_CPL = (RuleId.ID, RuleId.BOT_L, RuleId.IMP_R, RuleId.IMP_L)
_TENSE_LEFT = (RuleId.BOX_L1, RuleId.BBOX_L1, RuleId.BOX_L2, RuleId.BBOX_L2)
_PRIORITY = {
    CalculusVariant.KT: _CLOSURE_AND_CPL + _TENSE_LEFT + (
        RuleId.BOX_R1, RuleId.BBOX_R1, RuleId.BOX_R2, RuleId.BBOX_R2, RuleId.EW),
    CalculusVariant.KT_STAR: _CLOSURE_AND_CPL + _TENSE_LEFT + (
        RuleId.BOX_R, RuleId.BBOX_R, RuleId.EW),
    CalculusVariant.KB: _CLOSURE_AND_CPL + (
        RuleId.KB_BOX_L1, RuleId.KB_BOX_L2, RuleId.KB_BOX_R, RuleId.EW),
}
RULES_BY_VARIANT = {v: frozenset(rules) for v, rules in _PRIORITY.items()}
# The instance generators search tries, per variant, in priority order.
_SATURATION = {v: tuple(_INSTANCES[r] for r in rules
                        if r not in RIGHT_BOX_RULES and r is not RuleId.EW)
               for v, rules in _PRIORITY.items()}
_BOX = {v: tuple(_INSTANCES[r] for r in rules if r in RIGHT_BOX_RULES)
        for v, rules in _PRIORITY.items()}


def saturation_instance(s, v, tags=fresh_tag) -> RuleInstance | None:
    """First applicable instance from the non-box priority classes."""
    _check_variant(s, v)
    for g in _SATURATION[v]:
        for inst in g(s, True, tags):
            return inst
    return None


def box_instances(s, v, tags=fresh_tag) -> list[RuleInstance]:
    """Every right box instance search may choose, in priority order."""
    _check_variant(s, v)
    return [inst for g in _BOX[v] for inst in g(s, True, tags)]


def instance(conclusion, rule: RuleId, principal=ANY) -> RuleInstance | None:
    """The instance of `rule` on `conclusion` with this principal formula
    (None for ew), or with ANY the first in search order; None when there
    is none.  Only that one instance is built, in any calculus variant."""
    return next(_INSTANCES[rule](conclusion, False, fresh_tag, principal), None)


def is_valid_instance(conclusion, rule: RuleId, principal, prems, v) -> bool:
    """True iff (conclusion, rule, prems) is the instance of a rule of v
    with this principal formula.  The premisses are compared as whole
    sequents, in schema order; identity tags never matter here."""
    if rule not in RULES_BY_VARIANT[v]:
        return False
    try:
        _check_variant(conclusion, v)
    except VariantMismatch:
        return False
    inst = instance(conclusion, rule, principal)
    return inst is not None and inst.premisses == tuple(prems)
