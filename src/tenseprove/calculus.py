"""Inference rules of the three linear nested sequent calculi.

One table holds one entry per rule; ew, which has no principal formula, is
a case of `instance`.  An entry says where the rule finds its principal
and of which kind it is, the last links the rule acts across, the side
condition that forces progress in backward search (`select`), the instance
on a principal (`build`) and search's choice among principals (`pick`).
The modal entries come from three makers given the box kind and the links.
A priority-ordered rule tuple per variant gives its rule set and search
order.

`instance` applies a rule's schema only: the conclusion, the rule and the
principal formula fix the premisses, and it is how the checker, certificate
replay and cut build premisses.  Id's side condition, an atom on both
sides, is also its schema.  `box_instances` lists the right box choices
search may make, the instances each entry's `select` keeps.

Search finds its saturation instance (id, botL, impR, impL, propagation,
restart) by a scan that starts from the parent's.  Every rule keeps its
principal formula and backward search only adds formulas, so a side
condition that blocks a candidate at a node blocks it at every node above.
A node's scan state is a list holding, for each rule its scan reached in
priority order, the principals the rule may take there, in sort_key order.
A premiss that only grows the last component (impR, impL, propagation)
gets its parent's lists, less what the added formulas block, plus each
added formula that is a new principal (`premiss_state`); other premisses
start from an empty state.  So a node's work follows what changed, not the
size of its last component.

ImpL keeps its principal formula, so it is invertible and any order of its
instances is complete; the order only sets the size of the tree.  In search
an instance with a premiss that is an axiom (closed by id or botL) goes
first, chosen anew at each node because the component it reads grows.  On
the pigeonhole formulas ph(n) this takes ph(2) from 240 search nodes to 70
and ph(3) from 15,782 to 376, and ph(4) decides in 2,412.
"""

from __future__ import annotations

import bisect
import enum
from operator import attrgetter

from .formula import Atom, BlackBox, Bottom, Box, Formula, Implies, Polarity, sort_key
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


# botL's one principal, interned for as long as this module is loaded.
_BOTTOM = Bottom()

# The principal of `instance` that asks for the first candidate.
ANY = object()

# Where a rule's candidate principals sit: the last antecedent, the last
# succedent, or the second-last antecedent.
_ANT, _SUCC, _PREV_ANT = 0, 1, 2


def _first(principals, last):
    return principals[0]


def _axiom_premiss_first(principals, last):
    """impL's choice, made again at each node because the last component
    it reads grows: the first principal with an axiom premiss, else the
    first.  A principal has one when its right side is bottom or an atom
    of the last succedent (premiss 1 closes by botL or id), or its left
    side is an atom of the last antecedent (premiss 2 closes by id)."""
    ant, succ = last.ant, last.succ
    for f in principals:
        right, left = f.right, f.left
        if (right is _BOTTOM or type(right) is Atom and right in succ
                or type(left) is Atom and left in ant):
            return f
    return principals[0]


class _Rule:
    """One rule, `rule`.  Its candidate principals are the distinct `kind`
    formulas at `where`, and it acts across the last links in `links`
    (None for a single component).  `select(fs, last, prev)` keeps, in
    order, the candidates fs that the rule, side condition included, may
    take as its principal in a sequent with this last and second-last
    component (prev is None for a single one); `build(s, f, tags)` is the
    instance on f, and `pick(principals, last)` is search's choice among
    the principals."""

    __slots__ = ("rule", "where", "kind", "links", "select", "build", "pick")

    def __init__(self, rule, where, kind, links, select, build, pick=_first):
        self.rule, self.where, self.kind, self.links = rule, where, kind, links
        self.select, self.build, self.pick = select, build, pick

    def joined(self, principals, f, last, prev) -> tuple:
        """principals with f, a formula a premiss added to its last
        component, when f is a candidate the rule may take."""
        if f in (last.ant if self.where is _ANT else last.succ) and self.select((f,), last, prev):
            i = bisect.bisect(principals, sort_key(f), key=sort_key)
            principals = principals[:i] + (f,) + principals[i:]
        return principals


# The side conditions, as the `select` of each rule.

def _on_both_sides(fs, last, prev):
    succ = last.succ
    return tuple([f for f in fs if f in succ])


def _all(fs, last, prev):
    return tuple(fs)


def _imp_r_open(fs, last, prev):
    ant, succ = last.ant, last.succ
    return tuple([f for f in fs if f.left not in ant or f.right not in succ])


def _imp_l_open(fs, last, prev):
    ant, succ = last.ant, last.succ
    return tuple([f for f in fs if f.right not in ant and f.left not in succ])


def _body_not_in_last(fs, last, prev):
    ant = last.ant
    return tuple([f for f in fs if f.body not in ant])


def _body_not_in_prev(fs, last, prev):
    ant = prev.ant
    return tuple([f for f in fs if f.body not in ant])


def _body_not_in_prev_succ(fs, last, prev):
    succ = prev.succ
    return tuple([f for f in fs if f.body not in succ])


# --- the premisses of the propositional rules and the three modal makers ------


def _axiom(rule: RuleId):
    return lambda s, f, tags: RuleInstance(rule, f, ())


def _imp_r_instance(s, f, tags):
    last = s.last
    p = s.replace_component(s.length - 1, Component(
        last.ant.add(f.left), last.succ.add(f.right), last.tag, last.restarts))
    return RuleInstance(RuleId.IMP_R, f, (p,))


def _imp_l_instance(s, f, tags):
    last = s.last
    p1 = s.replace_component(s.length - 1, last.with_ant(f.right))
    p2 = s.replace_component(s.length - 1, last.with_succ(f.left))
    return RuleInstance(RuleId.IMP_L, f, (p1, p2))


def _propagation(rule: RuleId, kind, link: Polarity) -> _Rule:
    """A `kind` box in the second-last antecedent sends its body across a
    last link of polarity `link` into the last antecedent."""

    def build(s, f, tags):
        return RuleInstance(rule, f, (s.replace_component(s.length - 1, s.last.with_ant(f.body)),))

    return _Rule(rule, _PREV_ANT, kind, (link,), _body_not_in_last, build)


def _restart(rule: RuleId, kind, link: Polarity) -> _Rule:
    """A `kind` box in the last antecedent, across a last link of polarity
    `link`, deletes the last component and hands its body to the one before."""

    def build(s, f, tags):
        shorter = s.drop_last()
        second = shorter.last
        absorber = Component(second.ant.add(f.body), second.succ, second.tag,
                             second.restarts + 1)
        return RuleInstance(rule, f, (shorter.replace_component(s.length - 2, absorber),))

    return _Rule(rule, _ANT, kind, (link,), _body_not_in_prev, build)


def _right_box(rule: RuleId, kind, links: tuple) -> _Rule:
    """A `kind` box in the last succedent, when the last link is in
    `links`, opens a component holding its body.

    The two-premiss form adds a premiss where the body is also falsified at
    the predecessor; when it already is, the instance adds nothing the search
    could use.
    """
    two_premiss = rule in TWO_PREMISS_BOX_RULES

    def build(s, f, tags):
        left = ()
        if two_premiss:
            second = s.components[-2]
            left = (s.replace_component(s.length - 2, second.with_succ(f.body)),)
        opened = Component(Multiset(), Multiset((f.body,)), tag=tags())
        return RuleInstance(rule, f, left + (s.extend(BOX_LINK[kind], opened),))

    return _Rule(rule, _SUCC, kind, links,
                 _body_not_in_prev_succ if two_premiss else _all, build)


FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
_ANY_LINK = (None, FWD, BWD)

_RULES = {e.rule: e for e in (
    _Rule(RuleId.ID, _ANT, Atom, _ANY_LINK, _on_both_sides, _axiom(RuleId.ID)),
    _Rule(RuleId.BOT_L, _ANT, Bottom, _ANY_LINK, _all, _axiom(RuleId.BOT_L)),
    _Rule(RuleId.IMP_R, _SUCC, Implies, _ANY_LINK, _imp_r_open, _imp_r_instance),
    _Rule(RuleId.IMP_L, _ANT, Implies, _ANY_LINK, _imp_l_open, _imp_l_instance,
          _axiom_premiss_first),
    _propagation(RuleId.BOX_L1, Box, FWD),
    _propagation(RuleId.BBOX_L1, BlackBox, BWD),
    _propagation(RuleId.KB_BOX_L1, Box, FWD),
    _restart(RuleId.BOX_L2, Box, BWD),
    _restart(RuleId.BBOX_L2, BlackBox, FWD),
    _restart(RuleId.KB_BOX_L2, Box, FWD),
    _right_box(RuleId.BOX_R1, Box, (BWD,)),
    _right_box(RuleId.BBOX_R1, BlackBox, (FWD,)),
    _right_box(RuleId.BOX_R2, Box, (None, FWD)),
    _right_box(RuleId.BBOX_R2, BlackBox, (None, BWD)),
    _right_box(RuleId.BOX_R, Box, _ANY_LINK),
    _right_box(RuleId.BBOX_R, BlackBox, _ANY_LINK),
    _right_box(RuleId.KB_BOX_R, Box, _ANY_LINK),
)}

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


def _acting(rules, link, right_box: bool) -> tuple:
    return tuple(_RULES[r] for r in rules if r in _RULES
                 and (r in RIGHT_BOX_RULES) is right_box and link in _RULES[r].links)


# The rules search tries, per variant and last link (None for a single
# component), in priority order: the saturation rules it scans, and the
# right box rules it chooses among.
_SCANS = {v: {link: _acting(rules, link, False) for link in _ANY_LINK}
          for v, rules in _PRIORITY.items()}
_BOX = {v: {link: _acting(rules, link, True) for link in _ANY_LINK}
        for v, rules in _PRIORITY.items()}

# What each premiss of a rule that only grows the last component adds to
# it: parts of the principal, each at a place.
_LEFT, _RIGHT, _BODY = attrgetter("left"), attrgetter("right"), attrgetter("body")
_GROWTH = {
    RuleId.IMP_R: (((_ANT, _LEFT), (_SUCC, _RIGHT)),),
    RuleId.IMP_L: (((_ANT, _RIGHT),), ((_SUCC, _LEFT),)),
    RuleId.BOX_L1: (((_ANT, _BODY),),),
    RuleId.BBOX_L1: (((_ANT, _BODY),),),
    RuleId.KB_BOX_L1: (((_ANT, _BODY),),),
}


def _carry_plan(scans, rule):
    """How premiss_state carries a state over `rule`'s premisses: the
    rule's position in scans, the first whose principals growth may block,
    and per premiss, each part of the principal it adds, with the positions
    by kind of the rules that part may join as a principal.  These are the
    rules whose candidates of that kind sit at the part's place, and id
    for an atom added to the succedent, which may be one of its antecedent
    atoms."""

    def joins(where):
        return {kind: tuple(k for k, scan in enumerate(scans) if scan.kind is kind
                            and (scan.where is where or scan.rule is RuleId.ID))
                for kind in {scan.kind for scan in scans}}

    return (scans.index(_RULES[rule]),
            tuple(tuple((part, joins(where)) for where, part in adds) for adds in _GROWTH[rule]))


_CARRY = {v: {link: {rule: _carry_plan(scans, rule) for rule in _GROWTH
                     if _RULES[rule] in scans}
              for link, scans in by_link.items()}
          for v, by_link in _SCANS.items()}


def saturation_instance(s, v, tags=fresh_tag, state=None) -> RuleInstance | None:
    """Search's instance of the first saturation rule, in priority order,
    whose `select` keeps a principal, on the principal its `pick` chooses;
    None when there is none.  `state` is s's scan state; the scan reads the
    principals it holds and appends those it computes.  No saturation rule
    opens a component, so `tags` is never called."""
    links = s.links
    scans = _SCANS[v][links[-1] if links else None]
    last = s.last
    if state:  # carried over from a parent that was checked
        for i, principals in enumerate(state):
            if principals:
                scan = scans[i]
                return scan.build(s, scan.pick(principals, last), tags)
    else:
        _check_variant(s, v)
        if state is None:
            state = []
    prev = s.components[-2] if links else None
    sources = (last.ant, last.succ, prev and prev.ant)
    for scan in scans[len(state):]:
        principals = sources[scan.where].of_kind(scan.kind)
        if principals:
            principals = scan.select(principals, last, prev)
        state.append(principals)
        if principals:
            return scan.build(s, scan.pick(principals, last), tags)
    return None


def premiss_state(state, v, s, inst, i) -> list:
    """The scan state of premiss i of inst, an instance on s of impR, impL
    or a propagation rule; `state` is s's.  These rules only grow the last
    component, and growth never lifts a side condition: the one condition
    it can meet is id's, an atom on both sides.  So the premiss's
    principals for each rule s's scan reached are s's that the rule may
    still take, and each formula the premiss adds that it may now take.
    The last premiss's state is s's list, updated in place, so s's state
    must not be read after it is asked for."""
    links = s.links
    link = links[-1] if links else None
    scans = _SCANS[v][link]
    first, premisses = _CARRY[v][link][inst.rule]
    new = inst.premisses[i].last
    prev = s.components[-2] if links else None
    out = state if i == len(premisses) - 1 else state.copy()
    # s's scan found no principals for the rules before inst's.
    for k in range(first, len(out)):
        if out[k]:
            out[k] = scans[k].select(out[k], new, prev)
    for part, joins in premisses[i]:
        f = part(inst.principal)
        for k in joins.get(type(f), ()):
            if k < len(out) and f not in out[k]:
                out[k] = scans[k].joined(out[k], f, new, prev)
    return out


def box_instances(s, v, tags=fresh_tag) -> list[RuleInstance]:
    """Every right box instance search may choose, in priority order: on
    each box of the last succedent that the rule's `select` keeps."""
    _check_variant(s, v)
    links = s.links
    last = s.last
    prev = s.components[-2] if links else None
    return [e.build(s, f, tags) for e in _BOX[v][links[-1] if links else None]
            for f in e.select(last.succ.of_kind(e.kind), last, prev)]


def instance(conclusion, rule: RuleId, principal=ANY) -> RuleInstance | None:
    """The instance of `rule` on `conclusion` with this principal formula
    (None for ew), or with ANY the one on the first candidate in sort_key
    order; None when there is none.  Only that one instance is built, in
    any calculus variant."""
    s, links = conclusion, conclusion.links
    if rule is RuleId.EW:
        # Search never weakens; ew only appears in derivations it assembles.
        if links and (principal is ANY or principal is None):
            return RuleInstance(RuleId.EW, None, (s.drop_last(),))
        return None
    e = _RULES[rule]
    if (links[-1] if links else None) not in e.links:
        return None
    last = s.last
    prev = s.components[-2] if links else None
    place = (last.ant, last.succ, prev and prev.ant)[e.where]
    if principal is ANY:
        fs = place.of_kind(e.kind)
    elif type(principal) is e.kind and principal in place:
        fs = (principal,)
    else:
        return None
    if rule is RuleId.ID:  # its side condition is its schema
        fs = e.select(fs, last, prev)
    return e.build(s, fs[0], fresh_tag) if fs else None


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
