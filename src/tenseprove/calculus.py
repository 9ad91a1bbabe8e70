"""Inference rules of the three linear nested sequent calculi.

One table holds an instance generator per rule; the modal ones come from
three makers given the box kind and the links the rule acts across.  A
priority-ordered rule tuple per variant gives its rule set and search order.
The generators yield RuleInstance values carrying their premisses.  In
schema mode (saturating=False) they apply the rule schema only: the
conclusion, the rule and the principal formula fix the premisses, so given
a principal (`only`) a generator builds that one instance, and `instance`
is how the checker, certificate replay and cut build premisses.  In
saturating mode they also apply the side conditions that force progress;
`box_instances` lists the right box choices that way, and for the other
rules that mode is the reference the tests compare search's scan with.

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
        yield _imp_r_instance(s, f)


def _imp_r_instance(s, f):
    last = s.last
    p = s.replace_component(s.length - 1, Component(
        last.ant.add(f.left), last.succ.add(f.right), last.tag, last.restarts))
    return RuleInstance(RuleId.IMP_R, f, (p,))


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
            if not _has_axiom_premiss(f, ant, succ):
                later.append(f)
                continue
        yield _imp_l_instance(s, f)
    for f in later:
        yield _imp_l_instance(s, f)


def _has_axiom_premiss(f, ant, succ):
    right, left = f.right, f.left
    return (right is _BOTTOM or type(right) is Atom and right in succ
            or type(left) is Atom and left in ant)


def _imp_l_instance(s, f):
    last = s.last
    p1 = s.replace_component(s.length - 1, last.with_ant(f.right))
    p2 = s.replace_component(s.length - 1, last.with_succ(f.left))
    return RuleInstance(RuleId.IMP_L, f, (p1, p2))


def _ew(s, saturating, tags, only=ANY):
    # Search never weakens; EW only appears in derivations it assembles.
    # It has no principal formula.
    if not saturating and s.length >= 2 and (only is ANY or only is None):
        yield RuleInstance(RuleId.EW, None, (s.drop_last(),))


# --- search's scan of the saturation rules ------------------------------------

# Where a rule's candidate principals sit: the last antecedent, the last
# succedent, or the second-last antecedent.
_ANT, _SUCC, _PREV_ANT = 0, 1, 2


def _first(principals, last):
    return principals[0]


def _axiom_premiss_first(principals, last):
    """impL's choice, made again at each node because the last component
    it reads grows: the first principal with an axiom premiss, else the
    first."""
    ant, succ = last.ant, last.succ
    for f in principals:
        if _has_axiom_premiss(f, ant, succ):
            return f
    return principals[0]


class _Scan:
    """How search scans one saturation rule, `rule`.  Its candidates are
    the distinct `kind` formulas at `where`, and it acts across a last link
    `link` (ANY: whatever it is).  `select(fs, last, prev)` keeps, in order,
    the candidates fs that the rule, side condition included, may take as
    its principal in a sequent with this last and second-last component
    (prev is None for a single one); `build(s, f)` is the instance on f,
    and `pick(principals, last)` chooses among the principals."""

    __slots__ = ("rule", "where", "kind", "link", "select", "build", "pick")

    def __init__(self, rule, where, kind, link, select, build, pick=_first):
        self.rule, self.where, self.kind, self.link = rule, where, kind, link
        self.select, self.build, self.pick = select, build, pick

    def joined(self, principals, f, last, prev) -> tuple:
        """principals with f, a formula a premiss added to its last
        component, when f is a candidate the rule may take."""
        if f in (last.ant if self.where is _ANT else last.succ) and self.select((f,), last, prev):
            i = bisect.bisect(principals, sort_key(f), key=sort_key)
            principals = principals[:i] + (f,) + principals[i:]
        return principals


# The side conditions, as the `select` of each scan.

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


_PROPOSITIONAL_SCANS = (
    _Scan(RuleId.ID, _ANT, Atom, ANY, _on_both_sides,
          lambda s, f: RuleInstance(RuleId.ID, f, ())),
    _Scan(RuleId.BOT_L, _ANT, Bottom, ANY, _all,
          lambda s, f: RuleInstance(RuleId.BOT_L, f, ())),
    _Scan(RuleId.IMP_R, _SUCC, Implies, ANY, _imp_r_open, _imp_r_instance),
    _Scan(RuleId.IMP_L, _ANT, Implies, ANY, _imp_l_open, _imp_l_instance, _axiom_premiss_first),
)


# --- the three makers of modal rules ------------------------------------------


def _propagation(rule: RuleId, kind, link: Polarity):
    """A `kind` box in the second-last antecedent sends its body across a
    last link of polarity `link` into the last antecedent.  Returns the
    instance generator and search's scan of the rule."""

    def build(s, f):
        return RuleInstance(rule, f, (s.replace_component(s.length - 1, s.last.with_ant(f.body)),))

    def instances(s, saturating, tags, only=ANY):
        if _last_link(s) is not link:
            return
        last, second = s.last, s.components[-2]
        for f in second.ant.of_kind(kind) if only is ANY else (
                (only,) if type(only) is kind and only in second.ant else ()):
            if saturating and f.body in last.ant:
                continue
            yield build(s, f)

    return instances, _Scan(rule, _PREV_ANT, kind, link, _body_not_in_last, build)


def _restart(rule: RuleId, kind, link: Polarity):
    """A `kind` box in the last antecedent, across a last link of polarity
    `link`, deletes the last component and hands its body to the one before.
    Returns the instance generator and search's scan of the rule."""

    def build(s, f):
        shorter = s.drop_last()
        second = shorter.last
        absorber = Component(second.ant.add(f.body), second.succ, second.tag,
                             second.restarts + 1)
        return RuleInstance(rule, f, (shorter.replace_component(s.length - 2, absorber),))

    def instances(s, saturating, tags, only=ANY):
        if _last_link(s) is not link:
            return
        second = s.components[-2]
        for f in s.last.ant.of_kind(kind) if only is ANY else (
                (only,) if type(only) is kind and only in s.last.ant else ()):
            if saturating and f.body in second.ant:
                continue
            yield build(s, f)

    return instances, _Scan(rule, _ANT, kind, link, _body_not_in_prev, build)


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

_TENSE_LEFT_RULES = {
    RuleId.BOX_L1: _propagation(RuleId.BOX_L1, Box, FWD),
    RuleId.BBOX_L1: _propagation(RuleId.BBOX_L1, BlackBox, BWD),
    RuleId.KB_BOX_L1: _propagation(RuleId.KB_BOX_L1, Box, FWD),
    RuleId.BOX_L2: _restart(RuleId.BOX_L2, Box, BWD),
    RuleId.BBOX_L2: _restart(RuleId.BBOX_L2, BlackBox, FWD),
    RuleId.KB_BOX_L2: _restart(RuleId.KB_BOX_L2, Box, FWD),
}

_INSTANCES = {
    RuleId.ID: _id,
    RuleId.BOT_L: _bot_l,
    RuleId.IMP_R: _imp_r,
    RuleId.IMP_L: _imp_l,
    RuleId.EW: _ew,
    **{rule: instances for rule, (instances, _) in _TENSE_LEFT_RULES.items()},
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
# The scans of the saturation rules search tries, per variant and last link
# (None for a single component), in priority order.
_SCANS_BY_RULE = {scan.rule: scan for scan in _PROPOSITIONAL_SCANS + tuple(
    scan for _, scan in _TENSE_LEFT_RULES.values())}
_SCANS = {v: {link: tuple(_SCANS_BY_RULE[r] for r in rules
                          if r in _SCANS_BY_RULE and _SCANS_BY_RULE[r].link in (ANY, link))
              for link in _ANY_LINK}
          for v, rules in _PRIORITY.items()}
_BOX = {v: tuple(_INSTANCES[r] for r in rules if r in RIGHT_BOX_RULES)
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

    return (scans.index(_SCANS_BY_RULE[rule]),
            tuple(tuple((part, joins(where)) for where, part in adds) for adds in _GROWTH[rule]))


_CARRY = {v: {link: {rule: _carry_plan(scans, rule) for rule in _GROWTH
                     if _SCANS_BY_RULE[rule] in scans}
              for link, scans in by_link.items()}
          for v, by_link in _SCANS.items()}


def saturation_instance(s, v, tags=fresh_tag, state=None) -> RuleInstance | None:
    """First applicable instance from the non-box priority classes, the
    first that the saturating generators would yield.  `state` is s's scan
    state; the scan reads the principals it holds and appends those it
    computes.  No saturation rule opens a component, so `tags` is never
    called."""
    links = s.links
    scans = _SCANS[v][links[-1] if links else None]
    last = s.last
    if state:  # carried over from a parent that was checked
        for i, principals in enumerate(state):
            if principals:
                scan = scans[i]
                return scan.build(s, scan.pick(principals, last))
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
            return scan.build(s, scan.pick(principals, last))
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
