"""Inference rules of the three linear nested sequent calculi, as search
builds premisses with them.

One table holds one entry per rule; ew, which has no principal formula, is
a case of `premisses`.  An entry says which kind of formula the rule's
principal is, the last links the rule acts across and the premisses of
its instance on a principal (`premisses`), and for backward search what
each premiss adds (`grow`) and the link a right box rule opens (`opens`).
The modal entries come from three makers given the box kind and the links.
A priority-ordered rule tuple per variant gives its rule set and search
order, and `step` is search's policy: which rule it applies at a node, on
which principal, or which right box choices it branches over.

The conclusion, the rule and the principal formula fix the premisses, so
the table's builders serve search, certificate replay and the generalised
initial sequents alike, through `premisses`.  They make each premiss from
four value builders, which `metatheory`'s transforms share: one more copy
of a formula in a multiset, a component, a sequent with one component
replaced, and a sequent extended by a link and a component.  Nothing here
is trusted: `kernel` checks every derivation against rules it writes out
itself, where the principal sits included, and compares every value these
builders make.

Search reads the side conditions as bit operations.  The calculus has the
subformula property: backward search only adds subformulas of the end
sequent, so a search numbers that set once, in sort_key order (`Closure`),
and a set of its formulas is a Python int with bit i for formula i.  Each
side of a component has four masks: its members, the implications whose
left part is a member, those whose right part is a member, and the boxes
whose body is a member.  Each side condition is one bit expression over
the last and second-last components' masks, the principals the rule may
take there (impR: the succedent's implications, less those whose left part
is in the antecedent and right part in the succedent), and its lowest set
bit is the first of them in sort_key order; `step` evaluates them all, in
priority order, in one call per node.  A premiss's masks are its
conclusion's ORed with what the rule adds to it (`grow`), so no node
rescans a component and search sorts nothing.

ImpL keeps its principal formula, so it is invertible and any order of its
instances is complete; the order only sets the size of the tree.  In search
an instance with a premiss that is an axiom (closed by id or botL) goes
first, chosen anew at each node because the component it reads grows.  On
the pigeonhole formulas ph(n) this takes ph(2) from 240 search nodes to 70
and ph(3) from 15,782 to 376, and ph(4) decides in 2,412.
"""

from __future__ import annotations

from .formula import (
    Atom, BlackBox, Bottom, Box, Formula, Implies, Polarity, canonical_order, subformulas)
from .kernel import CalculusVariant, RuleId
from .sequent import Component, LinearNestedSequent, Multiset, slot_setters


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


# botL's one principal, interned for as long as this module is loaded.
_BOTTOM = Bottom()

# The value builders: each makes a multiset, component or sequent past the
# class call and its `__init__` frame (see sequent).  A right box rule opens
# its component from this empty multiset.
_new = object.__new__
(_set_counts,) = slot_setters(Multiset)
_set_ant, _set_succ = slot_setters(Component)
_set_components, _set_links = slot_setters(LinearNestedSequent)
_NOTHING = Multiset()


def added(m: Multiset, f: Formula) -> Multiset:
    """m with one more copy of f."""
    counts = m._counts.copy()
    counts[f] = counts.get(f, 0) + 1
    out = _new(Multiset)
    _set_counts(out, counts)
    return out


def make_component(ant: Multiset, succ: Multiset) -> Component:
    """Component(ant, succ)."""
    c = _new(Component)
    _set_ant(c, ant)
    _set_succ(c, succ)
    return c


def replaced(s: LinearNestedSequent, i: int, c: Component) -> LinearNestedSequent:
    """s with component i, counted from the end when negative, replaced by
    c, and s's links tuple; raises IndexError when there is none."""
    comps = s.components
    n = len(comps)
    j = i + n if i < 0 else i
    if not 0 <= j < n:
        raise IndexError(f"component index {i} out of range for length {n}")
    out = _new(LinearNestedSequent)
    _set_components(out, comps[:j] + (c,) + comps[j + 1:])
    _set_links(out, s.links)
    return out


def extended(s: LinearNestedSequent, link: Polarity, c: Component) -> LinearNestedSequent:
    """s with c appended after one more link."""
    out = _new(LinearNestedSequent)
    _set_components(out, s.components + (c,))
    _set_links(out, s.links + (link,))
    return out


# The masks of one side of a component, in this order: its members, the
# implications whose left part is a member, those whose right part is a
# member, and the boxes whose body is a member.  A component's masks are
# the pair (antecedent side, succedent side), and a sequent's are a chain
# from its last component (see Closure.masks): rules act on the last two
# components, so a premiss shares all the chain below them.
_EMPTY_SIDE = (0, 0, 0, 0)


class Closure:
    """The subformulas of a sequent, numbered in sort_key order: every
    formula a backward search from the sequent can meet.

    `formulas[i]` is formula i and `bits[f]` is 1 << i for formula f;
    `kinds[t]` is the mask of the formulas of class t; `atoms` pairs each
    atom's bit with its name; `bot_right`, `atom_right` and `atom_left` are
    the implications whose right part is bottom, whose right part is an
    atom, and whose left part is an atom."""

    __slots__ = ("formulas", "bits", "kinds", "atoms", "_lefts", "_rights", "_bodies",
                 "bot_right", "atom_right", "atom_left")

    def __init__(self, s: LinearNestedSequent):
        members = (f for c in s.components for ms in (c.ant, c.succ) for f in ms.members())
        self.formulas = order = canonical_order(subformulas(*members))
        self.bits = bits = {}
        # The implications whose left or right part is each formula, and the
        # boxes whose body is each formula, for the formulas that have any.
        self._lefts = lefts = {}
        self._rights = rights = {}
        self._bodies = bodies = {}
        imp = box = black_box = bot_right = atom_right = atom_left = 0
        atoms = []
        b = 1
        for f in order:
            bits[f] = b
            t = f.__class__
            if t is Atom:
                atoms.append((b, f.name))
            elif t is Implies:
                imp |= b
                left, right = f.left, f.right
                lefts[left] = lefts.get(left, 0) | b
                rights[right] = rights.get(right, 0) | b
                if right is _BOTTOM:
                    bot_right |= b
                elif right.__class__ is Atom:
                    atom_right |= b
                if left.__class__ is Atom:
                    atom_left |= b
            elif t is Box or t is BlackBox:
                if t is Box:
                    box |= b
                else:
                    black_box |= b
                bodies[f.body] = bodies.get(f.body, 0) | b
            b <<= 1
        bottom = bits.get(_BOTTOM, 0)
        self.kinds = {Implies: imp, Box: box, BlackBox: black_box, Bottom: bottom,
                      Atom: (1 << len(order)) - 1 & ~(imp | box | black_box | bottom)}
        self.atoms = tuple(atoms)
        self.bot_right, self.atom_right, self.atom_left = bot_right, atom_right, atom_left

    def join(self, side: tuple, f: Formula) -> tuple:
        """The masks of a side after f joins it."""
        return (side[0] | self.bits[f], side[1] | self._lefts.get(f, 0),
                side[2] | self._rights.get(f, 0), side[3] | self._bodies.get(f, 0))

    def masks(self, s: LinearNestedSequent) -> tuple:
        """The masks of the components of s, a sequent over these formulas,
        read from its formulas, as a chain from the last component: (its
        masks, the chain of the components before it), ending in None."""
        out = None
        for c in s.components:
            out = ((self._side(c.ant), self._side(c.succ)), out)
        return out

    def _side(self, ms: Multiset) -> tuple:
        side = _EMPTY_SIDE
        for f in ms.members():
            side = self.join(side, f)
        return side


class Rule:
    """One rule's entry, for `rule`.  Its principal is a `kind` formula,
    and it acts across the last links in `links` (None for a single
    component).  `premisses(s, f)` are the premisses of its instance on
    f, in schema order.  For search, `grow(closure, masks, f)` gives the
    masks of each premiss from the conclusion's, and `opens` is the link a
    right box rule's last premiss adds (None for the other rules), which
    search appends to the links it carries.  Which rule search applies,
    and on which principal, is `step`'s to say."""

    __slots__ = ("rule", "kind", "links", "premisses", "grow", "opens")

    def __init__(self, rule, kind, links, premisses, grow=None, opens=None):
        self.rule, self.kind, self.links = rule, kind, links
        self.premisses, self.grow, self.opens = premisses, grow, opens


# --- the propositional rules and the three modal makers ----------------------


def _axiom(s, f):
    return ()


def _imp_r_premisses(s, f):
    last = s.components[-1]
    return (replaced(s, -1, make_component(added(last.ant, f.left), added(last.succ, f.right))),)


def _imp_r_masks(k, masks, f):
    (ant, succ), before = masks
    return (((k.join(ant, f.left), k.join(succ, f.right)), before),)


def _imp_l_premisses(s, f):
    last = s.components[-1]
    return (replaced(s, -1, make_component(added(last.ant, f.right), last.succ)),
            replaced(s, -1, make_component(last.ant, added(last.succ, f.left))))


def _imp_l_masks(k, masks, f):
    (ant, succ), before = masks
    return ((k.join(ant, f.right), succ), before), ((ant, k.join(succ, f.left)), before)


def _propagation(rule: RuleId, kind, link: Polarity) -> Rule:
    """A `kind` box in the second-last antecedent sends its body across a
    last link of polarity `link` into the last antecedent."""

    def premisses(s, f):
        last = s.components[-1]
        return (replaced(s, -1, make_component(added(last.ant, f.body), last.succ)),)

    def grow(k, masks, f):
        (ant, succ), before = masks
        return (((k.join(ant, f.body), succ), before),)

    return Rule(rule, kind, (link,), premisses, grow)


def _restart(rule: RuleId, kind, link: Polarity) -> Rule:
    """A `kind` box in the last antecedent, across a last link of polarity
    `link`, deletes the last component and hands its body to the one before."""

    def premisses(s, f):
        shorter = s.drop_last()
        second = shorter.components[-1]
        return (replaced(shorter, -1, make_component(added(second.ant, f.body), second.succ)),)

    def grow(k, masks, f):
        (ant, succ), before = masks[1]
        return (((k.join(ant, f.body), succ), before),)

    return Rule(rule, kind, (link,), premisses, grow)


def _right_box(rule: RuleId, kind, links: tuple) -> Rule:
    """A `kind` box in the last succedent, when the last link is in
    `links`, opens a component holding its body.

    The two-premiss form adds a premiss where the body is also falsified at
    the predecessor; when it already is, the instance adds nothing the search
    could use.
    """
    two_premiss = rule in TWO_PREMISS_BOX_RULES
    link = BOX_LINK[kind]

    def premisses(s, f):
        left = ()
        if two_premiss:
            prev = s.components[-2]
            left = (replaced(s, -2, make_component(prev.ant, added(prev.succ, f.body))),)
        return left + (extended(s, link, make_component(_NOTHING, added(_NOTHING, f.body))),)

    def grow(k, masks, f):
        opened = (((_EMPTY_SIDE, k.join(_EMPTY_SIDE, f.body)), masks),)
        if not two_premiss:
            return opened
        last, ((ant, succ), before) = masks
        return ((last, ((ant, k.join(succ, f.body)), before)),) + opened

    return Rule(rule, kind, links, premisses, grow, link)


FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
_ANY_LINK = (None, FWD, BWD)

_RULES = {e.rule: e for e in (
    Rule(RuleId.ID, Atom, _ANY_LINK, _axiom),
    Rule(RuleId.BOT_L, Bottom, _ANY_LINK, _axiom),
    Rule(RuleId.IMP_R, Implies, _ANY_LINK, _imp_r_premisses, _imp_r_masks),
    Rule(RuleId.IMP_L, Implies, _ANY_LINK, _imp_l_premisses, _imp_l_masks),
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


def _across(rules: tuple, link) -> tuple:
    """What search reads of a variant's priority-ordered `rules` across a
    last link `link` (None for one component): its propagation and restart
    entries, (None, None) where it has none, and its right box entries in
    priority order, each with whether it is a two-premiss rule."""
    acting = [_RULES[r] for r in rules[len(_CLOSURE_AND_CPL):]
              if r in _RULES and link in _RULES[r].links]
    propagation, restart = [e for e in acting if e.opens is None] or (None, None)
    return propagation, restart, tuple(
        (e, e.rule in TWO_PREMISS_BOX_RULES) for e in acting if e.opens is not None)


# What `step` reads per variant and last link, and the entries it names.
_STEPS = {v: {link: _across(rules, link) for link in _ANY_LINK} for v, rules in _PRIORITY.items()}
_ID, _BOT_L, _IMP_R, _IMP_L = (_RULES[r] for r in _CLOSURE_AND_CPL)


def start(s: LinearNestedSequent, v: CalculusVariant) -> Closure:
    """The closure a search under v from s reads; raises VariantMismatch
    when s is not a sequent of v: under KB, one with a backward link or a
    [P] formula, for which KB has no rule.  Search only opens links of the
    box kinds v has, so no later node needs the check."""
    if v is CalculusVariant.KB and Polarity.BACKWARD in s.links:
        raise VariantMismatch("KB sequents use forward links only")
    k = Closure(s)
    if v is CalculusVariant.KB and k.kinds[BlackBox]:
        raise VariantMismatch("KB sequents have no [P] formulas")
    return k


def step(k: Closure, v, link: Polarity | None, masks) -> tuple[Rule, Formula] | list:
    """Search's step at a sequent whose last link is `link` (None for one
    component) and whose components have these masks over the closure k.
    The sequent itself is not read.

    Each rule's side condition is evaluated here, in the priority order the
    three variants share, and a rule's principal is the lowest set bit of
    its mask, the first in sort_key order: id, botL, impR, then impL, whose
    mask narrows to the principals with an axiom premiss when there are any
    (a right side that is bottom or an atom of the succedent, or a left
    side that is an atom of the antecedent), and across a link the
    variant's propagation, then its restart.  The first rule that may take
    a principal gives the step, as (entry, principal).  Otherwise the step
    is the list of every right box choice, as (entry, principal), in
    priority order and within a rule in sort_key order, empty at a
    saturated leaf."""
    # A side's masks are (members, lefts, rights, bodies) (see Closure).
    ((ant, ant_lefts, ant_rights, ant_bodies), (succ, succ_lefts, succ_rights, _)), before = masks
    kinds, formulas = k.kinds, k.formulas
    principals = ant & succ & kinds[Atom]
    if principals:
        return _ID, formulas[(principals & -principals).bit_length() - 1]
    if ant & kinds[Bottom]:
        return _BOT_L, _BOTTOM
    imp = kinds[Implies]
    principals = succ & imp & ~(ant_lefts & succ_rights)
    if principals:
        return _IMP_R, formulas[(principals & -principals).bit_length() - 1]
    principals = ant & imp & ~(ant_rights | succ_lefts)
    if principals:
        principals = principals & (k.bot_right | k.atom_right & succ_rights
                                   | k.atom_left & ant_lefts) or principals
        return _IMP_L, formulas[(principals & -principals).bit_length() - 1]
    propagation, restart, boxes = _STEPS[v][link]
    if propagation is not None:
        prev_ant = before[0][0]
        principals = prev_ant[0] & kinds[propagation.kind] & ~ant_bodies
        if principals:
            return propagation, formulas[(principals & -principals).bit_length() - 1]
        principals = ant & kinds[restart.kind] & ~prev_ant[3]
        if principals:
            return restart, formulas[(principals & -principals).bit_length() - 1]
    out = []
    for e, two_premiss in boxes:
        principals = succ & kinds[e.kind]
        if two_premiss:
            principals &= ~before[0][1][3]
        while principals:
            low = principals & -principals
            out.append((e, formulas[low.bit_length() - 1]))
            principals ^= low
    return out


def premisses(conclusion, rule: RuleId, principal) -> tuple | None:
    """The premisses of `rule`'s instance on this principal formula (None
    for ew) in `conclusion`, in schema order, as search builds them, in any
    calculus variant; None when the builder cannot run: the principal has
    another connective, the rule does not act across the last link, or ew
    is given a principal or a single component.  Where the principal sits
    is not looked at: `kernel.is_instance` judges that, with the rest of
    the node."""
    links = conclusion.links
    if rule is RuleId.EW:
        # Search never weakens; ew only appears in derivations it assembles.
        return (conclusion.drop_last(),) if links and principal is None else None
    e = _RULES[rule]
    if type(principal) is not e.kind or (links[-1] if links else None) not in e.links:
        return None
    return e.premisses(conclusion, principal)
