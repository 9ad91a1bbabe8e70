"""Inference rules of the three linear nested sequent calculi, as search
builds premisses with them.

One table holds one entry per rule; ew, which has no principal formula, is
a case of `premisses`.  An entry says which kind of formula the rule's
principal is, the last links the rule acts across and the premisses of
its instance on a principal (`premisses`), and for backward search where
its candidates sit with the side condition that forces progress (`open`),
search's choice among the principals it leaves (`pick`) and what each
premiss adds (`grow`).  The modal entries come from three makers given the
box kind and the links.  A priority-ordered rule tuple per variant gives
its rule set and search order.

The conclusion, the rule and the principal formula fix the premisses, so
the table's builders serve search, certificate replay and the generalised
initial sequents alike, through `premisses`.  Nothing here is trusted:
`kernel` checks every derivation against rules it writes out itself,
where the principal sits included.

Search reads the side conditions as bit operations.  The calculus has the
subformula property: backward search only adds subformulas of the end
sequent, so a search numbers that set once, in sort_key order (`Closure`),
and a set of its formulas is a Python int with bit i for formula i.  Each
side of a component has four masks: its members, the implications whose
left part is a member, those whose right part is a member, and the boxes
whose body is a member.  A rule's `open` is one bit expression over the
last and second-last components' masks, the principals the rule may take
there (impR: the succedent's implications, less those whose left part is
in the antecedent and right part in the succedent), and its lowest set bit
is the first of them in sort_key order.  A premiss's masks are its
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
from .sequent import Component, LinearNestedSequent, Multiset, fresh_tag, slot_setters


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


def _check_variant(s: LinearNestedSequent, v: CalculusVariant):
    if v is CalculusVariant.KB and Polarity.BACKWARD in s.links:
        raise VariantMismatch("KB sequents use forward links only")


# botL's one principal, interned for as long as this module is loaded.
_BOTTOM = Bottom()

# The builders make their components past the class call (see sequent);
# a right box rule opens its component from this empty antecedent.
_new = object.__new__
_set_ant, _set_succ, _set_tag, _set_restarts = slot_setters(Component)
_NOTHING = Multiset()

# The masks of one side of a component, in this order: its members, the
# implications whose left part is a member, those whose right part is a
# member, and the boxes whose body is a member.  A component's masks are
# the pair (antecedent side, succedent side), and a sequent's are a chain
# from its last component (see Closure.masks): rules act on the last two
# components, so a premiss shares all the chain below them.
_MEMBERS, _LEFTS, _RIGHTS, _BODIES = range(4)
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


def _axiom_premiss(k, principals, last):
    """impL's choice, made again at each node because the last component
    it reads grows: the principals with an axiom premiss, else all.  A
    principal has one when its right side is bottom or an atom of the last
    succedent (premiss 1 closes by botL or id), or its left side is an
    atom of the last antecedent (premiss 2 closes by id)."""
    ant, succ = last
    return principals & (k.bot_right | k.atom_right & succ[_RIGHTS]
                         | k.atom_left & ant[_LEFTS]) or principals


class Rule:
    """One rule's entry, for `rule`.  Its principal is a `kind` formula,
    and it acts across the last links in `links` (None for a single
    component).  `premisses(s, f, tags)` are the premisses of its instance
    on f, in schema order; `tags()` gives the tag of a component it opens.

    For search, `open(kind_mask, last, prev)` is the mask of the candidates
    the rule, side condition included, may take as its principal, given
    the masks of the last and second-last component (prev is None for a
    single one); `pick(closure, principals, last)` narrows that mask to
    search's choice, whose lowest bit it takes (None: all of it);
    `grow(closure, masks, f)` gives the masks of each premiss from the
    conclusion's; and `opens` is the link a right box rule's last premiss
    adds (None for the other rules), which search appends to the links it
    carries."""

    __slots__ = ("rule", "kind", "links", "open", "premisses", "grow", "pick", "opens")

    def __init__(self, rule, kind, links, open, premisses, grow=None, pick=None, opens=None):
        self.rule, self.kind, self.links = rule, kind, links
        self.open, self.premisses, self.grow, self.pick = open, premisses, grow, pick
        self.opens = opens


# The side conditions, as the `open` of each rule.

def _on_both_sides(kind, last, prev):
    return last[0][_MEMBERS] & last[1][_MEMBERS] & kind


def _in_ant(kind, last, prev):
    return last[0][_MEMBERS] & kind


def _in_succ(kind, last, prev):
    return last[1][_MEMBERS] & kind


def _imp_r_open(kind, last, prev):
    ant, succ = last
    return succ[_MEMBERS] & kind & ~(ant[_LEFTS] & succ[_RIGHTS])


def _imp_l_open(kind, last, prev):
    ant, succ = last
    return ant[_MEMBERS] & kind & ~(ant[_RIGHTS] | succ[_LEFTS])


def _body_not_in_last(kind, last, prev):
    return prev[0][_MEMBERS] & kind & ~last[0][_BODIES]


def _body_not_in_prev(kind, last, prev):
    return last[0][_MEMBERS] & kind & ~prev[0][_BODIES]


def _body_not_in_prev_succ(kind, last, prev):
    return last[1][_MEMBERS] & kind & ~prev[1][_BODIES]


# --- the propositional rules and the three modal makers ----------------------


def _axiom(s, f, tags):
    return ()


def _imp_r_premisses(s, f, tags):
    last = s.components[-1]
    c = _new(Component)
    _set_ant(c, last.ant.add(f.left))
    _set_succ(c, last.succ.add(f.right))
    _set_tag(c, last.tag)
    _set_restarts(c, last.restarts)
    return (s.replace_component(-1, c),)


def _imp_r_masks(k, masks, f):
    (ant, succ), before = masks
    return (((k.join(ant, f.left), k.join(succ, f.right)), before),)


def _imp_l_premisses(s, f, tags):
    last = s.components[-1]
    return (s.replace_component(-1, last.with_ant(f.right)),
            s.replace_component(-1, last.with_succ(f.left)))


def _imp_l_masks(k, masks, f):
    (ant, succ), before = masks
    return ((k.join(ant, f.right), succ), before), ((ant, k.join(succ, f.left)), before)


def _propagation(rule: RuleId, kind, link: Polarity) -> Rule:
    """A `kind` box in the second-last antecedent sends its body across a
    last link of polarity `link` into the last antecedent."""

    def premisses(s, f, tags):
        return (s.replace_component(-1, s.components[-1].with_ant(f.body)),)

    def grow(k, masks, f):
        (ant, succ), before = masks
        return (((k.join(ant, f.body), succ), before),)

    return Rule(rule, kind, (link,), _body_not_in_last, premisses, grow)


def _restart(rule: RuleId, kind, link: Polarity) -> Rule:
    """A `kind` box in the last antecedent, across a last link of polarity
    `link`, deletes the last component and hands its body to the one before."""

    def premisses(s, f, tags):
        shorter = s.drop_last()
        second = shorter.components[-1]
        absorber = _new(Component)
        _set_ant(absorber, second.ant.add(f.body))
        _set_succ(absorber, second.succ)
        _set_tag(absorber, second.tag)
        _set_restarts(absorber, second.restarts + 1)
        return (shorter.replace_component(-1, absorber),)

    def grow(k, masks, f):
        (ant, succ), before = masks[1]
        return (((k.join(ant, f.body), succ), before),)

    return Rule(rule, kind, (link,), _body_not_in_prev, premisses, grow)


def _right_box(rule: RuleId, kind, links: tuple) -> Rule:
    """A `kind` box in the last succedent, when the last link is in
    `links`, opens a component holding its body.

    The two-premiss form adds a premiss where the body is also falsified at
    the predecessor; when it already is, the instance adds nothing the search
    could use.
    """
    two_premiss = rule in TWO_PREMISS_BOX_RULES
    link = BOX_LINK[kind]

    def premisses(s, f, tags):
        left = ()
        if two_premiss:
            left = (s.replace_component(-2, s.components[-2].with_succ(f.body)),)
        opened = _new(Component)
        _set_ant(opened, _NOTHING)
        _set_succ(opened, _NOTHING.add(f.body))
        _set_tag(opened, tags())
        _set_restarts(opened, 0)
        return left + (s.extend(link, opened),)

    def grow(k, masks, f):
        opened = (((_EMPTY_SIDE, k.join(_EMPTY_SIDE, f.body)), masks),)
        if not two_premiss:
            return opened
        last, ((ant, succ), before) = masks
        return ((last, ((ant, k.join(succ, f.body)), before)),) + opened

    return Rule(rule, kind, links,
                _body_not_in_prev_succ if two_premiss else _in_succ, premisses, grow, opens=link)


FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
_ANY_LINK = (None, FWD, BWD)

_RULES = {e.rule: e for e in (
    Rule(RuleId.ID, Atom, _ANY_LINK, _on_both_sides, _axiom),
    Rule(RuleId.BOT_L, Bottom, _ANY_LINK, _in_ant, _axiom),
    Rule(RuleId.IMP_R, Implies, _ANY_LINK, _imp_r_open, _imp_r_premisses, _imp_r_masks),
    Rule(RuleId.IMP_L, Implies, _ANY_LINK, _imp_l_open, _imp_l_premisses, _imp_l_masks,
         _axiom_premiss),
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


def start(s: LinearNestedSequent, v: CalculusVariant) -> Closure:
    """The closure a search under v from s reads; raises VariantMismatch
    when s is not a sequent of v.  Search only opens links of the box kinds
    v has, so no later node needs the check."""
    _check_variant(s, v)
    return Closure(s)


def scan(k: Closure, v, link: Polarity | None, masks) -> tuple[Rule, Formula] | None:
    """Search's step at a sequent whose last link is `link` (None for one
    component) and whose components have these masks over the closure k:
    the entry of the first saturation rule, in priority order, that may
    take a principal, and the principal its `pick` chooses; None when there
    is none.  The sequent itself is not read."""
    last, before = masks
    prev = before[0] if before is not None else None
    kinds = k.kinds
    for e in _SCANS[v][link]:
        principals = e.open(kinds[e.kind], last, prev)
        if principals:
            if e.pick is not None:
                principals = e.pick(k, principals, last)
            return e, k.formulas[(principals & -principals).bit_length() - 1]
    return None


def box_choices(k: Closure, v, link: Polarity | None, masks) -> list[tuple[Rule, Formula]]:
    """Every right box step search may choose at a sequent whose last link
    is `link` (None for one component) and whose components have these
    masks over the closure k, as (entry, principal): in priority order, and
    within a rule in sort_key order, on each box the rule's `open` keeps."""
    last, before = masks
    prev = before[0] if before is not None else None
    out = []
    for e in _BOX[v][link]:
        principals = e.open(k.kinds[e.kind], last, prev)
        while principals:
            low = principals & -principals
            out.append((e, k.formulas[low.bit_length() - 1]))
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
    return e.premisses(conclusion, principal, fresh_tag)
