"""The proof kernel: the one place a derivation node is trusted.

Each rule of the three calculi is written here as a relation between a
conclusion, its principal formula and its premisses, from the rule figures
and apart from the table search builds premisses with (calculus._RULES):
where the principal sits and which connective it is, the last links the
rule acts across, and how each premiss differs from the conclusion.  A
premiss either keeps the conclusion's links and components except that one
component gains exactly one copy of a formula on a side, or opens a
component (∅ ⇒ body) after the link the box's kind names, or drops the last
component (the restart, whose new last component gains the body, and ew).

A node is checked by comparison: no component, sequent or multiset is
built.  A component the rule leaves alone is compared by identity first,
since search and the transforms share it between conclusion and premiss,
and by the content equality of `sequent.Component` only when that
fails.  This module imports only `formula` and `sequent`, which with it
form the trusted base.

The multisets, components and sequents a derivation holds need no trust
in whoever built them.  Search, replay and the transforms build them past
the class call, in `calculus` and `metatheory`, outside the trusted base.
The end sequent a verdict is about comes from `sequent`'s constructors,
which check its shape: `prove_sequent` compares a derivation's conclusion
with it, and replay starts from it.  Every other node's conclusion must
equal, by counts and by shape, a value this module derives from the
conclusion below it.  So by induction from the root, every multiset and
sequent of an accepted derivation is canonical, whoever built it.  A
builder writes no derived field either, as `sequent` caches none, so a
wrong builder can only make a comparison fail: an internal error, never
a verdict.
"""

from __future__ import annotations

import enum

from .formula import Atom, BlackBox, Bottom, Box, Implies, Polarity
from .sequent import Multiset


# The members of both enums are singletons compared by identity, so they
# hash by identity too: Enum.__hash__ runs Python code, and search and the
# kernel test a rule against the frozensets of rules at every node.

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


_R = RuleId
_PROPOSITIONAL = frozenset((_R.ID, _R.BOT_L, _R.IMP_R, _R.IMP_L, _R.EW))
RULES = {
    CalculusVariant.KT: _PROPOSITIONAL | {_R.BOX_L1, _R.BBOX_L1, _R.BOX_L2, _R.BBOX_L2,
                                          _R.BOX_R1, _R.BBOX_R1, _R.BOX_R2, _R.BBOX_R2},
    CalculusVariant.KT_STAR: _PROPOSITIONAL | {_R.BOX_L1, _R.BBOX_L1, _R.BOX_L2, _R.BBOX_L2,
                                               _R.BOX_R, _R.BBOX_R},
    CalculusVariant.KB: _PROPOSITIONAL | {_R.KB_BOX_L1, _R.KB_BOX_L2, _R.KB_BOX_R},
}

FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
_KB, _EW = CalculusVariant.KB, RuleId.EW
# The link after which a right box rule opens its component, by box kind.
_OPENS = {Box: FWD, BlackBox: BWD}
_NOTHING = Multiset()


def _side(prem: Multiset, conc: Multiset, gained) -> bool:
    """The premiss side is the conclusion side with one more copy of
    `gained`, or the same side when `gained` is None."""
    if gained is None:
        return prem is conc or prem == conc
    return prem.is_plus(conc, gained)


def _gains(c, p, keep: int, i: int, left, right) -> bool:
    """p is c's first `keep` components, with the links between them,
    except that component i gains one copy of `left` on the left and of
    `right` on the right (None: that side is unchanged)."""
    cs, ps = c.components, p.components
    if len(ps) != keep:
        return False
    links = c.links if keep == len(cs) else c.links[:keep - 1]
    if p.links is not links and p.links != links:
        return False
    if ps[:i] != cs[:i] or ps[i + 1:] != cs[i + 1:keep]:
        return False
    a, b = cs[i], ps[i]
    return _side(b.ant, a.ant, left) and _side(b.succ, a.succ, right)


def _opened(c, p, f) -> bool:
    """p is c extended, after the link f's box kind names, by (∅ ⇒ body)."""
    cs, ps = c.components, p.components
    n = len(cs)
    links = p.links
    if len(ps) != n + 1 or links[-1] is not _OPENS[type(f)]:
        return False
    if links[:-1] != c.links or ps[:n] != cs:
        return False
    opened = ps[n]
    return not opened.ant and opened.succ.is_plus(_NOTHING, f.body)


# How the premisses of each rule's instance on principal f differ from
# the conclusion c, in schema order.

def _id(c, f, prems) -> bool:
    return not prems and f in c.components[-1].succ


def _bot_l(c, f, prems) -> bool:
    return not prems


def _imp_r(c, f, prems) -> bool:
    n = len(c.components)
    return len(prems) == 1 and _gains(c, prems[0], n, n - 1, f.left, f.right)


def _imp_l(c, f, prems) -> bool:
    n = len(c.components)
    return (len(prems) == 2 and _gains(c, prems[0], n, n - 1, f.right, None)
            and _gains(c, prems[1], n, n - 1, None, f.left))


def _propagation(c, f, prems) -> bool:
    """The body crosses the last link into the last antecedent."""
    n = len(c.components)
    return len(prems) == 1 and _gains(c, prems[0], n, n - 1, f.body, None)


def _restart(c, f, prems) -> bool:
    """The last component goes, and the one before it gains the body."""
    n = len(c.components)
    return len(prems) == 1 and _gains(c, prems[0], n - 1, n - 2, f.body, None)


def _open_box(c, f, prems) -> bool:
    return len(prems) == 1 and _opened(c, prems[0], f)


def _two_premiss_box(c, f, prems) -> bool:
    """The left premiss falsifies the body at the second-last component
    too; the right one opens a component."""
    n = len(c.components)
    return (len(prems) == 2 and _gains(c, prems[0], n, n - 2, None, f.body)
            and _opened(c, prems[1], f))


# Where a principal sits: the last antecedent, the last succedent, or the
# second-last antecedent.
_ANT, _SUCC, _PREV_ANT = range(3)
_ANY_LINK = (None, FWD, BWD)

# Each rule but ew: where its principal sits, its connective, the last
# links it acts across (None for a single component), and its premisses.
_SCHEMAS = {
    _R.ID: (_ANT, Atom, _ANY_LINK, _id),
    _R.BOT_L: (_ANT, Bottom, _ANY_LINK, _bot_l),
    _R.IMP_R: (_SUCC, Implies, _ANY_LINK, _imp_r),
    _R.IMP_L: (_ANT, Implies, _ANY_LINK, _imp_l),
    _R.BOX_L1: (_PREV_ANT, Box, (FWD,), _propagation),
    _R.BBOX_L1: (_PREV_ANT, BlackBox, (BWD,), _propagation),
    _R.KB_BOX_L1: (_PREV_ANT, Box, (FWD,), _propagation),
    _R.BOX_L2: (_ANT, Box, (BWD,), _restart),
    _R.BBOX_L2: (_ANT, BlackBox, (FWD,), _restart),
    _R.KB_BOX_L2: (_ANT, Box, (FWD,), _restart),
    _R.BOX_R1: (_SUCC, Box, (BWD,), _two_premiss_box),
    _R.BBOX_R1: (_SUCC, BlackBox, (FWD,), _two_premiss_box),
    _R.BOX_R2: (_SUCC, Box, (None, FWD), _open_box),
    _R.BBOX_R2: (_SUCC, BlackBox, (None, BWD), _open_box),
    _R.BOX_R: (_SUCC, Box, _ANY_LINK, _open_box),
    _R.BBOX_R: (_SUCC, BlackBox, _ANY_LINK, _open_box),
    _R.KB_BOX_R: (_SUCC, Box, _ANY_LINK, _open_box),
}


def is_instance(conclusion, rule: RuleId, principal, premisses, v: CalculusVariant) -> bool:
    """True iff `premisses` (sequents, in schema order) are the premisses
    of the instance of `rule`, a rule of v, on this principal formula (None
    for ew) in `conclusion`.  Components compare by their two multisets,
    as in the rule figures."""
    if rule not in RULES[v]:
        return False
    links = conclusion.links
    if v is _KB and BWD in links:
        return False  # KB sequents use forward links only
    n = len(links) + 1
    if rule is _EW:
        return (principal is None and n > 1 and len(premisses) == 1
                and _gains(conclusion, premisses[0], n - 1, n - 2, None, None))
    where, kind, last_links, premisses_of = _SCHEMAS[rule]
    if (links[-1] if links else None) not in last_links or type(principal) is not kind:
        return False
    comps = conclusion.components
    last = comps[-1]
    place = last.ant if where == _ANT else last.succ if where == _SUCC else comps[-2].ant
    return principal in place and premisses_of(conclusion, principal, premisses)
