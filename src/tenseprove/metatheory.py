"""Derivation objects, the checker, and executable proof transformations.

The checker walks a derivation's distinct nodes and asks the kernel about
each; it trusts nothing else, the rule table search uses included.

Everything here rebuilds immutable trees; every public transformation
re-validates its output against the checker and raises TransformError on any
internal construction mistake, so a bad rewrite can never leak out as a
"certificate".  Weakening and contraction are one edit walk over the
derivation; cut elimination is one shift procedure, run as the paper's
shift-left or shift-right lemma, whose two principal-formula hooks hold the
only cases in which the two lemmas differ.

The transforms and certificate replay build each node, and each multiset,
component and sequent they make, past the class call, as search does: a
class call costs an `__init__` frame entered from C.  Nodes come from
`_derivation`, components and replaced components from calculus's
builders, and multiset unions and differences and merged sequents from
the builders here, which only the transforms read, outside the trusted
`sequent`.  Each node builder writes the height it takes from the
premisses it has just built; only the public constructors compute it.  A
transform call builds each distinct component once: cut's shifts share
one memo of merged components and each edit walk one of edited
components, so the output shares an unchanged component by identity, as
search's derivations do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    BOX_LINK,
    RESTART_RULES,
    RIGHT_BOX_RULES,
    TWO_PREMISS_BOX_RULES,
    CalculusVariant,
    RuleId,
    make_component,
    premisses,
    replaced,
)
from .formula import (
    Atom,
    BlackBox,
    Bottom,
    Box,
    Formula,
    Implies,
    Polarity,
    complexity,
    parse,
    print_ascii,
    sort_key,
)
from .kernel import RULES, is_instance
from .sequent import LinearNestedSequent, Multiset, ReadOnly, slot_setters

_new = object.__new__
(_set_counts,) = slot_setters(Multiset)
_set_components, _set_links = slot_setters(LinearNestedSequent)
# Reading an enum member costs a descriptor call (about 0.1 us on CPython
# 3.11), so the members the transforms read at every call are bound once,
# as in prover.
_ID, _BOT_L, _IMP_R, _IMP_L, _EW = RuleId.ID, RuleId.BOT_L, RuleId.IMP_R, RuleId.IMP_L, RuleId.EW
_AXIOMS = frozenset((_ID, _BOT_L))


class PositionOutOfRange(Exception):
    pass


class NotDuplicated(Exception):
    pass


class NoSharedFormula(Exception):
    pass


class StructuralMismatch(Exception):
    pass


class NotACutFormulaOccurrence(Exception):
    pass


class TransformError(Exception):
    """A transformation produced something the checker rejects; always a bug."""


class Derivation(ReadOnly):
    """A rule application.  The conclusion, the rule and its principal
    formula (None for ew) fix the premisses' conclusions; `premisses` holds
    their derivations.  A node may be the premiss of several nodes.

    Like the sequents and rule instances, a node is a read-only slotted
    value: search and the transforms build several per step, and building
    them is a large share of each step.  `height` is computed here from the
    premisses' heights.  Search, the transforms and replay build their
    nodes past this constructor, through `_derivation`, and write the
    height they take from the premisses they just built (an edit, which
    keeps the tree's shape, keeps the edited node's).  Equality and hash
    are identity, as a `PrunedNode`'s: comparing by content would walk
    every path through the premisses, a shared node at each of its
    occurrences, and no reader needs it; `derivation_to_json` writes a
    derivation's content."""

    __slots__ = ("conclusion", "rule", "principal", "premisses", "height")
    _fields = __slots__[:4]

    def __init__(self, conclusion: LinearNestedSequent, rule: RuleId,
                 principal: Formula | None, premisses: tuple[Derivation, ...] = ()):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_principal(self, principal)
        _set_premisses(self, premisses)
        _set_height(self, 1 + max([p.height for p in premisses]) if premisses else 0)

    def rule_applications(self) -> int:
        """The number of nodes written out as a tree, in one walk over
        the distinct nodes: each node's tree size is computed once, and a
        shared node adds it at every occurrence."""
        size: dict[int, int] = {}
        stack = [self]
        while stack:
            d = stack[-1]
            if id(d) in size:
                stack.pop()
                continue
            todo = [p for p in d.premisses if id(p) not in size]
            if todo:
                stack.extend(todo)
            else:
                stack.pop()
                size[id(d)] = 1 + sum(size[id(p)] for p in d.premisses)
        return size[id(self)]


(_set_conclusion, _set_rule, _set_principal, _set_premisses,
 _set_height) = slot_setters(Derivation)


def _derivation(s: LinearNestedSequent, rule: RuleId, f: Formula | None,
                premisses: tuple[Derivation, ...], height: int) -> Derivation:
    """Derivation(s, rule, f, premisses) past the class call, for a builder
    that knows its height."""
    d = _new(Derivation)
    _set_conclusion(d, s)
    _set_rule(d, rule)
    _set_principal(d, f)
    _set_premisses(d, premisses)
    _set_height(d, height)
    return d


@dataclass
class CheckResult:
    ok: bool
    path: tuple[int, ...] = ()
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


class InvalidDerivation(Exception):
    """A certificate whose replay fails; carries the failed CheckResult."""

    def __init__(self, result: CheckResult):
        super().__init__(result.message)
        self.result = result


def _node_text(rule: RuleId, principal: Formula | None) -> str:
    return rule.value if principal is None else f"{rule.value} on {print_ascii(principal)}"


def check(d: Derivation, v: CalculusVariant) -> CheckResult:
    """Validate every node against the rules of the given variant, in the
    kernel, which compares the node's premisses with its conclusion; a node
    shared by several premisses is validated once, where the walk first
    pops it.  The walk stacks nodes only; the premiss path of a node that
    fails is found by `_path_to`, which walks again in the same order."""
    stack = [d]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        prems = node.premisses
        if not is_instance(node.conclusion, node.rule, node.principal,
                           [p.conclusion for p in prems], v):
            return CheckResult(False, _path_to(d, node),
                               f"invalid {_node_text(node.rule, node.principal)} "
                               f"at {node.conclusion.render()}")
        stack.extend(prems)
    return CheckResult(True)


def _path_to(d: Derivation, target: Derivation) -> tuple[int, ...]:
    """The premiss path by which check's walk over d first pops target.
    Each stacked node keeps a link (premiss position, parent's link) to the
    node that reached it, and only target's path is built from them."""
    stack: list[tuple[Derivation, tuple | None]] = [(d, None)]
    seen: set[int] = set()
    while stack:
        node, link = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node is target:
            break
        for i, p in enumerate(node.premisses):
            stack.append((p, (i, link)))
    path = []
    while link is not None:
        i, link = link
        path.append(i)
    return tuple(reversed(path))


# The rules of KB and of KT* that the full calculus KT does not have.
_KB_ONLY = RULES[CalculusVariant.KB] - RULES[CalculusVariant.KT]
_KT_STAR_ONLY = RULES[CalculusVariant.KT_STAR] - RULES[CalculusVariant.KT]


def infer_variant(d: Derivation) -> CalculusVariant:
    """KB if d uses a KB rule, else KT* if it uses boxR or bboxR, else KT."""
    v = CalculusVariant.KT
    stack, seen = [d], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.rule in _KB_ONLY:
            return CalculusVariant.KB
        if node.rule in _KT_STAR_ONLY:
            v = CalculusVariant.KT_STAR
        stack.extend(node.premisses)
    return v


def _recheck(out: Derivation, v: CalculusVariant, what: str) -> Derivation:
    res = check(out, v)
    if not res:
        raise TransformError(f"{what} broke the derivation: {res.message}")
    return out


# --- admissible structural rules ---------------------------------------------


def _edit(d: Derivation, changes: dict, memo: dict | None = None) -> Derivation:
    """Apply changes[i] to component i of every sequent of d that still has
    it, in one walk; a shared node is edited once for each set of changes
    that reaches it, so the output shares what d shares.  So is a shared
    component once for each change: memo also maps (change, id of the
    component) to its edit, and d keeps every keyed component alive, so
    an id is not reused while the walk runs."""
    if not changes:
        return d
    if memo is None:
        memo = {}
    key = (id(d), tuple(changes))
    out = memo.get(key)
    if out is not None:
        return out
    conc = d.conclusion
    comps = list(conc.components)
    for i, change in changes.items():
        c = comps[i]
        ckey = (change, id(c))
        e = memo.get(ckey)
        if e is None:
            e = memo[ckey] = change(c)
        comps[i] = e
    n = len(comps)
    prems = []
    for p in d.premisses:
        up = changes
        if len(p.conclusion.components) < n:
            # A rule that deletes the last component deletes its change.
            up = {i: change for i, change in changes.items() if i < n - 1}
        prems.append(_edit(p, up, memo))
    s = _new(LinearNestedSequent)
    _set_components(s, tuple(comps))
    _set_links(s, conc.links)
    # An edit keeps the tree's shape, so every node keeps its height.
    out = memo[key] = _derivation(s, d.rule, d.principal, tuple(prems), d.height)
    return out


# --- multiset builders --------------------------------------------------------
#
# Only the transforms take unions and differences, so these live here, past
# the class call like calculus's builders.  Each copies a counts dict once,
# and a union with an empty operand, or `_minus` of nothing, gives back the
# other operand itself.


def _multiset(counts: dict) -> Multiset:
    m = _new(Multiset)
    _set_counts(m, counts)
    return m


def _union(a: Multiset, b: Multiset) -> Multiset:
    if not b._counts:
        return a
    if not a._counts:
        return b
    counts = a._counts.copy()
    for f, n in b._counts.items():
        counts[f] = counts.get(f, 0) + n
    return _multiset(counts)


def _union_less(a: Multiset, b: Multiset, f: Formula) -> Multiset:
    """a and b less one copy of f, in one dict copy; raises KeyError if f
    is in neither."""
    counts = a._counts.copy()
    for g, n in b._counts.items():
        counts[g] = counts.get(g, 0) + n
    k = counts[f] - 1
    if k:
        counts[f] = k
    else:
        del counts[f]
    return _multiset(counts)


def _minus(a: Multiset, b: Multiset) -> Multiset:
    """Multiset difference; raises KeyError unless b is contained in a."""
    if not b._counts:
        return a
    counts = a._counts.copy()
    for f, n in b._counts.items():
        k = counts.get(f, 0) - n
        if k < 0:
            raise KeyError(f"{f} not in multiset {n} times")
        if k:
            counts[f] = k
        else:
            del counts[f]
    return _multiset(counts)


def _diff(a: Multiset, b: Multiset) -> Multiset:
    """Saturating multiset difference: empty iff b contains a."""
    counts = {}
    for f, n in a._counts.items():
        k = n - b.count(f)
        if k > 0:
            counts[f] = k
    return _multiset(counts)


def _adder(add_l: Multiset, add_r: Multiset):
    return lambda c: make_component(_union(c.ant, add_l), _union(c.succ, add_r))


def _dropper(drop_l: Multiset, drop_r: Multiset):
    """Removes copies from a component; one holding fewer raises KeyError."""
    return lambda c: make_component(_minus(c.ant, drop_l), _minus(c.succ, drop_r))


def weaken(d: Derivation, position: int, add_left=(), add_right=()) -> Derivation:
    """Add formulas to one component everywhere it survives in the derivation."""
    if not 0 <= position < d.conclusion.length:
        raise PositionOutOfRange(position)
    out = _edit(d, {position: _adder(Multiset(add_left), Multiset(add_right))})
    return _recheck(out, infer_variant(d), "weaken")


def contract(d: Derivation, position: int, side: str, f: Formula) -> Derivation:
    """Remove one of at least two copies of f from a component, derivation-wide."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if not 0 <= position < d.conclusion.length:
        raise PositionOutOfRange(position)
    c = d.conclusion.components[position]
    ms = c.ant if side == "left" else c.succ
    if ms.count(f) < 2:
        raise NotDuplicated(f"{print_ascii(f)} is not duplicated on the {side}")
    drop, empty = Multiset((f,)), Multiset()
    out = _edit(d, {position: _dropper(drop, empty) if side == "left" else _dropper(empty, drop)})
    return _recheck(out, infer_variant(d), "contract")


# --- generalised initial sequents --------------------------------------------


# The full calculus's modal rules for the box of each link polarity: the
# two-premiss and one-premiss right rules, propagation, and restart.
_KT_MODAL_RULES = {
    Polarity.FORWARD: (RuleId.BOX_R1, RuleId.BOX_R2, RuleId.BOX_L1, RuleId.BOX_L2),
    Polarity.BACKWARD: (RuleId.BBOX_R1, RuleId.BBOX_R2, RuleId.BBOX_L1, RuleId.BBOX_L2),
}


def generalised_init(s: LinearNestedSequent, shared: Formula) -> Derivation:
    """Derivation of a sequent whose last component has `shared` on both sides."""
    last = s.last
    if shared not in last.ant or shared not in last.succ:
        raise NoSharedFormula(print_ascii(shared))
    out = _gen_init(s, shared)
    return _recheck(out, CalculusVariant.KT, "generalised_init")


def _gen_init(s: LinearNestedSequent, a: Formula) -> Derivation:
    if isinstance(a, Atom):
        return _derivation(s, _ID, a, (), 0)
    if isinstance(a, Bottom):
        return _derivation(s, _BOT_L, a, (), 0)
    if isinstance(a, Implies):
        (p1,) = premisses(s, _IMP_R, a)
        q1, q2 = premisses(p1, _IMP_L, a)
        e1, e2 = _gen_init(q1, a.right), _gen_init(q2, a.left)
        impl = _derivation(p1, _IMP_L, a, (e1, e2), max(e1.height, e2.height) + 1)
        return _derivation(s, _IMP_R, a, (impl,), impl.height + 1)
    if isinstance(a, (Box, BlackBox)):
        link = BOX_LINK[type(a)]
        two_premiss, one_premiss, propagation, restart = _KT_MODAL_RULES[link]
        n = len(s.components)
        rule = one_premiss if n == 1 or s.links[-1] is link else two_premiss
        prems = []
        height = 0
        # The body crosses into the opened component by propagation, and
        # into the predecessor that the two-premiss rule falsifies it at by
        # restart; either way that component then holds it on both sides.
        for p in premisses(s, rule, a):
            step = propagation if len(p.components) > n else restart
            (q,) = premisses(p, step, a)
            body = _gen_init(q, a.body)
            prems.append(_derivation(p, step, a, (body,), body.height + 1))
            height = max(height, body.height + 2)
        return _derivation(s, rule, a, tuple(prems), height)
    raise NoSharedFormula(f"cannot build initial derivation for {print_ascii(a)}")


_KTSTAR_RULE = {RuleId.BOX_R1: RuleId.BOX_R, RuleId.BOX_R2: RuleId.BOX_R,
                RuleId.BBOX_R1: RuleId.BBOX_R, RuleId.BBOX_R2: RuleId.BBOX_R}


def to_ktstar(d: Derivation) -> Derivation:
    """Drop the left premisses of the two-premiss box rules and rename; a
    shared node is translated once, so the output shares what d shares.
    The walk is post-order on an explicit stack and takes no frame per
    level of d: a node's kept premisses go on above a (node, rule, kept)
    frame that builds it once they are translated.  A KB rule has no KT*
    counterpart, so a derivation that uses one raises ValueError."""
    memo: dict[int, Derivation] = {}
    stack: list = [d]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            node, rule, kept = node
            prems = []
            height = 0
            for p in kept:
                e = memo[id(p)]
                prems.append(e)
                if e.height >= height:
                    height = e.height + 1
            memo[id(node)] = _derivation(node.conclusion, _KTSTAR_RULE.get(rule, rule),
                                         node.principal, tuple(prems), height)
            continue
        if id(node) in memo:
            continue
        rule = node.rule
        if rule in _KB_ONLY:
            raise ValueError(f"to_ktstar is defined for KT and KT* only, not for {rule.value}")
        kept = node.premisses
        if rule in TWO_PREMISS_BOX_RULES:
            kept = kept[1:]
        if kept:
            # The first premiss goes on top, so nodes are first met in the
            # order a recursive walk meets them.
            stack.append((node, rule, kept))
            stack.extend(reversed(kept))
        else:
            memo[id(node)] = _derivation(node.conclusion, _KTSTAR_RULE.get(rule, rule),
                                         node.principal, (), 0)
    return memo[id(d)]


# --- merge and cut elimination -----------------------------------------------


class MergeUndefined(Exception):
    pass


def merge(a: LinearNestedSequent, b: LinearNestedSequent) -> LinearNestedSequent:
    """Componentwise multiset union, keeping the longer tail.

    Defined when the shorter sequent's links equal the longer one's first
    links (the two are structurally equivalent up to the shorter length).
    """
    return _merge(a, b, None, None, {})


def _merge(a: LinearNestedSequent, b: LinearNestedSequent, pos: int | None,
           f: Formula | None, memo: dict) -> LinearNestedSequent:
    """merge's loop.  With a position, component pos also loses one copy of
    f on each side, in the same dict copy as its union: cut elimination's
    target is the merge less the two cut occurrences.  memo maps (id of a's
    component, id of b's, f at pos and None elsewhere) to the merged
    component and both operands, which it holds so that their ids are not
    reused while it lives: a cut call passes one memo to every shift and
    merges each distinct pair once.  After the links check the result has
    the longer sequent's links and one component for each, the shape the
    constructor checks, so it is built past that check."""
    longer, shorter = (a, b) if len(a.components) >= len(b.components) else (b, a)
    n = len(shorter.components)
    if shorter.links != longer.links[: n - 1]:
        raise MergeUndefined(f"cannot merge {a.render()} with {b.render()}")
    comps = []
    for i, (x, y) in enumerate(zip(a.components, b.components)):
        g = f if i == pos else None
        key = (id(x), id(y), g)
        hit = memo.get(key)
        if hit is None:
            if g is None:
                c = make_component(_union(x.ant, y.ant), _union(x.succ, y.succ))
            else:
                c = make_component(_union_less(x.ant, y.ant, g), _union_less(x.succ, y.succ, g))
            hit = memo[key] = (c, x, y)
        comps.append(hit[0])
    s = _new(LinearNestedSequent)
    _set_components(s, tuple(comps) + longer.components[n:])
    _set_links(s, longer.links)
    return s


class CutMonitor:
    """Tracks the lexicographic induction measure across the rewrite calls.

    Each entry is (cut complexity, depth sum, phase) with phase 1 for a left
    shift and 0 for a right shift; every nested call must be strictly
    smaller.
    """

    def __init__(self):
        self.stack: list[tuple[int, int, int]] = []
        self.calls = 0
        self.violations: list[tuple] = []

    def enter(self, n: int, m: int, phase: int):
        key = (n, m, phase)
        self.calls += 1
        if self.stack and not key < self.stack[-1]:
            self.violations.append((self.stack[-1], key))
        self.stack.append(key)

    def exit(self):
        self.stack.pop()


def _ew_extend(d: Derivation, target: LinearNestedSequent) -> Derivation:
    out = d
    n = len(target.components)
    k = len(d.conclusion.components)
    while k < n:
        k += 1
        out = _derivation(target.prefix(k), _EW, None, (out,), out.height + 1)
    return out


def _try_embed(d: Derivation, target: LinearNestedSequent) -> Derivation | None:
    n = len(d.conclusion.components)
    if n > len(target.components) or d.conclusion.links != target.links[: n - 1]:
        return None
    changes = {}
    for i, (ci, ti) in enumerate(zip(d.conclusion.components, target.components)):
        if _diff(ci.ant, ti.ant) or _diff(ci.succ, ti.succ):
            return None  # ci is not contained in ti
        add_l, add_r = _diff(ti.ant, ci.ant), _diff(ti.succ, ci.succ)
        if add_l or add_r:
            changes[i] = _adder(add_l, add_r)
    return _ew_extend(_edit(d, changes), target)


_BOTTOM = Bottom()


def _close_terminal(target: LinearNestedSequent, fallbacks) -> Derivation:
    """An axiom on the target or, through EW, on its longest prefix that is
    one; else the first fallback that embeds into the target.  The axiom is
    read off the prefix's last component: botL if it has false on the left,
    else id on its sort_key-least atom on both sides."""
    n = len(target.components)
    for k in range(n, 0, -1):
        c = target.components[k - 1]
        if _BOTTOM in c.ant:
            rule, f = _BOT_L, _BOTTOM
        else:
            succ = c.succ
            f = min((g for g in c.ant.members() if g.__class__ is Atom and g in succ),
                    key=sort_key, default=None)
            if f is None:
                continue
            rule = _ID
        return _ew_extend(_derivation(target if k == n else target.prefix(k), rule, f, (), 0),
                          target)
    for d in fallbacks:
        out = _try_embed(d, target)
        if out is not None:
            return out
    raise TransformError(f"no terminal closure for {target.render()}")


def _contract_to(d: Derivation, target: LinearNestedSequent) -> Derivation:
    """Contract d's conclusion down to target: every component drops its
    surplus over the target's, each dropped formula keeping a copy there,
    and all components change in one edit walk over d."""
    if len(d.conclusion.components) != len(target.components):
        raise TransformError("contract_to: length mismatch")
    changes = {}
    for i, (c, t) in enumerate(zip(d.conclusion.components, target.components)):
        extra_l, extra_r = _diff(c.ant, t.ant), _diff(c.succ, t.succ)
        if (any(f not in t.ant for f in extra_l.members())
                or any(f not in t.succ for f in extra_r.members())):
            raise TransformError("contract_to: support mismatch")
        if extra_l or extra_r:
            changes[i] = _dropper(extra_l, extra_r)
    out = _edit(d, changes)
    if out.conclusion != target:
        raise TransformError("contract_to missed the target")
    return out


_RIGHT_INTRODUCTIONS = RIGHT_BOX_RULES | {_IMP_R}


def _shift(a: Formula, d1: Derivation, d2: Derivation, pos: int, mon: CutMonitor,
           memo: dict, left: bool, witness: Derivation | None = None) -> Derivation:
    """Shift the cut on `a` up into d1 (left) or into d2 (right).

    d1 concludes G + (Gamma => Delta, a) + I and d2 concludes
    H + (a, Sigma => Pi) + J, with both occurrences at component pos and the
    prefixes up to pos structurally equivalent.  A left shift walks d1 until
    `a` is principal there and then shifts right; a right shift, where d1
    introduces `a` by impR or a right box rule, walks d2 until `a` is
    principal there too and cuts on smaller formulas.  For a boxed `a`,
    `witness` derives the merged prefix where the right shift began,
    extended with an empty component holding the box body; it pays for
    eliminating the contextual copy when the cut gets principal on the left
    side of d2.  The prefix only grows up d2, so the witness's context is
    in every later target and `_contract_to` takes the surplus out.  memo
    is the cut call's memo of merged components (`_merge`).
    """
    mon.enter(complexity(a), d1.height + d2.height, 1 if left else 0)
    try:
        d, other = (d1, d2) if left else (d2, d1)
        if left:
            # Before the terminal case, which it never meets: a terminal d1
            # introduces nothing.
            out = _principal_left(a, d1, d2, pos, mon, memo)
            if out is not None:
                return out
        # Built after the left principal case, whose shift right returns
        # its own result and never reads this target.
        target = _merge(d1.conclusion, d2.conclusion, pos, a, memo)

        if d.rule in _AXIOMS:
            return _close_terminal(target, (other, d))

        if not left:
            out = _principal_right(a, d1, d2, pos, mon, memo, witness, target)
            if out is not None:
                return out

        if (pos == len(d.conclusion.components) - 1
                and (d.rule in RESTART_RULES or d.rule is _EW)):
            # The premiss has lost the component holding the cut occurrence.
            src = d.premisses[0]
            if d.rule is not _EW:
                c, one = d.conclusion.components[pos], Multiset((a,))
                c = (make_component(c.ant, _minus(c.succ, one)) if left
                     else make_component(_minus(c.ant, one), c.succ))
                src = _derivation(replaced(d.conclusion, pos, c), d.rule, d.principal,
                                  d.premisses, d.height)
            out = _try_embed(src, target)
            if out is None:
                raise TransformError(f"{d.rule.value} at the cut component: weakening failed")
            return out

        # Context case, restart and EW below the cut component included.
        prems = []
        height = 0
        for p in d.premisses:
            e = (_shift(a, p, d2, pos, mon, memo, True) if left
                 else _shift(a, d1, p, pos, mon, memo, False, witness))
            prems.append(e)
            if e.height >= height:
                height = e.height + 1
        return _derivation(target, d.rule, d.principal, tuple(prems), height)
    finally:
        mon.exit()


def _principal_left(a: Formula, d1: Derivation, d2: Derivation, pos: int,
                    mon: CutMonitor, memo: dict) -> Derivation | None:
    """d1 introduces `a`: shift right, first building the witness for a box."""
    if not (pos == len(d1.conclusion.components) - 1 and d1.rule in _RIGHT_INTRODUCTIONS
            and d1.principal == a):
        return None
    last2 = len(d2.conclusion.components) - 1
    if isinstance(a, Implies):
        return _shift(a, d1, d2, last2, mon, memo, False)
    right = d1.premisses[-1]
    witness = _shift(a, right, d2, len(right.conclusion.components) - 2, mon, memo, True)
    return _shift(a, d1, d2, last2, mon, memo, False, witness)


def _principal_right(a: Formula, d1: Derivation, d2: Derivation, pos: int, mon: CutMonitor,
                     memo: dict, witness: Derivation | None,
                     target: LinearNestedSequent) -> Derivation | None:
    """`a` is principal in d2 too: cut on smaller formulas, then contract."""
    last2 = len(d2.conclusion.components) - 1
    if isinstance(a, Implies):
        if not (d2.rule is _IMP_L and pos == last2 and d2.principal == a):
            return None
        d3 = d1.premisses[0]
        d4, d5 = d2.premisses
        e1 = _shift(a, d1, d4, len(d1.conclusion.components) - 1, mon, memo, True)
        e2 = _shift(a, d1, d5, len(d1.conclusion.components) - 1, mon, memo, True)
        e3 = _shift(a, d3, d2, len(d3.conclusion.components) - 1, mon, memo, True)
        f = _shift(a.left, e2, e3, len(e2.conclusion.components) - 1, mon, memo, True)
        g = _shift(a.right, f, e1, len(f.conclusion.components) - 1, mon, memo, True)
        return _contract_to(g, target)

    _, _, prop_rule, restart_rule = _KT_MODAL_RULES[BOX_LINK[type(a)]]
    if d2.rule is prop_rule and pos == last2 - 1 and d2.principal == a:
        d6 = _shift(a, d1, d2.premisses[0], pos, mon, memo, False, witness)
        e = _shift(a.body, witness, d6, len(witness.conclusion.components) - 1, mon, memo, True)
        return _contract_to(e, target)
    if d2.rule is restart_rule and pos == last2 and d2.principal == a:
        if d1.rule not in TWO_PREMISS_BOX_RULES:
            raise TransformError("one-premiss box against a principal restart")
        d3 = d1.premisses[0]
        d6 = _shift(a, d3, d2, len(d3.conclusion.components) - 1, mon, memo, True)
        e = _shift(a.body, d6, d2.premisses[0], len(d6.conclusion.components) - 2, mon, memo,
                   True)
        return _contract_to(e, target)
    return None


def cut(d1: Derivation, d2: Derivation, cut_formula: Formula,
        monitor: CutMonitor | None = None) -> Derivation:
    """Cut-free derivation of the merged conclusion minus the cut occurrences.

    d1 must conclude with the cut formula in its last succedent, d2 with the
    cut formula in its last antecedent, over structurally equivalent
    sequents; only the full system with the two-premiss box rules supports
    the reduction.
    """
    for d in (d1,) if d1 is d2 else (d1, d2):
        if infer_variant(d) is not CalculusVariant.KT:
            raise ValueError("cut is defined for the full calculus only")
        res = check(d, CalculusVariant.KT)
        if not res:
            raise TransformError(f"cut premiss does not check: {res.message}")
    if d1.conclusion.links != d2.conclusion.links:
        raise StructuralMismatch(
            f"{d1.conclusion.render()} vs {d2.conclusion.render()}")
    if cut_formula not in d1.conclusion.last.succ:
        raise NotACutFormulaOccurrence(f"{print_ascii(cut_formula)} not in left succedent")
    if cut_formula not in d2.conclusion.last.ant:
        raise NotACutFormulaOccurrence(f"{print_ascii(cut_formula)} not in right antecedent")
    mon = monitor if monitor is not None else CutMonitor()
    # One memo for the call's merges, dropped when it returns.
    memo: dict = {}
    pos = d1.conclusion.length - 1
    out = _shift(cut_formula, d1, d2, pos, mon, memo, True)
    expected = _merge(d1.conclusion, d2.conclusion, pos, cut_formula, memo)
    if out.conclusion != expected:
        raise TransformError("cut concluded the wrong sequent")
    if mon.violations:
        raise TransformError(f"cut measure violated: {mon.violations[0]}")
    return _recheck(out, CalculusVariant.KT, "cut")


# --- serialization ------------------------------------------------------------


def derivation_to_json(d: Derivation) -> dict:
    """Schema 2: the end sequent once, then one entry per distinct node,
    {"rule", "principal", "premisses"}, with the premisses given as indices
    of earlier entries.  The entries come in post-order, so the root is the
    last, and a node several premisses share is written once."""
    index: dict[int, int] = {}
    nodes: list[dict] = []
    texts: dict[Formula, str] = {}
    stack = [(d, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in index:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((p, False) for p in reversed(node.premisses))
            continue
        f = node.principal
        if f is not None and f not in texts:
            texts[f] = print_ascii(f)
        index[id(node)] = len(nodes)
        nodes.append({"rule": node.rule.value,
                      "principal": None if f is None else texts[f],
                      "premisses": [index[id(p)] for p in node.premisses]})
    return {"sequent": d.conclusion.to_json(), "nodes": nodes}


def derivation_from_json(data: dict) -> Derivation:
    """Replay a schema-2 certificate from its end sequent: each node's
    conclusion gives, with its rule and principal, the conclusions of its
    premisses (calculus.premisses, the builders search uses, in every
    variant).  Replay judges no node: whether each is an instance of its
    rule, where its principal sits and the variant included, is for `check`
    to decide on the result.

    A malformed certificate raises ValueError, KeyError or TypeError: a
    schema-1 one, a missing key, an unknown rule, a premiss index that is
    not an earlier node, or a node the root does not reach.  One that is
    well formed but cannot be replayed raises InvalidDerivation with the
    premiss path of the failing node: a (rule, principal) whose premisses
    cannot be built on the node's conclusion (a principal of another
    connective, a rule that does not act across the last link, ew with a
    principal or on one component), a premiss count other than the
    rule's, or a shared node reached with two different conclusions.
    """
    if "nodes" not in data and "rule" in data:
        raise ValueError("a schema 1 derivation (a sequent at every node); "
                         "schema 2 gives the end sequent once and a node list")
    end = LinearNestedSequent.from_json(data["sequent"])
    entries = data["nodes"]
    if not entries:
        raise ValueError("a derivation has at least one node")
    formulas: dict[str, Formula] = {}
    rules, principals, named = [], [], []
    for i, e in enumerate(entries):
        rules.append(RuleId(e["rule"]))
        text = e["principal"]
        if text is not None and text not in formulas:
            formulas[text] = parse(text)
        principals.append(None if text is None else formulas[text])
        prems = tuple(e["premisses"])
        for j in prems:
            if type(j) is not int or not 0 <= j < i:
                raise ValueError(f"node {i} names premiss {j!r}, which is not an earlier node")
        named.append(prems)

    n = len(entries)
    conclusions: list[LinearNestedSequent | None] = [None] * n
    conclusions[-1] = end
    # (node, premiss position) through which each node was first reached
    parent: list[tuple[int, int] | None] = [None] * n

    def path(i: int) -> tuple[int, ...]:
        out = []
        while parent[i] is not None:
            i, k = parent[i]
            out.append(k)
        return tuple(reversed(out))

    # Every premiss index is smaller than its node's, so descending order
    # reaches each node after all the nodes that name it.
    for i in range(n - 1, -1, -1):
        c = conclusions[i]
        if c is None:
            raise ValueError(f"node {i} is not reached from the root")
        prems = premisses(c, rules[i], principals[i])
        if prems is None or len(prems) != len(named[i]):
            what = "cannot build the premisses" if prems is None else f"{len(prems)} premisses"
            raise InvalidDerivation(CheckResult(
                False, path(i), f"{what} of {_node_text(rules[i], principals[i])} "
                                f"at {c.render()}"))
        for k, (j, s) in enumerate(zip(named[i], prems)):
            if conclusions[j] is None:
                conclusions[j], parent[j] = s, (i, k)
            elif conclusions[j] != s:
                raise InvalidDerivation(CheckResult(
                    False, path(i) + (k,), f"node {j} is reached as {conclusions[j].render()} "
                                           f"and as {s.render()}"))

    built: list[Derivation] = []
    for i in range(n):
        prems = tuple([built[j] for j in named[i]])
        height = 1 + max([p.height for p in prems]) if prems else 0
        built.append(_derivation(conclusions[i], rules[i], principals[i], prems, height))
    return built[-1]


_LATEX_SUBS = {
    "\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "#": r"\#",
    "_": r"\_", "{": r"\{", "}": r"\}", "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
}


def _latex_escape(s: str) -> str:
    return "".join(_LATEX_SUBS.get(c, c) for c in s)


def derivation_to_latex(d: Derivation) -> str:
    """Proof-tree markup in bussproofs style: each node's lines follow its
    premisses' subtrees, in order, written out as a tree.  The walk is
    post-order on an explicit stack, so it takes no frame per level of d."""
    lines: list[str] = []
    stack = [(d, False)]
    while stack:
        n, ready = stack.pop()
        if not ready:
            stack.append((n, True))
            stack.extend((p, False) for p in reversed(n.premisses))
            continue
        if not n.premisses:
            lines.append(r"\AxiomC{}")
        lines.append(rf"\RightLabel{{\scriptsize {_latex_escape(n.rule.value)}}}")
        cmd = {0: "UnaryInfC", 1: "UnaryInfC", 2: "BinaryInfC", 3: "TrinaryInfC"}[len(n.premisses)]
        lines.append(rf"\{cmd}{{\texttt{{{_latex_escape(n.conclusion.render())}}}}}")
    return "\n".join([r"\begin{prooftree}", *lines, r"\end{prooftree}"])
