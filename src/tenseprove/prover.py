"""Backward proof search with restarts, pruning, and countermodel extraction.

The engine applies the rule groups in priority order (termination, CPL,
propagation, restart) and only then branches over the right box rules.
A search numbers the end sequent's subformulas once and carries, for each
node, its links and, over that numbering, the masks of its components:
each rule's side condition is a few bit operations on them, and a
premiss's masks are its conclusion's with the added formulas ORed in (see
calculus).  Search decides every step from the links and masks alone, so
it builds no sequent as it goes: each node's sequent is a handle, the
step below it that would build it, and a sequent is built, once, only for
the conclusion of a Derivation node.
Search runs as one loop over an explicit stack of continuation frames, one
per pending step: it takes no Python frame per level of its tree, so a deep
derivation needs no raised recursion limit, and its time does not depend
on the caller's stack depth.  It builds its output as it returns from each
subtree: a closed subtree as a Derivation, a failed one as its pruned tree,
in which a failed step keeps no node of its own, only a restart keeps its
step, and only the final incarnation of each restarted component survives.
Search is a function of the links and masks, and different box-choice
orders restart into equal premisses, so each search explores a restart
premiss once and shares its result at every later occurrence: a derivation
as it is, a pruned tree through a view that renames its tags.  The
saturated leaves of a failed search's pruned tree are glued into a Kripke
countermodel, reading each leaf's atoms from its masks and its tags through
the views above it.  Both kinds of output are re-verified before they are
reported: derivations against the checker, models against the forcing
relation.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass

from . import calculus, metatheory, semantics
from .calculus import RESTART_RULES, CalculusVariant, RuleId
from .formula import (
    Formula,
    Polarity,
    collapse_backward,
    desugar,
    parse,
)
from .metatheory import Derivation, _derivation
from .semantics import KripkeModel
from .sequent import Component, LinearNestedSequent, Multiset, ReadOnly, slot_setters


# Search runs on an explicit stack and needs no Python frame per level, but
# these walkers still take one per level of a formula or a derivation:
# formula's desugar and collapse_backward, and metatheory's _shift in cut,
# _gen_init and _edit.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


class SearchInvariantError(Exception):
    """A watchdog or a certificate self-check fired; never a verdict."""


class InternalModelError(SearchInvariantError):
    pass


class BudgetExhausted(Exception):
    def __init__(self, stats: "Statistics"):
        super().__init__(f"search budget exhausted after {stats.expanded} expanded nodes")
        self.stats = stats


@dataclass
class Budget:
    max_nodes: int = 1_000_000  # bounds Statistics.expanded
    max_ms: int = 30_000


@dataclass
class Statistics:
    """nodes, restarts and max_length measure the search tree as if every
    shared subtree were explored again; expanded counts the expansions run,
    and cache_hits the restart premisses found already explored."""

    nodes: int = 0
    restarts: int = 0
    max_length: int = 1
    expanded: int = 0
    cache_hits: int = 0
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "restarts": self.restarts, "max_length": self.max_length,
                "expanded": self.expanded, "cache_hits": self.cache_hits}


# Reading an enum member costs a descriptor call (about 0.1 us on CPython
# 3.11), so the members search reads at every node are bound once.
_AXIOMS = frozenset((RuleId.ID, RuleId.BOT_L))
_EW = RuleId.EW
_FORWARD = Polarity.FORWARD

CLOSED = "closed"
FAILED = "failed"


# --- sequents on demand --------------------------------------------------------
#
# Search carries each node's sequent as a handle (cell, i): premiss i of the
# step whose cell is [premisses or None, the conclusion's handle, entry,
# principal, tag].  The tag is that of the component a right box step opens
# (None for any other step), drawn when search takes the step, so a sequent
# built later carries the tags search gave its components.  A cell whose
# entry is None stands for the prefix of its conclusion that drops the last
# component.  The end sequent's cell holds it built, has no conclusion, and
# holds the closure's atom table in its entry's place.


def _sequent(h: tuple) -> LinearNestedSequent:
    """The sequent at handle h.  Builds each cell below h that is not yet
    built, from the nearest built one up, and keeps the premisses in their
    cell, so each is built once."""
    cell, i = h
    if cell[0] is None:
        pending = []
        c = cell
        while c[0] is None:
            pending.append(c)
            c = c[1][0]
        for c in reversed(pending):
            (below, j), e, tag = c[1], c[2], c[4]
            s = below[0][j]
            c[0] = (s.drop_last(),) if e is None else e.premisses(
                s, c[3], None if tag is None else itertools.repeat(tag).__next__)
    return cell[0][i]


def _tag_chain(s: LinearNestedSequent) -> tuple | None:
    """The (tag, restart count) of each component of s, as a chain from the
    last, like its masks: ((tag, restarts), the chain before it), ending in
    None."""
    out = None
    for c in s.components:
        out = ((c.tag, c.restarts), out)
    return out


# The link chain of a sequent of one component.  A chain is (its last link,
# its number of links, the chain before it), so appending a link or dropping
# the last is O(1) however long the sequent, and the chain holds the length.
_NO_LINKS = (None, 0, None)


def _link_chain(s: LinearNestedSequent) -> tuple:
    """The links of s as a chain (above)."""
    out = _NO_LINKS
    for n, link in enumerate(s.links, 1):
        out = (link, n, out)
    return out


class PrunedNode(ReadOnly):
    """A node of a failed search's pruned tree: a saturated leaf, a restart
    step over the failed premiss it restarted into, or an and-node over
    every box choice, all of which failed.  Any other failed step keeps no
    node: its failed premiss's tree stands in its place.

    Stored: the node's link chain, masks and tag chain (as search carries
    them), the rule (a restart step's, else None), the kind, the children,
    and `at`, the handle of its sequent (a restart step's is the prefix of
    its conclusion that survives the restart), which keeps the search's
    cells below it alive.  Read through `at`: `sequent`, built on the
    first read, once per search, with what is missing below it, and
    `atoms`, the (bit, name) of each atom the masks number, from the
    search's end cell.  A copy or a pickle holds both read, in an end cell
    of its own, not the search's cells.

    A read-only slotted value, like a Derivation: a subtree may be shared
    by several views, so it must not change once built.  Equality is
    identity."""

    __slots__ = ("links", "masks", "tags", "rule", "kind", "children", "at")
    _fields = ("links", "masks", "tags", "rule", "kind", "children", "sequent", "atoms")

    def __init__(self, links: tuple, masks: tuple, tags: tuple, rule: RuleId | None,
                 kind: str, children: tuple[PrunedNode, ...], sequent: LinearNestedSequent,
                 atoms: tuple):
        # kind is "leaf", "step" or "and"
        for set_field, value in zip(_PRUNED_SETTERS, (links, masks, tags, rule, kind, children,
                                                      ([(sequent,), None, atoms, None, None], 0))):
            set_field(self, value)

    @property
    def sequent(self) -> LinearNestedSequent:
        return _sequent(self.at)

    @property
    def atoms(self) -> tuple:
        c = self.at[0]
        while c[1] is not None:
            c = c[1][0]
        return c[2]

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({inner})"


_PRUNED_SETTERS = slot_setters(PrunedNode)
_set_links, _set_masks, _set_tags, _set_rule, _set_kind, _set_children, _set_at = _PRUNED_SETTERS
_new = object.__new__
_monotonic = time.monotonic


def _pruned(links: tuple, masks: tuple, tags: tuple, rule: RuleId | None, kind: str,
            children: tuple[PrunedNode, ...], at: tuple) -> PrunedNode:
    """A PrunedNode on search's handle `at`, past the class call."""
    node = _new(PrunedNode)
    _set_links(node, links)
    _set_masks(node, masks)
    _set_tags(node, tags)
    _set_rule(node, rule)
    _set_kind(node, kind)
    _set_children(node, children)
    _set_at(node, at)
    return node


class PrunedView(PrunedNode):
    """A later occurrence of a failed restart premiss, sharing the pruned
    tree of the first by reference.

    `shared` was explored from the premiss whose tag chain is `source` and
    is read here as if explored from the premiss with links and masks equal
    to it whose tag chain is `target`: source's tags stand for target's
    worlds, position by position, and every other tag for a world of this
    occurrence's own, as a fresh exploration would have opened.
    `extract_model` applies that renaming as it walks.  Every other field
    is the shared node's, so the sequent carries source's tags."""

    __slots__ = _fields = ("shared", "source", "target")

    def __init__(self, shared: PrunedNode, source: tuple, target: tuple):
        for set_field, name in zip(_PRUNED_SETTERS, PrunedNode.__slots__):
            set_field(self, getattr(shared, name))
        _set_shared(self, shared)
        _set_source(self, source)
        _set_target(self, target)


_set_shared, _set_source, _set_target = slot_setters(PrunedView)


# What search returns from a failed subtree: its pruned tree, and whether a
# restart collapse is still travelling down from it.  A restart deletes the
# last component of its conclusion, and that deletion cascades down through
# the rules that acted inside it.
Failure = tuple[PrunedNode, bool]


@dataclass
class Valid:
    derivation: Derivation
    stats: Statistics


@dataclass
class Invalid:
    model: KripkeModel
    root: str
    stats: Statistics


@dataclass
class ResourceLimit:
    stats: Statistics


SearchOutcome = Valid | Invalid | ResourceLimit


# The continuation frames of a search: each waits on the stack for the
# result of the premiss searched above it, as a tuple led by its kind.  h is
# the handle of the conclusion; links, masks and tags are the conclusion's,
# where a frame goes on to search another of its premisses or keeps a node.
# The first four are steps by rule, which a failed premiss fails: the frame
# is dropped and the premiss's failure passes down unchanged.
#   (_STEP, h, rule, f)                  a one-premiss step (impR, propagation)
#   (_IMP_L, h, rule, f, second, m, links, tags)
#       impL, waiting for its first premiss; second is the second's handle,
#       m its masks
#   (_JOIN, h, rule, f, first)           impL, waiting for its second premiss
#   (_OPENED, h, rule, f, left, m, links, tags)  a box choice, waiting for
#       the premiss it opens; left is boxR1/bboxR1's left premiss's handle
#       (None for a one-premiss rule), m its masks
#   (_PREFIX, h, rule, f, left, m, opened, links, tags)  then for left's prefix
#   (_LEFT, h, rule, f, opened)          then for left itself
#   (_CHOICES, h, links, masks, tags, choices, explored)
#       an and-node over the box choices
#   (_RESTART, h, links, masks, tags, rule, f, key, p, nodes, restarts, max_length)
#       a restart, waiting for its premiss, whose restart-table key is key
#       and tag chain p, with the totals before it; key is None when the
#       result came from the restart table
_STEP, _IMP_L, _JOIN, _OPENED, _PREFIX, _LEFT, _CHOICES, _RESTART = range(8)

# Called, when set, with the handle, link chain and masks of each node search
# expands, before its step is chosen: a test sets it to build and check the
# node's sequent.
_watch = None


class _Search:
    """One search from an end sequent, run by `run` as one loop over an
    explicit stack of continuation frames (above): a search takes no
    Python frame per level, so its time does not depend on the caller's
    stack depth.

    A node is its handle and its link, mask and tag chains, each a chain
    from the last component that shares with its conclusion's all it does
    not change.  Each step computes its premisses' masks through the rule
    table (`grow`) and leaves their sequents to a cell (see `_sequent`);
    the watchdogs, `max_length` and the restart table read the chains.  A
    sequent is built only when a Derivation node needs its conclusion (at
    an axiom, a closed step or a closing box choice), or a restart-table
    hit on a closed result needs its premiss.  So a failed node builds no
    sequent, and the kept nodes of a failed subtree (a saturated leaf, an
    and-node, a restart step) store their chains and handle.  Derivations
    and pruned nodes are built through `_derivation` and `_pruned`, which
    write the slots past the class call; a derivation's height is read off
    its premisses as they return.  Every expanded node counts against the
    budget, whose clock it reads."""

    def __init__(self, variant: CalculusVariant, budget: Budget, end: LinearNestedSequent):
        self.variant = variant
        self.max_nodes = budget.max_nodes
        self.stats = Statistics()
        self.deadline = _monotonic() + budget.max_ms / 1000.0
        self.tags = itertools.count(end.length)  # end is retagged 0, 1, ...
        self.closure = calculus.start(end, variant)
        # Each restart adds to its absorber's antecedent a subformula of the
        # end sequent it lacked, so none absorbs more than there are.
        self.restart_bound = len(self.closure.formulas) + 1
        # (links, masks) of a restart premiss -> the results of the premisses
        # explored with them: one failed result, or one closed result per
        # derivation conclusion; each with the tag chain of the premiss
        # explored, and the nodes, restarts and max_length of its subtree
        self.restarted: dict[tuple, list[tuple]] = {}

    def run(self, s: LinearNestedSequent, masks: tuple) -> Derivation | Failure:
        """Search from s, whose components have these masks over the end
        sequent's closure (see calculus).

        Each pass of the outer loop expands one node: a step with premisses
        pushes the frame that waits for the first and goes on from it; a
        node that ends (an axiom, a saturated leaf, a table hit) hands its
        result `out` down the stack, each frame making its own result from
        it, until a frame has another premiss to search.  An and-node's
        frame is pushed as its first box choice starts, at the top of the
        loop, and each later choice starts there too.

        A restart premiss is explored once per search.  The table is keyed
        on its links and masks, which decide the search above it, so an
        equal key answers with the totals of a fresh exploration: a failed
        result through a view that reads its pruned tree with the new
        premiss's tags, so models and counts are those of a search that
        explores every premiss anew, and a closed one only when its
        derivation concludes the premiss itself, built for the comparison
        (equal masks may hide other multiplicities, which the kernel would
        reject); otherwise the premiss is searched again.  A box choice
        whose opened premiss closes derives boxR1/bboxR1's left premiss by
        ew when the conclusion's prefix is provable on its own, and
        otherwise searches the premiss itself (its box instance is
        fulfilled, so this terminates); a left premiss that fails leaves
        the choice stuck.
        """
        st = self.stats
        k, v, restarted, bound = self.closure, self.variant, self.restarted, self.restart_bound
        max_nodes, deadline, fresh = self.max_nodes, self.deadline, self.tags.__next__
        scan, box_choices, bits, watch = calculus.scan, calculus.box_choices, k.bits, _watch
        nodes, expanded, restarts, max_length = st.nodes, st.expanded, st.restarts, st.max_length
        h, links, tags = ([(s,), None, k.atoms, None, None], 0), _link_chain(s), _tag_chain(s)
        stack = []
        choice = None  # a box choice of the and-node `frame` to start
        while True:
            if choice is not None:
                e, f = choice
                choice = None
                _, at, links, m, tags = frame[:5]
                grown = e.grow(k, m, f)
                # The opened component holds only the body, whose modal degree
                # is below that of f, a formula of the conclusion's last succedent.
                opened, masks = grown[-1][0], grown[-1]
                if opened[0][0] or opened[1][0] != bits[f.body] or not m[0][1][0] & bits[f]:
                    raise SearchInvariantError("modal degree failed to drop at a box step")
                tag = fresh()
                cell = [None, at, e, f, tag]
                stack.append(frame)
                if len(grown) == 1:
                    stack.append((_OPENED, at, e.rule, f, None, None, links, tags))
                    h = (cell, 0)
                else:
                    stack.append((_OPENED, at, e.rule, f, (cell, 0), grown[0], links, tags))
                    h = (cell, 1)
                links = (e.opens, links[1] + 1, links)
                tags = ((tag, 0), tags)
            nodes += 1
            expanded += 1
            n = links[1] + 1
            if n > max_length:
                max_length = n
            if expanded > max_nodes or _monotonic() > deadline:
                # The maximum covers the subtrees of every pending restart.
                for frame in stack:
                    if frame[0] == _RESTART and frame[11] > max_length:
                        max_length = frame[11]
                st.nodes, st.expanded, st.restarts, st.max_length = (
                    nodes, expanded, restarts, max_length)
                raise BudgetExhausted(st)
            if watch is not None:
                watch(h, links, masks)
            step = scan(k, v, links[0], masks)
            if step is not None:
                e, f = step
                rule = e.rule
                if rule in _AXIOMS:
                    out = _derivation(_sequent(h), rule, f, (), 0)
                elif rule in RESTART_RULES:
                    restarts += 1
                    (tag, count), below = tags[1]
                    if count >= bound:
                        raise SearchInvariantError("restart count exceeded the subformula bound")
                    q = ([None, h, e, f, None], 0)
                    p = ((tag, count + 1), below)
                    key = (links[2], e.grow(k, masks, f)[0])
                    seen = restarted.get(key)
                    if seen is not None:
                        # A failed result is shared as it is, a closed one
                        # only with a premiss its derivation concludes.
                        seen = next((r for r in seen if r[0].__class__ is tuple
                                     or r[0].conclusion == _sequent(q)), None)
                    if seen is None:
                        stack.append((_RESTART, h, links, masks, tags, rule, f, key, p,
                                      nodes, restarts, max_length))
                        max_length = links[1]
                        h, links, masks, tags = q, key[0], key[1], p
                        continue
                    # The statistics grow by the stored subtree's totals.
                    out, first, more_nodes, more_restarts, length = seen
                    st.cache_hits += 1
                    nodes += more_nodes
                    restarts += more_restarts
                    if length > max_length:
                        max_length = length
                    if out.__class__ is tuple:
                        out = PrunedView(out[0], first, p), out[1]
                    stack.append((_RESTART, h, links, masks, tags, rule, f, None, None, 0, 0, 0))
                else:
                    # impR, impL or propagation: each premiss only grows the last component.
                    grown = e.grow(k, masks, f)
                    cell = [None, h, e, f, None]
                    if len(grown) == 1:
                        stack.append((_STEP, h, rule, f))
                    else:
                        stack.append((_IMP_L, h, rule, f, (cell, 1), grown[1], links, tags))
                    h, masks = (cell, 0), grown[0]
                    continue
            else:
                choices = box_choices(k, v, links[0], masks)
                if choices:
                    frame = (_CHOICES, h, links, masks, tags, iter(choices), [])
                    choice = next(frame[5])
                    continue
                out = _pruned(links, masks, tags, None, "leaf", (), h), False
            while stack:
                frame = stack.pop()
                kind = frame[0]
                if kind <= _OPENED and out.__class__ is tuple:
                    continue  # a failed premiss fails its step, which keeps no node
                elif kind == _STEP:
                    _, at, rule, f = frame
                    out = _derivation(_sequent(at), rule, f, (out,), out.height + 1)
                elif kind == _CHOICES:
                    if out is not None and out.__class__ is not tuple:
                        continue  # a closing choice closes the node
                    _, at, links, masks, tags, choices, explored = frame
                    explored.append(out)
                    choice = next(choices, None)
                    if choice is not None:
                        break
                    if None in explored:
                        raise SearchInvariantError(
                            "left premiss of a two-premiss box rule could not be derived")
                    # A choice that collapsed is kept alone: the restarted
                    # re-exploration subsumes the longer siblings.
                    collapsed = [child for child, collapsing in explored if collapsing]
                    if collapsed:
                        best = min(collapsed, key=lambda child: child.links[1])
                        out = best, best.links[1] < links[1]
                    else:
                        out = _pruned(links, masks, tags, None, "and",
                                      tuple([c for c, _ in explored]), at), False
                elif kind == _OPENED:
                    _, at, rule, f, left, m, links, tags = frame
                    if left is None:
                        out = _derivation(_sequent(at), rule, f, (out,), out.height + 1)
                    else:
                        stack.append((_PREFIX, at, rule, f, left, m, out, links, tags))
                        h, links, masks, tags = ([None, left, None, None, None], 0), \
                            links[2], m[1], tags[1]
                        break
                elif kind == _IMP_L:
                    _, at, rule, f, second, m, links, tags = frame
                    stack.append((_JOIN, at, rule, f, out))
                    h, masks = second, m
                    break
                elif kind == _JOIN:
                    _, at, rule, f, first = frame
                    out = _derivation(_sequent(at), rule, f, (first, out),
                                      max(first.height, out.height) + 1)
                elif kind == _RESTART:
                    _, at, links, masks, tags, rule, f, key, p, nodes_before, restarts_before, \
                        outer = frame
                    if key is not None:
                        length = max_length
                        if outer > length:
                            max_length = outer
                        restarted.setdefault(key, []).append(
                            (out, p, nodes - nodes_before, restarts - restarts_before, length))
                    if out.__class__ is not tuple:
                        out = _derivation(_sequent(at), rule, f, (out,), out.height + 1)
                    elif not out[1] or out[0].links[1] >= links[1] - 1:
                        # The restart deleted the conclusion's last component:
                        # its step stands on the prefix, unless the collapse
                        # reaches further down.
                        out = _pruned(links[2], masks[1], tags[1], rule, "step", (out[0],),
                                      ([None, at, None, None, None], 0)), True
                elif kind == _PREFIX:
                    _, at, rule, f, left, m, opened, links, tags = frame
                    if out.__class__ is tuple:
                        stack.append((_LEFT, at, rule, f, opened))
                        h, masks = left, m
                        break
                    left = _derivation(_sequent(left), _EW, None, (out,), out.height + 1)
                    out = _derivation(_sequent(at), rule, f, (left, opened),
                                      max(left.height, opened.height) + 1)
                else:  # _LEFT
                    _, at, rule, f, opened = frame
                    if out.__class__ is tuple:
                        out = None  # the choice is stuck
                    else:
                        out = _derivation(_sequent(at), rule, f, (out, opened),
                                          max(out.height, opened.height) + 1)
            else:
                st.nodes, st.expanded, st.restarts, st.max_length = (
                    nodes, expanded, restarts, max_length)
                return out


def derivation_from(tree: Derivation | PrunedNode, v: CalculusVariant) -> Derivation:
    """The derivation a closed search built; a failed tree has none."""
    if isinstance(tree, PrunedNode):
        raise SearchInvariantError("no derivation in a failed tree")
    return tree


def search(s: LinearNestedSequent, v: CalculusVariant,
           budget: Budget | None = None) -> tuple[str, Derivation | PrunedNode, Statistics]:
    """Run the strategy on s; returns (status, tree, statistics): CLOSED with
    the derivation, or FAILED with the pruned tree."""
    budget = budget or Budget()
    if any(c.tag != i for i, c in enumerate(s.components)):
        s = _retag(s)
    eng = _Search(v, budget, s)
    t0 = time.monotonic()
    try:
        tree = eng.run(s, eng.closure.masks(s))
    finally:
        eng.stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
    if isinstance(tree, tuple):
        return FAILED, tree[0], eng.stats
    return CLOSED, tree, eng.stats


def _retag(s: LinearNestedSequent) -> LinearNestedSequent:
    """s with its components tagged 0, 1, ... in order."""
    comps = tuple(Component(c.ant, c.succ, i, c.restarts) for i, c in enumerate(s.components))
    return LinearNestedSequent(comps, s.links)


def prune(t: PrunedNode) -> PrunedNode:
    """The tree a failed search returned, as it is: search already pruned
    each subtree as it returned from it, so only the parts that build the
    countermodel are left."""
    if not isinstance(t, PrunedNode):
        raise SearchInvariantError("prune expects a failed tree")
    return t


def extract_model(t: PrunedNode, v: CalculusVariant) -> tuple[KripkeModel, str]:
    """Glue the surviving saturated leaves into a model, keyed by component
    identity tags; antecedent atoms become true, everything else false.

    One walk over the kept tree, with an explicit stack, straight through
    its chains of restart steps, the only steps a failed tree keeps.  A
    leaf's worlds are read from its tag chain and their antecedent atoms
    from its masks, ORed per world and named once at the end; no sequent
    is built.  Each tag is read through the renamings of the views above
    it, the root's included, and a tag that a view's source does not map
    names a new world for that occurrence of the view.  Worlds are
    numbered in the order the walk first meets them: the root's
    components, then each leaf's, left to right."""
    names: dict[int, str] = {}
    fresh = itertools.count(-1, -1)  # the worlds views open; search tags are >= 0
    true: dict[str, int] = {}  # each world's antecedent atoms, ORed over its leaves
    edges: set[tuple[str, str]] = set()
    named = t.atoms
    atoms = sum([bit for bit, _ in named])

    def world(tag: int, renaming: dict[int, int]) -> int:
        w = renaming.get(tag)
        if w is None:
            w = renaming[tag] = next(fresh)
        return w

    def unwrap(node: PrunedNode, renaming: dict[int, int] | None):
        while node.__class__ is PrunedView:
            inner, a, b = {}, node.source, node.target
            while a is not None:
                inner[a[0][0]] = b[0][0] if renaming is None else world(b[0][0], renaming)
                a, b = a[1], b[1]
            node, renaming = node.shared, inner
        return node, renaming

    t, renaming = unwrap(t, None)
    chain, tags = [], t.tags
    while tags is not None:
        chain.append(tags[0][0] if renaming is None else world(tags[0][0], renaming))
        tags = tags[1]
    for w in reversed(chain):
        if w not in names:
            names[w] = f"w{len(names)}"
    root = names[chain[-1]]
    stack = [(t, renaming)]
    while stack:
        node, renaming = stack.pop()
        while True:
            if node.__class__ is PrunedView:
                node, renaming = unwrap(node, renaming)
            if node.kind != "step":
                break
            node = node.children[0]
        if node.kind == "and":
            stack.extend([(c, renaming) for c in reversed(node.children)])
            continue
        # The leaf's (tag, antecedent atoms, link before it) triples, last
        # component first.
        tags, masks, links, chain = node.tags, node.masks, node.links, []
        while tags is not None:
            chain.append(tags[0][0])
            chain.append(masks[0][0][0] & atoms)
            chain.append(links[0])
            tags, masks, links = tags[1], masks[1], links[2]
        below = None
        for j in range(len(chain) - 3, -1, -3):
            w = chain[j] if renaming is None else world(chain[j], renaming)
            n = names.get(w)
            if n is None:
                n = names[w] = f"w{len(names)}"
            if chain[j + 1]:
                true[n] = true.get(n, 0) | chain[j + 1]
            if below is not None:
                edges.add((below, n) if chain[j + 2] is _FORWARD else (n, below))
            below = n
    trues = {w: frozenset([name for bit, name in named if members & bit])
             for w, members in true.items()}
    worlds = tuple(sorted(names.values(), key=lambda w: int(w[1:])))
    return KripkeModel(worlds, frozenset(edges), trues), root


def prove_sequent(s: LinearNestedSequent, v: CalculusVariant = CalculusVariant.KT_STAR,
                  budget: Budget | None = None) -> SearchOutcome:
    """Decide a sequent; every outcome carries a re-verified certificate: a
    derivation that passes the checker and concludes s, or a model that
    falsifies s."""
    try:
        status, tree, stats = search(s, v, budget)
    except BudgetExhausted as e:
        return ResourceLimit(e.stats)
    if status == CLOSED:
        if tree.conclusion != s:
            raise SearchInvariantError(
                f"emitted derivation concludes {tree.conclusion.render()}, not {s.render()}")
        res = metatheory.check(tree, v)
        if not res:
            raise SearchInvariantError(f"emitted derivation failed the checker: {res.message}")
        return Valid(tree, stats)
    model, root = extract_model(tree, v)
    if not semantics.falsifies(model, root, s, symmetric=(v is CalculusVariant.KB)):
        raise InternalModelError(f"extracted model does not falsify {s.render()} at {root}")
    return Invalid(model, root, stats)


def core_formula(f: Formula, v: CalculusVariant) -> Formula:
    """f in the core connectives, read under v: for KB, [P] is [F]."""
    g = desugar(f)
    return collapse_backward(g) if v is CalculusVariant.KB else g


def prove(f: Formula | str, v: CalculusVariant = CalculusVariant.KT_STAR,
          budget: Budget | None = None) -> SearchOutcome:
    """Decide a formula: Valid with a derivation of ( => f), Invalid with a
    countermodel falsifying it at the root, or ResourceLimit."""
    g = core_formula(parse(f) if isinstance(f, str) else f, v)
    end = LinearNestedSequent((Component(Multiset(), Multiset((g,)), tag=0),), ())
    return prove_sequent(end, v, budget)
