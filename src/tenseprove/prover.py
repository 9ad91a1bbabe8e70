"""Backward proof search with restarts, pruning, and countermodel extraction.

The engine applies the rule groups in priority order (termination, CPL,
propagation, restart) and only then branches over the right box rules.
A search numbers the end sequent's subformulas once and carries, beside
each node's components, their masks over that numbering: each rule's side
condition is a few bit operations on them, and a premiss's masks are its
conclusion's with the added formulas ORed in (see calculus).
Search runs as one loop over an explicit stack of continuation frames, one
per pending step: it takes no Python frame per level of its tree, so a deep
derivation needs no raised recursion limit, and its time does not depend
on the caller's stack depth.  It builds its output as it returns from each
subtree: a closed subtree as a Derivation, a failed one as its pruned tree,
in which a failed step keeps no node of its own, only a restart keeps its
step, and only the final incarnation of each restarted component survives.
Search is a function of the sequent's contents, and different box-choice
orders restart into equal premisses, so each search explores a restart
premiss once and shares its result at every later occurrence: a derivation
as it is, a pruned tree through a view that renames its tags.  The
saturated leaves of a failed search's pruned tree are glued into a Kripke
countermodel, reading each leaf's tags through the views above it.  Both
kinds of output are re-verified before they are reported: derivations
against the checker, models against the forcing relation.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass

from . import calculus, metatheory, semantics
from .calculus import RESTART_RULES, TWO_PREMISS_BOX_RULES, CalculusVariant, RuleId
from .formula import (
    Atom,
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
_NOTHING = Multiset()

CLOSED = "closed"
FAILED = "failed"


class PrunedNode(ReadOnly):
    """A node of a failed search's pruned tree: a saturated leaf, a restart
    step over the failed premiss it restarted into, or an and-node over
    every box choice, all of which failed.  Any other failed step keeps no
    node: its failed premiss's tree stands in its place.

    A read-only slotted value, like a Derivation: a subtree may be shared
    by several views, so it must not change once built.  Equality is
    identity."""

    __slots__ = _fields = ("sequent", "rule", "kind", "children")

    def __init__(self, sequent: LinearNestedSequent, rule: RuleId | None,
                 kind: str, children: tuple[PrunedNode, ...] = ()):
        _set_sequent(self, sequent)
        _set_rule(self, rule)
        _set_kind(self, kind)  # "leaf" | "step" | "and"
        _set_children(self, children)


_set_sequent, _set_rule, _set_kind, _set_children = slot_setters(PrunedNode)
_new = object.__new__
_monotonic = time.monotonic


def _pruned(s: LinearNestedSequent, rule: RuleId | None, kind: str,
            children: tuple[PrunedNode, ...]) -> PrunedNode:
    """PrunedNode(s, rule, kind, children) past the class call."""
    node = _new(PrunedNode)
    _set_sequent(node, s)
    _set_rule(node, rule)
    _set_kind(node, kind)
    _set_children(node, children)
    return node


class PrunedView(PrunedNode):
    """A later occurrence of a failed restart premiss, sharing the pruned
    tree of the first by reference.

    `shared` was explored from the premiss `source` and is read here as if
    explored from the equal premiss `target`: source's tags stand for
    target's worlds, position by position, and every other tag for a world
    of this occurrence's own, as a fresh exploration would have opened.
    `extract_model` applies that renaming as it walks.  The sequent, rule,
    kind and children are the shared node's, so the sequent carries
    source's tags."""

    __slots__ = _fields = ("shared", "source", "target")

    def __init__(self, shared: PrunedNode, source: LinearNestedSequent,
                 target: LinearNestedSequent):
        _set_sequent(self, shared.sequent)
        _set_rule(self, shared.rule)
        _set_kind(self, shared.kind)
        _set_children(self, shared.children)
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
# result of the premiss searched above it, as a tuple led by its kind.  The
# first four are steps at s by rule, which a failed premiss fails: the frame
# is dropped and the premiss's failure passes down unchanged.
#   (_STEP, s, rule, f)                 a one-premiss step (impR, propagation)
#   (_IMP_L, s, rule, f, second, m)     impL, waiting for its first premiss
#   (_JOIN, s, rule, f, first)          impL, waiting for its second premiss
#   (_OPENED, s, rule, f, left, m)      a box choice, waiting for the
#       premiss it opens; left is boxR1/bboxR1's left premiss, m its masks
#   (_PREFIX, s, rule, f, left, m, opened)  then for left's prefix
#   (_LEFT, s, rule, f, opened)         then for left itself
#   (_CHOICES, s, m, choices, explored) an and-node over the box choices
#   (_RESTART, s, rule, f, p, nodes, restarts, max_length)
#       a restart, waiting for its premiss p, with the totals before p;
#       p is None when the result came from the restart table
_STEP, _IMP_L, _JOIN, _OPENED, _PREFIX, _LEFT, _CHOICES, _RESTART = range(8)


class _Search:
    """One search from an end sequent, run by `run` as one loop over an
    explicit stack of continuation frames (above): a search takes no
    Python frame per level, so its time does not depend on the caller's
    stack depth.  Each step builds its premisses through the rule table,
    and its Derivation or PrunedNode through `_derivation` and `_pruned`,
    which write the slots past the class call; a derivation's height is
    read off its premisses as they return.  A failed subtree builds a
    PrunedNode only for a saturated leaf, an and-node and a restart step:
    nothing reads the node of any other failed step.  Every expanded node
    counts against the budget, whose clock it reads."""

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
        # restart premiss -> (result, the premiss first explored, and the
        # nodes, restarts and max_length of its subtree)
        self.restarted: dict[LinearNestedSequent, tuple[
            Derivation | Failure, LinearNestedSequent, int, int, int]] = {}

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

        A restart premiss is explored once per search.  Sequent equality
        ignores tags, so an equal premiss seen before answers: a derivation
        is shared as it is, a pruned tree through a view that reads it with
        the new premiss's tags, so models and counts are those of a search
        that explores every premiss anew.  A box choice whose opened
        premiss closes derives boxR1/bboxR1's left premiss by ew when the
        conclusion's prefix is provable on its own, and otherwise searches
        the premiss itself (its box instance is fulfilled, so this
        terminates); a left premiss that fails leaves the choice stuck.
        """
        st = self.stats
        k, v, restarted, bound = self.closure, self.variant, self.restarted, self.restart_bound
        max_nodes, deadline, fresh = self.max_nodes, self.deadline, self.tags.__next__
        scan, box_choices = calculus.scan, calculus.box_choices
        nodes, expanded, restarts, max_length = st.nodes, st.expanded, st.restarts, st.max_length
        stack = []
        choice = None  # a box choice of the and-node `frame` to start
        while True:
            if choice is not None:
                e, f = choice
                choice = None
                s, m = frame[1], frame[2]
                prems = e.premisses(s, f, fresh)
                # The opened component holds only the body, whose modal degree
                # is below that of f, a formula of the conclusion's last component.
                opened = prems[-1].last
                if (opened.ant or not opened.succ.is_plus(_NOTHING, f.body)
                        or f not in s.last.succ):
                    raise SearchInvariantError("modal degree failed to drop at a box step")
                grown = e.grow(k, m, f)
                stack.append(frame)
                stack.append((_OPENED, s, e.rule, f, prems[0], grown[0]))
                s, masks = prems[-1], grown[-1]
            nodes += 1
            expanded += 1
            n = len(s.components)
            if n > max_length:
                max_length = n
            if expanded > max_nodes or _monotonic() > deadline:
                # The maximum covers the subtrees of every pending restart.
                for frame in stack:
                    if frame[0] == _RESTART and frame[7] > max_length:
                        max_length = frame[7]
                st.nodes, st.expanded, st.restarts, st.max_length = (
                    nodes, expanded, restarts, max_length)
                raise BudgetExhausted(st)
            step = scan(k, v, s, masks)
            if step is not None:
                e, f = step
                rule = e.rule
                if rule in _AXIOMS:
                    out = _derivation(s, rule, f, (), 0)
                elif rule in RESTART_RULES:
                    restarts += 1
                    p = e.premisses(s, f, fresh)[0]
                    if p.components[-1].restarts > bound:
                        raise SearchInvariantError("restart count exceeded the subformula bound")
                    seen = restarted.get(p)
                    if seen is None:
                        stack.append((_RESTART, s, rule, f, p, nodes, restarts, max_length))
                        max_length = len(p.components)
                        s, masks = p, e.grow(k, masks, f)[0]
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
                    stack.append((_RESTART, s, rule, f, None, 0, 0, 0))
                else:
                    # impR, impL or propagation: each premiss only grows the last component.
                    prems = e.premisses(s, f, fresh)
                    grown = e.grow(k, masks, f)
                    if len(prems) == 1:
                        stack.append((_STEP, s, rule, f))
                    else:
                        stack.append((_IMP_L, s, rule, f, prems[1], grown[1]))
                    s, masks = prems[0], grown[0]
                    continue
            else:
                choices = box_choices(k, v, s, masks)
                if choices:
                    frame = (_CHOICES, s, masks, iter(choices), [])
                    choice = next(frame[3])
                    continue
                out = _pruned(s, None, "leaf", ()), False
            while stack:
                frame = stack.pop()
                kind = frame[0]
                if kind <= _OPENED and out.__class__ is tuple:
                    continue  # a failed premiss fails its step, which keeps no node
                elif kind == _STEP:
                    _, s, rule, f = frame
                    out = _derivation(s, rule, f, (out,), out.height + 1)
                elif kind == _CHOICES:
                    if out is not None and out.__class__ is not tuple:
                        continue  # a closing choice closes the node
                    _, s, _, choices, explored = frame
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
                        best = min(collapsed, key=lambda child: child.sequent.length)
                        out = best, best.sequent.length < s.length
                    else:
                        out = _pruned(s, None, "and", tuple([c for c, _ in explored])), False
                elif kind == _OPENED:
                    _, s, rule, f, left, m = frame
                    if rule not in TWO_PREMISS_BOX_RULES:
                        out = _derivation(s, rule, f, (out,), out.height + 1)
                    else:
                        stack.append((_PREFIX, s, rule, f, left, m, out))
                        s, masks = left.drop_last(), m[1]
                        break
                elif kind == _IMP_L:
                    _, s, rule, f, second, m = frame
                    stack.append((_JOIN, s, rule, f, out))
                    s, masks = second, m
                    break
                elif kind == _JOIN:
                    _, s, rule, f, first = frame
                    out = _derivation(s, rule, f, (first, out), max(first.height, out.height) + 1)
                elif kind == _RESTART:
                    _, s, rule, f, p, nodes_before, restarts_before, outer = frame
                    if p is not None:
                        length = max_length
                        if outer > length:
                            max_length = outer
                        restarted[p] = (out, p, nodes - nodes_before,
                                        restarts - restarts_before, length)
                    if out.__class__ is not tuple:
                        out = _derivation(s, rule, f, (out,), out.height + 1)
                    else:
                        # The restart deleted s's last component: its step
                        # stands on s's prefix, unless the collapse reaches
                        # further down.
                        n = len(s.components)
                        if not out[1] or len(out[0].sequent.components) >= n - 1:
                            out = _pruned(s.prefix(n - 1), rule, "step", (out[0],)), True
                elif kind == _PREFIX:
                    _, s, rule, f, left, m, opened = frame
                    if out.__class__ is tuple:
                        stack.append((_LEFT, s, rule, f, opened))
                        s, masks = left, m
                        break
                    left = _derivation(left, _EW, None, (out,), out.height + 1)
                    out = _derivation(s, rule, f, (left, opened),
                                      max(left.height, opened.height) + 1)
                else:  # _LEFT
                    _, s, rule, f, opened = frame
                    if out.__class__ is tuple:
                        out = None  # the choice is stuck
                    else:
                        out = _derivation(s, rule, f, (out, opened),
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
    its chains of restart steps, the only steps a failed tree keeps.  Each
    tag is read through the renamings of the views above it, the root's
    included, and a tag that a view's source does not map names a new
    world for that occurrence of the view.  Worlds are numbered in the
    order the walk first meets them: the root's components, then each
    leaf's, left to right."""
    names: dict[int, str] = {}
    fresh = itertools.count(-1, -1)  # the worlds views open; search tags are >= 0

    def world(tag: int, renaming: dict[int, int] | None) -> int:
        if renaming is None:
            return tag
        w = renaming.get(tag)
        if w is None:
            w = renaming[tag] = next(fresh)
        return w

    def names_of(s: LinearNestedSequent, renaming: dict[int, int] | None) -> list[str]:
        out = []
        for c in s.components:
            w = c.tag if renaming is None else world(c.tag, renaming)
            n = names.get(w)
            if n is None:
                n = names[w] = f"w{len(names)}"
            out.append(n)
        return out

    def unwrap(node: PrunedNode, renaming: dict[int, int] | None):
        while node.__class__ is PrunedView:
            renaming = {a.tag: world(b.tag, renaming)
                        for a, b in zip(node.source.components, node.target.components)}
            node = node.shared
        return node, renaming

    t, renaming = unwrap(t, None)
    root = names_of(t.sequent, renaming)[0]
    edges: set[tuple[str, str]] = set()
    trues: dict[str, set[str]] = {}
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
        s = node.sequent
        ws = names_of(s, renaming)
        for w, comp in zip(ws, s.components):
            for f in comp.ant.members():
                if isinstance(f, Atom):
                    trues.setdefault(w, set()).add(f.name)
        for i, link in enumerate(s.links):
            a, b = ws[i], ws[i + 1]
            edges.add((a, b) if link is Polarity.FORWARD else (b, a))
    worlds = tuple(sorted(names.values(), key=lambda w: int(w[1:])))
    model = KripkeModel(worlds, frozenset(edges),
                        {w: frozenset(s) for w, s in trues.items()})
    return model, root


def prove_sequent(s: LinearNestedSequent, v: CalculusVariant = CalculusVariant.KT_STAR,
                  budget: Budget | None = None) -> SearchOutcome:
    """Decide a sequent; every outcome carries a re-verified certificate."""
    try:
        status, tree, stats = search(s, v, budget)
    except BudgetExhausted as e:
        return ResourceLimit(e.stats)
    if status == CLOSED:
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
