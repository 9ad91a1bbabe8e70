"""Backward proof search with restarts, pruning, and countermodel extraction.

The engine applies the rule groups in priority order (termination, CPL,
propagation, restart) and only then branches over the right box rules.
A search numbers the end sequent's subformulas once and carries, beside
each node's components, their masks over that numbering: each rule's side
condition is a few bit operations on them, and a premiss's masks are its
conclusion's with the added formulas ORed in (see calculus).
Search builds its output as it returns from each subtree: a closed subtree
as a Derivation, a failed one as its pruned tree, in which a failed step
keeps only its failed premiss and only the final incarnation of each
restarted component survives.  Search is a function of the sequent's
contents, and different box-choice orders restart into equal premisses, so
each search explores a restart premiss once and shares its result at every
later occurrence: a derivation as it is, a pruned tree through a view that
renames its tags.  The saturated leaves of a failed search's pruned tree are
glued into a Kripke countermodel, reading each leaf's tags through the views
above it.  Both kinds of output are re-verified before they are reported:
derivations against the checker, models against the forcing relation.
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
from .metatheory import Derivation
from .semantics import KripkeModel
from .sequent import Component, LinearNestedSequent, Multiset, ReadOnly, slot_setters


# search depth tracks derivation height, which can exceed the interpreter default
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
    """A node of a failed search's pruned tree: a saturated leaf, a step
    that keeps only its failed premiss, or an and-node over every box
    choice, all of which failed.

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
(_set_conclusion, _set_derived_rule, _set_principal, _set_premisses,
 _set_height) = slot_setters(Derivation)
_new = object.__new__
_monotonic = time.monotonic


def _derivation(s: LinearNestedSequent, rule: RuleId, f: Formula | None,
                premisses: tuple[Derivation, ...], height: int) -> Derivation:
    """Derivation(s, rule, f, premisses) past the class call, for a builder
    that knows its height."""
    d = _new(Derivation)
    _set_conclusion(d, s)
    _set_derived_rule(d, rule)
    _set_principal(d, f)
    _set_premisses(d, premisses)
    _set_height(d, height)
    return d


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


class _Search:
    """One search from an end sequent.  Each step builds its premisses
    through the rule table, and its Derivation or PrunedNode through
    `_derivation` and `_pruned`, which write the slots past the class call;
    a derivation's height is read off its premisses as they return.  Every
    expanded node counts against the budget, whose clock it reads."""

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

    def fresh(self) -> int:
        return next(self.tags)

    def expand(self, s: LinearNestedSequent, masks: tuple) -> Derivation | Failure:
        """Search from s, whose components have these masks over the end
        sequent's closure (see calculus)."""
        st = self.stats
        st.nodes += 1
        st.expanded += 1
        n = len(s.components)
        if n > st.max_length:
            st.max_length = n
        if st.expanded > self.max_nodes or _monotonic() > self.deadline:
            raise BudgetExhausted(st)
        step = calculus.scan(self.closure, self.variant, s, masks)
        if step is not None:
            e, f = step
            rule = e.rule
            if rule in _AXIOMS:
                return _derivation(s, rule, f, (), 0)
            prems = e.premisses(s, f, self.fresh)
            if rule in RESTART_RULES:
                st.restarts += 1
                if prems[0].components[-1].restarts > self.restart_bound:
                    raise SearchInvariantError("restart count exceeded the subformula bound")
                out = self.expand_restarted(prems[0], e, f, masks)
                if not isinstance(out, tuple):
                    return _derivation(s, rule, f, (out,), out.height + 1)
                child, collapsing = out
                if collapsing and len(child.sequent.components) < n - 1:
                    return out
                return _pruned(s.prefix(n - 1), rule, "step", (child,)), True
            # impR, impL or propagation: each premiss only grows the last component.
            derived = []
            height = 0
            for p, m in zip(prems, e.grow(self.closure, masks, f)):
                out = self.expand(p, m)
                if isinstance(out, tuple):
                    return _failed_step(s, rule, out)
                derived.append(out)
                if out.height > height:
                    height = out.height
            return _derivation(s, rule, f, tuple(derived), height + 1)
        explored = []
        for e, f in calculus.box_choices(self.closure, self.variant, s, masks):
            out = self.expand_box(s, e, f, masks)
            if out is not None and not isinstance(out, tuple):
                return out
            explored.append(out)
        if not explored:
            return _pruned(s, None, "leaf", ()), False
        if any(out is None for out in explored):
            raise SearchInvariantError(
                "left premiss of a two-premiss box rule could not be derived")
        # A choice that collapsed is kept alone: the restarted
        # re-exploration subsumes the longer siblings.
        collapsed = [child for child, collapsing in explored if collapsing]
        if collapsed:
            best = min(collapsed, key=lambda child: child.sequent.length)
            return best, best.sequent.length < s.length
        return _pruned(s, None, "and", tuple([child for child, _ in explored])), False

    def expand_restarted(self, p: LinearNestedSequent, e: calculus.Rule, f: Formula,
                         masks: tuple) -> Derivation | Failure:
        """The result of p, the premiss of the restart step (e, f) at a node
        with these masks, explored once per search.

        Sequent equality ignores tags, so an equal premiss seen before
        answers: a derivation is shared as it is, a pruned tree through a
        view that reads it with p's tags, so models and counts are those of
        a search that explores every premiss anew.  Either way the
        statistics grow by the stored subtree's totals.
        """
        st = self.stats
        seen = self.restarted.get(p)
        if seen is not None:
            out, first, nodes, restarts, length = seen
            st.cache_hits += 1
            st.nodes += nodes
            st.restarts += restarts
            st.max_length = max(st.max_length, length)
            if not isinstance(out, tuple):
                return out
            return PrunedView(out[0], first, p), out[1]
        nodes, restarts, outer_length = st.nodes, st.restarts, st.max_length
        st.max_length = p.length
        try:
            out = self.expand(p, e.grow(self.closure, masks, f)[0])
        finally:  # a budget stop must still report the whole search's maximum
            length, st.max_length = st.max_length, max(outer_length, st.max_length)
        self.restarted[p] = (out, p, st.nodes - nodes, st.restarts - restarts, length)
        return out

    def expand_box(self, s: LinearNestedSequent, e: calculus.Rule, f: Formula,
                   masks: tuple) -> Derivation | Failure | None:
        """The result of the box choice (e, f) at s, whose components have
        these masks; None when its right premiss closes and its left
        premiss (boxR1/bboxR1) cannot be derived."""
        prems = e.premisses(s, f, self.fresh)
        # The opened component holds only the body, whose modal degree is
        # below that of f, a formula of the conclusion's last component.
        opened = prems[-1].last
        if opened.ant or not opened.succ.is_plus(_NOTHING, f.body) or f not in s.last.succ:
            raise SearchInvariantError("modal degree failed to drop at a box step")
        grown = e.grow(self.closure, masks, f)
        out = self.expand(prems[-1], grown[-1])  # the premiss that opens a component
        if isinstance(out, tuple):
            return _failed_step(s, e.rule, out)
        if e.rule not in TWO_PREMISS_BOX_RULES:
            return _derivation(s, e.rule, f, (out,), out.height + 1)
        left = self.derive_left(prems[0], grown[0])
        if left is None:
            return None
        return _derivation(s, e.rule, f, (left, out), max(left.height, out.height) + 1)

    def derive_left(self, left: LinearNestedSequent, masks: tuple) -> Derivation | None:
        """Derivation of the left premiss of boxR1/bboxR1, whose components
        have these masks.

        The left premiss weakens the conclusion, so when the conclusion's
        prefix is provable on its own the premiss follows by EW; otherwise
        search the premiss directly (its box instance is fulfilled, so this
        terminates).
        """
        prefix = self.expand(left.drop_last(), masks[1])
        if not isinstance(prefix, tuple):
            return _derivation(left, _EW, None, (prefix,), prefix.height + 1)
        tree = self.expand(left, masks)
        return None if isinstance(tree, tuple) else tree


def _failed_step(s: LinearNestedSequent, rule: RuleId, premiss: Failure) -> Failure:
    """A step whose premiss failed: it keeps only that premiss, or passes
    on a collapse travelling down from it."""
    child, collapsing = premiss
    if collapsing:
        return premiss
    return _pruned(s, rule, "step", (child,)), False


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
    s = _retag(s)
    eng = _Search(v, budget, s)
    t0 = time.monotonic()
    try:
        tree = eng.expand(s, eng.closure.masks(s))
    finally:
        eng.stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
    if isinstance(tree, tuple):
        return FAILED, tree[0], eng.stats
    return CLOSED, tree, eng.stats


def _retag(s: LinearNestedSequent) -> LinearNestedSequent:
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

    One walk over the kept tree, with an explicit stack.  Each tag is read
    through the renamings of the views above it, the root's included, and a
    tag that a view's source does not map names a new world for that
    occurrence of the view.  Worlds are numbered in the order the walk
    first meets them: the root's components, then each leaf's, left to
    right."""
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
