"""Backward proof search with restarts, pruning, and countermodel extraction.

The engine applies the rule groups in priority order (termination, CPL,
propagation, restart) and only then branches over the right box rules.
A closed subtree is built as a Derivation when search returns from it, so
a closed search ends in its derivation; a failed one ends in a tree of
SearchNodes, in which a failed step keeps only its failed premiss.
Search is a function of the sequent's contents, and different box-choice
orders restart into equal premisses, so each search explores a restart
premiss once and shares the subtree at every later occurrence.  A failed
search tree is pruned so that only the final incarnation of each restarted
component survives, and the surviving saturated leaves are glued into a
Kripke countermodel.  Both kinds of output are re-verified before
they are reported: derivations against the checker, models against the
forcing relation.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field

from . import calculus, metatheory, semantics
from .calculus import RESTART_RULES, TWO_PREMISS_BOX_RULES, CalculusVariant, RuleId, RuleInstance
from .formula import (
    Atom,
    Formula,
    Polarity,
    collapse_backward,
    desugar,
    parse,
    strict_subformulas,
)
from .metatheory import Derivation
from .semantics import KripkeModel
from .sequent import Component, LinearNestedSequent, Multiset


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


CLOSED = "closed"
FAILED = "failed"


@dataclass
class SearchNode:
    """A failed node of the search tree: a saturated leaf, a step that keeps
    only its failed premiss, or an and-node over every box choice, all of
    which failed.  A closed subtree is the Derivation search built for it."""

    sequent: LinearNestedSequent
    kind: str  # "leaf" | "step" | "and"
    applied: RuleInstance | None
    children: list[SearchNode]
    stuck: bool = False
    # A failed restart premiss found already explored: this node has its
    # own sequent and shares the children of `origin`, the first occurrence.
    origin: SearchNode | None = None


@dataclass
class PrunedNode:
    sequent: LinearNestedSequent
    rule: RuleId | None
    kind: str  # "leaf" | "step" | "and"
    children: list[PrunedNode] = field(default_factory=list)

    def leaves(self) -> list[PrunedNode]:
        if self.kind == "leaf":
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out


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
    def __init__(self, variant: CalculusVariant, budget: Budget, end: LinearNestedSequent):
        self.variant = variant
        self.budget = budget
        self.stats = Statistics()
        self.deadline = time.monotonic() + budget.max_ms / 1000.0
        self.tags = itertools.count(max(c.tag for c in end.components) + 1)
        self.restart_bound = len(strict_subformulas_of(end)) + 1
        # restart premiss -> (node, nodes, restarts, max_length of its subtree)
        self.restarted: dict[LinearNestedSequent,
                             tuple[Derivation | SearchNode, int, int, int]] = {}

    def tick(self, s: LinearNestedSequent):
        st = self.stats
        st.nodes += 1
        st.expanded += 1
        if s.length > st.max_length:
            st.max_length = s.length
        if st.expanded > self.budget.max_nodes or time.monotonic() > self.deadline:
            raise BudgetExhausted(st)

    def fresh(self) -> int:
        return next(self.tags)

    def expand(self, s: LinearNestedSequent) -> Derivation | SearchNode:
        self.tick(s)
        inst = calculus.saturation_instance(s, self.variant, self.fresh)
        if inst is not None:
            if inst.rule in (RuleId.ID, RuleId.BOT_L):
                return Derivation(s, inst.rule, inst.principal)
            if inst.rule in RESTART_RULES:
                self.stats.restarts += 1
                absorber = inst.premisses[0].last
                if absorber.restarts > self.restart_bound:
                    raise SearchInvariantError("restart count exceeded the subformula bound")
                return _step(s, inst, self.expand_restarted(inst.premisses[0]))
            prems = []
            for p in inst.premisses:
                c = self.expand(p)
                if isinstance(c, SearchNode):
                    return SearchNode(s, "step", inst, [c])
                prems.append(c)
            return Derivation(s, inst.rule, inst.principal, tuple(prems))
        choices = calculus.box_instances(s, self.variant, self.fresh)
        if not choices:
            return SearchNode(s, "leaf", None, [])
        explored = []
        for inst in choices:
            node = self.expand_box(s, inst)
            if not isinstance(node, SearchNode):
                return node
            explored.append(node)
        if any(n.stuck for n in explored):
            raise SearchInvariantError(
                "left premiss of a two-premiss box rule could not be derived")
        return SearchNode(s, "and", None, explored)

    def expand_restarted(self, p: LinearNestedSequent) -> Derivation | SearchNode:
        """The subtree of a restart premiss, explored once per search.

        Sequent equality ignores tags, so an equal premiss seen before
        answers: a derivation is shared as it is, a failed node through a
        node with p's own sequent (prune retags its kept part).  Either way
        the statistics grow by the stored subtree's totals.
        """
        st = self.stats
        seen = self.restarted.get(p)
        if seen is not None:
            node, nodes, restarts, length = seen
            st.cache_hits += 1
            st.nodes += nodes
            st.restarts += restarts
            st.max_length = max(st.max_length, length)
            if not isinstance(node, SearchNode):
                return node
            return SearchNode(p, node.kind, node.applied, node.children, origin=node)
        nodes, restarts, outer_length = st.nodes, st.restarts, st.max_length
        st.max_length = p.length
        try:
            node = self.expand(p)
        finally:  # a budget stop must still report the whole search's maximum
            length, st.max_length = st.max_length, max(outer_length, st.max_length)
        self.restarted[p] = (node, st.nodes - nodes, st.restarts - restarts, length)
        return node

    def expand_box(self, s: LinearNestedSequent, inst: RuleInstance) -> Derivation | SearchNode:
        grown = inst.premisses[-1]
        if max_degree(grown.last) >= max_degree(s.last):
            raise SearchInvariantError("modal degree failed to drop at a box step")
        if inst.rule in TWO_PREMISS_BOX_RULES:
            right = self.expand(grown)
            if isinstance(right, SearchNode):
                return SearchNode(s, "step", inst, [right])
            left = self.derive_left(inst)
            if left is None:
                return SearchNode(s, "step", inst, [], stuck=True)
            return Derivation(s, inst.rule, inst.principal, (left, right))
        return _step(s, inst, self.expand(inst.premisses[0]))

    def derive_left(self, inst: RuleInstance) -> Derivation | None:
        """Derivation of the left premiss of boxR1/bboxR1.

        The left premiss weakens the conclusion, so when the conclusion's
        prefix is provable on its own the premiss follows by EW; otherwise
        search the premiss directly (its box instance is fulfilled, so this
        terminates).
        """
        left = inst.premisses[0]
        prefix = self.expand(left.drop_last())
        if not isinstance(prefix, SearchNode):
            return Derivation(left, RuleId.EW, None, (prefix,))
        tree = self.expand(left)
        return None if isinstance(tree, SearchNode) else tree


def _step(s: LinearNestedSequent, inst: RuleInstance,
          premiss: Derivation | SearchNode) -> Derivation | SearchNode:
    """The node of a one-premiss step, given its premiss's search result."""
    if isinstance(premiss, SearchNode):
        return SearchNode(s, "step", inst, [premiss])
    return Derivation(s, inst.rule, inst.principal, (premiss,))


def strict_subformulas_of(s: LinearNestedSequent):
    out = set()
    for c in s.components:
        for ms in (c.ant, c.succ):
            for f in ms.distinct():
                out.add(f)
                out |= strict_subformulas(f)
    return out


def max_degree(c: Component) -> int:
    return max(c.ant.max_degree(), c.succ.max_degree())


def derivation_from(tree: Derivation | SearchNode, v: CalculusVariant) -> Derivation:
    """The derivation a closed search built; a failed tree has none."""
    if isinstance(tree, SearchNode):
        raise SearchInvariantError("no derivation in a failed tree")
    return tree


def search(s: LinearNestedSequent, v: CalculusVariant,
           budget: Budget | None = None) -> tuple[str, Derivation | SearchNode, Statistics]:
    """Run the strategy on s; returns (status, tree, statistics): CLOSED with
    the derivation, or FAILED with the explored failed tree."""
    budget = budget or Budget()
    s = _retag(s)
    eng = _Search(v, budget, s)
    t0 = time.monotonic()
    try:
        tree = eng.expand(s)
    finally:
        eng.stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return (FAILED if isinstance(tree, SearchNode) else CLOSED), tree, eng.stats


def _retag(s: LinearNestedSequent) -> LinearNestedSequent:
    comps = tuple(Component(c.ant, c.succ, i, c.restarts) for i, c in enumerate(s.components))
    return LinearNestedSequent(comps, s.links)


def prune(t: SearchNode) -> PrunedNode:
    """Keep only the parts of a failed tree that build the countermodel.

    A restart deletes the last component of its conclusion and that deletion
    cascades downward through the rules that acted inside it; an and-node one
    of whose choices collapsed this way keeps only the collapsed branch,
    since the restarted re-exploration subsumes the longer siblings.
    """
    if not isinstance(t, SearchNode):
        raise SearchInvariantError("prune expects a failed tree")
    node, _ = _Pruner().prune(t)
    return node


class _Pruner:
    """One prune of a failed tree.  A subtree search shared is pruned once;
    each further occurrence gets a copy of the kept part with its own tags,
    so the pruned tree is the one a search without sharing would give, up to
    the names of its tags."""

    def __init__(self):
        self.kept: dict[int, tuple[PrunedNode, bool]] = {}
        self.unused_tags = itertools.count(-1, -1)  # search tags are >= 0

    def prune(self, n: SearchNode) -> tuple[PrunedNode, bool]:
        """Returns the pruned subtree and whether a restart collapse is still
        travelling down from it."""
        if n.kind == "leaf":
            return PrunedNode(n.sequent, None, "leaf"), False
        if n.kind == "and":
            pruned = [self.prune(c) for c in n.children]
            collapsed = [p for p, flag in pruned if flag]
            if collapsed:
                best = min(collapsed, key=lambda p: p.sequent.length)
                return best, best.sequent.length < n.sequent.length
            return PrunedNode(n.sequent, None, "and", [p for p, _ in pruned]), False
        rule = n.applied.rule
        if rule in RESTART_RULES:
            child, flag = self.restarted(n.children[0])
            if flag and child.sequent.length < n.sequent.length - 1:
                return child, True
            return PrunedNode(n.sequent.prefix(n.sequent.length - 1), rule, "step", [child]), True
        child, flag = self.prune(n.children[0])
        if flag:
            return child, True
        return PrunedNode(n.sequent, rule, "step", [child]), False

    def restarted(self, n: SearchNode) -> tuple[PrunedNode, bool]:
        """prune(n) for a restart premiss, once per explored premiss."""
        if n.origin is not None:
            node, flag = self.restarted(n.origin)
            return self.retag(node, n.origin.sequent, n.sequent), flag
        out = self.kept.get(id(n))
        if out is None:
            out = self.kept[id(n)] = self.prune(n)
        return out

    def retag(self, node: PrunedNode, source: LinearNestedSequent,
              target: LinearNestedSequent) -> PrunedNode:
        """A copy of node, pruned below source, for the occurrence target:
        source's tags become target's, position by position, and every other
        tag a new one, as a fresh exploration would have opened new worlds."""
        tags = {a.tag: b.tag for a, b in zip(source.components, target.components)}
        copies: dict[int, Component] = {}

        def component(c: Component) -> Component:
            out = copies.get(id(c))
            if out is None:
                tag = tags.get(c.tag)
                if tag is None:
                    tag = tags[c.tag] = next(self.unused_tags)
                out = copies[id(c)] = Component(c.ant, c.succ, tag, c.restarts)
            return out

        def copy(n: PrunedNode) -> PrunedNode:
            s = n.sequent
            s = LinearNestedSequent(tuple(map(component, s.components)), s.links)
            return PrunedNode(s, n.rule, n.kind, [copy(c) for c in n.children])

        return copy(node)


def extract_model(t: PrunedNode, v: CalculusVariant) -> tuple[KripkeModel, str]:
    """Glue the surviving saturated leaves into a model, keyed by component
    identity tags; antecedent atoms become true, everything else false."""
    names: dict[int, str] = {}

    def name(tag: int) -> str:
        if tag not in names:
            names[tag] = f"w{len(names)}"
        return names[tag]

    edges: set[tuple[str, str]] = set()
    trues: dict[str, set[str]] = {}
    for comp in t.sequent.components:
        name(comp.tag)
    leaves = t.leaves()
    if not leaves:
        raise InternalModelError("pruned tree has no open leaves")
    for leaf in leaves:
        s = leaf.sequent
        for comp in s.components:
            w = name(comp.tag)
            for f in comp.ant.distinct():
                if isinstance(f, Atom):
                    trues.setdefault(w, set()).add(f.name)
        for i, link in enumerate(s.links):
            a, b = name(s.components[i].tag), name(s.components[i + 1].tag)
            edges.add((a, b) if link is Polarity.FORWARD else (b, a))
    worlds = tuple(sorted(names.values(), key=lambda w: int(w[1:])))
    model = KripkeModel(worlds, frozenset(edges),
                        {w: frozenset(s) for w, s in trues.items()})
    return model, name(t.sequent.components[0].tag)


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
    pruned = prune(tree)
    model, root = extract_model(pruned, v)
    if not semantics.falsifies(model, root, tree.sequent, symmetric=(v is CalculusVariant.KB)):
        raise InternalModelError(
            f"extracted model does not falsify {tree.sequent.render()} at {root}")
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
