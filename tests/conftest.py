import sys
from contextlib import contextmanager

import hypothesis
import pytest
from hypothesis import strategies as st

from tenseprove.formula import (
    And,
    Atom,
    BlackBox,
    BlackDiamond,
    Bottom,
    Box,
    Diamond,
    Implies,
    Not,
    Or,
)
from tenseprove.sequent import LinearNestedSequent, Multiset, Component
from tenseprove.formula import Polarity

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")

atoms = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Atom("s1")])
leaves = st.one_of(atoms, st.just(Bottom()))

surface_formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Box, sub),
        st.builds(BlackBox, sub),
        st.builds(Diamond, sub),
        st.builds(BlackDiamond, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=8,
)

core_formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Box, sub),
        st.builds(BlackBox, sub),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=6,
)

small_multisets = st.lists(core_formulas, max_size=3).map(Multiset)


@st.composite
def small_components(draw):
    return Component(draw(small_multisets), draw(small_multisets))


@st.composite
def small_sequents(draw, max_len=3):
    n = draw(st.integers(1, max_len))
    comps = tuple(draw(small_components()) for _ in range(n))
    links = tuple(draw(st.sampled_from([Polarity.FORWARD, Polarity.BACKWARD]))
                  for _ in range(n - 1))
    return LinearNestedSequent(comps, links)


def schema1(data: dict) -> dict:
    """A schema-2 certificate, decoded, written out as the schema-1 tree:
    {"sequent", "rule", "premisses"} at every node, a shared node once per
    occurrence.  Digests recorded over schema-1 JSON are taken over this."""
    from tenseprove.metatheory import derivation_from_json

    def tree(d):
        return {"sequent": d.conclusion.to_json(), "rule": d.rule.value,
                "premisses": [tree(p) for p in d.premisses]}

    return tree(derivation_from_json(data))


def rules_of(d) -> set:
    """The rules of a derivation's distinct nodes."""
    from tenseprove.calculus import RuleId
    from tenseprove.metatheory import derivation_to_json

    return {RuleId(n["rule"]) for n in derivation_to_json(d)["nodes"]}


def assert_heights_bottom_up(d, context=()) -> set:
    """Assert that every distinct node of d has the height recomputed
    bottom-up from its premisses (a builder that writes a height itself
    must agree with `Derivation(...)`, and cut's CutMonitor reads it).
    Returns the rules of the two-premiss nodes whose first premiss is the
    taller.  `context` goes into the assertion message."""
    heights: dict[int, int] = {}
    taller_first = set()
    stack = [d]
    while stack:
        node = stack[-1]
        todo = [p for p in node.premisses if id(p) not in heights]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        heights[id(node)] = max([heights[id(p)] + 1 for p in node.premisses], default=0)
        assert node.height == heights[id(node)], (*context, node.rule)
        if len(node.premisses) == 2 and node.premisses[0].height > node.premisses[1].height:
            taller_first.add(node.rule)
    return taller_first


def principal_place(rule, s) -> Multiset:
    """Where `rule` takes its principal formula in s, read from the rule
    figures: the second-last antecedent for a propagation, the last
    antecedent for id, botL, impL and a restart, and the last succedent
    for impR and a right box rule (nothing, for a propagation on one
    component).  Ew has no principal."""
    from tenseprove.calculus import RESTART_RULES, RuleId

    if rule in (RuleId.BOX_L1, RuleId.BBOX_L1, RuleId.KB_BOX_L1):
        return s.components[-2].ant if s.links else Multiset()
    if rule in (RuleId.ID, RuleId.BOT_L, RuleId.IMP_L) or rule in RESTART_RULES:
        return s.last.ant
    return s.last.succ


# KT search's one known crash: a box node one of whose two-premiss choices
# opens a premiss that closes, but whose left premiss neither ew over its
# prefix nor a search of its own derives.  KT* proves such left premisses.
KT_STUCK_MESSAGE = "left premiss of a two-premiss box rule could not be derived"


def assert_kt_stuck(e: BaseException, v) -> None:
    """Assert that e is that known crash: KT, and exactly this type and
    message.  A wrong countermodel (InternalModelError, a subclass) or a
    degree or restart watchdog is not it."""
    from tenseprove.calculus import CalculusVariant
    from tenseprove.prover import SearchInvariantError

    assert v is CalculusVariant.KT and type(e) is SearchInvariantError, (v, repr(e))
    assert str(e) == KT_STUCK_MESSAGE, (v, repr(e))


def successors(model, w: str) -> set:
    return {v for (u, v) in model.edges if u == w}


def predecessors(model, w: str) -> set:
    return {u for (u, v) in model.edges if v == w}


@contextmanager
def fails_fast_on_recursion(limit=None):
    """Run the block, under the recursion limit `limit` when one is given.
    A RecursionError fails the test with one line: left to propagate, its
    traceback of thousands of frames takes pytest minutes to format."""
    old = sys.getrecursionlimit()
    if limit is not None:
        sys.setrecursionlimit(limit)
    try:
        yield
    except RecursionError as e:
        raise pytest.fail.Exception(f"RecursionError: {e}", pytrace=False) from None
    finally:
        sys.setrecursionlimit(old)
