import gc
import hashlib
import itertools
import json

import pytest

from conftest import (
    assert_heights_bottom_up,
    fails_fast_on_recursion,
    predecessors,
    rules_of,
    schema1,
    successors,
)
from tenseprove import calculus, prover, semantics
from tenseprove.calculus import RESTART_RULES, CalculusVariant, RuleId
from tenseprove.formula import Atom, BlackBox, Box, Polarity, atoms, parse, desugar
from tenseprove.generate import corpus
from tenseprove.metatheory import (
    Derivation,
    check,
    derivation_from_json,
    derivation_to_json,
    to_ktstar,
)
from tenseprove.prover import (
    FAILED,
    Budget,
    InternalModelError,
    Invalid,
    PrunedView,
    ResourceLimit,
    SearchInvariantError,
    Valid,
    _link_chain,
    _tag_chain,
    core_formula,
    derivation_from,
    extract_model,
    prove,
    prove_sequent,
    prune,
    search,
)
from tenseprove.sequent import Component, LinearNestedSequent, Multiset, formula_translation, single

KT, KTS, KB = CalculusVariant.KT, CalculusVariant.KT_STAR, CalculusVariant.KB
p, q, r = Atom("p"), Atom("q"), Atom("r")


def fan_sequent():
    return single([], [Box(p), Box(q), BlackBox(r)])


def test_prove_valid_examples():
    for text in ("p -> [F]~[P]~p", "[F](p -> q) -> ([F]p -> [F]q)"):
        for v in (KT, KTS):
            out = prove(text, v)
            assert isinstance(out, Valid)
            assert check(out.derivation, v)


def test_prove_atom_invalid():
    out = prove("p", KTS)
    assert isinstance(out, Invalid)
    assert len(out.model.worlds) == 1
    assert not out.model.true_atoms


def test_search_and_node_has_three_children():
    status, tree, _ = search(fan_sequent(), KTS)
    assert status == FAILED
    assert tree.kind == "and" and len(tree.children) == 3


def test_search_closes_id_immediately():
    status, tree, stats = search(single([p], [p]), KTS)
    assert status == "closed" and isinstance(tree, Derivation)
    assert tree.rule is RuleId.ID and tree.premisses == ()
    assert stats.nodes == 1


def test_derivation_from_a_failed_tree_raises():
    status, tree, _ = search(fan_sequent(), KTS)
    assert status == FAILED
    with pytest.raises(SearchInvariantError):
        derivation_from(tree, KTS)


def test_deep_kb_derivation_builds_without_recursion():
    # [F]^n p -> [F]^n p.  Search builds the derivation as it returns;
    # rebuilt from the search tree by a second, recursive walk, it raised
    # RecursionError.  Search itself runs on an explicit stack of
    # continuation frames: when it took a Python frame per level, each of
    # these raised RecursionError under this limit.
    for n, v, size in ((200, KB, 15552), (300, KB, 34577), (600, KTS, 1202)):
        text = " -> ".join(["[F]" * n + "p"] * 2)
        with fails_fast_on_recursion(1500):
            out = prove(text, v)
        assert isinstance(out, Valid), (n, v)
        assert (out.derivation.rule_applications(), out.derivation.height) == (size, size - 1)


def test_search_restart_branch():
    x = desugar(parse("~[F]r2"))
    s = single([], [Box(p), Box(q), BlackBox(x)])
    status, tree, stats = search(s, KTS)
    assert status == FAILED
    assert stats.restarts >= 1


def test_prune_without_restarts_is_identity_shaped():
    status, tree, _ = search(fan_sequent(), KTS)
    t = prune(tree)
    assert t.kind == "and" and len(t.children) == 3
    assert t.sequent.render() == tree.sequent.render()
    # A failed box choice keeps no step node: each child is the saturated
    # leaf above the component it opened.
    assert all(c.kind == "leaf" and c.sequent.length == 2 for c in t.children)


def test_prune_keeps_restarted_branch():
    x = desugar(parse("~[F]r2"))
    s = single([], [Box(p), Box(q), BlackBox(x)])
    status, tree, _ = search(s, KTS)
    t = prune(tree)
    # the restart collapses the and-node to the shorter branch
    assert t.kind == "step" and t.rule is RuleId.BOX_L2
    assert t.sequent.length == 1


def test_a_view_at_the_root_is_a_failed_tree():
    status, tree, _ = search(fan_sequent(), KTS)
    source = tree.sequent
    target = LinearNestedSequent(
        tuple(Component(c.ant, c.succ, c.tag + 100, c.restarts) for c in source.components),
        source.links)
    view = PrunedView(tree, _tag_chain(source), _tag_chain(target))
    assert prune(view) is view
    with pytest.raises(SearchInvariantError):
        derivation_from(view, KTS)
    model, root = extract_model(view, KTS)
    expected, expected_root = extract_model(tree, KTS)
    assert model.to_json(root) == expected.to_json(expected_root)


def test_extract_model_fan():
    status, tree, _ = search(fan_sequent(), KTS)
    model, root = extract_model(prune(tree), KTS)
    assert len(successors(model, root)) == 2
    assert len(predecessors(model, root)) == 1
    assert semantics.falsifies(model, root, tree.sequent)


def test_extract_model_single_world():
    status, tree, _ = search(single([], [p]), KTS)
    model, root = extract_model(prune(tree), KTS)
    assert model.worlds == (root,)


def test_extract_model_after_restart_covers_end_sequent():
    x = desugar(parse("~[F]r2"))
    s = single([], [Box(p), Box(q), BlackBox(x)])
    status, tree, _ = search(s, KTS)
    model, root = extract_model(prune(tree), KTS)
    assert semantics.falsifies(model, root, tree.sequent)
    assert len(successors(model, root)) >= 2 and len(predecessors(model, root)) >= 1


def test_example4_sequent_uses_restart_rules():
    s = single([r], [Box(p), Box(q), desugar(parse("[P]~[F]~r"))])
    out = prove_sequent(s, KT)
    assert isinstance(out, Valid)
    used = rules_of(out.derivation)
    assert RuleId.BBOX_R2 in used and RuleId.BOX_L2 in used


def test_resource_limit_is_reported_not_raised():
    out = prove("p -> [F]~[P]~p", KTS, Budget(max_nodes=2, max_ms=10_000))
    assert isinstance(out, ResourceLimit)
    assert out.stats.nodes >= 2


def test_kt_left_premiss_machinery():
    # a valid formula whose search must cross a two-premiss box rule
    f = parse("[P](q -> [F](p -> p))")
    out = prove(f, KT)
    assert isinstance(out, Valid)
    assert check(out.derivation, KT)
    used = rules_of(out.derivation)
    assert RuleId.BOX_R1 in used and RuleId.EW in used


def test_certification_on_seeded_corpus():
    for f in corpus(4242, 120):
        out = prove(f, KTS)
        if isinstance(out, Valid):
            assert check(out.derivation, KTS)
        else:
            assert isinstance(out, Invalid)
            assert not semantics.forces(out.model, out.root, f)


def test_verdicts_agree_with_the_small_model_oracle():
    # Implication-heavy formulas, so that impL often has several instances
    # to order; 119 of the 600 runs are Valid.
    for f in corpus(7, 300, atoms=("p", "q"), max_size=30, max_degree=6):
        for v in (KTS, KB):
            g = core_formula(f, v)
            out = prove(g, v)
            if isinstance(out, Valid):
                assert semantics.bounded_countermodel_search(g, 3, symmetric=(v is KB)) is None
            else:
                assert isinstance(out, Invalid)
                assert semantics.falsifies(out.model, out.root, single([], [g]), v is KB)


def test_failed_search_returns_its_pruned_tree():
    # Search prunes a failed subtree as it returns from it, so prune has
    # nothing left to do and the model comes straight from the search tree.
    # A failed step keeps no node, so the root is the first kept node: its
    # first component is the end sequent's, grown by the steps below it.
    failed = 0
    for f in corpus(7, 300, atoms=("p", "q"), max_size=30, max_degree=6):
        for v in (KTS, KB):
            end = single([], [core_formula(f, v)])
            status, tree, _ = search(end, v)
            if status != FAILED:
                continue
            failed += 1
            assert prune(tree) is tree
            first = tree.sequent.components[0]
            assert first.tag == 0
            assert end.last.ant.subset(first.ant) and end.last.succ.subset(first.succ)
            model, root = extract_model(tree, v)
            assert semantics.falsifies(model, root, end, symmetric=(v is KB))
    assert failed > 0


def test_failed_trees_hold_only_leaves_and_nodes_and_restart_steps():
    # A failed propositional, propagation or box step keeps no node over its
    # failed premiss; only a restart keeps its step, whose sequent a
    # collapse reads.  extract_model walks restart chains down to the leaves
    # and and-nodes, names the root world w0, and its model falsifies the
    # end sequent and the root's own sequent.
    formulas = (corpus(4242, 300, atoms=("p", "q"), max_size=40, max_degree=5)
                + corpus(7, 300, atoms=("p", "q"), max_size=30, max_degree=6))
    failed = 0
    for f in formulas:
        for v in (KT, KTS, KB):
            end = single([], [core_formula(f, v)])
            try:
                status, tree, _ = search(end, v)
            except SearchInvariantError:
                # KT's stuck box choices: not a verdict, and not a tree.
                assert v is KT
                continue
            if status != FAILED:
                continue
            failed += 1
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.kind == "step":
                    assert node.rule in RESTART_RULES and len(node.children) == 1
                elif node.kind == "and":
                    assert node.rule is None and node.children
                else:
                    assert node.kind == "leaf" and node.rule is None and not node.children
                stack.extend(node.children)
            model, root = extract_model(tree, v)
            assert root == "w0"
            assert semantics.falsifies(model, root, end, symmetric=(v is KB))
            assert semantics.falsifies(model, root, tree.sequent, symmetric=(v is KB))
    assert failed > 0


def test_variant_agreement_and_transfer():
    for f in corpus(555, 80):
        a = prove(f, KTS)
        b = prove(f, KT)
        assert isinstance(a, Valid) == isinstance(b, Valid)
        if isinstance(b, Valid):
            star = to_ktstar(b.derivation)
            assert check(star, KTS)


def test_kb_certified():
    out = prove("p -> [F]~[F]~p", KB)
    assert isinstance(out, Valid) and check(out.derivation, KB)
    out2 = prove("[F]p -> p", KB)
    assert isinstance(out2, Invalid)
    assert not semantics.forces(out2.model, out2.root, desugar(parse("[F]p -> p")),
                                symmetric=True)


def test_kb_deep_countermodel_is_certified():
    # depth_bad(24): the symmetric reading of [F]^24 p visits about 2^24
    # world paths unless each (world, subformula) pair is evaluated once.
    f = desugar(parse("[F]" * 24 + "p -> " + "[F]" * 25 + "p"))
    out = prove(f, KB)
    assert isinstance(out, Invalid)
    assert not semantics.forces(out.model, out.root, f, symmetric=True)


def test_deterministic_output():
    a = prove("[F]p -> [F][F]p", KTS)
    b = prove("[F]p -> [F][F]p", KTS)
    assert a.model.to_json(a.root) == b.model.to_json(b.root)
    c = prove("<F>[P]p -> p", KT)
    d = prove("<F>[P]p -> p", KT)
    assert derivation_to_json(c.derivation) == derivation_to_json(d.derivation)


def test_statistics_shape():
    out = prove("[F](p -> q) -> ([F]p -> [F]q)", KTS)
    st = out.stats
    assert st.nodes > 0 and st.max_length >= 2 and st.elapsed_ms >= 0
    assert set(st.to_json()) == {"nodes", "restarts", "max_length", "expanded", "cache_hits"}


def _ph(n):
    placed = " & ".join(f"({' | '.join(f'h{i}_{j}' for j in range(n))})" for i in range(n + 1))
    clash = " | ".join(f"(h{i}_{j} & h{k}_{j})"
                       for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1))
    return f"({placed}) -> ({clash})"


# (formula, {variant: (search nodes, restarts)}).  The first four are the
# fan(4), chain(4), ph(2) and depth_bad(6) benchmark families; each of the
# next five tells one pair of rule classes apart: propagation after impL,
# propagation before restart, the order of the right box rules (twice), and
# KB propagation before restart.  ph(3) pins the order of impL instances:
# one with an axiom premiss first (15,782 nodes in sort_key order).  The
# counts follow from the rule priority order; a change to that order must
# update them on purpose.  fan(8), chain(16) and imp_bad(40) close over 79,
# 67 and 81 subformulas, so search's masks over them are wider than one
# 64-bit machine word.
SEARCH_ORDER_PINS = [
    (" | ".join([f"[F]p{i}" for i in range(4)] + [f"[P]~[F]q{i}" for i in range(4)]),
     {KT: (866, 64), KTS: (866, 64), KB: (866, 64)}),
    ("p -> " + "[F]<P>" * 4 + "p", {KT: (34, 4), KTS: (34, 4), KB: (34, 4)}),
    (_ph(2), {KT: (70, 0), KTS: (70, 0), KB: (70, 0)}),
    ("[F]" * 6 + "p -> " + "[F]" * 7 + "p", {KT: (15, 0), KTS: (15, 0), KB: (33, 3)}),
    ("[F]p -> [F]((q -> r) -> p)", {KT: (8, 0), KTS: (8, 0), KB: (8, 0)}),
    ("[F]p -> [F]<P>q", {KT: (11, 1), KTS: (11, 1), KB: (11, 1)}),
    ("([F]p -> q) -> [P]((p -> p) -> r -> r)", {KT: (11, 0), KTS: (11, 0), KB: (10, 0)}),
    ("[F](([P]q -> [F][P]r) -> [F](r -> r))", {KT: (10, 0), KTS: (9, 0), KB: (18, 1)}),
    ("[P][P]false -> [P]q -> [P][P]q", {KT: (8, 0), KTS: (8, 0), KB: (7, 1)}),
    (_ph(3), {KTS: (376, 0)}),
    (" | ".join([f"[F]p{i}" for i in range(8)] + [f"[P]~[F]q{i}" for i in range(8)]),
     {KT: (2740070, 109600), KTS: (2740070, 109600), KB: (2740070, 109600)}),
    ("p -> " + "[F]<P>" * 16 + "p", {KT: (322, 16), KTS: (322, 16), KB: (322, 16)}),
    (" -> ".join([f"p{i}" for i in range(40)] + ["q"]), {KT: (41, 0), KTS: (41, 0), KB: (41, 0)}),
]


def test_search_order_pinned():
    for text, pins in SEARCH_ORDER_PINS:
        for v, pin in pins.items():
            st = prove(text, v).stats
            assert (st.nodes, st.restarts) == pin, (text, v)
    # Both closure rules apply at this leaf; id comes first.
    nodes = derivation_to_json(prove("p -> false -> p", KTS).derivation)["nodes"]
    assert [n["rule"] for n in nodes] == ["id", "impR", "impR"]


def test_pigeonhole_4_decides_inside_the_default_budget():
    # In sort_key order of impL instances, ph(4) ran into the 30 s limit.
    # prove has checked the derivation before it returns Valid.
    out = prove(_ph(4), KTS, Budget())
    assert isinstance(out, Valid)
    assert (out.stats.nodes, out.stats.restarts, out.derivation.height) == (2412, 0, 172)


def _search_record(text, v):
    out = prove(text, v)
    st = out.stats
    if isinstance(out, Valid):
        data = derivation_to_json(out.derivation)
        assert derivation_to_json(derivation_from_json(data)) == data
        cert = schema1(data)
    else:
        cert = out.model.to_json(out.root)
    return type(out).__name__, st.nodes, st.restarts, st.max_length, json.dumps(cert, sort_keys=True)


def test_search_order_does_not_depend_on_interning_history():
    families = [
        " | ".join([f"[F]p{i}" for i in range(3)] + [f"[P]~[F]q{i}" for i in range(3)]),
        "p -> " + "[F]<P>" * 3 + "p",
        _ph(2),
    ]
    first = {(t, v): _search_record(t, v) for t in families for v in (KT, KTS, KB)}
    gc.collect()
    # Rebuild every atom in reverse order, respelled copies and a large
    # unrelated formula, and keep them alive, so object ids and the intern
    # table differ from the first run's.
    names = sorted({n for t in families for n in atoms(parse(t))}, reverse=True)
    alive = [Atom(n) for n in names] + [Atom(f"zz_{n}") for n in names]
    alive.append(desugar(parse(_ph(3))))
    second = {(t, v): _search_record(t, v) for t in families for v in (KT, KTS, KB)}
    assert second == first


def _fan(n):
    return " | ".join([f"[F]p{i}" for i in range(n)] + [f"[P]~[F]q{i}" for i in range(n)])


def test_restart_sharing_decides_fan_7_and_8_inside_the_default_budget():
    # Without sharing, fan(7) expands 301,439 nodes and fan(8) would need
    # 2,740,070, beyond Budget().max_nodes; nodes still counts them all.
    for n, nodes, restarts, worlds, most_expanded in ((7, 301_439, 13_699, 15, 4_000),
                                                      (8, 2_740_070, 109_600, 17, 8_000)):
        out = prove(_fan(n), KTS, Budget())
        assert isinstance(out, Invalid)
        assert not semantics.forces(out.model, out.root, desugar(parse(_fan(n))))
        st = out.stats
        assert (st.nodes, st.restarts, len(out.model.worlds)) == (nodes, restarts, worlds)
        assert st.expanded < most_expanded and st.cache_hits > 0


# Both box choices at the root open a component that impL completes to the
# same contents, so the restart premiss under the second is the one under
# the first; the pruned tree keeps both branches, and each must give its own
# worlds, as a search that explored the premiss twice would.
SHARED_PREMISS_KEPT_TWICE = "[F](b -> a) -> [F](a -> b) -> [F]<P>[F]q -> [F]a | [F]b"


def test_shared_failed_restart_premiss_kept_twice_gets_its_own_worlds():
    kt_edges = [["w0", "w1"], ["w0", "w3"], ["w2", "w1"], ["w4", "w3"]]
    kb_edges = [["w0", "w1"], ["w0", "w3"], ["w1", "w2"], ["w3", "w4"]]
    for v, edges in ((KT, kt_edges), (KTS, kt_edges), (KB, kb_edges)):
        out = prove(SHARED_PREMISS_KEPT_TWICE, v)
        assert isinstance(out, Invalid)
        st = out.stats
        assert (st.nodes, st.restarts, st.expanded, st.cache_hits) == (33, 2, 30, 1)
        assert out.model.to_json(out.root) == {
            "worlds": ["w0", "w1", "w2", "w3", "w4"], "edges": edges, "root": "w0",
            "valuation": {"w1": {"q": True}, "w3": {"q": True}}}
        f = core_formula(parse(SHARED_PREMISS_KEPT_TWICE), v)
        assert not semantics.forces(out.model, out.root, f, symmetric=(v is KB))


def _restart_counts(tags):
    out = []
    while tags is not None:
        out.append(tags[0][1])
        tags = tags[1]
    return out


def test_shared_failed_restart_premiss_is_kept_by_reference():
    # The second occurrence of the repeated premiss is a view on the first
    # occurrence's pruned tree, not a copy of it; the model keeps the
    # worlds pinned above.
    for v in (KT, KTS, KB):
        g = core_formula(parse(SHARED_PREMISS_KEPT_TWICE), v)
        status, tree, _ = search(single([], [g]), v)
        assert status == FAILED
        restarts, stack = [], [tree]
        while stack:
            node = stack.pop()
            if node.rule in RESTART_RULES:
                restarts.append(node)
            stack.extend(reversed(node.children))
        first, second = (n.children[0] for n in restarts)
        assert isinstance(second, PrunedView) and second.shared is first
        # The view maps the first premiss's tags onto the second's: chains
        # of one length with the same restart counts.
        assert _restart_counts(second.source) == _restart_counts(second.target)
        assert (second.sequent, second.kind, second.children) == (
            first.sequent, first.kind, first.children)
        model, root = extract_model(tree, v)
        out = prove(SHARED_PREMISS_KEPT_TWICE, v)
        assert model.to_json(root) == out.model.to_json(out.root)


# SHARED_PREMISS_KEPT_TWICE's pattern nested three deep: the kept tree holds
# views on trees that hold views, so a leaf's tags are read through two
# renamings.  (variant, worlds, first 16 hex digits of the sha256 of the
# model JSON), recorded from a search that copied each later occurrence's
# pruned tree with fresh tags.
NESTED_SHARED_PREMISSES = (
    "[F](b -> a) -> [F](a -> b) -> [F]<P>([F](b -> a) -> [F](a -> b) -> [F]<P><F>("
    "[F](b -> a) -> [F](a -> b) -> [F]<P>[F]q -> [F]a | [F]b) -> [F]a | [F]b) -> [F]a | [F]b")
NESTED_SHARED_PINS = [
    (KT, 23, "93c388455bf9a625"),
    (KTS, 23, "955b78c78f2d6c4e"),
    (KB, 51, "46a4f73f7d23f7e1"),
]


def test_nested_views_read_tags_through_every_renaming():
    for v, worlds, digest in NESTED_SHARED_PINS:
        out = prove(NESTED_SHARED_PREMISSES, v)
        assert isinstance(out, Invalid) and len(out.model.worlds) == worlds
        model = json.dumps(out.model.to_json(out.root), sort_keys=True)
        assert hashlib.sha256(model.encode()).hexdigest()[:16] == digest
        g = core_formula(parse(NESTED_SHARED_PREMISSES), v)
        _, tree, _ = search(single([], [g]), v)
        nesting, stack = 0, [(tree, 0)]
        while stack:
            node, depth = stack.pop()
            depth += isinstance(node, PrunedView)
            nesting = max(nesting, depth)
            stack.extend((c, depth) for c in node.children)
        assert nesting == 2


_FAMILIES = {
    "fan": _fan,
    "chain": lambda n: "p -> " + "[F]<P>" * n + "p",
    "chain_bad": lambda n: "p -> " + "[F]<P>" * n + "q",
    "depth_bad": lambda n: "[F]" * n + "p -> " + "[F]" * (n + 1) + "p",
}

# (family, n, variant, verdict, nodes, restarts, max_length, first 16 hex
# digits of the sha256 of the certificate JSON, a derivation written out as
# the schema-1 tree), recorded from a search that
# explored every restart premiss anew: sharing repeated restart subtrees
# must change none of them.
CERTIFICATE_PINS = [
    ("fan", 1, KT, "Invalid", 11, 1, 2, "e4f906a2c0a34077"),
    ("fan", 1, KTS, "Invalid", 11, 1, 2, "e4f906a2c0a34077"),
    ("fan", 1, KB, "Invalid", 11, 1, 2, "eb70a85d559e8a36"),
    ("fan", 2, KT, "Invalid", 44, 4, 2, "7a8d6f43ad8d93ae"),
    ("fan", 2, KTS, "Invalid", 44, 4, 2, "7a8d6f43ad8d93ae"),
    ("fan", 2, KB, "Invalid", 44, 4, 2, "4c6c65e1f9845746"),
    ("fan", 3, KT, "Invalid", 175, 15, 2, "744b73f5b7b285d5"),
    ("fan", 3, KTS, "Invalid", 175, 15, 2, "744b73f5b7b285d5"),
    ("fan", 3, KB, "Invalid", 175, 15, 2, "8bc5be068a3a5efe"),
    ("fan", 4, KT, "Invalid", 866, 64, 2, "8bf28acdfa58d88c"),
    ("fan", 4, KTS, "Invalid", 866, 64, 2, "8bf28acdfa58d88c"),
    ("fan", 4, KB, "Invalid", 866, 64, 2, "a827ba001626aa0b"),
    ("fan", 5, KT, "Invalid", 5243, 325, 2, "38dc2430fcf0ec5d"),
    ("fan", 5, KTS, "Invalid", 5243, 325, 2, "38dc2430fcf0ec5d"),
    ("fan", 5, KB, "Invalid", 5243, 325, 2, "6d2b94443ecb46a4"),
    ("fan", 6, KT, "Invalid", 37216, 1956, 2, "c42191ac9769ea12"),
    ("fan", 6, KTS, "Invalid", 37216, 1956, 2, "c42191ac9769ea12"),
    ("fan", 6, KB, "Invalid", 37216, 1956, 2, "81602ab32cf54648"),
    ("fan", 7, KT, "Invalid", 301439, 13699, 2, "457a2844206d24ca"),
    ("fan", 7, KTS, "Invalid", 301439, 13699, 2, "457a2844206d24ca"),
    ("fan", 7, KB, "Invalid", 301439, 13699, 2, "d9cbd0b2bc20d879"),
    ("chain", 1, KT, "Valid", 7, 1, 2, "39e29c8fa0e664c7"),
    ("chain", 1, KTS, "Valid", 7, 1, 2, "61b6e33f8955997a"),
    ("chain", 1, KB, "Valid", 7, 1, 2, "7612645f683a9b9b"),
    ("chain", 2, KT, "Valid", 14, 2, 2, "741acb7adf2562ed"),
    ("chain", 2, KTS, "Valid", 14, 2, 2, "d27823d625667e0f"),
    ("chain", 2, KB, "Valid", 14, 2, 2, "7df6a5e45f0e4791"),
    ("chain", 3, KT, "Valid", 23, 3, 2, "cd20cc164b652da4"),
    ("chain", 3, KTS, "Valid", 23, 3, 2, "10d2b9147ab60e3c"),
    ("chain", 3, KB, "Valid", 23, 3, 2, "e287e0d48020b43d"),
    ("chain", 4, KT, "Valid", 34, 4, 2, "8543a715dbd27082"),
    ("chain", 4, KTS, "Valid", 34, 4, 2, "05a5f8576596e835"),
    ("chain", 4, KB, "Valid", 34, 4, 2, "c23c9be5de2c4ffd"),
    ("chain", 5, KT, "Valid", 47, 5, 2, "3b2872638906cb2c"),
    ("chain", 5, KTS, "Valid", 47, 5, 2, "2b7b235981c42abd"),
    ("chain", 5, KB, "Valid", 47, 5, 2, "3e16c8a3c4a93933"),
    ("chain", 6, KT, "Valid", 62, 6, 2, "9b949a4a0c5ea42b"),
    ("chain", 6, KTS, "Valid", 62, 6, 2, "5731fe822bd571df"),
    ("chain", 6, KB, "Valid", 62, 6, 2, "1a41659a34137201"),
    ("chain", 7, KT, "Valid", 79, 7, 2, "253e3730d6d05b93"),
    ("chain", 7, KTS, "Valid", 79, 7, 2, "a2855309761b9a20"),
    ("chain", 7, KB, "Valid", 79, 7, 2, "f1eefe609f3e5bad"),
    ("chain", 8, KT, "Valid", 98, 8, 2, "cf7a55e7a2ff9a86"),
    ("chain", 8, KTS, "Valid", 98, 8, 2, "3e61523220c14d6c"),
    ("chain", 8, KB, "Valid", 98, 8, 2, "ae3781b847a00d34"),
    ("chain_bad", 1, KT, "Invalid", 9, 1, 2, "3b7b04aa3b67915a"),
    ("chain_bad", 1, KTS, "Invalid", 9, 1, 2, "3b7b04aa3b67915a"),
    ("chain_bad", 1, KB, "Invalid", 9, 1, 2, "3b7b04aa3b67915a"),
    ("chain_bad", 2, KT, "Invalid", 18, 2, 2, "1101382caf064a3c"),
    ("chain_bad", 2, KTS, "Invalid", 18, 2, 2, "1101382caf064a3c"),
    ("chain_bad", 2, KB, "Invalid", 18, 2, 2, "1101382caf064a3c"),
    ("chain_bad", 3, KT, "Invalid", 29, 3, 2, "cad1a4e8b88c5cdd"),
    ("chain_bad", 3, KTS, "Invalid", 29, 3, 2, "cad1a4e8b88c5cdd"),
    ("chain_bad", 3, KB, "Invalid", 29, 3, 2, "cad1a4e8b88c5cdd"),
    ("chain_bad", 4, KT, "Invalid", 42, 4, 2, "9ad8bbf802dcbdaf"),
    ("chain_bad", 4, KTS, "Invalid", 42, 4, 2, "9ad8bbf802dcbdaf"),
    ("chain_bad", 4, KB, "Invalid", 42, 4, 2, "9ad8bbf802dcbdaf"),
    ("chain_bad", 5, KT, "Invalid", 57, 5, 2, "aeb7910708b1e0ce"),
    ("chain_bad", 5, KTS, "Invalid", 57, 5, 2, "aeb7910708b1e0ce"),
    ("chain_bad", 5, KB, "Invalid", 57, 5, 2, "aeb7910708b1e0ce"),
    ("chain_bad", 6, KT, "Invalid", 74, 6, 2, "7ed96fe86fde4c0e"),
    ("chain_bad", 6, KTS, "Invalid", 74, 6, 2, "7ed96fe86fde4c0e"),
    ("chain_bad", 6, KB, "Invalid", 74, 6, 2, "7ed96fe86fde4c0e"),
    ("chain_bad", 7, KT, "Invalid", 93, 7, 2, "b65432267b2f74d7"),
    ("chain_bad", 7, KTS, "Invalid", 93, 7, 2, "b65432267b2f74d7"),
    ("chain_bad", 7, KB, "Invalid", 93, 7, 2, "b65432267b2f74d7"),
    ("chain_bad", 8, KT, "Invalid", 114, 8, 2, "dee6af9f6abe85be"),
    ("chain_bad", 8, KTS, "Invalid", 114, 8, 2, "dee6af9f6abe85be"),
    ("chain_bad", 8, KB, "Invalid", 114, 8, 2, "dee6af9f6abe85be"),
    ("depth_bad", 2, KB, "Invalid", 10, 1, 4, "62133491743f5d10"),
    ("depth_bad", 4, KB, "Invalid", 20, 2, 6, "f5c6a8b9d63ab3af"),
    ("depth_bad", 6, KB, "Invalid", 33, 3, 8, "4d2e39e954aabda0"),
    ("depth_bad", 8, KB, "Invalid", 49, 4, 10, "10944ad594dae0b3"),
    ("depth_bad", 10, KB, "Invalid", 68, 5, 12, "37c7e48e90d5cbdc"),
    ("depth_bad", 12, KB, "Invalid", 90, 6, 14, "e6f033a830438f59"),
    ("depth_bad", 14, KB, "Invalid", 115, 7, 16, "aad074c7df1f4823"),
    ("depth_bad", 16, KB, "Invalid", 143, 8, 18, "8938af4c7af302ab"),
]


def test_restart_sharing_keeps_verdicts_counts_and_certificates():
    for family, n, v, verdict, nodes, restarts, max_length, digest in CERTIFICATE_PINS:
        kind, *counts, cert = _search_record(_FAMILIES[family](n), v)
        got = (kind, *counts, hashlib.sha256(cert.encode()).hexdigest()[:16])
        assert got == (verdict, nodes, restarts, max_length, digest), (family, n, v)


def test_search_heights_equal_the_heights_recomputed_bottom_up():
    # Search writes each node's height from the premisses it just derived;
    # cut elimination's CutMonitor reads them.  The slices include impL,
    # boxR1 and bboxR1 nodes whose first premiss is the taller one.
    formulas = ([_FAMILIES["chain"](n) for n in range(1, 9)] + corpus(555, 80)
                + corpus(4242, 120)
                + corpus(7, 300, atoms=("p", "q"), max_size=30, max_degree=6))
    taller_first = set()
    for f in formulas:
        for v in (KT, KTS, KB):
            try:
                out = prove(f, v)
            except SearchInvariantError:
                assert v is KT  # a known KT crash (item 1)
                continue
            if not isinstance(out, Valid):
                continue
            taller_first |= assert_heights_bottom_up(out.derivation, (f, v))
    assert {RuleId.IMP_L, RuleId.BOX_R1, RuleId.BBOX_R1} <= taller_first


def test_budget_stop_inside_a_restart_subtree_reports_the_whole_search():
    # A restart's subtree starts one component shorter, so a stop inside it
    # must read the maximum from the pending restarts below it.
    text = "p -> " + "[F]<P>" * 3 + "q"
    for v in (KTS, KT, KB):
        for n in range(2, 29):
            out = prove(text, v, Budget(max_nodes=n))
            assert isinstance(out, ResourceLimit), (v, n)
            assert (out.stats.expanded, out.stats.nodes, out.stats.max_length) == (n + 1, n + 1, 2)


def test_deciding_leaves_no_cyclic_garbage():
    # A self-recursive closure reaches itself through its cell, so each
    # call of one left a reference cycle that only the collector frees.
    # The slice holds every outcome under every variant, and a known KT
    # crash (item 10).  Objects made before the loop are frozen, so that
    # each collection walks only what the calls left.
    formulas = corpus(4242, 300, atoms=("p", "q"), max_size=40, max_degree=5)[:60]
    outcomes = set()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        for i, f in enumerate(formulas):
            for v in (KT, KTS, KB):
                for budget in (None, Budget(max_nodes=3)):
                    try:
                        outcomes.add((v, type(prove(f, v, budget)).__name__))
                    except SearchInvariantError:
                        outcomes.add((v, "SearchInvariantError"))
                    assert gc.collect() == 0, (i, v, budget)
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    assert outcomes == {(v, kind) for v in (KT, KTS, KB)
                        for kind in ("Valid", "Invalid", "ResourceLimit")} | {
        (KT, "SearchInvariantError")}


# Valid two-component sequents, (=>) LINK (A => A), on which search fails
# and the model it extracts does not falsify the sequent, so prove_sequent
# raises InternalModelError instead of answering.
_UNDERIVED_VALID_SEQUENTS = [
    pytest.param(text, link, v, id=f"{text} {link.value} {v.value}")
    for text, link, variants in (
        ("[P]p", Polarity.FORWARD, (KT, KTS)),
        ("[P](p -> p)", Polarity.FORWARD, (KT, KTS)),
        ("[F]p", Polarity.BACKWARD, (KT, KTS)),
        ("[F]p", Polarity.FORWARD, (KB,)),
    )
    for v in variants
]


def _empty_then_axiom(text, link):
    a = parse(text)
    return LinearNestedSequent(
        (Component(Multiset(), Multiset(), tag=0), Component(Multiset([a]), Multiset([a]), tag=1)),
        (link,))


@pytest.mark.parametrize("text,link,v", _UNDERIVED_VALID_SEQUENTS)
def test_underived_sequents_have_valid_formula_translations(text, link, v):
    assert isinstance(prove(formula_translation(_empty_then_axiom(text, link)), v), Valid)


@pytest.mark.xfail(strict=True, raises=InternalModelError,
                   reason="search fails on these valid sequents and extracts no countermodel")
@pytest.mark.parametrize("text,link,v", _UNDERIVED_VALID_SEQUENTS)
def test_prove_sequent_derives_valid_two_component_sequents(text, link, v):
    assert isinstance(prove_sequent(_empty_then_axiom(text, link), v), Valid)


# --- sequents on demand ------------------------------------------------------------

_BOTH_CORPORA = (corpus(4242, 300, atoms=("p", "q"), max_size=40, max_degree=5)
                 + corpus(7, 300, atoms=("p", "q"), max_size=30, max_degree=6))


@pytest.fixture
def builder_calls(monkeypatch):
    """Counts the calls of every premiss builder of the rule table."""
    calls = [0]
    for e in calculus._RULES.values():
        def counted(s, f, tags, build=e.premisses):
            calls[0] += 1
            return build(s, f, tags)
        monkeypatch.setattr(e, "premisses", counted)
    return calls


def test_a_failed_search_builds_no_premiss(builder_calls):
    # Search decides every step on links and masks; only a Derivation needs
    # a sequent, so imp_bad(40), which fails after 41 nodes, builds none
    # (one builder call per step, 40, when search built every premiss).
    text = " -> ".join([f"p{i}" for i in range(40)] + ["q"])
    out = prove(text, KTS)
    assert isinstance(out, Invalid) and out.stats.nodes == 41
    assert builder_calls[0] == 0


def test_a_valid_search_builds_only_the_premisses_its_derivation_concludes(builder_calls):
    # ph(3)'s derivation holds all 376 search nodes, 150 of them axioms, so
    # each of the other 226 steps still builds its premisses once, as when
    # search built every premiss.  chain(4) under KT keeps 22 of its 34
    # nodes; the box choices it fails on the way build nothing, so it takes
    # 17 builder calls, not 29.
    for text, v, nodes, size, calls in ((_ph(3), KTS, 376, 376, 226),
                                        ("p -> " + "[F]<P>" * 4 + "p", KT, 34, 22, 17)):
        builder_calls[0] = 0
        out = prove(text, v)
        assert isinstance(out, Valid)
        assert (out.stats.nodes, out.derivation.rule_applications()) == (nodes, size)
        assert builder_calls[0] == calls, (text, v)


def _kept_nodes(tree):
    """Every node of a failed tree, views included, once per occurrence."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def _chain(tags):
    out = []
    while tags is not None:
        out.append(tags[0][0])
        tags = tags[1]
    return out[::-1]


def _model_from_sequents(t):
    """extract_model's walk, reading each leaf's atoms and tags from its
    sequent, built on read, instead of from its masks and tag chain."""
    names, fresh = {}, itertools.count(-1, -1)

    def world(tag, renaming):
        if renaming is None:
            return tag
        if tag not in renaming:
            renaming[tag] = next(fresh)
        return renaming[tag]

    def names_of(s, renaming):
        return [names.setdefault(world(c.tag, renaming), f"w{len(names)}")
                for c in s.components]

    def unwrap(node, renaming):
        while isinstance(node, PrunedView):
            renaming = {a: world(b, renaming)
                        for a, b in zip(_chain(node.source), _chain(node.target))}
            node = node.shared
        return node, renaming

    t, renaming = unwrap(t, None)
    root = names_of(t.sequent, renaming)[0]
    edges, trues, stack = set(), {}, [(t, renaming)]
    while stack:
        node, renaming = unwrap(*stack.pop())
        while node.kind == "step":
            node, renaming = unwrap(node.children[0], renaming)
        if node.kind == "and":
            stack.extend((c, renaming) for c in reversed(node.children))
            continue
        s = node.sequent
        ws = names_of(s, renaming)
        for w, c in zip(ws, s.components):
            trues.setdefault(w, set()).update(f.name for f in c.ant.members() if isinstance(f, Atom))
        for i, link in enumerate(s.links):
            edges.add((ws[i], ws[i + 1]) if link is Polarity.FORWARD else (ws[i + 1], ws[i]))
    worlds = tuple(sorted(names.values(), key=lambda w: int(w[1:])))
    return semantics.KripkeModel(worlds, frozenset(edges),
                                 {w: frozenset(a) for w, a in trues.items() if a}), root


def test_kept_nodes_store_the_masks_of_the_sequent_they_build():
    # A kept node stores its links, masks and tag chain and builds its
    # sequent on read; under the end sequent's closure, that sequent has the
    # stored masks, links and tags.  The model read from the masks is the
    # one read from the built leaves.
    failed = 0
    for f in _BOTH_CORPORA:
        for v in (KT, KTS, KB):
            end = single([], [core_formula(f, v)], tag=0)
            try:
                status, tree, _ = search(end, v)
            except SearchInvariantError:
                assert v is KT  # the known KT crashes (item 1)
                continue
            if status != FAILED:
                continue
            failed += 1
            k = calculus.start(end, v)
            for node in _kept_nodes(tree):
                s = node.sequent
                assert (node.links, node.masks, node.tags, node.atoms) == (
                    _link_chain(s), k.masks(s), _tag_chain(s), k.atoms)
            model, root = extract_model(tree, v)
            expected, expected_root = _model_from_sequents(tree)
            assert model.to_json(root) == expected.to_json(expected_root), (f, v)
    assert failed > 0


def test_a_valid_answer_concludes_the_sequent_it_was_asked():
    for f in _BOTH_CORPORA:
        for v in (KT, KTS, KB):
            end = single([], [core_formula(f, v)], tag=0)
            try:
                out = prove_sequent(end, v)
            except SearchInvariantError:
                assert v is KT  # the known KT crashes (item 1)
                continue
            if isinstance(out, Valid):
                assert out.derivation.conclusion == end


def test_prove_sequent_rejects_a_derivation_of_another_sequent(monkeypatch):
    # A closed search whose derivation concludes some other sequent, here
    # one with an extra antecedent formula, is a failed self-check, not an
    # answer, even though that derivation passes the checker.
    s = single([p], [p])
    other = search(single([p, q], [p]), KTS)
    assert check(other[1], KTS)
    monkeypatch.setattr(prover, "search", lambda *args: other)
    with pytest.raises(SearchInvariantError, match="concludes"):
        prove_sequent(s, KTS)
