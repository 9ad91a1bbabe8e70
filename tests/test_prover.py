import gc
import json

from tenseprove import semantics
from tenseprove.calculus import CalculusVariant, RuleId
from tenseprove.formula import Atom, BlackBox, Box, atoms, parse, desugar
from tenseprove.generate import corpus
from tenseprove.metatheory import check, derivation_to_json, to_ktstar
from tenseprove.prover import (
    FAILED,
    Budget,
    Invalid,
    ResourceLimit,
    Valid,
    extract_model,
    prove,
    prove_sequent,
    prune,
    search,
)
from tenseprove.sequent import single

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
    assert status == "closed" and tree.kind == "leaf"
    assert stats.nodes == 1


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
    assert all(c.children[0].kind == "leaf" for c in t.children)


def test_prune_keeps_restarted_branch():
    x = desugar(parse("~[F]r2"))
    s = single([], [Box(p), Box(q), BlackBox(x)])
    status, tree, _ = search(s, KTS)
    t = prune(tree)
    # the restart collapses the and-node to the shorter branch
    assert t.kind == "step" and t.rule is RuleId.BOX_L2
    assert t.sequent.length == 1


def test_extract_model_fan():
    status, tree, _ = search(fan_sequent(), KTS)
    model, root = extract_model(prune(tree), KTS)
    assert len(model.successors(root)) == 2
    assert len(model.predecessors(root)) == 1
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
    assert len(model.successors(root)) >= 2 and len(model.predecessors(root)) >= 1


def test_example4_sequent_uses_restart_rules():
    s = single([r], [Box(p), Box(q), desugar(parse("[P]~[F]~r"))])
    out = prove_sequent(s, KT)
    assert isinstance(out, Valid)
    used = set(out.derivation.rules_used())
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
    used = set(out.derivation.rules_used())
    assert RuleId.BOX_R1 in used and RuleId.EW in used


def test_certification_on_seeded_corpus():
    for f in corpus(4242, 120):
        out = prove(f, KTS)
        if isinstance(out, Valid):
            assert check(out.derivation, KTS)
        else:
            assert isinstance(out, Invalid)
            assert not semantics.forces(out.model, out.root, f)


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
    assert set(st.to_json()) == {"nodes", "restarts", "max_length"}


def _ph(n):
    placed = " & ".join(f"({' | '.join(f'h{i}_{j}' for j in range(n))})" for i in range(n + 1))
    clash = " | ".join(f"(h{i}_{j} & h{k}_{j})"
                       for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1))
    return f"({placed}) -> ({clash})"


# (formula, {variant: (search nodes, restarts)}).  The first four are the
# fan(4), chain(4), ph(2) and depth_bad(6) benchmark families; each of the
# others tells one pair of rule classes apart: propagation after impL,
# propagation before restart, the order of the right box rules (twice), and
# KB propagation before restart.  The counts follow from the rule priority
# order; a change to that order must update them on purpose.
SEARCH_ORDER_PINS = [
    (" | ".join([f"[F]p{i}" for i in range(4)] + [f"[P]~[F]q{i}" for i in range(4)]),
     {KT: (866, 64), KTS: (866, 64), KB: (866, 64)}),
    ("p -> " + "[F]<P>" * 4 + "p", {KT: (34, 4), KTS: (34, 4), KB: (34, 4)}),
    (_ph(2), {KT: (240, 0), KTS: (240, 0), KB: (240, 0)}),
    ("[F]" * 6 + "p -> " + "[F]" * 7 + "p", {KT: (15, 0), KTS: (15, 0), KB: (33, 3)}),
    ("[F]p -> [F]((q -> r) -> p)", {KT: (8, 0), KTS: (8, 0), KB: (8, 0)}),
    ("[F]p -> [F]<P>q", {KT: (11, 1), KTS: (11, 1), KB: (11, 1)}),
    ("([F]p -> q) -> [P]((p -> p) -> r -> r)", {KT: (11, 0), KTS: (11, 0), KB: (10, 0)}),
    ("[F](([P]q -> [F][P]r) -> [F](r -> r))", {KT: (10, 0), KTS: (9, 0), KB: (18, 1)}),
    ("[P][P]false -> [P]q -> [P][P]q", {KT: (8, 0), KTS: (8, 0), KB: (7, 1)}),
]


def test_search_order_pinned():
    for text, pins in SEARCH_ORDER_PINS:
        for v, pin in pins.items():
            st = prove(text, v).stats
            assert (st.nodes, st.restarts) == pin, (text, v)
    # Both closure rules apply at this leaf; id comes first.
    rules = prove("p -> false -> p", KTS).derivation.rules_used()
    assert rules == [RuleId.IMP_R, RuleId.IMP_R, RuleId.ID]


def _search_record(text, v):
    out = prove(text, v)
    st = out.stats
    cert = (derivation_to_json(out.derivation) if isinstance(out, Valid)
            else out.model.to_json(out.root))
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
