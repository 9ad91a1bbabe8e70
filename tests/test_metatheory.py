import hashlib
import json
from collections import Counter
from functools import lru_cache

import pytest

from conftest import (
    assert_heights_bottom_up,
    fails_fast_on_recursion,
    principal_place,
    rules_of,
    schema1,
)
from tenseprove import metatheory
from tenseprove.calculus import CalculusVariant, RuleId
from tenseprove.formula import (
    Atom,
    BlackBox,
    Bottom,
    Box,
    Implies,
    Polarity,
    complexity,
    parse,
    print_ascii,
)
from tenseprove.generate import corpus
from tenseprove.kernel import is_instance
from tenseprove.metatheory import (
    CutMonitor,
    Derivation,
    InvalidDerivation,
    NoSharedFormula,
    NotACutFormulaOccurrence,
    NotDuplicated,
    PositionOutOfRange,
    StructuralMismatch,
    TransformError,
    check,
    contract,
    cut,
    derivation_from_json,
    derivation_to_json,
    derivation_to_latex,
    generalised_init,
    merge,
    to_ktstar,
    weaken,
)
from tenseprove.prover import Valid, prove, prove_sequent
from tenseprove.sequent import Component, LinearNestedSequent, component, single

KT, KTS = CalculusVariant.KT, CalculusVariant.KT_STAR
FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
p, q, r = Atom("p"), Atom("q"), Atom("r")


def seq(*parts):
    comps = [parts[0]]
    links = []
    for link, c in zip(parts[1::2], parts[2::2]):
        links.append(link)
        comps.append(c)
    return LinearNestedSequent(tuple(comps), tuple(links))


def id_node(ants, succs):
    """An id node whose principal is the first antecedent atom also in the
    succedent, or else the first antecedent formula."""
    principal = next((f for f in ants if f in succs), ants[0])
    return Derivation(single(ants, succs), RuleId.ID, principal)


def test_check_id():
    assert check(id_node([p], [p]), KT)
    assert not check(id_node([p], [q]), KT)


def test_check_reports_first_failure_path():
    bad = Derivation(single([], [Implies(p, p)]), RuleId.IMP_R, Implies(p, p),
                     (id_node([q], [q]),))
    res = check(bad, KT)
    assert not res and res.path == () and "impR" in res.message
    # tampered premiss under a correct root
    s = single([], [Implies(p, p)])
    prem = single([p], [Implies(p, p), p])
    okay = Derivation(s, RuleId.IMP_R, Implies(p, p), (Derivation(prem, RuleId.ID, p),))
    assert check(okay, KT)
    tampered = Derivation(s, RuleId.IMP_R, Implies(p, p), (Derivation(prem, RuleId.BOT_L, Bottom()),))
    res2 = check(tampered, KT)
    assert not res2 and res2.path == (0,)
    # the right rule and premisses under a principal the conclusion lacks
    wrong = Derivation(s, RuleId.IMP_R, Implies(q, q), (Derivation(prem, RuleId.ID, p),))
    res3 = check(wrong, KT)
    assert not res3 and res3.path == () and "impR on q -> q" in res3.message


def test_check_reports_the_path_of_a_deep_failure():
    d = prove(parse("(p -> q) -> (p -> q)"), KT).derivation
    mid = d.premisses[0]
    impl = mid.premisses[0]
    assert [d.rule, mid.rule, impl.rule] == [RuleId.IMP_R, RuleId.IMP_R, RuleId.IMP_L]
    # the second premiss of impL, three levels down, gets a botL it cannot have
    bad_leaf = Derivation(impl.premisses[1].conclusion, RuleId.BOT_L, Bottom())

    def rebuilt(node, prems):
        return Derivation(node.conclusion, node.rule, node.principal, prems)

    bad = rebuilt(d, (rebuilt(mid, (rebuilt(impl, (impl.premisses[0], bad_leaf)),)),))
    assert check(d, KT)
    res = check(bad, KT)
    assert not res and res.path == (0, 0, 1) and "invalid botL" in res.message


def test_check_reports_a_shared_node_by_the_path_it_is_first_popped_on():
    # A bboxR1 node whose left premiss x is also reached through its right
    # premiss: ew, ew, impL's second premiss, boxR2.  The walk pops the
    # right premiss first, so it first pops x five levels down, not as the
    # root's premiss 0, where it was first pushed.
    a_to_a, box = Implies(p, p), Box(BlackBox(p))
    s = seq(component([a_to_a], [box]), FWD, component([], [BlackBox(p)]))
    x = Derivation(seq(component([a_to_a], [box, p]), FWD, component([], [BlackBox(p)])),
                   RuleId.ID, p)
    grown = Derivation(single([a_to_a], [box, p]), RuleId.BOX_R2, box, (x,))
    closed = Derivation(single([a_to_a, p], [box]), RuleId.ID, p)
    imp_l = Derivation(single([a_to_a], [box]), RuleId.IMP_L, a_to_a, (closed, grown))
    right = Derivation(s, RuleId.EW, None, (imp_l,))
    right = Derivation(s.extend(BWD, component([], [p])), RuleId.EW, None, (right,))
    res = check(Derivation(s, RuleId.BBOX_R1, BlackBox(p), (x, right)), KT)
    assert not res and res.path == (1, 0, 0, 1, 0) and "invalid id on p" in res.message


def test_height_definition():
    leaf = id_node([p], [p])
    assert leaf.height == 0
    two = Derivation(single([p, Implies(p, p)], [p]), RuleId.IMP_L, Implies(p, p),
                     (id_node([p, Implies(p, p), p], [p]),
                      id_node([p, Implies(p, p)], [p, p])))
    assert two.height == 1


def test_weaken_id():
    out = weaken(id_node([p], [p]), 0, [q], [])
    assert check(out, KT)
    assert q in out.conclusion.components[0].ant


def test_weaken_position_out_of_range():
    with pytest.raises(PositionOutOfRange):
        weaken(id_node([p], [p]), 3, [q], [])


def restart_derivation():
    """(q => q) \\P\\ ([F]x => )  closed through the restart."""
    x = Atom("x")
    concl = seq(component([q], [q]), BWD, component([Box(x)], []))
    prem = single([q, x], [q])
    return Derivation(concl, RuleId.BOX_L2, Box(x), (Derivation(prem, RuleId.ID, q),))


def test_weaken_across_restart_vanishes_upstairs():
    d = restart_derivation()
    assert check(d, KT)
    out = weaken(d, 1, [p], [r])
    assert check(out, KT)
    assert p in out.conclusion.components[1].ant
    assert out.premisses[0].conclusion.length == 1
    assert p not in out.premisses[0].conclusion.components[0].ant


def test_weaken_height_never_grows_on_prover_output():
    count = 0
    for f in corpus(910, 400):
        out = prove(f, KT)
        if not isinstance(out, Valid):
            continue
        d = out.derivation
        w = weaken(d, 0, [q], [r])
        assert w.height <= d.height
        count += 1
        c = contract(weaken(w, 0, [], [q, q]), 0, "right", q)
        assert c.height <= w.height
        if count >= 60:
            break
    assert count >= 20


def test_contract_id():
    out = contract(id_node([p, p], [p]), 0, "left", p)
    assert check(out, KT)
    assert out.conclusion.components[0].ant.count(p) == 1


def test_contract_requires_duplicate():
    with pytest.raises(NotDuplicated):
        contract(id_node([p], [p]), 0, "left", p)


def test_contract_rejects_an_unknown_side():
    d = id_node([p, p], [p, p])
    with pytest.raises(ValueError):
        contract(d, 0, "sideways", p)
    assert contract(d, 0, "right", p).conclusion == single([p, p], [p])


def test_weaken_then_contract_round_trip():
    d = restart_derivation()
    w = weaken(d, 0, [q], [])
    c = contract(w, 0, "left", q)
    assert check(c, KT)
    assert c.conclusion.components[0].ant == d.conclusion.components[0].ant


def test_generalised_init_atom_is_id():
    g = generalised_init(single([p, q], [p, r]), p)
    assert g.rule is RuleId.ID and g.height == 0


def test_generalised_init_box_structure():
    s = single([Box(p), q], [Box(p)])
    g = generalised_init(s, Box(p))
    assert check(g, KT)
    assert g.rule is RuleId.BOX_R2 and {RuleId.BOX_L1, RuleId.ID} <= rules_of(g)


def test_generalised_init_implication_structure():
    f = Implies(p, q)
    g = generalised_init(single([f], [f]), f)
    assert check(g, KT)
    assert g.rule is RuleId.IMP_R and g.premisses[0].rule is RuleId.IMP_L


def test_generalised_init_backward_link_uses_two_premiss_rule():
    s = seq(component([q], []), BWD, component([Box(p)], [Box(p)]))
    g = generalised_init(s, Box(p))
    assert check(g, KT)
    assert g.rule is RuleId.BOX_R1


def test_generalised_init_requires_shared_formula():
    with pytest.raises(NoSharedFormula):
        generalised_init(single([p], [q]), p)


def test_generalised_init_height_bounded_and_conclusion_shape():
    for a in [p, Implies(p, q), Box(p), BlackBox(Implies(p, q)), Box(Box(p))]:
        s = single([a, r], [a])
        g = generalised_init(s, a)
        assert g.height <= 4 * (complexity(a) + 1)
        assert a in g.conclusion.last.ant and a in g.conclusion.last.succ


def test_to_ktstar_on_restart_only_derivation_is_renamed_only():
    d = restart_derivation()
    out = to_ktstar(d)
    assert check(out, KTS)
    assert out.rule is RuleId.BOX_L2


def test_to_ktstar_drops_left_premisses():
    s = seq(component([q], []), BWD, component([Box(p)], [Box(p)]))
    g = generalised_init(s, Box(p))
    out = to_ktstar(g)
    assert check(out, KTS)
    assert RuleId.BOX_R1 not in rules_of(out)
    assert out.height <= g.height


def test_to_ktstar_on_two_hundred_prover_derivations():
    done = 0
    for f in corpus(808, 1200):
        out = prove(f, KT)
        if isinstance(out, Valid):
            star = to_ktstar(out.derivation)
            assert check(star, KTS)
            done += 1
            if done >= 200:
                break
    assert done >= 200


def test_to_ktstar_keeps_a_shared_node_shared():
    f = corpus(4242, 300, atoms=("p", "q"), max_size=40, max_degree=5)[156]
    d = prove(f, KT).derivation
    star = to_ktstar(d)
    assert len(derivation_to_json(star)["nodes"]) <= len(derivation_to_json(d)["nodes"])
    assert check(star, KTS)


def test_to_ktstar_rejects_a_kb_derivation():
    d = prove("p -> [F]<F>p", CalculusVariant.KB).derivation
    assert RuleId.KB_BOX_R in rules_of(d)
    with pytest.raises(ValueError, match="kb.boxR"):
        to_ktstar(d)


def test_to_ktstar_takes_no_frame_per_level():
    # A walk with one frame per level raises RecursionError at height 1401
    # under this limit.
    d = prove("[F]" * 700 + "p -> " + "[F]" * 700 + "p", KT).derivation
    assert d.height == 1401
    with fails_fast_on_recursion(300):
        star = to_ktstar(d)
    assert star.height == d.height and check(star, KTS)


def test_cut_id_id():
    out = cut(id_node([p], [p]), id_node([p], [p]), p)
    assert check(out, KT)
    assert out.conclusion.render() == "p => p"


def test_cut_derived_example():
    o1 = prove_sequent(single([p], [Implies(q, p)]), KT)
    o2 = prove_sequent(single([Implies(q, p), q], [p]), KT)
    out = cut(o1.derivation, o2.derivation, Implies(q, p))
    assert check(out, KT)
    assert out.conclusion.components[0].ant.count(p) == 1
    assert out.conclusion.components[0].ant.count(q) == 1
    # the conclusion is independently provable
    assert isinstance(prove_sequent(out.conclusion, KT), Valid)


def test_cut_boxed_principal_reduces():
    a = Box(p)
    s1 = seq(component([q], [q]), BWD, component([a], [a]))
    s2 = seq(component([r], [r]), BWD, component([a, p], [a, p]))
    d1 = generalised_init(s1, a)
    d2 = generalised_init(s2, a)
    assert d1.rule is RuleId.BOX_R1
    mon = CutMonitor()
    out = cut(d1, d2, a, mon)
    assert check(out, KT)
    assert mon.calls > 0 and not mon.violations


def test_cut_rejects_structure_mismatch():
    d1 = id_node([p], [p])
    d2 = Derivation(seq(component([p], [p]), FWD, component([p], [p])), RuleId.ID, p)
    with pytest.raises(StructuralMismatch):
        cut(d1, d2, p)


def test_cut_rejects_missing_occurrence():
    with pytest.raises(NotACutFormulaOccurrence):
        cut(id_node([p], [p]), id_node([q], [q]), q)


def test_cut_self_cut_fuzz():
    """Cut every small provable (f => f) against (f, p => p) and against
    itself.  The first cut's right derivation closes by id at its root; the
    self-cut shifts right through whole prover derivations, so between them
    the cuts reach every passive and principal case of the shift procedure,
    EW below and at the cut component on the right included."""
    done = 0
    for f in corpus(13579, 150, max_size=6, max_degree=2):
        o1 = prove_sequent(single([f], [f]), KT)
        if not isinstance(o1, Valid):
            continue
        o2 = prove_sequent(single([f, p], [p]), KT)
        for d2 in (o2.derivation, o1.derivation):
            mon = CutMonitor()
            out = cut(o1.derivation, d2, f, mon)
            assert check(out, KT) and not mon.violations
        done += 1
    assert done >= 100


# (formula, CutMonitor.calls, SHA-256 prefix of the output's sorted JSON,
# written out as the schema-1 tree) for cut(d, d, a).  The first list takes d = generalised_init(a => a) on the
# first 20 formulas of corpus(1270, 100, max_size=8, max_degree=2); the second
# takes d from the KT prover on (a => a): the first of its formulas reaches
# every case of the shift procedure, the second tells the order of the two
# axioms in a terminal closure apart.  The figures pin the procedure's case
# order and output; a change to either must update them on purpose.
CUT_OUTPUT_PINS = [
    ("[P][P]((q -> p) -> q -> p)", 133, "7fea7154b1603558"),
    ("[P][F]((p -> p) -> p)", 129, "3ac1db7d2f9d9d42"),
    ("[F][F](((r -> q) -> r) -> r)", 119, "ac413d8974786e69"),
    ("[P][F]((q -> r) -> p -> p)", 195, "1f9d029d1999e6b3"),
    ("[P]p", 8, "755b2469a6cf95bd"),
    ("[F](false -> [P]((r -> q) -> false))", 75, "e4910a63b74ff4e6"),
    ("[F][F]((p -> r) -> r -> p)", 114, "bf1d7a9d65786a29"),
    ("[F][F](r -> r) -> q", 76, "144bcc64fcda03f6"),
    ("r", 1, "bd2054fbd37dcad5"),
    ("[P][F]((q -> false) -> r) -> q", 200, "ae63e8c7b24aad53"),
    ("p -> q", 14, "17203cf658c7ed6d"),
    ("[P]r -> r", 29, "075d1233daa107f0"),
    ("[F][P]((q -> false -> p) -> q)", 171, "29146d3112fd748c"),
    ("[F]q -> (false -> false) -> r", 80, "522f180720758e68"),
    ("[P][F]r", 27, "1d2384bead634d9c"),
    ("r -> p", 14, "d67bcda6c4ba1164"),
    ("q", 1, "a445d82912e70785"),
    ("q -> [P]r", 25, "f2599aad9dc3f377"),
    ("[F][F](p -> q -> q -> false)", 112, "8bf190d31631c252"),
    ("p", 1, "aac5d9b7fda8b865"),
]

PROVER_CUT_PINS = [
    ("[P](q -> [F]p)", 134, "1f40ebe1a186ff7d"),
    ("[F][F]((false -> q) -> r)", 153, "6edba864512ea7b2"),
]


def _self_cut_record(d, a):
    mon = CutMonitor()
    out = cut(d, d, a, mon)
    data = derivation_to_json(out)
    assert derivation_to_json(derivation_from_json(data)) == data
    text = json.dumps(schema1(data), sort_keys=True).encode()
    return mon.calls, hashlib.sha256(text).hexdigest()[:16]


def test_cut_output_pinned():
    formulas = corpus(1270, 100, max_size=8, max_degree=2)[:len(CUT_OUTPUT_PINS)]
    for a, (text, calls, digest) in zip(formulas, CUT_OUTPUT_PINS):
        assert print_ascii(a) == text
        d = generalised_init(single([a], [a]), a)
        assert _self_cut_record(d, a) == (calls, digest), text
    for text, calls, digest in PROVER_CUT_PINS:
        a = parse(text)
        d = prove_sequent(single([a], [a]), KT).derivation
        assert _self_cut_record(d, a) == (calls, digest), text


# Over all 100 formulas of corpus(1270, 100, max_size=8, max_degree=2):
# the total CutMonitor.calls of cut(d, d, a), d = generalised_init(a => a),
# and the SHA-256 of the JSON list of per-formula records.  A record is the
# name of the exception raised, or [monitor calls, SHA-256 of the schema-1
# JSON of the cut output, SHA-256 of the schema-1 JSON of the weaken,
# contract and to_ktstar chain on it].
CUT_CORPUS_PIN = (7031, "3ad33be8544bf66759923914be0b84816dd604c2bfb1ed290c34e23ed3a82f19")


def _schema1_digest(d) -> str:
    text = json.dumps(schema1(derivation_to_json(d)), sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()


def _transform_record(a) -> list:
    try:
        d = generalised_init(single([a], [a]), a)
        mon = CutMonitor()
        c = cut(d, d, a, mon)
        k = contract(weaken(weaken(c, 0, [a], [a]), 0, [a], []), 0, "left", a)
        t = to_ktstar(k)
    except Exception as e:
        return [type(e).__name__]
    return [mon.calls, _schema1_digest(c), _schema1_digest(t)]


def test_cut_corpus_pinned():
    records = [_transform_record(a) for a in corpus(1270, 100, max_size=8, max_degree=2)]
    calls = sum(rec[0] for rec in records if len(rec) == 3)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (calls, digest) == CUT_CORPUS_PIN


def test_transform_heights_equal_the_heights_recomputed_bottom_up():
    # The transforms and certificate replay write each node's height past
    # the constructor, and CutMonitor's measure reads them.  The draw is
    # the benchmark's transform workload.
    for a in corpus(1270, 100, max_size=8, max_degree=2):
        d = generalised_init(single([a], [a]), a)
        c = cut(d, d, a)
        w = weaken(weaken(c, 0, [a], [a]), 0, [a], [])
        k = contract(w, 0, "left", a)
        t = to_ktstar(k)
        replayed = derivation_from_json(derivation_to_json(c))
        for name, out in (("generalised_init", d), ("cut", c), ("weaken", w),
                          ("contract", k), ("to_ktstar", t), ("replay", replayed)):
            assert_heights_bottom_up(out, (print_ascii(a), name))
    # In KT's derivation of this formula a two-premiss box rule's dropped
    # premiss is the taller, so to_ktstar's output is one lower.
    d = prove("[F][P](p -> p)", KT).derivation
    t = to_ktstar(d)
    assert (d.height, t.height) == (4, 3)
    assert_heights_bottom_up(t)


@lru_cache(maxsize=None)
def _cut_calls():
    """Every (cl, cr, pos, a, target) of the targets cut builds through
    merge's loop and every target its _close_terminal closes, over two
    corpora of KT cuts.  The first is cut(d, d, a) with d =
    generalised_init(a => a) on all 100 formulas of
    corpus(1270, 100, max_size=8, max_degree=2).  The second starts from two
    tagged components, (r => q) then (a => a) or (a, p => a, p), over either
    link, on the first 40 of those formulas: its cuts meet sequents of
    different lengths, cut positions below the last component, merged tags
    that differ between the two sides, and terminal targets whose last
    component closes by neither axiom."""
    targets, terminals = [], []
    cut_target, close_terminal = metatheory._merge, metatheory._close_terminal

    def record_target(cl, cr, pos, a, memo):
        t = cut_target(cl, cr, pos, a, memo)
        targets.append((cl, cr, pos, a, t))
        return t

    def record_terminal(target, fallbacks):
        terminals.append(target)
        return close_terminal(target, fallbacks)

    formulas = corpus(1270, 100, max_size=8, max_degree=2)
    metatheory._merge, metatheory._close_terminal = record_target, record_terminal
    try:
        for a in formulas:
            d = generalised_init(single([a], [a]), a)
            cut(d, d, a)
        for a in formulas[:40]:
            for link in (FWD, BWD):
                d1 = generalised_init(seq(component([r], [q], tag=1), link,
                                          component([a], [a], tag=2)), a)
                d2 = generalised_init(seq(component([r], [q], tag=3), link,
                                          component([a, p], [a, p], tag=4)), a)
                cut(d1, d1, a)
                cut(d1, d2, a)
                cut(d2, d1, a)
    finally:
        metatheory._merge, metatheory._close_terminal = cut_target, close_terminal
    return targets, terminals


def test_cut_target_is_the_merge_less_the_cut_occurrences():
    targets, _ = _cut_calls()
    assert any(cl.length < cr.length for cl, cr, *_ in targets)
    assert any(cl.length > cr.length for cl, cr, *_ in targets)
    assert any(0 < pos < max(cl.length, cr.length) - 1 for cl, cr, pos, *_ in targets)
    assert any(cl.components[0].tag != cr.components[0].tag for cl, cr, *_ in targets)
    for cl, cr, pos, a, t in targets:
        m = merge(cl, cr)
        c = m.components[pos]
        want = m.replace_component(pos, Component(c.ant.remove_one(a), c.succ.remove_one(a),
                                                  tag=c.tag))
        assert t == want
        assert [x.tag for x in t.components] == [x.tag for x in want.components]


def _first_axiom(target):
    """(rule, principal, prefix length) of the first axiom instance the
    kernel accepts: prefixes from the longest, botL before id, principals
    in sort_key order."""
    for k in range(target.length, 0, -1):
        s = target.prefix(k)
        for rule in (RuleId.BOT_L, RuleId.ID):
            for f in s.last.ant.distinct():
                if is_instance(s, rule, f, (), KT):
                    return rule, f, k
    return None


def test_terminal_closure_is_the_first_axiom_instance():
    _, terminals = _cut_calls()
    cases = Counter()
    for t in terminals:
        want = _first_axiom(t)
        if want is None:
            cases["fallback"] += 1
            with pytest.raises(TransformError):
                metatheory._close_terminal(t, ())
            continue
        out = metatheory._close_terminal(t, ())
        assert out.conclusion == t
        while out.rule is RuleId.EW:
            out = out.premisses[0]
        assert (out.rule, out.principal, out.conclusion.length) == want
        rule, _, k = want
        last = t.components[k - 1]
        shared = [f for f in last.ant.members() if isinstance(f, Atom) and f in last.succ]
        cases[rule] += 1
        cases["shorter prefix"] += k < t.length
        cases["two shared atoms"] += len(shared) > 1
        cases["botL over id"] += rule is RuleId.BOT_L and bool(shared)
    assert all(cases[c] for c in (RuleId.BOT_L, RuleId.ID, "fallback", "shorter prefix",
                                  "two shared atoms", "botL over id")), cases


def test_cut_output_is_cut_free_and_concludes_merge():
    # cut-freeness is by construction: the rule vocabulary has no cut, so it
    # is enough that the output checks and concludes the merge minus the cut
    # occurrences.
    o1 = prove_sequent(single([], [Implies(p, p)]), KT)
    o2 = prove_sequent(single([Implies(p, p), q], [q]), KT)
    out = cut(o1.derivation, o2.derivation, Implies(p, p))
    assert check(out, KT)
    assert out.conclusion.components[0].ant.count(q) == 1
    assert Implies(p, p) not in out.conclusion.components[0].ant


def test_derivation_json_roundtrip():
    s = seq(component([q], []), BWD, component([Box(p)], [Box(p)]))
    g = generalised_init(s, Box(p))
    data = derivation_to_json(g)
    back = derivation_from_json(data)
    assert check(back, KT)
    assert derivation_to_json(back) == data
    assert data["sequent"] == s.to_json() and [n["rule"] for n in data["nodes"]][-1] == "boxR1"
    assert all(j < i for i, n in enumerate(data["nodes"]) for j in n["premisses"])


# A KB formula whose search shares a closed restart subtree: its derivation
# has 54 distinct nodes and 56 as a tree.
SHARED_SUBTREE_KB = ("[P](((([F](p -> p) -> [F][P][F](p -> q)) -> p) -> p) -> [F]false) -> "
                     "[P][P][F]([F][F]p -> [F]([P](q -> q) -> [P]q))")


def _tree_size(tree: dict) -> int:
    return 1 + sum(_tree_size(t) for t in tree["premisses"])


def test_derivation_json_writes_a_shared_node_once():
    d = prove(SHARED_SUBTREE_KB, CalculusVariant.KB).derivation
    data = derivation_to_json(d)
    assert len(data["nodes"]) == 54 and _tree_size(schema1(data)) == 56
    back = derivation_from_json(json.loads(json.dumps(data)))
    assert check(back, CalculusVariant.KB) and derivation_to_json(back) == data


def test_weaken_keeps_a_shared_node_shared():
    d = prove(SHARED_SUBTREE_KB, CalculusVariant.KB).derivation
    w = weaken(d, 0, [Atom("zz")])
    assert len(derivation_to_json(w)["nodes"]) == 54 and w.rule_applications() == 56


def _shared_components_kept(d, out) -> int:
    """Walk d and an edit's output out in parallel (an edit keeps the
    tree's shape) and check that each component d shares between a node
    and its premiss, at one position, is one object again in out; returns
    the number of shared components checked."""
    checked = 0
    stack, seen = [(d, out)], set()
    while stack:
        x, y = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        for px, py in zip(x.premisses, y.premisses):
            for i, (cx, cp) in enumerate(zip(x.conclusion.components, px.conclusion.components)):
                if cx is cp:
                    assert y.conclusion.components[i] is py.conclusion.components[i]
                    checked += 1
            stack.append((px, py))
    return checked


def test_edits_keep_a_shared_component_shared():
    # The edit walk edits a component once for each change, so what the
    # input shares stays shared, whether the change reaches it or not.
    checked = 0
    for a in corpus(1270, 100, max_size=8, max_degree=2):
        d = generalised_init(single([a], [a]), a)
        w = weaken(d, 0, [q], [r])
        checked += _shared_components_kept(d, w)
        checked += _shared_components_kept(w, contract(weaken(w, 0, [q], []), 0, "left", q))
        c = cut(d, d, a)
        checked += _shared_components_kept(c, weaken(c, 0, [a], [a]))
    assert checked > 1000


def test_cut_merges_each_pair_of_components_once():
    # Within one cut call, two targets merged from the same component
    # objects at one position (and at the cut position, on the same cut
    # formula) hold the same merged component.
    calls = []
    merge_loop = metatheory._merge

    def record(cl, cr, pos, a, memo):
        t = merge_loop(cl, cr, pos, a, memo)
        calls.append((cl, cr, pos, a, memo, t))
        return t

    metatheory._merge = record
    try:
        for a in corpus(1270, 100, max_size=8, max_degree=2):
            d = generalised_init(single([a], [a]), a)
            cut(d, d, a)
    finally:
        metatheory._merge = merge_loop
    merged, seen = 0, {}
    for cl, cr, pos, a, memo, t in calls:
        for i, (x, y) in enumerate(zip(cl.components, cr.components)):
            merged += 1
            # The calls list holds every memo, so no two share an id.
            key = (id(memo), id(x), id(y), a if i == pos else None)
            assert seen.setdefault(key, t.components[i]) is t.components[i], t.render()
    # About half of the merges repeat a pair.
    assert len(seen) < merged * 0.6, (len(seen), merged)


def test_cut_keeps_nothing_across_calls():
    for a in corpus(1270, 30, max_size=8, max_degree=2):
        d = generalised_init(single([a], [a]), a)
        inputs = {id(c) for n in _nodes(d) for c in n.conclusion.components}
        c1, c2 = cut(d, d, a), cut(d, d, a)
        assert derivation_to_json(c1) == derivation_to_json(c2)
        assert _tags(c1) == _tags(c2)
        built = {id(c) for n in _nodes(c1) for c in n.conclusion.components} - inputs
        assert built and not built & {id(c) for n in _nodes(c2) for c in n.conclusion.components}


def _nodes(d):
    """d's distinct nodes, in a fixed order."""
    out, stack, seen = [], [d], set()
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            out.append(n)
            stack.extend(n.premisses)
    return out


def _tags(d):
    return [[(c.tag, c.restarts) for c in n.conclusion.components] for n in _nodes(d)]


def test_rule_applications_counts_a_shared_node_at_every_occurrence():
    d = prove(SHARED_SUBTREE_KB, CalculusVariant.KB).derivation
    assert d.rule_applications() == 56
    # Each level uses the one below twice: 5 distinct nodes, 31 in the tree.
    f = Implies(p, p)
    d = id_node([p], [p])
    for _ in range(4):
        d = Derivation(single([p, f], [p]), RuleId.IMP_L, f, (d, d))
    assert d.rule_applications() == 31


def _mp_certificate():
    """The schema-2 JSON of ( => p -> (p -> q) -> q): nodes id q, id p,
    impL [0, 1], impR [2], impR [3]."""
    data = derivation_to_json(prove("p -> (p -> q) -> q", KT).derivation)
    assert [n["rule"] for n in data["nodes"]] == ["id", "id", "impL", "impR", "impR"]
    return data


def _replay_failure(data):
    with pytest.raises(InvalidDerivation) as e:
        derivation_from_json(data)
    return e.value.result


def _rejection(data, v=KT):
    """What `tenseprove check` reports on data under v: the failure of its
    replay, else the checker's result on the replayed derivation."""
    try:
        d = derivation_from_json(data)
    except InvalidDerivation as e:
        return e.result
    return check(d, v)


def test_replay_rejects_a_node_without_its_instance():
    # Replay judges no node, so the checker rejects the first two.
    data = _mp_certificate()
    data["nodes"][2]["principal"] = "q -> p"  # absent from the conclusion
    derivation_from_json(data)
    res = _rejection(data)
    assert not res and res.path == (0, 0) and "invalid impL on q -> p" in res.message
    data = _mp_certificate()
    data["nodes"][0]["principal"], data["nodes"][1]["principal"] = "p", "q"
    assert _rejection(data).path == (0, 0, 1)  # the last premiss is checked first
    data = _mp_certificate()
    data["nodes"][2]["premisses"] = [0]
    res = _replay_failure(data)
    assert res.path == (0, 0) and "2 premisses of impL" in res.message
    data = _mp_certificate()
    data["nodes"][2]["principal"] = "[F]p"  # another connective
    res = _replay_failure(data)
    assert res.path == (0, 0) and "cannot build the premisses of impL on [F]p" in res.message


def _tree_paths(data):
    """The premiss path of each node of a certificate whose nodes form a
    tree, by node index."""
    nodes = data["nodes"]
    paths = {len(nodes) - 1: ()}
    for i in range(len(nodes) - 1, -1, -1):
        for k, j in enumerate(nodes[i]["premisses"]):
            assert j not in paths, "a shared node"
            paths[j] = paths[i] + (k,)
    return paths


def _misplacement_certificates(rule):
    """Certificates with nodes of `rule`, whose conclusions hold formulas
    of every kind away from where the rules take their principals:
    generalised_init on (context) link (a, r => a, p) with a = q -> B B p,
    for each box B over the link its two-premiss right rule acts across,
    and for ew a derivation search assembles under KT."""
    if rule is RuleId.EW:
        return [derivation_to_json(prove("[F](p -> [P]q) -> [F]p -> [F][P]q", KT).derivation)]
    context = component([q, Implies(q, r), Box(q), BlackBox(q)],
                        [r, Implies(r, q), Box(r), BlackBox(r)])
    out = []
    for box, link in ((Box, BWD), (BlackBox, FWD)):
        a = Implies(q, box(box(p)))
        last = component([a, r], [a, p])
        out.append(derivation_to_json(generalised_init(seq(context, link, last), a)))
    return out


@pytest.mark.parametrize("rule", [
    RuleId.ID, RuleId.IMP_L, RuleId.BOX_L2, RuleId.BBOX_L2,  # the last antecedent
    RuleId.IMP_R, RuleId.BOX_R2, RuleId.BBOX_R2, RuleId.BOX_R1, RuleId.BBOX_R1,  # last succedent
    RuleId.BOX_L1, RuleId.BBOX_L1,  # the second-last antecedent
    RuleId.EW,  # no principal at all
], ids=lambda rule: rule.value)
def test_a_misplaced_principal_is_rejected_at_its_node(rule):
    """Each node of `rule`, given in turn each formula of its conclusion of
    the principal's kind that is not where the rule takes it (for ew, any
    formula), is rejected by replay or by the checker with its own premiss
    path."""
    tried = 0
    for data in _misplacement_certificates(rule):
        assert _rejection(data)
        paths = _tree_paths(data)
        root = derivation_from_json(data)
        for i, entry in enumerate(data["nodes"]):
            if entry["rule"] != rule.value:
                continue
            node = root
            for k in paths[i]:
                node = node.premisses[k]
            c = node.conclusion
            held = {f for comp in c.components
                    for ms in (comp.ant, comp.succ) for f in ms.members()}
            if rule is not RuleId.EW:
                place = principal_place(rule, c)
                held = {f for f in held if type(f) is type(node.principal)
                        and not (f in place and (rule is not RuleId.ID or f in c.last.succ))}
            for f in held:
                tampered = json.loads(json.dumps(data))
                tampered["nodes"][i]["principal"] = print_ascii(f)
                res = _rejection(tampered)
                assert not res and res.path == paths[i], (rule, print_ascii(f), res)
                tried += 1
    assert tried >= 2, tried


def test_replay_rejects_a_shared_node_with_two_conclusions():
    data = _mp_certificate()
    data["nodes"][2]["premisses"] = [0, 0]
    res = _replay_failure(data)
    assert res.path == (0, 0, 1) and "node 0 is reached as" in res.message


@pytest.mark.parametrize("edit,message", [
    (lambda nodes: nodes[2].update(premisses=[0, 3]), "not an earlier node"),
    (lambda nodes: nodes[2].update(premisses=[0, -1]), "not an earlier node"),
    (lambda nodes: nodes[3].update(premisses=[1]), "node 2 is not reached"),
    (lambda nodes: nodes.clear(), "at least one node"),
])
def test_replay_rejects_a_malformed_node_list(edit, message):
    data = _mp_certificate()
    edit(data["nodes"])
    with pytest.raises(ValueError, match=message):
        derivation_from_json(data)


def test_replay_names_a_schema_1_derivation():
    tree = schema1(_mp_certificate())
    with pytest.raises(ValueError, match="schema 1"):
        derivation_from_json(tree)


def test_latex_output_mentions_rules():
    g = generalised_init(single([p], [p]), p)
    tex = derivation_to_latex(g)
    assert tex.startswith(r"\begin{prooftree}") and "id" in tex


def test_latex_output_pinned():
    # Each node's lines follow its premisses' subtrees, in order; a node
    # shared by two premisses is written out at each (56 nodes as a tree).
    cases = [("p -> (p -> q) -> q", KTS, 14, "ed1da7ac8ed24061"),
             (SHARED_SUBTREE_KB, CalculusVariant.KB, 124, "2c94ffa2378498a8")]
    for text, v, lines, digest in cases:
        tex = derivation_to_latex(prove(text, v).derivation)
        assert (tex.count("\n") + 1, hashlib.sha256(tex.encode()).hexdigest()[:16]) == (
            lines, digest), text


def test_latex_takes_no_frame_per_level():
    # decide --output latex on depth(11000) under KT* exited 4 with a
    # RecursionError.  Latex output does not check the derivation, so a
    # chain of 30,000 nodes on one sequent will do.
    s = single([p], [p])
    d = metatheory._derivation(s, RuleId.ID, p, (), 0)
    for h in range(1, 30_001):
        d = metatheory._derivation(s, RuleId.EW, None, (d,), h)
    with fails_fast_on_recursion():
        lines = derivation_to_latex(d).split("\n")
    assert len(lines) == 3 + 2 * 30_001
    assert lines[1:4] == [r"\AxiomC{}", r"\RightLabel{\scriptsize id}", r"\UnaryInfC{\texttt{p => p}}"]
    assert lines[-3:] == [r"\RightLabel{\scriptsize ew}", r"\UnaryInfC{\texttt{p => p}}",
                          r"\end{prooftree}"]
