import random
from collections import namedtuple

import pytest
from hypothesis import given

from conftest import principal_place, small_sequents
from tenseprove import calculus, prover
from tenseprove.calculus import (
    _PRIORITY,
    _RULES,
    RESTART_RULES,
    CalculusVariant,
    RuleId,
    VariantMismatch,
    added,
    premisses,
    replaced,
)
from tenseprove.formula import (
    Atom, BlackBox, Bottom, Box, Implies, Polarity, desugar, parse, sort_key)
from tenseprove.semantics import KripkeModel, falsifies
from tenseprove.sequent import Component, LinearNestedSequent, Multiset, component, single
from tenseprove.generate import corpus
from tenseprove.kernel import is_instance
from tenseprove.metatheory import Derivation, check

KT, KTS, KB = CalculusVariant.KT, CalculusVariant.KT_STAR, CalculusVariant.KB
FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
p, q, r = Atom("p"), Atom("q"), Atom("r")

Instance = namedtuple("Instance", "rule principal premisses")


def applicable_rules(s, v, saturating):
    """Every rule instance whose conclusion matches s, in priority order and
    within a rule by the principal's sort_key: `premisses` on each formula
    of s where the rule takes its principal (for id, an atom on both sides).

    With saturating=True only the principals each rule's side condition
    (the mask its `open` gives) keeps are taken, and EW is excluded; this is
    the enumeration backward search works from.
    """
    k = calculus.start(s, v)
    masks = k.masks(s)
    last, before = masks
    prev = before[0] if s.links else None
    out = []
    for r in _PRIORITY[v]:
        if r is RuleId.EW:
            if not saturating and s.length >= 2:
                out.append(Instance(r, None, premisses(s, r, None)))
            continue
        e = _RULES[r]
        place = principal_place(r, s)
        for f in k.formulas:
            if f not in place or r is RuleId.ID and f not in s.last.succ:
                continue
            prems = premisses(s, r, f)
            if prems is not None and (not saturating
                                      or k.bits[f] & e.open(k.kinds[e.kind], last, prev)):
                out.append(Instance(r, f, prems))
    return out


def first_steps(s, v):
    """Search's saturation step at s, (entry, principal) or None, and its
    right box steps, over the closure of s."""
    k = calculus.start(s, v)
    masks = k.masks(s)
    link = s.links[-1] if s.links else None
    return calculus.scan(k, v, link, masks), calculus.box_choices(k, v, link, masks)


def seq(*parts):
    comps = [parts[0]]
    links = []
    for link, c in zip(parts[1::2], parts[2::2]):
        links.append(link)
        comps.append(c)
    return LinearNestedSequent(tuple(comps), tuple(links))


def test_saturated_sequent_offers_the_three_box_instances():
    # r => [F]p, [F]q, [P]X with X the expanded negated box
    x = desugar(parse("~[F]~r"))
    s = single([r], [Box(p), Box(q), BlackBox(x)])
    _, steps = first_steps(s, KT)
    assert [e.rule for e, _ in steps] == [RuleId.BOX_R2, RuleId.BOX_R2, RuleId.BBOX_R2]
    assert [f for _, f in steps] == [Box(p), Box(q), BlackBox(x)]


def test_id_instance():
    insts = applicable_rules(single([p], [p]), KT, True)
    assert insts[0].rule is RuleId.ID and insts[0].premisses == ()


def test_bbox_l2_deletes_last_component():
    s = seq(component(), FWD, component([BlackBox(p)], []))
    insts = [i for i in applicable_rules(s, KT, True) if i.rule is RuleId.BBOX_L2]
    assert len(insts) == 1
    prem = insts[0].premisses[0]
    assert prem.length == 1 and p in prem.components[0].ant


@pytest.mark.parametrize("v,rule,link,box", [
    (KT, RuleId.BOX_L2, BWD, Box),
    (KT, RuleId.BBOX_L2, FWD, BlackBox),
    (KB, RuleId.KB_BOX_L2, FWD, Box),
])
def test_restart_absorber_counts_the_restart(v, rule, link, box):
    # The absorber gains the body; the count the search watchdog bounds is
    # kept in search's tag chain (test_prover's restart watchdog tests).
    before = Component(Multiset([q]), Multiset([r]))
    s = seq(before, link, component([box(p)], []))
    inst = next(i for i in applicable_rules(s, v, True) if i.rule is rule)
    absorber = inst.premisses[0].last
    assert absorber.ant == Multiset([q, p]) and absorber.succ == before.succ


def test_imp_r_premiss_keeps_principal():
    f = Implies(p, q)
    s = single([], [f])
    inst = next(i for i in applicable_rules(s, KT, True) if i.rule is RuleId.IMP_R)
    prem = inst.premisses[0]
    assert f in prem.last.succ and p in prem.last.ant and q in prem.last.succ


def test_box_r1_two_premisses():
    s = seq(component([p], [q]), BWD, component([], [Box(p)]))
    inst = next(i for i in applicable_rules(s, KT, False) if i.rule is RuleId.BOX_R1)
    left, right = inst.premisses
    assert left.length == 2 and p in left.components[0].succ
    assert right.length == 3 and right.links[-1] is FWD
    assert right.components[-1].succ.count(p) == 1 and not right.components[-1].ant


def test_ew_drops_last_only_when_not_saturating():
    s = seq(component([p], []), FWD, component([q], []))
    non_sat = [i for i in applicable_rules(s, KT, False) if i.rule is RuleId.EW]
    sat = [i for i in applicable_rules(s, KT, True) if i.rule is RuleId.EW]
    assert len(non_sat) == 1 and non_sat[0].premisses[0].length == 1
    assert not sat


def test_side_conditions_block_reapplication():
    # impR already applied: A in Gamma and B in Delta
    f = Implies(p, q)
    s = single([p], [f, q])
    assert all(i.rule is not RuleId.IMP_R for i in applicable_rules(s, KT, True))
    assert any(i.rule is RuleId.IMP_R for i in applicable_rules(s, KT, False))
    # impL blocked when either side formula is present
    g = Implies(p, q)
    s2 = single([g, q], [])
    assert all(i.rule is not RuleId.IMP_L for i in applicable_rules(s2, KT, True))
    # propagation blocked when the body is already there
    s3 = seq(component([Box(p)], []), FWD, component([p], []))
    assert all(i.rule is not RuleId.BOX_L1 for i in applicable_rules(s3, KT, True))
    # restart blocked when the absorber already has the body
    s4 = seq(component([p], []), BWD, component([Box(p)], []))
    assert all(i.rule is not RuleId.BOX_L2 for i in applicable_rules(s4, KT, True))
    # two-premiss box rules blocked when the body is already in the
    # second-last succedent, offered when it is not
    for rule, link, box in ((RuleId.BOX_R1, BWD, Box), (RuleId.BBOX_R1, FWD, BlackBox)):
        for before, offered in (([p], False), ([q], True)):
            s5 = seq(component([], before), link, component([], [box(p)]))
            assert [e.rule for e, _ in first_steps(s5, KT)[1]] == ([rule] if offered else [])
    # KB propagation and restart blocked when the body is already in place
    for rule, blocked, open_ in (
            (RuleId.KB_BOX_L1, seq(component([Box(p)], []), FWD, component([p], [])),
             seq(component([Box(p)], []), FWD, component())),
            (RuleId.KB_BOX_L2, seq(component([p], []), FWD, component([Box(p)], [])),
             seq(component(), FWD, component([Box(p)], [])))):
        assert first_steps(blocked, KB)[0] is None
        assert first_steps(open_, KB)[0][0].rule is rule


def test_variant_availability():
    s = seq(component(), FWD, component([], [Box(p)]))
    kt_rules = {i.rule for i in applicable_rules(s, KT, False)}
    kts_rules = {i.rule for i in applicable_rules(s, KTS, False)}
    kb_rules = {i.rule for i in applicable_rules(s, KB, False)}
    assert RuleId.BOX_R2 in kt_rules and RuleId.BOX_R not in kt_rules
    assert RuleId.BOX_R in kts_rules and RuleId.BOX_R2 not in kts_rules
    assert RuleId.KB_BOX_R in kb_rules and RuleId.BOX_R not in kb_rules


def test_kb_rejects_backward_links():
    s = seq(component(), BWD, component())
    with pytest.raises(VariantMismatch):
        applicable_rules(s, KB, True)
    closed = seq(component(), BWD, component([p], [p]))
    assert is_instance(closed, RuleId.ID, p, (), KT)
    assert not is_instance(closed, RuleId.ID, p, (), KB)


def test_is_valid_instance_trivia():
    assert is_instance(single([p], [p]), RuleId.ID, p, (), KT)
    assert not is_instance(single([p], [q]), RuleId.ID, p, (), KT)
    assert not is_instance(single([p], [p]), RuleId.BOX_R, p, (), KT)
    assert not is_instance(single([p, q], [p, q]), RuleId.ID, r, (), KT)


def test_instance_builds_the_named_principal_only():
    s = single([], [Implies(p, q), Implies(q, p)])
    (prem,) = premisses(s, RuleId.IMP_R, Implies(q, p))
    assert q in prem.last.ant and p in prem.last.succ and Implies(p, q) not in prem.last.ant
    # Where the principal sits is the kernel's to judge: impL builds on a
    # succedent implication, and the kernel rejects the node.
    built = premisses(s, RuleId.IMP_L, Implies(p, q))
    assert len(built) == 2 and not is_instance(s, RuleId.IMP_L, Implies(p, q), built, KT)
    # No premisses when the builder cannot run: a principal of another
    # connective, a rule that does not act across the last link, or ew
    # with a principal or on one component.
    assert premisses(s, RuleId.IMP_R, p) is None
    assert premisses(s, RuleId.BOX_R1, Box(p)) is None
    assert premisses(s, RuleId.BOX_L1, Box(p)) is None
    ew = seq(component([p], []), FWD, component([q], []))
    assert premisses(ew, RuleId.BOX_L2, Box(q)) is None
    assert premisses(ew, RuleId.EW, None) == (ew.drop_last(),)
    assert premisses(ew, RuleId.EW, q) is None and premisses(s, RuleId.EW, None) is None


@pytest.mark.parametrize("closing, ant, succ", [
    (Implies(r, q), [r], []),                # premiss 2 closes by id
    (Implies(r, q), [], [q]),                # premiss 1 closes by id
    (Implies(r, Bottom()), [], []),          # premiss 1 closes by botL
])
def test_search_takes_an_imp_l_instance_with_an_axiom_premiss_first(closing, ant, succ):
    first = Implies(p, Atom("s"))            # first in sort_key order; closes neither premiss
    assert sort_key(first) < sort_key(closing)
    c = single([first, closing] + ant, succ)
    for v in (KT, KTS, KB):
        e, f = first_steps(c, v)[0]
        assert (e.rule, f) == (RuleId.IMP_L, closing)
        assert is_instance(c, RuleId.IMP_L, closing, e.premisses(c, f), v)
    # Replay is unchanged: each principal names its schema instance.
    for f in (first, closing):
        assert premisses(c, RuleId.IMP_L, f) == (
            single([first, closing, *ant, f.right], succ),
            single([first, closing, *ant], [*succ, f.left]))


# Each rule's side condition read from the multisets, as the rule states
# it: the reference the bit scan is checked against.
_BODY_NOT_IN_LAST = lambda f, last, prev: f.body not in last.ant  # noqa: E731
_BODY_NOT_IN_PREV = lambda f, last, prev: f.body not in prev.ant  # noqa: E731
_BODY_NOT_IN_PREV_SUCC = lambda f, last, prev: f.body not in prev.succ  # noqa: E731
_ANYWAY = lambda f, last, prev: True  # noqa: E731
_REFERENCE_SIDE_CONDITION = {
    RuleId.ID: lambda f, last, prev: f in last.succ,
    RuleId.BOT_L: _ANYWAY,
    RuleId.IMP_R: lambda f, last, prev: f.left not in last.ant or f.right not in last.succ,
    RuleId.IMP_L: lambda f, last, prev: f.right not in last.ant and f.left not in last.succ,
    RuleId.BOX_L1: _BODY_NOT_IN_LAST, RuleId.BBOX_L1: _BODY_NOT_IN_LAST,
    RuleId.KB_BOX_L1: _BODY_NOT_IN_LAST,
    RuleId.BOX_L2: _BODY_NOT_IN_PREV, RuleId.BBOX_L2: _BODY_NOT_IN_PREV,
    RuleId.KB_BOX_L2: _BODY_NOT_IN_PREV,
    RuleId.BOX_R1: _BODY_NOT_IN_PREV_SUCC, RuleId.BBOX_R1: _BODY_NOT_IN_PREV_SUCC,
    RuleId.BOX_R2: _ANYWAY, RuleId.BBOX_R2: _ANYWAY, RuleId.BOX_R: _ANYWAY,
    RuleId.BBOX_R: _ANYWAY, RuleId.KB_BOX_R: _ANYWAY,
}


def _fresh_principals(s, e):
    """The principals rule entry e may take in s, read from its multisets:
    every candidate at the rule's place that the reference side condition
    keeps, in sort_key order."""
    last = s.last
    prev = s.components[-2] if s.links else None
    place = principal_place(e.rule, s)
    keeps = _REFERENCE_SIDE_CONDITION[e.rule]
    return tuple(f for f in sorted(place.distinct(), key=sort_key)
                 if type(f) is e.kind and keeps(f, last, prev))


def _reference_pick(rule, principals, last):
    """Search's choice among the principals: for impL the first with an
    axiom premiss (its right side bottom or an atom of the succedent, or
    its left side an atom of the antecedent), else the first."""
    if rule is RuleId.IMP_L:
        for f in principals:
            if (f.right == Bottom() or type(f.right) is Atom and f.right in last.succ
                    or type(f.left) is Atom and f.left in last.ant):
                return f
    return principals[0]


def test_incremental_scan_agrees_with_the_saturating_generators(monkeypatch):
    """At every node search expands on a corpus, under each variant, the
    last link and masks carried from the parent equal those of the node's
    sequent, built here from its handle, the scan takes the rule and
    principal the multiset reference (`_fresh_principals`,
    `_reference_pick`) gives, and the box choices are the reference's, in
    order."""
    scan, box_choices = calculus.scan, calculus.box_choices
    counts = {"nodes": 0, "box": 0}
    node = {}

    def link(s):
        return s.links[-1] if s.links else None

    def watch(h, links, masks):
        # Search hands over each node's handle, link chain and masks before
        # it scans; the sequent is built from the handle the way a
        # derivation builds it.
        node.update(s=prover._sequent(h), link=links[0], masks=masks)

    def node_sequent(k, last_link, masks):
        s = node["s"]
        assert (last_link, masks) == (node["link"], node["masks"]), s.render()
        assert last_link == link(s) and masks == k.masks(s), s.render()
        return s

    def checked_scan(k, v, last_link, masks):
        s = node_sequent(k, last_link, masks)
        step = scan(k, v, last_link, masks)
        entries = calculus._SCANS[v][link(s)]
        expected = next(((e.rule, _reference_pick(e.rule, fs, s.last))
                         for e, fs in ((e, _fresh_principals(s, e)) for e in entries) if fs), None)
        assert (step and (step[0].rule, step[1])) == expected, s.render()
        counts["nodes"] += 1
        return step

    def checked_box_choices(k, v, last_link, masks):
        s = node_sequent(k, last_link, masks)
        steps = box_choices(k, v, last_link, masks)
        assert [(e.rule, f) for e, f in steps] == [
            (e.rule, f) for e in calculus._BOX[v][link(s)] for f in _fresh_principals(s, e)
        ], s.render()
        counts["box"] += 1
        return steps

    monkeypatch.setattr(prover, "_watch", watch)
    monkeypatch.setattr(calculus, "scan", checked_scan)
    monkeypatch.setattr(calculus, "box_choices", checked_box_choices)
    formulas = (corpus(7, 300, atoms=("p", "q"), max_size=30, max_degree=6)
                + corpus(4242, 100, atoms=("p", "q"), max_size=40, max_degree=5))
    for f in formulas:
        for v in (KT, KTS, KB):
            try:
                prover.prove(f, v)
            except prover.SearchInvariantError:
                assert v is KT  # the known KT crashes; the nodes before them are checked
    assert counts["nodes"] > 23_000 and counts["box"] > 7_000, counts


def example4_derivation():
    """Hand-built derivation of (r => [F]p, [F]q, [P]~[F]~r), desugared."""
    notr = Implies(r, Bottom())
    x = Implies(Box(notr), Bottom())          # ~[F]~r
    base = [Box(p), Box(q), BlackBox(x)]
    s0 = single([r], base)
    s1 = LinearNestedSequent(
        (s0.components[0], component([], [x])), (BWD,))
    s2 = LinearNestedSequent(
        (s0.components[0], component([Box(notr)], [x, Bottom()])), (BWD,))
    s3 = single([r, notr], base)
    s4 = single([r, notr, Bottom()], base)
    s5 = single([r, notr], base + [r])
    d = Derivation(s0, RuleId.BBOX_R2, BlackBox(x), (
        Derivation(s1, RuleId.IMP_R, x, (
            Derivation(s2, RuleId.BOX_L2, Box(notr), (
                Derivation(s3, RuleId.IMP_L, notr, (
                    Derivation(s4, RuleId.BOT_L, Bottom()),
                    Derivation(s5, RuleId.ID, r),
                )),
            )),
        )),
    ))
    return d


def test_example4_derivation_validates_node_by_node():
    d = example4_derivation()
    stack = [d]
    while stack:
        n = stack.pop()
        assert is_instance(
            n.conclusion, n.rule, n.principal, [c.conclusion for c in n.premisses], KT)
        stack.extend(n.premisses)
    assert check(d, KT)


def test_is_valid_instance_rejects_forged_instance():
    s = single([p], [p])
    inst = applicable_rules(s, KT, False)[0]
    assert is_instance(s, inst.rule, inst.principal, inst.premisses, KT)
    other = single([], [Implies(q, q)])
    bad = next(i for i in applicable_rules(other, KT, False) if i.rule is RuleId.IMP_R)
    assert not is_instance(s, bad.rule, bad.principal, bad.premisses, KT)


@given(small_sequents(max_len=2))
def test_progress_under_saturation(s):
    for inst in applicable_rules(s, KT, True):
        for prem in inst.premisses:
            same = prem.links == s.links and all(
                a.ant == b.ant and a.succ == b.succ
                for a, b in zip(prem.components, s.components))
            assert not same


@given(small_sequents(max_len=3))
def test_end_active(s):
    """Every premiss keeps activity at the end: its last component differs
    from the conclusion's, or the rule deleted/created the last component."""
    for inst in applicable_rules(s, KT, False):
        for prem in inst.premisses:
            if prem.length != s.length:
                continue
            changed = not (prem.last.ant == s.last.ant and prem.last.succ == s.last.succ)
            has_principal_at_end = (
                inst.principal is not None
                and (inst.principal in s.last.ant or inst.principal in s.last.succ)
            )
            assert changed or has_principal_at_end


def _random_model(rng, k, atoms=("p", "q")):
    worlds = tuple(f"w{i}" for i in range(k))
    edges = frozenset((a, b) for a in worlds for b in worlds if rng.random() < 0.45)
    val = {w: frozenset(a for a in atoms if rng.random() < 0.5) for w in worlds}
    return KripkeModel(worlds, edges, {w: s for w, s in val.items() if s})


def test_rule_local_soundness_propositional_and_restart():
    """Whenever a model falsifies the conclusion of a propositional,
    propagation, or restart instance, the same model falsifies a premiss."""
    rng = random.Random(99)
    from tenseprove.generate import random_core_formula

    checked = 0
    while checked < 1000:
        n = rng.randint(1, 3)
        comps = tuple(
            component(
                [random_core_formula(rng, ("p", "q"), 4, 1) for _ in range(rng.randint(0, 2))],
                [random_core_formula(rng, ("p", "q"), 4, 1) for _ in range(rng.randint(0, 2))],
            )
            for _ in range(n)
        )
        links = tuple(rng.choice([FWD, BWD]) for _ in range(n - 1))
        s = LinearNestedSequent(comps, links)
        local = frozenset((RuleId.IMP_R, RuleId.IMP_L, RuleId.BOX_L1,
                           RuleId.BBOX_L1)) | RESTART_RULES
        insts = [i for i in applicable_rules(s, KT, False) if i.rule in local]
        if not insts:
            continue
        inst = rng.choice(insts)
        m = _random_model(rng, rng.randint(1, 3))
        w = rng.choice(m.worlds)
        if falsifies(m, w, s):
            assert any(falsifies(m, w, prem) for prem in inst.premisses), (
                s.render(), inst.rule)
        checked += 1


def _collapse_sequent(s):
    def cb(f):
        from tenseprove.formula import collapse_backward
        return collapse_backward(f)
    comps = tuple(
        component([cb(f) for f in c.ant.distinct() for _ in range(c.ant.count(f))],
                  [cb(f) for f in c.succ.distinct() for _ in range(c.succ.count(f))])
        for c in s.components)
    return LinearNestedSequent(comps, tuple(FWD for _ in s.links))


_KB_IMAGE = {
    RuleId.ID: RuleId.ID, RuleId.BOT_L: RuleId.BOT_L, RuleId.IMP_R: RuleId.IMP_R,
    RuleId.IMP_L: RuleId.IMP_L, RuleId.EW: RuleId.EW,
    RuleId.BOX_R: RuleId.KB_BOX_R, RuleId.BBOX_R: RuleId.KB_BOX_R,
    RuleId.BOX_L1: RuleId.KB_BOX_L1, RuleId.BBOX_L1: RuleId.KB_BOX_L1,
    RuleId.BOX_L2: RuleId.KB_BOX_L2, RuleId.BBOX_L2: RuleId.KB_BOX_L2,
}


@given(small_sequents(max_len=3))
def test_collapsed_kt_instances_are_kb_instances(s):
    """Identifying the two modalities and both link directions maps every
    starred-rule instance onto a KB instance."""
    collapsed = _collapse_sequent(s)
    kb_keys = {
        (i.rule, tuple(pr.render() for pr in i.premisses))
        for i in applicable_rules(collapsed, KB, False)
    }
    for i in applicable_rules(s, KTS, False):
        key = (_KB_IMAGE[i.rule],
               tuple(_collapse_sequent(pr).render() for pr in i.premisses))
        assert key in kb_keys, (s.render(), i.rule)


@given(small_sequents(max_len=3))
def test_kb_instances_are_collapse_images(s):
    """Every KB instance arises by collapsing a starred-rule instance on a
    preimage sequent: the sequent itself, except that the symmetry restart
    comes from the backward restart with the principal read as a past box."""
    collapsed = _collapse_sequent(s)
    for i in applicable_rules(collapsed, KB, False):
        if i.rule is RuleId.KB_BOX_L2:
            ants = _expanded(collapsed.last.ant)
            ants[ants.index(i.principal)] = BlackBox(i.principal.body)
            pre = replaced(
                collapsed, collapsed.length - 1,
                component(ants, _expanded(collapsed.last.succ)),
            )
            pre_insts = applicable_rules(pre, KTS, False)
            match = [
                j for j in pre_insts
                if j.rule is RuleId.BBOX_L2 and j.principal == BlackBox(i.principal.body)
            ]
        else:
            pre_insts = applicable_rules(collapsed, KTS, False)
            match = [j for j in pre_insts if _KB_IMAGE.get(j.rule) is i.rule
                     and j.principal == i.principal]
        assert match, (collapsed.render(), i.rule)
        want = tuple(pr.render() for pr in i.premisses)
        got = {tuple(_collapse_sequent(pr).render() for pr in j.premisses) for j in match}
        assert want in got, (collapsed.render(), i.rule)


def _expanded(ms):
    out = []
    for f in ms.distinct():
        out.extend([f] * ms.count(f))
    return out


def _enumerating_oracle(c, rule, principal, prems, v):
    """The checker before principals: enumerate every instance of every
    rule, and accept the node if one has its rule, principal and premisses."""
    return any(i.rule is rule and i.principal == principal and i.premisses == tuple(prems)
               for i in applicable_rules(c, v, False))


def _forgeries(node):
    """(rule, principal, premisses) triples near a derivation node: itself,
    every other rule, one premiss dropped, the premisses reversed, a
    formula added to one premiss's last component, and one premiss's first
    link reversed."""
    prems = [p.conclusion for p in node.premisses]
    a = node.principal
    yield node.rule, a, prems
    for rule in RuleId:
        if rule is not node.rule:
            yield rule, a, prems
    for k in range(len(prems)):
        yield node.rule, a, prems[:k] + prems[k + 1:]
        last = prems[k].last
        fat = replaced(prems[k], -1, Component(added(last.ant, Atom("zz")), last.succ))
        yield node.rule, a, prems[:k] + [fat] + prems[k + 1:]
        links = prems[k].links
        if links:
            turned = LinearNestedSequent(prems[k].components,
                                         ((BWD if links[0] is FWD else FWD),) + links[1:])
            yield node.rule, a, prems[:k] + [turned] + prems[k + 1:]
    yield node.rule, a, prems[::-1]


def _principal_forgeries(node):
    """The node's rule and premisses with a principal it does not have:
    (kind, principal) for one absent from the conclusion, one of another
    connective, and each other formula the conclusion holds."""
    a = node.principal
    yield "absent", Atom("zz")
    yield "connective", (Implies(Bottom(), Box(Atom("zz"))) if a is None
                         else Box(a) if isinstance(a, Implies) else Implies(a, a))
    present = {f for c in node.conclusion.components for ms in (c.ant, c.succ)
               for f in ms.distinct()}
    for f in sorted(present - {a}, key=str):
        yield "present", f


@pytest.mark.parametrize("v", [KT, KTS, KB])
def test_rule_dispatch_agrees_with_enumerating_oracle(v):
    from tenseprove.generate import corpus
    from tenseprove.prover import Valid, prove

    nodes = forged = 0
    kinds = set()
    for f in corpus(2026, 200):
        out = prove(f, v)
        if not isinstance(out, Valid):
            continue
        stack = [out.derivation]
        while stack:
            node = stack.pop()
            stack.extend(node.premisses)
            nodes += 1
            c = node.conclusion
            for rule, principal, prems in _forgeries(node):
                want = _enumerating_oracle(c, rule, principal, prems, v)
                assert is_instance(c, rule, principal, prems, v) == want, (
                    c.render(), node.rule, rule, principal)
                forged += not want
            prems = [p.conclusion for p in node.premisses]
            for kind, principal in _principal_forgeries(node):
                got = is_instance(c, node.rule, principal, prems, v)
                assert got == _enumerating_oracle(c, node.rule, principal, prems, v)
                # Only id has another instance with the same (no) premisses:
                # another atom on both sides of the last component.
                assert not got or (kind == "present" and node.rule is RuleId.ID
                                   and principal in c.last.ant and principal in c.last.succ), (
                    c.render(), node.rule, kind, principal)
                forged += not got
                kinds.add(kind)
    assert nodes > 200 and forged > nodes and kinds == {"absent", "connective", "present"}
