"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import pytest

from conftest import predecessors, rules_of, successors
from tenseprove import metatheory, semantics
from tenseprove.calculus import CalculusVariant, RuleId
from tenseprove.formula import (
    Atom,
    BlackBox,
    Box,
    Implies,
    collapse_backward,
    desugar,
    parse,
    print_ascii,
)
from tenseprove.generate import corpus
from tenseprove.metatheory import CutMonitor, _merge, check, cut, to_ktstar
from tenseprove.prover import (
    Invalid,
    Valid,
    extract_model,
    prove,
    prove_sequent,
    prune,
    search,
)
from tenseprove.sequent import LinearNestedSequent, component, single

KT, KTS, KB = CalculusVariant.KT, CalculusVariant.KT_STAR, CalculusVariant.KB
p, q, r = Atom("p"), Atom("q"), Atom("r")

CORPUS_SEED = 2026
CORPUS_SIZE = 500


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def decided_corpus():
    """The seeded 500-formula corpus with both engines' outcomes."""
    formulas = corpus(CORPUS_SEED, CORPUS_SIZE, atoms=("p", "q", "r"),
                      max_size=12, max_degree=2)
    t0 = time.monotonic()
    star = [prove(f, KTS) for f in formulas]
    full = [prove(f, KT) for f in formulas]
    elapsed = time.monotonic() - t0
    return formulas, star, full, elapsed


def test_criterion_01_axiom_corpus():
    axioms = [
        "p -> p",
        "((p -> q) -> p) -> p",
        "~~p -> p",
        "false -> q",
        "[F](p -> q) -> ([F]p -> [F]q)",
        "[P](p -> q) -> ([P]p -> [P]q)",
        "<F>[P]p -> p",
        "<P>[F]p -> p",
    ]
    worst = 0.0
    for text in axioms:
        for v in (KT, KTS):
            t0 = time.monotonic()
            out = prove(text, v)
            dt = time.monotonic() - t0
            worst = max(worst, dt)
            if not isinstance(out, Valid) or not check(out.derivation, v):
                report(1, False, f"{text} under {v.value}")
            if dt >= 1.0:
                report(1, False, f"{text} took {dt:.2f}s")
    report(1, True, f"{len(axioms)} axioms valid in both variants, max {worst*1000:.0f} ms")


def test_criterion_02_historical_counterexample():
    t0 = time.monotonic()
    out = prove("p -> [F]~[P]~p", KT)
    dt = time.monotonic() - t0
    ok = isinstance(out, Valid) and check(out.derivation, KT) and dt < 1.0
    # cut-freeness is by construction: the rule vocabulary has no cut
    ok = ok and all(isinstance(x, RuleId) for x in rules_of(out.derivation))
    report(2, ok, f"valid cut-free in {dt*1000:.0f} ms")


def test_criterion_03_fan_plus_restart_sequent_is_valid():
    s = single([], [Box(p), Box(q), desugar(parse("r -> [P]~[F]~r"))])
    out = prove_sequent(s, KT)
    ok = isinstance(out, Valid)
    used = rules_of(out.derivation) if ok else set()
    ok = ok and RuleId.BBOX_R2 in used and RuleId.BOX_L2 in used
    report(3, ok, f"rules {sorted(x.value for x in used)}")


def test_criterion_04_fan_countermodel():
    s = single([], [Box(p), Box(q), BlackBox(r)])
    out = prove_sequent(s, KTS)
    ok = isinstance(out, Invalid)
    if ok:
        m, root = out.model, out.root
        ok = (len(successors(m, root)) >= 2 and len(predecessors(m, root)) >= 1
              and semantics.falsifies(m, root, single([], [Box(p), Box(q), BlackBox(r)])))
    # variant that forces a restart before the predecessor world works out
    s2 = single([], [Box(p), Box(q), BlackBox(desugar(parse("~[F]r2")))])
    out2 = prove_sequent(s2, KTS)
    ok2 = isinstance(out2, Invalid) and out2.stats.restarts >= 1
    if ok2:
        ok2 = semantics.falsifies(
            out2.model, out2.root,
            single([], [Box(p), Box(q), BlackBox(desugar(parse("~[F]r2")))]))
    report(4, ok and ok2,
           "fan model with 2 successors + 1 predecessor; restart variant certified")


def test_criterion_05_certification_suite(decided_corpus):
    formulas, star, full, elapsed = decided_corpus
    budget_hits = sum(not isinstance(o, (Valid, Invalid)) for o in star + full)
    cert_failures = 0
    for f, o in zip(formulas, star):
        if isinstance(o, Valid):
            if not check(o.derivation, KTS):
                cert_failures += 1
        elif isinstance(o, Invalid):
            if semantics.forces(o.model, o.root, f):
                cert_failures += 1
    ok = budget_hits == 0 and cert_failures == 0 and elapsed < 60.0
    report(5, ok,
           f"{CORPUS_SIZE} formulas, {cert_failures} certificate failures, "
           f"{budget_hits} budget exhaustions, {elapsed:.1f}s for both engines")


def test_criterion_06_oracle_consistency(decided_corpus):
    formulas, star, _, _ = decided_corpus
    bad = 0
    for f, o in zip(formulas, star):
        if isinstance(o, Valid):
            if semantics.bounded_countermodel_search(f, 3) is not None:
                bad += 1
        else:
            if semantics.forces(o.model, o.root, f):
                bad += 1
    report(6, bad == 0, f"exhaustive 3-world search agrees on all {len(formulas)} formulas")


def test_criterion_07_variant_agreement(decided_corpus):
    formulas, star, full, _ = decided_corpus
    mismatches = sum(
        isinstance(a, Valid) != isinstance(b, Valid) for a, b in zip(star, full))
    transfer_failures = 0
    for b in full:
        if isinstance(b, Valid) and not check(to_ktstar(b.derivation), KTS):
            transfer_failures += 1
    report(7, mismatches == 0 and transfer_failures == 0,
           f"verdicts agree on {len(formulas)}; all transferred derivations re-check")


def _cut_corpus():
    """(left sequent, right sequent, cut formula) triples, all provable."""
    triples = []
    for a, b, c in (("p", "q", "r"), ("q", "r", "p"), ("r", "p", "q")):
        A, B, C = Atom(a), Atom(b), Atom(c)
        fam = [
            (single([A], [A]), single([A, B], [A]), A),
            (single([A], [A]), single([A, Implies(A, B)], [B]), A),
            (single([B], [Implies(C, B)]), single([Implies(C, B), C], [B]), Implies(C, B)),
            (single([], [Implies(A, A)]), single([Implies(A, A), B], [B]), Implies(A, A)),
            (single([Box(A)], [Box(A)]), single([Box(A), B], [Box(A)]), Box(A)),
            (single([Box(A)], [Box(A)]), single([Box(A)], [Box(A)]), Box(A)),
            (single([Box(Implies(A, B))], [Box(Implies(A, B))]),
             single([Box(Implies(A, B)), Box(A)], [Box(B)]), Box(Implies(A, B))),
            (single([BlackBox(A)], [BlackBox(A)]),
             single([BlackBox(A), BlackBox(Implies(A, B))], [BlackBox(B)]), BlackBox(A)),
            (single([Box(Box(A))], [Box(Box(A))]),
             single([Box(Box(A)), B], [Box(Box(A))]), Box(Box(A))),
            (LinearNestedSequent((component([B], [B]),
                                  component([], [Box(Implies(A, A))])),
                                 (parse_link("bwd"),)),
             LinearNestedSequent((component([C], [C]),
                                  component([Box(Implies(A, A))], [Box(Implies(A, A))])),
                                 (parse_link("bwd"),)),
             Box(Implies(A, A))),
            (LinearNestedSequent((component([B], [B]),
                                  component([], [BlackBox(Implies(A, A))])),
                                 (parse_link("fwd"),)),
             LinearNestedSequent((component([C], [C]),
                                  component([BlackBox(Implies(A, A))],
                                            [BlackBox(Implies(A, A))])),
                                 (parse_link("fwd"),)),
             BlackBox(Implies(A, A))),
            (LinearNestedSequent((component([C], [C]),
                                  component([A], [Implies(B, A)])),
                                 (parse_link("fwd"),)),
             LinearNestedSequent((component([C], [C]),
                                  component([Implies(B, A), B], [A])),
                                 (parse_link("fwd"),)),
             Implies(B, A)),
        ]
        triples.extend(fam)
        # context-fattened variants of the single-component families
        for left, right, f in fam:
            if left.length == 1:
                r_ant = list(_expand(right.components[0].ant))
                r_succ = list(_expand(right.components[0].succ))
                triples.append((left, single(r_ant + [C], r_succ), f))
                triples.append((left, single(r_ant, r_succ + [Implies(C, C)]), f))
                l_ant = list(_expand(left.components[0].ant))
                l_succ = list(_expand(left.components[0].succ))
                triples.append((single(l_ant + [C], l_succ), right, f))
    return triples


def _expand(ms):
    for g in ms.distinct():
        for _ in range(ms.count(g)):
            yield g


def parse_link(v):
    from tenseprove.formula import Polarity
    return Polarity(v)


def test_criterion_08_cut_elimination():
    triples = _cut_corpus()
    assert len(triples) >= 100
    t0 = time.monotonic()
    boxr1_cases = 0
    total_calls = 0
    for left, right, f in triples:
        o1 = prove_sequent(left, KT)
        o2 = prove_sequent(right, KT)
        assert isinstance(o1, Valid) and isinstance(o2, Valid), (
            left.render(), right.render())
        if o1.derivation.rule in (RuleId.BOX_R1, RuleId.BBOX_R1):
            boxr1_cases += 1
        mon = CutMonitor()
        out = cut(o1.derivation, o2.derivation, f, mon)
        total_calls += mon.calls
        if mon.violations or not check(out, KT):
            report(8, False, f"cut on {print_ascii(f)}")
        expected = _merge(
            o1.derivation.conclusion, o2.derivation.conclusion,
            o1.derivation.conclusion.length - 1, f, {})
        if out.conclusion.render() != expected.render():
            report(8, False, f"wrong conclusion for {print_ascii(f)}")
    dt = time.monotonic() - t0
    ok = dt < 10.0 and boxr1_cases >= 3
    report(8, ok,
           f"{len(triples)} cuts ({boxr1_cases} with a two-premiss box root), "
           f"{total_calls} monitored calls, {dt:.1f}s")


def test_criterion_09_structural_admissibility(decided_corpus):
    formulas, _, full, _ = decided_corpus
    derivations = [o.derivation for o in full if isinstance(o, Valid)]
    assert derivations
    done = 0
    i = 0
    while done < 500:
        d = derivations[i % len(derivations)]
        pos = done % d.conclusion.length
        w = metatheory.weaken(d, pos, [q], [r])
        if w.height > d.height or not check(w, KT):
            report(9, False, "weakening failed")
        c = metatheory.contract(metatheory.weaken(w, pos, [q], []), pos, "left", q)
        if c.height > w.height or not check(c, KT):
            report(9, False, "contraction failed")
        done += 1
        i += 1
    report(9, True, f"{done} weaken/contract round trips re-check, heights never grow")


def test_criterion_10_kb():
    for text in ("p -> [F]~[F]~p", "[F](p -> q) -> ([F]p -> [F]q)"):
        out = prove(text, KB)
        if not (isinstance(out, Valid) and check(out.derivation, KB)):
            report(10, False, text)
    certified = 0
    for f in corpus(2027, 200, atoms=("p", "q", "r"), max_size=12, max_degree=2):
        g = collapse_backward(f)
        out = prove(g, KB)
        if isinstance(out, Valid):
            ok = bool(check(out.derivation, KB))
            ok = ok and semantics.bounded_countermodel_search(g, 3, symmetric=True) is None
        else:
            ok = not semantics.forces(out.model, out.root, g, symmetric=True)
        if not ok:
            report(10, False, print_ascii(g))
        certified += 1
    # box-only theorems of the tense engine stay valid under the symmetric reading
    spot = 0
    for f in corpus(CORPUS_SEED, CORPUS_SIZE):
        if "[P]" in print_ascii(f):
            continue
        out = prove(f, KTS)
        if isinstance(out, Valid):
            kb_out = prove(f, KB)
            if not isinstance(kb_out, Valid):
                report(10, False, f"box-only theorem lost in kb: {print_ascii(f)}")
            spot += 1
            if spot >= 25:
                break
    report(10, True, f"B and K axioms valid; {certified} formulas certified; "
                     f"{spot} box-only theorems re-proved")


def test_criterion_11_pruning_regression():
    phi = desugar(parse("[F]((p & ~p) | ~[P][F]q)"))
    psi = desugar(parse("[F]((r & ~r) | ~[P][F]s)"))
    end = LinearNestedSequent((component([], [phi, psi]),), ())
    status, tree, stats = search(end, KTS)
    if status != "failed" or stats.restarts < 2:
        report(11, False, "expected a failed search with nested restarts")
    t = prune(tree)
    spine = []
    node = t
    while node.kind == "step":
        spine.append(node)
        node = node.children[0]
    widths = [n.sequent.length for n in spine]
    ok = all(w == 1 for w in widths) and node.kind == "and"
    ok = ok and any(n.rule is RuleId.BBOX_L2 for n in spine)
    model, root = extract_model(t, KTS)
    ok = ok and semantics.falsifies(model, root, tree.sequent)
    report(11, ok,
           f"spine widths {widths} down to the surviving fan; model certified")
