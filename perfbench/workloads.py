"""The benchmark's workloads: seeded inputs, the timed requests, the traced
re-composition of a request, and the checks on every certificate.

Every request starts from formula text.  A decide request hands it to
``prover.prove``; a transform request parses it and runs the metatheory
transforms.  Nothing here changes the prover's defaults: the default
``Budget`` is used, and neither the recursion limit nor
``TENSEPROVE_BUDGET_MS`` is touched.
"""

from __future__ import annotations

import json
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass

import families
from tenseprove import metatheory, prover, semantics
from tenseprove.calculus import CalculusVariant
from tenseprove.formula import Formula, collapse_backward, desugar, parse, print_ascii
from tenseprove.generate import corpus
from tenseprove.sequent import Component, LinearNestedSequent, Multiset

KT, KT_STAR, KB = CalculusVariant.KT, CalculusVariant.KT_STAR, CalculusVariant.KB
VARIANTS = (KT_STAR, KT, KB)

# Rungs per family and variant, sized so that a pass takes about 1.5 s on a
# 2-core VM; README.md gives the reason for every bound.
VALID_RUNGS = {
    v: {"imp": range(2, 25, 2), "depth": range(2, 25, 2) if v is not KB else range(1, 13),
        "chain": range(1, 9), "ph": (1, 2) if v is KT_STAR else (1,)}
    for v in VARIANTS
}
INVALID_RUNGS = {
    v: {"fan": range(1, 5), "chain_bad": range(1, 9),
        "imp_bad": range(4, 41, 4), "depth_bad": range(1, 17) if v is not KB else range(2, 17, 2)}
    for v in VARIANTS
}
RANDOM_MIX_FORMULAS = 340
TRANSFORM_FORMULAS = 100
# The random draws are fixed and a run's seed respells their atoms.  Drawn
# anew per seed, the few heavy formulas of a 500-formula draw move its total
# time by more than 10%, which would hide a regression of that size.
RANDOM_MIX_DRAW = 1907
TRANSFORM_DRAW = 1270

WORKLOADS = ("valid_ladder", "invalid_ladder", "random_mix", "transform")


@dataclass(frozen=True)
class Request:
    label: str
    text: str
    variant: CalculusVariant | None  # None for a transform request
    expected: str | None  # "Valid", "Invalid", or None when unknown
    group: int = -1  # random_mix: index of the formula, shared by its three variants


def build(name: str) -> list[Request]:
    """The workload's request list, in the order it is sent.

    The order is fixed per workload, so garbage collection pauses fall on
    the same requests in every run; the seed only changes atom spellings.
    """
    if name in ("valid_ladder", "invalid_ladder"):
        table, fams, expected = ((VALID_RUNGS, families.VALID, "Valid") if name == "valid_ladder"
                                 else (INVALID_RUNGS, families.INVALID, "Invalid"))
        reqs = [Request(f"{fam}({n})/{v.value}", fams[fam](n), v, expected)
                for v, rungs in table.items() for fam, ns in rungs.items() for n in ns]
    elif name == "random_mix":
        draw = corpus(RANDOM_MIX_DRAW, RANDOM_MIX_FORMULAS, atoms=("p", "q", "r", "s"),
                      max_size=30, max_degree=3)
        texts = [print_ascii(f) for f in draw]
        reqs = [Request(f"mix{i}/{v.value}", t, v, None, i)
                for i, t in enumerate(texts) for v in VARIANTS]
    elif name == "transform":
        draw = corpus(TRANSFORM_DRAW, TRANSFORM_FORMULAS, max_size=8, max_degree=2)
        reqs = [Request(f"cut{i}", print_ascii(f), None, None) for i, f in enumerate(draw)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    random.Random(name).shuffle(reqs)
    return reqs


_ATOM = re.compile(r"\b(?!false\b)([a-z]\w*)")


def texts(reqs: list[Request], name: str, seed: int, pass_no: int) -> list[str]:
    """The request texts of one pass, with every atom respelled so that no
    pass repeats another's formulas.

    All atoms get the same seeded prefix.  It starts with a letter that
    compares with the printed connectives the way the base names do, so the
    prover's formula order, and hence its search, is unchanged.
    """
    prefix = f"x{random.Random(f'{name}:{seed}:{pass_no}').getrandbits(24):06x}_"
    return [_ATOM.sub(lambda m: prefix + m.group(1), r.text) for r in reqs]


def size(d) -> int:
    """Number of nodes of a derivation or pruned tree."""
    n, stack = 0, [d]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(getattr(node, "premisses", None) or getattr(node, "children", ()))
    return n


def _root_formula(text: str, v: CalculusVariant):
    g = desugar(parse(text))
    return collapse_backward(g) if v is KB else g


def _end_sequent(g) -> LinearNestedSequent:
    return LinearNestedSequent((Component(Multiset(), Multiset((g,)), tag=0),), ())


def _identity_sequent(a, copies: int = 1) -> LinearNestedSequent:
    ms = Multiset((a,) * copies)
    return LinearNestedSequent((Component(ms, ms, tag=0),), ())


# --- the timed requests ------------------------------------------------------


@dataclass
class Transformed:
    formula: Formula
    cut_out: metatheory.Derivation
    final: metatheory.Derivation
    checked: metatheory.CheckResult
    monitor: metatheory.CutMonitor


def run(req: Request, text: str):
    """One request: ``prover.prove`` on the text, or the transform chain."""
    return prover.prove(text, req.variant) if req.variant is not None else transform(text)


def transform(text: str) -> Transformed:
    """generalised_init(A => A), cut(d, d, A) under a CutMonitor, a
    weaken/contract round trip, then to_ktstar and check."""
    a = parse(text)
    d = metatheory.generalised_init(_identity_sequent(a), a)
    mon = metatheory.CutMonitor()
    c = metatheory.cut(d, d, a, mon)
    w = metatheory.weaken(c, 0, [a], [a])
    k = metatheory.contract(metatheory.weaken(w, 0, [a], []), 0, "left", a)
    t = metatheory.to_ktstar(k)
    return Transformed(a, c, t, metatheory.check(t, KT_STAR), mon)


# --- the traced re-composition -------------------------------------------------


@contextmanager
def traced_check(tr, tally: dict):
    """Record every call of ``metatheory.check`` as a span, including the
    re-checks the transforms make inside the module, and count the nodes
    checked."""
    check = metatheory.check

    def counted(d, v):
        tally["metatheory.checked_nodes"] = tally.get("metatheory.checked_nodes", 0) + size(d)
        with tr.span("metatheory.check"):
            return check(d, v)

    metatheory.check = counted
    try:
        yield
    finally:
        metatheory.check = check


def run_traced(tr, req: Request, text: str, tally: dict):
    """The same request with a span around each call into a module, adding
    the layer counts to tally.  A decide request re-composes
    ``prover.prove`` and ``prove_sequent`` from their public parts."""
    if req.variant is None:
        return _transform_traced(tr, text, tally)
    v = req.variant
    with tr.span("formula.parse"):
        g = parse(text)
    with tr.span("formula.desugar"):
        g = desugar(g)
        if v is KB:
            g = collapse_backward(g)
    try:
        with tr.span("prover.search"):
            status, tree, stats = prover.search(_end_sequent(g), v)
    except prover.BudgetExhausted as e:
        _add(tally, "prover.budget_hits", 1)
        return prover.ResourceLimit(e.stats)
    if status == prover.CLOSED:
        with tr.span("prover.derivation_from"):
            d = prover.derivation_from(tree, v)
        res = metatheory.check(d, v)
        if not res:
            raise prover.SearchInvariantError(f"emitted derivation failed the checker: {res.message}")
        _add(tally, "kept_nodes", size(d))
        return prover.Valid(d, stats)
    with tr.span("prover.prune"):
        pruned = prover.prune(tree)
    with tr.span("prover.extract_model"):
        model, root = prover.extract_model(pruned, v)
    with tr.span("semantics.falsifies"):
        ok = semantics.falsifies(model, root, tree.sequent, symmetric=(v is KB))
    if not ok:
        raise prover.InternalModelError(f"extracted model does not falsify at {root}")
    _add(tally, "kept_nodes", size(pruned))
    _add(tally, "semantics.model_worlds", len(model.worlds))
    return prover.Invalid(model, root, stats)


def _transform_traced(tr, text: str, tally: dict):
    with tr.span("formula.parse"):
        a = parse(text)
    with tr.span("metatheory.generalised_init"):
        d = metatheory.generalised_init(_identity_sequent(a), a)
    mon = metatheory.CutMonitor()
    with tr.span("metatheory.cut"):
        c = metatheory.cut(d, d, a, mon)
    with tr.span("metatheory.weaken_contract"):
        w = metatheory.weaken(c, 0, [a], [a])
        k = metatheory.contract(metatheory.weaken(w, 0, [a], []), 0, "left", a)
    with tr.span("metatheory.to_ktstar"):
        t = metatheory.to_ktstar(k)
    out = Transformed(a, c, t, metatheory.check(t, KT_STAR), mon)
    _add(tally, "metatheory.cut_monitor_calls", mon.calls)
    _add(tally, "metatheory.cut_output_size", size(c))
    return out


def _add(tally: dict, key: str, n: int):
    tally[key] = tally.get(key, 0) + n


# --- what a request produced, and whether it is right ------------------------------


def counts(out) -> tuple:
    """The outcome's kind and its deterministic counts: search nodes,
    restarts, max length, derivation size, model worlds (decide), or
    monitor calls and derivation sizes (transform)."""
    if isinstance(out, Transformed):
        return ("Transformed", out.monitor.calls, size(out.cut_out), size(out.final))
    st = out.stats
    derivation = size(out.derivation) if isinstance(out, prover.Valid) else 0
    worlds = len(out.model.worlds) if isinstance(out, prover.Invalid) else 0
    return (type(out).__name__, st.nodes, st.restarts, st.max_length, derivation, worlds)


def failed(out) -> bool:
    """A request failed if it raised or ran out of budget."""
    return isinstance(out, (Exception, prover.ResourceLimit))


def verify(req: Request, text: str, out) -> list[str]:
    """Re-check a request's certificate from its serialised form; returns
    the problems found.  Runs outside the timed region."""
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    if isinstance(out, prover.ResourceLimit):
        return ["resource limit"]
    if isinstance(out, Transformed):
        return _verify_transform(out)
    problems = []
    kind = type(out).__name__
    if req.expected is not None and kind != req.expected:
        problems.append(f"verdict {kind}, expected {req.expected}")
    g = _root_formula(text, req.variant)
    if isinstance(out, prover.Valid):
        d = metatheory.derivation_from_json(
            json.loads(json.dumps(metatheory.derivation_to_json(out.derivation))))
        res = metatheory.check(d, req.variant)
        if not res:
            problems.append(f"derivation fails the re-check: {res.message}")
        if not _same_sequent(d.conclusion, _end_sequent(g)):
            problems.append(f"derivation concludes {d.conclusion.render()}")
    else:
        model = semantics.KripkeModel.from_json(json.loads(json.dumps(out.model.to_json(out.root))))
        if semantics.forces(model, out.root, g, symmetric=(req.variant is KB)):
            problems.append(f"model forces the formula at {out.root}")
    return problems


def _verify_transform(out: Transformed) -> list[str]:
    problems = []
    if out.monitor.violations:
        problems.append(f"cut measure violated: {out.monitor.violations[0]}")
    if not _same_sequent(out.cut_out.conclusion, _identity_sequent(out.formula)):
        problems.append(f"cut concludes {out.cut_out.conclusion.render()}")
    d = metatheory.derivation_from_json(
        json.loads(json.dumps(metatheory.derivation_to_json(out.final))))
    if not (out.checked and metatheory.check(d, KT_STAR)):
        problems.append("transformed derivation fails the re-check")
    if not _same_sequent(d.conclusion, _identity_sequent(out.formula, 2)):
        problems.append(f"round trip concludes {d.conclusion.render()}")
    return problems


def _same_sequent(a: LinearNestedSequent, b: LinearNestedSequent) -> bool:
    return a.links == b.links and len(a.components) == len(b.components) and all(
        x.ant == y.ant and x.succ == y.succ for x, y in zip(a.components, b.components))
