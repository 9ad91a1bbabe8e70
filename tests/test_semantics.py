import os
import random
import subprocess
import sys

import pytest

import tenseprove
from tenseprove import prover, semantics
from tenseprove.calculus import CalculusVariant
from tenseprove.formula import Atom, BlackBox, Bottom, Box, Implies, desugar, parse, subformulas
from tenseprove.generate import corpus
from tenseprove.semantics import (
    BudgetExceeded,
    KripkeModel,
    UnknownWorld,
    bounded_countermodel_search,
    falsifies,
    forces,
)
from tenseprove.sequent import single

p, q, r = Atom("p"), Atom("q"), Atom("r")


def naive_forces(m, w, f, symmetric=False, wrong=None):
    """Independent reference evaluator; deliberately different code path.
    With `wrong` a connective, the value of every formula of that class is
    negated (the mutants below)."""
    rel = set(m.edges)
    if symmetric:
        rel = rel | {(b, a) for (a, b) in rel}
    if isinstance(f, Atom):
        value = f.name in m.true_atoms.get(w, frozenset())
    elif isinstance(f, Bottom):
        value = False
    elif isinstance(f, Implies):
        value = (naive_forces(m, w, f.right, symmetric, wrong)
                 if naive_forces(m, w, f.left, symmetric, wrong) else True)
    elif isinstance(f, Box):
        value = all(naive_forces(m, v, f.body, symmetric, wrong) for (u, v) in rel if u == w)
    elif isinstance(f, BlackBox):
        value = all(naive_forces(m, u, f.body, symmetric, wrong) for (u, v) in rel if v == w)
    else:
        raise AssertionError
    return value is not (type(f) is wrong)


def test_vacuous_box():
    m = KripkeModel(("w",), frozenset())
    assert forces(m, "w", Box(p))
    assert forces(m, "w", BlackBox(p))


def test_two_world_clauses():
    m = KripkeModel(("u", "v"), frozenset({("u", "v")}), {"v": frozenset({"p"})})
    assert forces(m, "u", Box(p))
    assert not forces(m, "v", BlackBox(p))


def test_bottom_never_forced():
    m = KripkeModel(("w",), frozenset(), {"w": frozenset({"p"})})
    assert not forces(m, "w", Bottom())


def test_unknown_world():
    m = KripkeModel(("w",), frozenset())
    with pytest.raises(UnknownWorld):
        forces(m, "nope", p)
    # A world outside m.worlds is an error only when the evaluation visits it.
    dangling = KripkeModel(("w",), frozenset({("w", "x")}))
    assert not forces(dangling, "w", p)
    with pytest.raises(UnknownWorld):
        forces(dangling, "w", Box(p))
    assert forces(dangling, "w", Implies(Bottom(), Box(p)))


def test_forces_rejects_a_surface_formula():
    m = KripkeModel(("w",), frozenset())
    with pytest.raises(ValueError):
        forces(m, "w", parse("~p"))


def test_symmetric_closure_reading():
    m = KripkeModel(("u", "v"), frozenset({("u", "v")}), {"u": frozenset({"p"})})
    assert forces(m, "v", Box(p))                   # no successor, vacuous
    assert forces(m, "v", Box(p), symmetric=True)   # u counts and forces p
    m2 = KripkeModel(("u", "v"), frozenset({("u", "v")}))
    assert not forces(m2, "v", Box(p), symmetric=True)


def test_falsifies_simple():
    m = KripkeModel(("w",), frozenset())
    assert falsifies(m, "w", single([], [p]))
    m2 = KripkeModel(("w",), frozenset(), {"w": frozenset({"p"})})
    assert not falsifies(m2, "w", single([p], [p]))


def test_falsifies_fan_model():
    # root with two successors (p, q false there) and one predecessor (r false)
    m = KripkeModel(
        ("u", "w1", "w2", "v"),
        frozenset({("u", "w1"), ("u", "w2"), ("v", "u")}),
    )
    s = single([], [Box(p), Box(q), BlackBox(r)])
    assert falsifies(m, "u", s)


def test_spot_check_against_naive_evaluator():
    rng = random.Random(20240)
    atoms = ["p", "q"]
    for _ in range(10_000):
        k = rng.randint(1, 3)
        worlds = tuple(f"w{i}" for i in range(k))
        edges = frozenset(
            (a, b) for a in worlds for b in worlds if rng.random() < 0.4)
        val = {
            w: frozenset(a for a in atoms if rng.random() < 0.5) for w in worlds
        }
        m = KripkeModel(worlds, edges, {w: s for w, s in val.items() if s})
        f = _random_core(rng, 5)
        w = rng.choice(worlds)
        sym = rng.random() < 0.3
        assert forces(m, w, f, sym) == naive_forces(m, w, f, sym)


def _deep_core(rng, degree):
    """A random core formula of modal degree at least `degree`: a modal spine
    with small random formulas on either side of implications."""
    f, d = rng.choice([p, q, Bottom()]), 0
    while d < degree:
        if rng.random() < 0.6:
            f, d = rng.choice([Box, BlackBox])(f), d + 1
        else:
            side = _random_core(rng, 4)
            f = Implies(f, side) if rng.random() < 0.5 else Implies(side, f)
    return f


def _modal_degree(f):
    """The deepest nesting of boxes in a core formula."""
    degree = {}
    for g in subformulas(f):
        t = type(g)
        degree[g] = (max(degree[g.left], degree[g.right]) if t is Implies
                     else degree[g.body] + 1 if t is Box or t is BlackBox else 0)
    return degree[f]


def test_deep_formulas_on_larger_models_against_naive_evaluator():
    # Here one (world, subformula) pair is reached along many paths, so an
    # evaluator that shares those visits must still give the reference's
    # answer, under both readings.
    rng = random.Random(7177)
    for n in range(300):
        k = rng.randint(1, 6)
        worlds = tuple(f"w{i}" for i in range(k))
        edges = frozenset(
            (a, b) for a in worlds for b in worlds if rng.random() < 0.4)
        val = {
            w: frozenset(a for a in ("p", "q") if rng.random() < 0.6) for w in worlds
        }
        m = KripkeModel(worlds, edges, {w: s for w, s in val.items() if s})
        f = _deep_core(rng, rng.randint(6, 8))
        assert _modal_degree(f) >= 6
        w = rng.choice(worlds)
        sym = n % 2 == 1
        assert forces(m, w, f, sym) == naive_forces(m, w, f, sym)


def test_deep_box_on_long_symmetric_path():
    # w0 - w1 - ... - w40 read symmetrically: the walks of exactly 40 steps
    # from w0 end at every even-indexed world and at no odd one.  There are
    # about 10^11 such walks, so this only finishes if each (world,
    # subformula) pair is evaluated once.
    worlds = tuple(f"w{i}" for i in range(41))
    edges = frozenset(zip(worlds, worlds[1:]))
    f = p
    for _ in range(40):
        f = Box(f)
    even = {w: frozenset({"p"}) for w in worlds[::2]}
    assert forces(KripkeModel(worlds, edges, even), "w0", f, symmetric=True)
    del even["w40"]
    assert not forces(KripkeModel(worlds, edges, even), "w0", f, symmetric=True)


def _random_core(rng, size):
    if size <= 1 or rng.random() < 0.3:
        return rng.choice([p, q, Bottom()])
    kind = rng.choice(["imp", "box", "bbox"])
    if kind == "imp":
        return Implies(_random_core(rng, size // 2), _random_core(rng, size // 2))
    body = _random_core(rng, size - 1)
    return Box(body) if kind == "box" else BlackBox(body)


def test_bounded_search_atom():
    m, w = bounded_countermodel_search(p, 3)
    assert m.worlds == ("w1",) and not m.true_atoms and w == "w1"


def test_bounded_search_tautology():
    assert bounded_countermodel_search(parse("p -> p"), 3) is None
    assert bounded_countermodel_search(parse("p -> p"), 4, cap=1 << 30) is None


def test_bounded_search_t_axiom():
    f = desugar(parse("[F]p -> p"))
    m, w = bounded_countermodel_search(f, 3)
    assert not forces(m, w, f)
    assert len(m.worlds) == 1 and not m.edges and not m.true_atoms


def test_bounded_search_self_certifying_and_monotone():
    f = desugar(parse("[F]p -> [F][F]p"))
    hit2 = bounded_countermodel_search(f, 3)
    assert hit2 is not None
    m, w = hit2
    assert not forces(m, w, f)
    # a countermodel found at bound k is still found at any larger bound
    hit3 = bounded_countermodel_search(f, 4, cap=1 << 31)
    assert hit3 is not None


def test_bounded_search_guards():
    with pytest.raises(ValueError):
        bounded_countermodel_search(p, 5)
    with pytest.raises(BudgetExceeded):
        bounded_countermodel_search(
            Implies(p, Implies(q, Implies(r, Atom("s1")))), 4, cap=1 << 20)


# (formula, symmetric, first hit within 3 worlds as (worlds, edges, true
# atoms per world, root), or None); pins the enumeration order.  The
# entries of FIRST_HIT_PINS_4 are searched within 4 worlds.
FIRST_HIT_PINS = [
    ("p", False, (1, [], {}, "w1")),
    ("[F]p -> p", False, (1, [], {}, "w1")),
    ("[F]p -> [F][F]p", False, (2, [("w1", "w2"), ("w2", "w1")], {"w1": "p"}, "w2")),
    ("p -> [F]<F>p", False, (2, [("w1", "w2")], {"w1": "p"}, "w1")),
    ("<F>p & <F>q -> <F>(p & q)", False,
     (2, [("w1", "w1"), ("w1", "w2")], {"w1": "q", "w2": "p"}, "w1")),
    ("<P>(p & <P>q) -> <P><P>(p & q)", False,
     (2, [("w1", "w1"), ("w2", "w1")], {"w1": "p", "w2": "q"}, "w1")),
    ("<F><F><F>p -> <F>p | <F><F>p", False,
     (3, [("w1", "w2"), ("w2", "w3"), ("w3", "w1")], {"w1": "p"}, "w1")),
    ("<F>(p & [F]false) & <F>(~p & [F]false) -> q", False,
     (3, [("w1", "w2"), ("w1", "w3")], {"w2": "p"}, "w1")),
    ("p -> [F]<P>p", False, None),
    ("p -> [F]<F>p", True, None),
    ("p -> [F]p", True, (2, [("w1", "w2")], {"w1": "p"}, "w1")),
    ("[F]p -> [F][F]p", True, (2, [("w1", "w2")], {"w1": "p"}, "w2")),
    ("<F><F>p -> p | <F>p", True, (3, [("w1", "w2"), ("w1", "w3")], {"w2": "p"}, "w3")),
    ("<F>p & <F>q & <F>r -> <F>(p & q) | <F>(q & r) | <F>(p & r)", True,
     (3, [("w1", "w1"), ("w1", "w2"), ("w1", "w3")], {"w1": "r", "w2": "q", "w3": "p"}, "w1")),
]
FIRST_HIT_PINS_4 = [
    ("p -> [F]~[F]~p", True, None),
    ("p & [F]p & [F][F]p -> [F][F][F]p", True,
     (4, [("w1", "w2"), ("w1", "w4"), ("w2", "w3")], {"w1": "p", "w2": "p", "w3": "p"}, "w3")),
]


@pytest.mark.parametrize("text,symmetric,want", FIRST_HIT_PINS + FIRST_HIT_PINS_4)
def test_bounded_search_first_hit_pinned(text, symmetric, want):
    max_worlds = 4 if (text, symmetric, want) in FIRST_HIT_PINS_4 else 3
    hit = bounded_countermodel_search(desugar(parse(text)), max_worlds, symmetric=symmetric)
    if want is None:
        assert hit is None
        return
    m, w = hit
    got = (len(m.worlds), sorted(m.edges),
           {v: " ".join(sorted(a)) for v, a in m.true_atoms.items()}, w)
    assert got == want


def test_import_loads_only_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tenseprove\n"
        "print(' '.join({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tenseprove.__file__)))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True).stdout.split()
    assert "tenseprove" in loaded
    assert sorted(m for m in loaded if m != "tenseprove" and m not in sys.stdlib_module_names) == []


def test_model_json_and_dot():
    m = KripkeModel(("w0", "w1"), frozenset({("w0", "w1")}), {"w1": frozenset({"p"})})
    data = m.to_json("w0")
    assert data == {
        "worlds": ["w0", "w1"],
        "edges": [["w0", "w1"]],
        "valuation": {"w1": {"p": True}},
        "root": "w0",
    }
    back = KripkeModel.from_json(data)
    assert back.worlds == m.worlds and back.edges == m.edges
    assert back.true_atoms == {"w1": frozenset({"p"})}
    dot = m.to_dot("w0")
    assert "doublecircle" in dot and '"w0" -> "w1"' in dot and "p" in dot


# --- the countermodel check reads the forcing relation --------------------------
#
# A Valid answer is judged by the kernel; an Invalid one by `forces`, which
# prove and prove_sequent call on every model they report.  Each case below
# makes `forces` wrong on one connective alone, by negating its value there,
# and some model check must then fail.


def _failing_model_checks(monkeypatch):
    """The model checks that fail: "extracted" when prove's own check
    rejects a model it extracted, on a corpus under KT* and KB, and
    "forced" when prove reports a model that forces its formula (here p,
    at a world where p is true) instead of raising InternalModelError."""
    failing = set()
    for f in corpus(4242, 100, atoms=("p", "q"), max_size=40, max_degree=5):
        for v in (CalculusVariant.KT_STAR, CalculusVariant.KB):
            try:
                prover.prove(f, v)
            except prover.InternalModelError:
                failing.add("extracted")
    forcing = KripkeModel(("w0",), frozenset(), {"w0": frozenset({"p"})})
    monkeypatch.setattr(prover, "extract_model", lambda tree, v: (forcing, "w0"))
    try:
        prover.prove("p")
    except prover.InternalModelError:
        pass
    else:
        failing.add("forced")
    return failing


def test_the_model_checks_pass_with_the_forcing_relation(monkeypatch):
    assert _failing_model_checks(monkeypatch) == set()


@pytest.mark.parametrize("wrong", [Atom, Bottom, Implies, Box, BlackBox],
                         ids=lambda c: c.__name__)
def test_a_forcing_relation_wrong_on_one_connective_fails_a_model_check(wrong, monkeypatch):
    # A negated implication reads the empty antecedent's top as false, so
    # every end sequent reads as falsified and only the forcing model shows it.
    monkeypatch.setattr(semantics, "forces", lambda m, w, f, symmetric=False:
                        naive_forces(m, w, f, symmetric, wrong))
    assert _failing_model_checks(monkeypatch)
