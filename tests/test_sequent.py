import copy
import itertools
import pickle

import pytest
from hypothesis import given

from conftest import fails_fast_on_recursion, small_sequents
from tenseprove.calculus import (
    CalculusVariant, RuleId, added, make_component, premisses, replaced,
)
from tenseprove.formula import (
    Atom, BlackBox, Bottom, Box, Implies, Polarity, desugar, parse, sort_key,
)
from tenseprove.metatheory import (
    Derivation, MergeUndefined, _diff, _minus, _union, _union_less, _within, cut,
    derivation_to_json, generalised_init, merge, weaken,
)
from tenseprove.prover import PrunedNode, extract_model, search
from tenseprove.semantics import KripkeModel, forces
from tenseprove.sequent import (
    Component,
    LinearNestedSequent,
    Multiset,
    ReadOnly,
    component,
    formula_translation,
    single,
)

p, q, r, s, t, u = (Atom(x) for x in "pqrstu")
FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD


def seq(*parts):
    comps = [parts[0]]
    links = []
    for link, c in zip(parts[1::2], parts[2::2]):
        links.append(link)
        comps.append(c)
    return LinearNestedSequent(tuple(comps), tuple(links))


def all_models_upto(k_max, atom_names=("p",)):
    for k in range(1, k_max + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        pairs = [(a, b) for a in worlds for b in worlds]
        for n in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, n):
                for tv in itertools.product([False, True], repeat=k * len(atom_names)):
                    val = {}
                    for i, w in enumerate(worlds):
                        trues = frozenset(
                            a for j, a in enumerate(atom_names) if tv[i * len(atom_names) + j]
                        )
                        if trues:
                            val[w] = trues
                    yield KripkeModel(worlds, frozenset(edges), val)


def test_translation_single_component():
    assert formula_translation(single([p], [q])) == parse("p -> q")


def test_translation_forward_link_means_box():
    s2 = seq(component(), FWD, component([], [p]))
    tau = formula_translation(s2)
    # equivalent to [F]p on every model with at most two worlds
    box_p = Box(p)
    for m in all_models_upto(2):
        for w in m.worlds:
            assert forces(m, w, tau) == forces(m, w, box_p)


def test_translation_backward_link_embeds_blackbox():
    s2 = seq(component([p], [q]), BWD, component([], [r]))
    tau = formula_translation(s2)
    assert "[P]" in str(tau)
    assert "[F]" not in str(tau)


def test_translation_of_a_long_sequent_needs_no_deep_recursion():
    n = 25_000
    links = tuple(FWD if i % 2 == 0 else BWD for i in range(n - 1))
    with fails_fast_on_recursion():
        f = formula_translation(LinearNestedSequent((component([p], [q]),) * n, links))
    for link in links:
        assert f.left is p and f.right.left is Implies(q, Bottom())
        inner = f.right.right
        assert type(inner) is (Box if link is FWD else BlackBox)
        f = inner.body
    assert f is Implies(p, q)


def test_merge_ignores_contents():
    a = seq(component(), FWD, component())
    b = seq(component([p], [q]), FWD, component([r], [s]))
    assert merge(a, b).links == (FWD,)


def test_structural_equivalence_polarity_mismatch():
    # Same length and contents, links differing only at the second position:
    # not structurally equivalent, so merge is undefined either way round.
    a = seq(component([p], [q]), FWD, component(), FWD, component([r], []))
    b = seq(component([p], [q]), FWD, component(), BWD, component([r], []))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(MergeUndefined):
            merge(x, y)


@given(small_sequents())
def test_merge_defined_on_a_sequent_and_itself(s0):
    assert merge(s0, s0).links == s0.links


def test_merge_singles():
    m = merge(single([p], [q]), single([r], [s]))
    assert m.components[0].ant == Multiset([p, r])
    assert m.components[0].succ == Multiset([q, s])


def test_merge_single_with_longer():
    longer = seq(component([r], [s]), FWD, component([t], [u]))
    m = merge(single([p], [q]), longer)
    assert m.length == 2
    assert m.components[0].ant == Multiset([p, r])
    assert m.components[1].ant == Multiset([t])
    assert m.links == (FWD,)


def test_merge_undefined_on_polarity_mismatch():
    a = seq(component(), FWD, component())
    b = seq(component(), BWD, component())
    with pytest.raises(MergeUndefined):
        merge(a, b)


def test_merge_undefined_on_a_longer_sequent_with_other_first_links():
    a = seq(component(), FWD, component())
    b = seq(component(), BWD, component(), FWD, component())
    for x, y in ((a, b), (b, a)):
        with pytest.raises(MergeUndefined):
            merge(x, y)


@given(small_sequents(max_len=2), small_sequents(max_len=2))
def test_merge_commutative_when_defined(a, b):
    try:
        ab = merge(a, b)
    except MergeUndefined:
        return
    ba = merge(b, a)
    assert ab.links == ba.links
    for x, y in zip(ab.components, ba.components):
        assert x.ant == y.ant and x.succ == y.succ


@given(small_sequents(max_len=2))
def test_merge_with_empty_is_identity(a):
    empty = LinearNestedSequent(
        tuple(component() for _ in a.components), a.links)
    m = merge(a, empty)
    for x, y in zip(m.components, a.components):
        assert x.ant == y.ant and x.succ == y.succ


def test_merge_associative_on_equivalent_triples():
    a = seq(component([p], []), FWD, component([], [q]))
    b = seq(component([q], [r]), FWD, component([s], []))
    c = seq(component([], [t]), FWD, component([u], [p]))
    lhs = merge(merge(a, b), c)
    rhs = merge(a, merge(b, c))
    for x, y in zip(lhs.components, rhs.components):
        assert x.ant == y.ant and x.succ == y.succ


def test_render_and_json_roundtrip():
    s2 = seq(component([p], [q]), FWD, component([Box(p)], []), BWD, component())
    assert s2.render() == "p => q /F/ [F]p =>  \\P\\ =>".replace("  ", " ")
    data = s2.to_json()
    back = LinearNestedSequent.from_json(data)
    assert back.links == s2.links
    for x, y in zip(back.components, s2.components):
        assert x.ant == y.ant and x.succ == y.succ


def test_multiset_semantics():
    # The builders are calculus's `added` and the transforms' unions and
    # differences in metatheory.
    m = Multiset([p, p, q])
    assert m.count(p) == 2 and p in m and r not in m
    assert _minus(m, Multiset([p])).count(p) == 1
    assert added(m, r).count(r) == 1
    assert m == Multiset([q, p, p]) and hash(m) == hash(Multiset([q, p, p]))
    assert _union(m, Multiset([q])).count(q) == 2
    assert _diff(m, Multiset([p])).count(p) == 1
    assert _minus(m, Multiset([p, q])) == Multiset([p])
    with pytest.raises(KeyError):
        _minus(m, Multiset([q, q]))
    with pytest.raises(KeyError):
        _minus(m, Multiset([r]))
    assert not _diff(Multiset([p]), m) and _diff(Multiset([r]), m)
    # Containment, as _diff's emptiness reads it, counts copies.
    for a, b in ((Multiset([p]), m), (Multiset([p, p]), m), (Multiset([p, p, p]), m),
                 (Multiset([r]), m), (Multiset(), m), (m, Multiset())):
        assert _within(a, b) == (not _diff(a, b))


def test_multiset_edits_at_the_edges():
    m, empty = Multiset([p, p, q]), Multiset()
    with pytest.raises(KeyError):
        _minus(m, Multiset([r]))
    with pytest.raises(KeyError):
        _minus(empty, Multiset([p]))
    with pytest.raises(KeyError):
        _union_less(m, empty, r)
    assert _minus(m, Multiset([q])) == Multiset([p, p]) and m == Multiset([p, p, q])
    assert _union_less(m, Multiset([q]), q) == m
    assert _union(m, empty) is _union(empty, m) is m
    assert _minus(m, empty) is m and _minus(empty, empty) == empty


def test_distinct_is_in_sort_key_order():
    m = Multiset([Box(q), p, parse("p -> q"), p, Box(p)])
    first = m.distinct()
    assert first == tuple(sorted({p, Box(p), Box(q), parse("p -> q")}, key=sort_key))
    assert added(m, r).distinct() == tuple(sorted(first + (r,), key=sort_key))


def test_component_edits_change_one_side():
    # A component is its two multisets; the keyword tag, which perfbench's
    # workloads still pass, is accepted and ignored.
    c = Component(Multiset([p]), Multiset([q]), tag=7)
    assert c.__slots__ == ("ant", "succ") and c == Component(Multiset([p]), Multiset([q]))
    assert Multiset.__slots__ == ("_counts",)
    # Each impL premiss changes one side of the last component and keeps
    # the other, and the links, by identity.
    f = Implies(r, s)
    end = LinearNestedSequent((c, component([f], [q])), (FWD,))
    first, second = premisses(end, RuleId.IMP_L, f)
    assert first.last.ant == Multiset([f, s]) and first.last.succ is end.last.succ
    assert second.last.succ == Multiset([q, r]) and second.last.ant is end.last.ant
    assert all(x.components[0] is c and x.links is end.links for x in (first, second))


def test_replace_component_index_contract():
    s3 = seq(component([p]), FWD, component([q]), BWD, component([r]))
    c = component([s])
    for i in range(3):
        want = s3.components[:i] + (c,) + s3.components[i + 1:]
        for out in (replaced(s3, i, c), replaced(s3, i - 3, c)):
            assert out.links is s3.links and len(out.components) == 3
            assert all(x is y for x, y in zip(out.components, want))
    for i in (3, 4, -4, -5):
        with pytest.raises(IndexError):
            replaced(s3, i, c)
    with pytest.raises(ValueError):
        single([p], [q]).drop_last()


_COMPONENT = ("ant", "succ")
_SEQUENT = ("components", "links")
_DERIVATION = ("conclusion", "rule", "principal", "premisses", "height")
_PRUNED = ("links", "masks", "tags", "rule", "kind", "children", "sequent", "atoms")
_FAN3 = " | ".join([f"[F]p{i}" for i in range(3)] + [f"[P]~[F]q{i}" for i in range(3)])


def _values():
    """One value of each read-only slotted type, with the names of its
    fields: first built by its constructor, then by the builders search,
    merge and the transforms use (calculus's and metatheory's).  A multiset
    has no read-only fields."""
    c = Component(Multiset([p]), Multiset([q, q]))
    s2 = LinearNestedSequent((c, component([q], [Box(p)])), (FWD,))
    imp = Implies(p, p)
    leaf = Derivation(single([p], [imp, p]), RuleId.ID, p)
    k = parse("[F](p -> q) -> [F]p -> [F]q")
    _, derived, _ = search(single([], [k]), CalculusVariant.KT_STAR)
    _, failed, _ = search(single([], [p]), CalculusVariant.KT_STAR)
    # fan(3) fails with box choices, restart steps and a shared premiss.
    _, fan, _ = search(single([], [desugar(parse(_FAN3))]), CalculusVariant.KT_STAR)
    # This one keeps its repeated restart premiss's tree a second time as a view.
    shared_text = "[F](b -> a) -> [F](a -> b) -> [F]<P>[F]q -> [F]a | [F]b"
    _, shared, _ = search(single([], [desugar(parse(shared_text))]), CalculusVariant.KT_STAR)
    init = generalised_init(single([imp], [imp]), imp)
    values = [
        ("Component", c, _COMPONENT),
        ("LinearNestedSequent", s2, _SEQUENT),
        ("Derivation", Derivation(single([], [imp]), RuleId.IMP_R, imp, (leaf,)), _DERIVATION),
        ("premiss", premisses(s2, RuleId.BOX_R, Box(p))[0], _SEQUENT),
        ("with_ant", make_component(added(c.ant, r), c.succ), _COMPONENT),
        ("add", added(Multiset([p]), q), ()),
        ("search_Derivation", derived, _DERIVATION),
        ("search_PrunedNode", failed, _PRUNED),
        ("search_PrunedNode_fan", fan, _PRUNED),
        ("search_PrunedNode_shared", shared, _PRUNED),
        ("merge", merge(s2, seq(component([r]), FWD, component([], [r]))), _SEQUENT),
        ("weaken_Component", weaken(leaf, 0, [q], [r]).conclusion.components[0], _COMPONENT),
        ("union", _union(Multiset([p]), Multiset([q])), ()),
        ("minus", _minus(Multiset([p, q]), Multiset([q])), ()),
        ("diff", _diff(Multiset([p, q]), Multiset([r])), ()),
        ("cut_Derivation", cut(init, init, imp), _DERIVATION),
    ]
    return [pytest.param(v, fields, id=name) for name, v, fields in values]


@pytest.mark.parametrize("value, fields", _values())
def test_value_fields_are_read_only(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def _same(a, b) -> bool:
    """a equals b, and a pruned node or a derivation, whose equality is
    identity, equals another of its type with the same fields."""
    if isinstance(a, (PrunedNode, Derivation)):
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in a._fields)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("value, fields", _values())
def test_value_copies_and_pickles_equal(value, fields):
    for out in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(out) is type(value)
        assert all(_same(getattr(out, n), getattr(value, n)) for n in fields)
        # A pruned node's and a derivation's equality is identity; their
        # fields are compared above, a pruned node's copy holds what a model
        # is read from, and a derivation's writes the same certificate.
        if isinstance(value, PrunedNode):
            model, root = extract_model(out, CalculusVariant.KT_STAR)
            expected, expected_root = extract_model(value, CalculusVariant.KT_STAR)
            assert model.to_json(root) == expected.to_json(expected_root)
        elif isinstance(value, Derivation):
            assert out != value and derivation_to_json(out) == derivation_to_json(value)
        else:
            assert out == value and hash(out) == hash(value)


def test_value_repr_is_the_dataclass_form():
    assert repr(Component(Multiset([p]), Multiset())) == (
        "Component(ant=Multiset(['p']), succ=Multiset([]))")
    d = Derivation(single([p], [p]), RuleId.ID, p)
    assert repr(d).startswith("Derivation(conclusion=LinearNestedSequent(components=(")
    assert repr(d).endswith(", rule=<RuleId.ID: 'id'>, principal=Atom(name='p'), "
                            "premisses=(), height=0)")
    # Every field of a builder-made value is written, and shown in order.
    for param in _values():
        value, fields = param.values
        if isinstance(value, ReadOnly):
            inner = ", ".join(f"{n}={getattr(value, n)!r}" for n in fields)
            assert repr(value) == f"{type(value).__name__}({inner})"
