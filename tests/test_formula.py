import copy
import gc
import hashlib
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import core_formulas, fails_fast_on_recursion, surface_formulas
from tenseprove import formula
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
    ParseError,
    atoms,
    complexity,
    desugar,
    is_core,
    parse,
    print_ascii,
    print_unicode,
    sort_key,
    subformulas,
)
from tenseprove.semantics import bounded_countermodel_search

p, q, r = Atom("p"), Atom("q"), Atom("r")


def seeded_surface_formula(rng: random.Random, n: int):
    """A random surface formula of at most about n nodes over p, q, r."""
    if n <= 1 or rng.random() < 0.3:
        return rng.choice([p, q, r, Bottom()])
    kind = rng.randrange(9)
    if kind < 2:
        return Implies(seeded_surface_formula(rng, n // 2), seeded_surface_formula(rng, n // 2))
    if kind == 2:
        return Not(seeded_surface_formula(rng, n - 1))
    if kind == 3:
        return And(seeded_surface_formula(rng, n // 2), seeded_surface_formula(rng, n // 2))
    if kind == 4:
        return Or(seeded_surface_formula(rng, n // 2), seeded_surface_formula(rng, n // 2))
    ctor = [Box, BlackBox, Diamond, BlackDiamond][kind - 5]
    return ctor(seeded_surface_formula(rng, n - 1))


def test_parse_tense_shape():
    assert parse("p -> [F]~[P]~p") == Implies(p, Box(Not(BlackBox(Not(p)))))


def test_parse_atom():
    assert parse("p") == p
    assert parse("x_12") == Atom("x_12")


def test_parse_k_axiom():
    assert parse("[F](p -> q) -> ([F]p -> [F]q)") == Implies(
        Box(Implies(p, q)), Implies(Box(p), Box(q))
    )


@pytest.mark.parametrize("text,expected", [
    ("p -> q -> r", Implies(p, Implies(q, r))),
    ("p & q | r", parse("(p & q) | r")),
    ("~p & q", parse("(~p) & q")),
    ("[F]p & q", parse("([F]p) & q")),
    ("<P>p | <F>q", parse("(<P>p) | (<F>q)")),
    ("false -> p", Implies(Bottom(), p)),
])
def test_precedence(text, expected):
    assert parse(text) == expected


def test_parse_error_reports_offset_and_expected():
    with pytest.raises(ParseError) as e:
        parse("p -> ")
    assert e.value.offset == 5
    assert "atom" in e.value.expected
    with pytest.raises(ParseError) as e:
        parse("p q")
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        parse("[X]p")
    assert "'[F]'" in e.value.expected


_OPERANDS = ("'('", "'<F>'", "'<P>'", "'[F]'", "'[P]'", "'false'", "'~'", "atom")


# One row per error branch: (text, byte offset, expected, found).  A
# character that starts no token is reported when the parser reaches it,
# so "p q $" fails at q; "\u00a0" is a space of two UTF-8 bytes.
@pytest.mark.parametrize("text,offset,expected,found", [
    ("p -> ", 5, _OPERANDS, "end of input"),
    ("p q", 2, ("end of input",), "q"),
    ("(p q)", 3, ("')'",), "q"),
    ("(p", 2, ("')'",), "end of input"),
    ("p - q", 2, ("'->'",), "- "),
    ("[X]p", 0, ("'[F]'", "'[P]'"), "[X]"),
    ("<Fp", 0, ("'<F>'", "'<P>'"), "<Fp"),
    ("p $ q", 2, _OPERANDS, "$"),
    ("p q $", 2, ("end of input",), "q"),
    ("p -> \u00e9", 5, _OPERANDS, "\u00e9"),
    ("p\u00a0q", 3, ("end of input",), "q"),
    ("", 0, _OPERANDS, "end of input"),
    ("()", 1, _OPERANDS, ")"),
    ("~", 1, _OPERANDS, "end of input"),
])
def test_parse_error_table(text, offset, expected, found):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.offset, e.value.expected, e.value.found) == (offset, frozenset(expected), found)
    exp = ", ".join(sorted(expected))
    assert str(e.value) == f"syntax error at byte {offset}: found {found!r}, expected {exp}"


_TOKEN_TEXTS = ("p", "q", "false", "falsey", "->", "&", "|", "~", "[F]", "<F>", "[P]", "<P>",
                "(", ")", " ", "  ", "\t", "\u00a0", "-", "[", "<", "]", ">", "[X]", "<F", "$",
                "\u00e9")


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_TOKEN_TEXTS), max_size=14).map("".join))
def test_parse_returns_a_reprintable_formula_or_an_error_at_its_found_text(text):
    data = text.encode()
    try:
        f = parse(text)
    except ParseError as e:
        assert 0 <= e.offset <= len(data)
        if e.found == "end of input":
            assert e.offset == len(data)
        else:
            assert data[e.offset:].startswith(e.found.encode())
    else:
        assert parse(print_ascii(f)) is f


def test_parse_takes_no_frame_per_level():
    with fails_fast_on_recursion(200):
        boxes = parse("[F]" * 30_000 + "p")
        grouped = parse("(" * 5_000 + "p -> q" + ")" * 5_000)
    for _ in range(30_000):
        assert type(boxes) is Box
        boxes = boxes.body
    assert boxes is p and grouped is Implies(p, q)


@given(surface_formulas)
def test_subformulas_are_distinct_and_come_after_their_operands(f):
    subs = subformulas(f)
    assert len(set(subs)) == len(subs) and subs[-1] is f
    place = {g: i for i, g in enumerate(subs)}
    for g in subs:
        for name in ("left", "right", "body"):
            if hasattr(g, name):
                assert place[getattr(g, name)] < place[g]


def test_subformula_walks_take_no_frame_per_level():
    f = parse("[F]" * 30_000 + "p")
    with fails_fast_on_recursion(200):
        subs = subformulas(f)
        assert len(subs) == 30_001 and subs[0] is p and subs[-1] is f
        assert complexity(f) == 30_000
        assert atoms(f) == {"p"} and is_core(f)
        model, world = bounded_countermodel_search(f, max_worlds=1)
    assert model.edges == {("w1", "w1")} and not model.true_atoms and world == "w1"


@given(surface_formulas)
def test_roundtrip(f):
    assert parse(print_ascii(f)) == f


def test_unicode_printer():
    assert print_unicode(parse("p -> [F]~[P]~p")) == "p → □¬■¬p"
    assert print_unicode(parse("<F>p & false")) == "◇p ∧ ⊥"


def test_desugar_diamond_blacksquare():
    f = Diamond(BlackBox(p))
    assert desugar(f) == Implies(Box(Implies(BlackBox(p), Bottom())), Bottom())


def test_desugar_core_fixpoint():
    assert desugar(p) == p


@given(surface_formulas)
def test_desugar_idempotent_and_core(f):
    d = desugar(f)
    assert is_core(d)
    assert desugar(d) == d


def test_desugar_idempotent_on_seeded_surface_sample():
    rng = random.Random(31)
    for _ in range(1000):
        f = seeded_surface_formula(rng, 8)
        d = desugar(f)
        assert is_core(d) and desugar(d) == d


def test_desugar_conj_disj():
    assert desugar(parse("p & q")) == parse("(p -> (q -> false)) -> false")
    assert desugar(parse("p | q")) == parse("(p -> false) -> q")


@pytest.mark.parametrize("text,n", [("p", 0), ("[F]p", 1), ("(p -> false) -> false", 2)])
def test_complexity(text, n):
    assert complexity(parse(text)) == n


@given(core_formulas)
def test_complexity_strictly_decreases_to_subformulas(f):
    if isinstance(f, Implies):
        kids = (f.left, f.right)
    elif isinstance(f, (Box, BlackBox)):
        kids = (f.body,)
    else:
        kids = ()
    for k in kids:
        assert complexity(k) < complexity(f)


def test_subformulas():
    f = parse("[F](p -> q)")
    assert subformulas(f) == [p, q, parse("p -> q"), f]
    g = parse("(q -> p) -> [F](p -> q)")
    assert subformulas(f, g) == [p, q, parse("p -> q"), f, parse("q -> p"), g]
    assert subformulas(parse("~<P>(p & q) | false")) == [
        p, q, And(p, q), BlackDiamond(And(p, q)), Not(BlackDiamond(And(p, q))), Bottom(),
        Or(Not(BlackDiamond(And(p, q))), Bottom())]
    with pytest.raises(TypeError):
        subformulas(Implies(p, "q"))


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("a b")
    with pytest.raises(ValueError):
        Atom("false")


def test_parse_returns_the_interned_node():
    text = "[F](p -> q) -> [P]false -> p"
    assert parse(text) is parse(text)
    assert Implies(p, Bottom()) is Implies(Atom("p"), Bottom())


def test_desugared_diamond_is_the_negated_box():
    assert desugar(parse("<F>p")) is desugar(parse("~[F]~p"))


# Every connective at least once.
ALL_CONNECTIVES = "~(p & q) | <F>false -> [P]<P>[F]p"


def test_copy_and_pickle_return_the_interned_node():
    nodes = subformulas(parse(ALL_CONNECTIVES))
    assert {type(g) for g in nodes} == set(formula._SYNTAX)
    for f in nodes:
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_wrong_operand_counts_raise_type_error_and_intern_nothing():
    x = Atom("x_operand")
    before = len(formula._INTERNED)
    for cls, n in formula._ARITY.items():
        n += cls is Atom  # the name
        for wrong in (n - 1, n + 1) if n else (1,):
            with pytest.raises(TypeError, match="argument"):
                cls(*(x,) * wrong)
    assert len(formula._INTERNED) == before


def test_rejected_atom_names_intern_nothing():
    before = len(formula._INTERNED)
    for name in ("", "a b", "false", "p!", "[F]p"):
        with pytest.raises(ValueError):
            Atom(name)
    assert len(formula._INTERNED) == before


def test_interned_nodes_are_immutable():
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(AttributeError):
        del p.name


@given(core_formulas)
def test_print_parse_roundtrip_is_identity_and_sort_key_is_the_text(f):
    assert parse(print_ascii(f)) is f
    assert sort_key(f) == print_ascii(f)


def test_print_ascii_returns_the_cached_text_as_rendered():
    for text in ("(p -> q) -> [F](q -> r) -> r", "[P]([F]p -> false) -> [P][F]false",
                 "(p -> false) -> false"):
        f = parse(text)
        sort_key(f.left)
        assert print_ascii(f) == text and f._text is print_ascii(f) is sort_key(f)


def test_print_ascii_renders_a_core_node_over_surface_children():
    f = parse("(p | q) -> ~r")
    assert isinstance(f, Implies)
    assert print_ascii(f) == sort_key(f) == "p | q -> ~r"
    assert print_unicode(f) == "p ∨ q → ¬r"
    g = parse("~(p & q) | <P>(p | q) & (r -> p) | [F]false")
    assert print_ascii(g) == "~(p & q) | <P>(p | q) & (r -> p) | [F]false"
    assert print_unicode(g) == "¬(p ∧ q) ∨ ◆(p ∨ q) ∧ (r → p) ∨ □⊥"


def test_printers_take_one_frame_per_level():
    f = p
    for i in range(1500):
        f = Box(f) if i % 2 else Not(f)
    with fails_fast_on_recursion(2000):
        ascii_text, unicode_text = print_ascii(f), print_unicode(f)
    assert ascii_text == "[F]~" * 750 + "p" and unicode_text == "□¬" * 750 + "p"


def test_printers_take_no_frame_per_level():
    # Each printer composes a node's text from its operands' texts in one
    # loop over the post-order subformula list.  Each formula is built
    # afresh for each printer, so print_ascii's cached texts are dropped
    # before print_unicode keeps its own.
    def boxes():
        f = p
        for _ in range(5000):
            f = Box(f)
        return f

    def chain():
        f = p
        for _ in range(5000):
            f = Implies(q, f)
        return f

    with fails_fast_on_recursion(200):
        assert print_ascii(boxes()) == "[F]" * 5000 + "p"
        assert print_unicode(boxes()) == "□" * 5000 + "p"
        assert print_ascii(chain()) == "q -> " * 5000 + "p"
        assert print_unicode(chain()) == "q → " * 5000 + "p"


# A printer written straight from the grammar, one frame per level: an
# operand is parenthesised when its connective binds more loosely than its
# place needs; -> groups to the right, & and | to the left, and a prefix
# connective's operand needs a prefix connective, an atom or false.
REFERENCE_SYNTAX = {Implies: ("->", "→", 0), Or: ("|", "∨", 1), And: ("&", "∧", 2),
                    Not: ("~", "¬", 3), Box: ("[F]", "□", 3), Diamond: ("<F>", "◇", 3),
                    BlackBox: ("[P]", "■", 3), BlackDiamond: ("<P>", "◆", 3)}


def reference_text(f, unicode: bool) -> str:
    def level(g):
        return REFERENCE_SYNTAX[type(g)][2] if type(g) in REFERENCE_SYNTAX else 4

    def operand(g, need):
        text = show(g)
        return f"({text})" if level(g) < need else text

    def show(g):
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Bottom):
            return "⊥" if unicode else "false"
        symbol, unicode_symbol, prec = REFERENCE_SYNTAX[type(g)]
        symbol = unicode_symbol if unicode else symbol
        if isinstance(g, Implies):
            return f"{operand(g.left, prec + 1)} {symbol} {operand(g.right, prec)}"
        if isinstance(g, (And, Or)):
            return f"{operand(g.left, prec)} {symbol} {operand(g.right, prec + 1)}"
        return symbol + operand(g.body, 3)

    return show(f)


@given(surface_formulas)
def test_printers_equal_the_recursive_reference(f):
    assert print_ascii(f) == reference_text(f, unicode=False)
    assert print_unicode(f) == reference_text(f, unicode=True)


# sha256 of the texts of 2,000 seeded surface formulas, one a line:
# print_ascii, print_unicode, and sort_key of the desugared formula.
PRINTED_TEXT_PINS = {
    "ascii": "745fd716272fc567237ea5a121ecb21d8933566ff0b9b86b6faa6698426b52b0",
    "unicode": "7c820c911ae75129438088e34f9b234061cd212e8e82dcb257a106a992a48dd7",
    "sort_key": "ca567da966a76f72a112b36f64874748c0975888b6f9d294fc513cf22e12addd",
}


def test_printed_texts_match_the_pinned_digests():
    rng = random.Random(17)
    sample = [seeded_surface_formula(rng, 16) for _ in range(2000)]
    for name, show in (("ascii", print_ascii), ("unicode", print_unicode),
                       ("sort_key", lambda f: sort_key(desugar(f)))):
        text = "\n".join(map(show, sample))
        assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_TEXT_PINS[name], name


def test_intern_table_forgets_dropped_formulas():
    # Bottom's one node lives as long as the modules that hold it, so a
    # subclass, which Bottom's constructor interns under its own key, stands
    # in for it.
    class Falsum(Bottom):
        __slots__ = ()

    def by_class():
        return Counter(key[0] for key in formula._INTERNED)

    gc.collect()
    before = by_class()
    kept = [Falsum()]
    for i in range(5_000):
        a, b = Atom(f"x{i}_p"), Atom(f"x{i}_q")
        kept += (Implies(a, b), And(a, b), Or(a, b), Box(a), BlackBox(a),
                 Diamond(a), BlackDiamond(a), Not(a))
    assert by_class() - before == Counter(
        {Falsum: 1, Atom: 10_000, **dict.fromkeys(formula._SYNTAX.keys() - {Atom, Bottom}, 5_000)})
    del kept, a, b
    gc.collect()
    assert by_class() == before


def test_complexity_is_cached_and_rejects_surface_nodes():
    f = parse("[F](p -> [P]q)")
    assert complexity(f) == complexity(f) == 3 and f._size == 3
    for surface in (Diamond(p), Box(Not(p)), Implies(p, Not(q))):
        with pytest.raises(ValueError):
            complexity(surface)


def test_surface_nodes_compare_structurally():
    assert Not(Atom("p")) == Not(p) and Not(p) is Not(p)
    assert hash(And(p, q)) == hash(And(Atom("p"), Atom("q")))
    assert Diamond(p) != Box(p) and Diamond(p) != Diamond(q)
    assert repr(Or(Not(p), BlackDiamond(q))) == (
        "Or(left=Not(body=Atom(name='p')), right=BlackDiamond(body=Atom(name='q')))")
