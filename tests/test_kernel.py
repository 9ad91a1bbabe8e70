"""The proof kernel is independent of the rule table search builds with.

Each case below makes one entry of `calculus._RULES` unsound, the way a
wrong schema would: search then builds and closes derivations through it,
and the kernel, which states every rule itself, must reject them."""

import ast
from pathlib import Path

import pytest

from tenseprove import kernel, prover
from tenseprove.calculus import (
    _MEMBERS, _PRIORITY, _RULES, CalculusVariant, RuleId, added, replaced,
)
from tenseprove.formula import Polarity, parse
from tenseprove.metatheory import check
from tenseprove.sequent import Component, LinearNestedSequent, single

KT, KTS, KB = CalculusVariant.KT, CalculusVariant.KT_STAR, CalculusVariant.KB
FWD, BWD = Polarity.FORWARD, Polarity.BACKWARD
SRC = Path(kernel.__file__).parent


def _also(i, part, side):
    """Premiss i's last component also gains part(f) on `side` ("ant" or
    "succ"); its masks gain it too, so search reads the premiss it built."""
    def mutate(e):
        premisses, grow = e.premisses, e.grow

        def wrong_premisses(s, f):
            prems = list(premisses(s, f))
            p, g = prems[i], part(f)
            c = p.last
            c = Component(added(c.ant, g) if side == "ant" else c.ant,
                          added(c.succ, g) if side == "succ" else c.succ)
            prems[i] = replaced(p, p.length - 1, c)
            return tuple(prems)

        def wrong_grow(k, masks, f):
            out = list(grow(k, masks, f))
            (ant, succ), before = out[i]
            g = part(f)
            out[i] = ((k.join(ant, g) if side == "ant" else ant,
                       k.join(succ, g) if side == "succ" else succ), before)
            return tuple(out)

        return {"premisses": wrong_premisses, "grow": wrong_grow}
    return mutate


def _flipped_link(e):
    """The right premiss opens its component across the other link; the
    link search carries for it flips too, so search reads the premiss it
    built."""
    premisses = e.premisses

    def wrong_premisses(s, f):
        prems = premisses(s, f)
        right = prems[-1]
        other = BWD if right.links[-1] is FWD else FWD
        return prems[:-1] + (LinearNestedSequent(right.components, right.links[:-1] + (other,)),)

    return {"premisses": wrong_premisses, "opens": BWD if e.opens is FWD else FWD}


def _open(wrong):
    return lambda e: {"open": wrong}


_BODY = lambda f: f.body  # noqa: E731

# rule: (variant, formula whose derivation under the mutant uses the rule,
# the mutation)
UNSOUND = {
    # id on an atom of the antecedent only; botL on a bottom anywhere
    RuleId.ID: (KTS, "p -> q", _open(lambda kind, last, prev: last[0][_MEMBERS] & kind)),
    RuleId.BOT_L: (KTS, "~p", _open(lambda kind, last, prev: kind)),
    # impR also puts B on the left; impL's second premiss also has A on the left
    RuleId.IMP_R: (KTS, "p -> q", _also(0, lambda f: f.right, "ant")),
    RuleId.IMP_L: (KTS, "(p -> q) -> q", _also(1, lambda f: f.left, "ant")),
    # propagation and restart also put the body on the right
    RuleId.BOX_L1: (KTS, "[F]p -> [F]q", _also(0, _BODY, "succ")),
    RuleId.BBOX_L1: (KTS, "[P]p -> [P]q", _also(0, _BODY, "succ")),
    RuleId.KB_BOX_L1: (KB, "[F]p -> [F]q", _also(0, _BODY, "succ")),
    RuleId.BOX_L2: (KTS, "<P>[F]q -> p", _also(0, _BODY, "succ")),
    RuleId.BBOX_L2: (KTS, "<F>[P]q -> p", _also(0, _BODY, "succ")),
    RuleId.KB_BOX_L2: (KB, "<F>[F]q -> p", _also(0, _BODY, "succ")),
    # a right box rule opens its component across the wrong link
    RuleId.BOX_R1: (KT, "[P][F](p -> p)", _flipped_link),
    RuleId.BBOX_R1: (KT, "[F][P](p -> p)", _flipped_link),
    RuleId.BOX_R2: (KT, "[P]p -> [F]p", _flipped_link),
    RuleId.BBOX_R2: (KT, "[F]p -> [P]p", _flipped_link),
    RuleId.BOX_R: (KTS, "[P]p -> [F]p", _flipped_link),
    RuleId.BBOX_R: (KTS, "[F]p -> [P]p", _flipped_link),
    RuleId.KB_BOX_R: (KB, "[F](p -> p)", _flipped_link),
}


def _rules_used(d):
    out, stack = set(), [d]
    while stack:
        node = stack.pop()
        out.add(node.rule)
        stack.extend(node.premisses)
    return out


def test_every_rule_table_entry_has_an_unsound_case():
    assert set(UNSOUND) == set(_RULES)


@pytest.mark.parametrize("rule", list(UNSOUND), ids=lambda r: r.value)
def test_an_unsound_rule_table_entry_never_yields_valid(rule, monkeypatch):
    v, text, mutate = UNSOUND[rule]
    e = _RULES[rule]
    for name, value in mutate(e).items():
        monkeypatch.setattr(e, name, value)
    end = single((), (prover.core_formula(parse(text), v),))
    status, tree, _ = prover.search(end, v)
    assert status == prover.CLOSED and rule in _rules_used(tree)
    res = check(tree, v)
    assert not res and res.message.startswith(f"invalid {rule.value}")
    with pytest.raises(prover.SearchInvariantError):
        prover.prove(text, v)


def _package_imports(path: Path) -> set[str]:
    """The tenseprove modules a source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                out.add(node.module)
            elif node.module and node.module.startswith("tenseprove"):
                out.add(node.module)
        elif isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.startswith("tenseprove")}
    return out


def test_the_kernel_imports_only_formula_and_sequent():
    assert _package_imports(SRC / "kernel.py") == {"formula", "sequent"}
    assert _package_imports(SRC / "sequent.py") == {"formula"}
    assert _package_imports(SRC / "formula.py") == set()


def test_the_trusted_sequent_module_builds_nothing_past_the_class_call():
    # sequent.py holds the read side of the values the kernel judges; the
    # builders that skip a constructor live in the untrusted modules that
    # call them, so this trusted module does not grow with them.
    tree = ast.parse((SRC / "sequent.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "__new__"
                or isinstance(node, ast.Constant) and node.value == "__new__"]


@pytest.mark.parametrize("v", [KT, KTS, KB])
def test_the_kernel_states_each_variants_rule_set(v):
    assert kernel.RULES[v] == set(_PRIORITY[v])
