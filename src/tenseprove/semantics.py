"""Kripke models, the forcing relation, and a bounded brute-force oracle.

The oracle enumerates every model with up to four worlds; for each frame it
evaluates all valuations at once, one bit per valuation in a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import Atom, BlackBox, Bottom, Box, Formula, Implies, atoms, is_core, subformulas
from .sequent import LinearNestedSequent, formula_translation

DEFAULT_ENUMERATION_CAP = 1 << 24


class UnknownWorld(Exception):
    pass


class BudgetExceeded(Exception):
    pass


@dataclass
class KripkeModel:
    """Finite pointed-frame data; valuation stores the true atoms per world."""

    worlds: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    true_atoms: dict[str, frozenset[str]] = field(default_factory=dict)

    def to_json(self, root: str | None = None) -> dict:
        data = {
            "worlds": list(self.worlds),
            "edges": sorted([u, v] for (u, v) in self.edges),
            "valuation": {
                w: {a: True for a in sorted(self.true_atoms.get(w, frozenset()))}
                for w in self.worlds
                if self.true_atoms.get(w)
            },
        }
        if root is not None:
            data["root"] = root
        return data

    @classmethod
    def from_json(cls, data: dict) -> KripkeModel:
        worlds = tuple(data["worlds"])
        edges = frozenset((u, v) for u, v in data.get("edges", []))
        val = {
            w: frozenset(a for a, b in val.items() if b)
            for w, val in data.get("valuation", {}).items()
        }
        return cls(worlds, edges, val)

    def to_dot(self, root: str | None = None) -> str:
        lines = ["digraph countermodel {"]
        for w in self.worlds:
            label = w
            trues = sorted(self.true_atoms.get(w, frozenset()))
            if trues:
                label += "\\n" + " ".join(trues)
            shape = "doublecircle" if w == root else "circle"
            lines.append(f'  "{w}" [shape={shape}, label="{label}"];')
        for u, v in sorted(self.edges):
            lines.append(f'  "{u}" -> "{v}";')
        lines.append("}")
        return "\n".join(lines)


def forces(m: KripkeModel, w: str, f: Formula, symmetric: bool = False) -> bool:
    """The forcing relation for core formulas.

    With symmetric=True both modalities quantify over the symmetric closure
    of the relation, which is how KB countermodels are checked.

    Each (world, subformula) pair is evaluated at most once per call, so the
    cost is linear in the model size times the number of distinct
    subformulas.  Only worlds the evaluation visits are checked against
    m.worlds; an implication's right side and a box's remaining worlds are
    skipped once the value is known.  The pairs still waiting for a value
    wait on an explicit stack, each below the pair it needs next, so a deep
    formula takes no frame per level.
    """
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = succ if symmetric else {}
    for u, v in m.edges:
        succ.setdefault(u, []).append(v)
        pred.setdefault(v, []).append(u)
    worlds, true_atoms = m.worlds, m.true_atoms
    if w not in worlds:
        raise UnknownWorld(w)
    memo: dict[tuple[str, Formula], bool] = {}
    stack = [(w, f)]
    while stack:
        key = u, g = stack[-1]
        cls = g.__class__
        if cls is Implies:
            val = memo.get((u, g.left))
            if val is None:
                stack.append((u, g.left))
                continue
            if val:
                val = memo.get((u, g.right))
                if val is None:
                    stack.append((u, g.right))
                    continue
            else:
                val = True
        elif cls is Box or cls is BlackBox:
            body = g.body
            val = True
            for v in (succ if cls is Box else pred).get(u, ()):
                val = memo.get((v, body))
                if not val:
                    break
            if val is None:
                if v not in worlds:
                    raise UnknownWorld(v)
                stack.append((v, body))
                continue
        elif cls is Atom:
            val = g.name in true_atoms.get(u, ())
        elif cls is Bottom:
            val = False
        else:
            raise ValueError(f"not a core formula: {g}")
        memo[key] = val
        stack.pop()
    return memo[w, f]


def falsifies(m: KripkeModel, w: str, s: LinearNestedSequent, symmetric: bool = False) -> bool:
    return not forces(m, w, formula_translation(s), symmetric)


def _atom_lanes(bit: int, nv: int) -> int:
    """The nv-bit set of valuations that have bit `bit` set, built by doubling
    one period (2**bit clear lanes, then 2**bit set ones)."""
    half = 1 << bit
    out, width = ((1 << half) - 1) << half, 2 * half
    while width < nv:
        out |= out << width
        width *= 2
    return out


def bounded_countermodel_search(
    f: Formula,
    max_worlds: int = 3,
    symmetric: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
):
    """Exhaustively search all models with up to max_worlds worlds for one
    falsifying f; returns the canonically first (model, world) or None.

    Enumeration order: ascending world count, then relation bitmask, then
    valuation bitmask, then world index; under the symmetric reading only
    relations without an edge (i, j), i > j, are tried, since every other
    relation has the closure of a smaller one. For a frame with k worlds, all
    valuations are evaluated at once: a subformula's value at a world is an
    int whose bit v is set when it holds there under valuation v, and bit
    i*k + w of v makes atom i true at world w. The hit is re-verified with
    forces before it is returned.
    """
    if not is_core(f):
        raise ValueError(f"not a core formula: {f}")
    if max_worlds > 4:
        raise ValueError("max_worlds is capped at 4")
    names = sorted(atoms(f))
    na = len(names)
    total = sum((1 << (k * k)) * (1 << (k * na)) for k in range(1, max_worlds + 1))
    if total > cap:
        raise BudgetExceeded(f"{total} models exceeds cap {cap}")

    subs = subformulas(f)
    for k in range(1, max_worlds + 1):
        nv = 1 << (k * na)
        lanes = (1 << nv) - 1
        atom_lanes = {name: [_atom_lanes(i * k + w, nv) for w in range(k)]
                      for i, name in enumerate(names)}
        lower = sum(1 << (i * k + j) for i in range(k) for j in range(i)) if symmetric else 0
        for r in range(1 << (k * k)):
            if r & lower:
                continue
            succ = [[j for j in range(k) if r >> (i * k + j) & 1] for i in range(k)]
            pred = [[i for i in range(k) if r >> (i * k + j) & 1] for j in range(k)]
            if symmetric:
                succ = pred = [s + p for s, p in zip(succ, pred)]
            memo: dict[Formula, list[int]] = {}
            for g in subs:
                if isinstance(g, Atom):
                    memo[g] = atom_lanes[g.name]
                elif isinstance(g, Bottom):
                    memo[g] = [0] * k
                elif isinstance(g, Implies):
                    memo[g] = [(a ^ lanes) | b for a, b in zip(memo[g.left], memo[g.right])]
                else:
                    body = memo[g.body]
                    vals = []
                    for frame in succ if isinstance(g, Box) else pred:
                        acc = lanes
                        for u in frame:
                            acc &= body[u]
                        vals.append(acc)
                    memo[g] = vals
            res = memo[f]
            holds = lanes
            for x in res:
                holds &= x
            bad = holds ^ lanes
            if bad:
                v0 = (bad & -bad).bit_length() - 1
                worlds = tuple(f"w{i + 1}" for i in range(k))
                edges = frozenset(
                    (worlds[i], worlds[j])
                    for i in range(k)
                    for j in range(k)
                    if r >> (i * k + j) & 1
                )
                va = {
                    worlds[w]: frozenset(
                        names[i] for i in range(na) if v0 >> (i * k + w) & 1
                    )
                    for w in range(k)
                }
                model = KripkeModel(worlds, edges, {w: s for w, s in va.items() if s})
                w0 = next(worlds[w] for w in range(k) if not res[w] >> v0 & 1)
                if forces(model, w0, f, symmetric):
                    raise AssertionError("enumeration disagrees with forces")
                return model, w0
    return None
