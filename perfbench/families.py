"""Parameterised formula families with known answers, as formula text.

Each family scales by one parameter, in the manner of the LWB benchmark
method (Balsiger, Heuerding, Schwendimann, JAR 2000).
"""

from __future__ import annotations


def imp(n: int) -> str:
    """p0 -> p1 -> ... -> p(n-1) -> p0: valid."""
    return " -> ".join([f"p{i}" for i in range(n)] + ["p0"])


def imp_bad(n: int) -> str:
    """p0 -> ... -> p(n-1) -> q: invalid."""
    return " -> ".join([f"p{i}" for i in range(n)] + ["q"])


def depth(n: int) -> str:
    """[F]^n p -> [F]^n p: valid."""
    return f"{'[F]' * n}p -> {'[F]' * n}p"


def depth_bad(n: int) -> str:
    """[F]^n p -> [F]^(n+1) p: invalid."""
    return f"{'[F]' * n}p -> {'[F]' * (n + 1)}p"


def chain(n: int) -> str:
    """p -> ([F]<P>)^n p: valid, and needs restarts."""
    return f"p -> {'[F]<P>' * n}p"


def chain_bad(n: int) -> str:
    """p -> ([F]<P>)^n q: invalid."""
    return f"p -> {'[F]<P>' * n}q"


def ph(n: int) -> str:
    """Pigeonhole: n+1 pigeons into n holes, some hole gets two: valid."""
    placed = " & ".join(f"({' | '.join(f'h{i}_{j}' for j in range(n))})" for i in range(n + 1))
    clash = " | ".join(f"(h{i}_{j} & h{k}_{j})"
                       for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1))
    return f"({placed}) -> ({clash})"


def fan(n: int) -> str:
    """[F]p0 | ... | [F]p(n-1) | [P]~[F]q0 | ... | [P]~[F]q(n-1): invalid;
    box-choice backtracking and restarts make search exponential in n."""
    return " | ".join([f"[F]p{i}" for i in range(n)] + [f"[P]~[F]q{i}" for i in range(n)])


VALID = {"imp": imp, "depth": depth, "chain": chain, "ph": ph}
INVALID = {"imp_bad": imp_bad, "depth_bad": depth_bad, "chain_bad": chain_bad, "fan": fan}
