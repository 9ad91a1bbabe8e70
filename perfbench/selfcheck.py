#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the root of a source checkout:

    python3 perfbench/selfcheck.py

1. The family generators against an oracle that is not the prover: the
   exhaustive small-model search ``semantics.bounded_countermodel_search``
   must falsify the smallest rungs of every invalid family and find no
   countermodel for the small rungs of every valid family, under Kt and,
   with backward modalities collapsed and the relation made symmetric,
   under KB.
2. Determinism: every workload is run twice, with different ``--seed`` and
   ``PYTHONHASHSEED`` values, and the per-request counts (search nodes,
   restarts, max length, derivation size, model worlds, monitor calls) must
   match exactly.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import families  # noqa: E402
from tenseprove.formula import atoms, collapse_backward, desugar, parse  # noqa: E402
from tenseprove.semantics import DEFAULT_ENUMERATION_CAP, bounded_countermodel_search  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_RUNGS = (1, 2)


def _worlds_within_cap(f) -> int:
    """The most worlds, at most 3, whose enumeration stays under the cap."""
    na = len(atoms(f))
    best = 0
    for k in range(1, 4):
        total = sum((1 << (j * j)) * (1 << (j * na)) for j in range(1, k + 1))
        if total <= DEFAULT_ENUMERATION_CAP:
            best = k
    return best


def oracle_problems() -> list[str]:
    problems = []
    for fams, want_model in ((families.INVALID, True), (families.VALID, False)):
        for fam, fn in fams.items():
            for n in SMALL_RUNGS:
                core = desugar(parse(fn(n)))
                for logic, f, symmetric in (("Kt", core, False), ("KB", collapse_backward(core), True)):
                    k = _worlds_within_cap(f)
                    hit = bounded_countermodel_search(f, k, symmetric=symmetric)
                    if (hit is not None) != want_model:
                        problems.append(f"{fam}({n}) under {logic}: "
                                        f"{'no countermodel' if want_model else 'a countermodel'} "
                                        f"within {k} worlds")
    return problems


def _counts(workload: str, seed: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr.strip()}")
    rows = json.loads((BENCH / "out" / f"counts_{workload}_seed{seed}.json").read_text())
    return {row["request"]: row["counts"] for row in rows}


def determinism_problems() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        a, b = _counts(workload, 1, "0"), _counts(workload, 2, "1")
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if differ:
            problems.append(f"{workload}: counts differ between runs for {', '.join(differ[:5])}")
        else:
            print(f"selfcheck: {workload}: {len(a)} requests, counts identical across two runs")
    return problems


def main() -> int:
    problems = oracle_problems()
    print(f"selfcheck: family oracle: {len(problems)} problems")
    problems += determinism_problems()
    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: PASS" if not problems else "selfcheck: FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
