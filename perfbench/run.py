#!/usr/bin/env python3
"""Certified-verdict benchmark for tenseprove.

    python3 perfbench/run.py --workload valid_ladder --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the prover is imported from its
``src`` directory.  One process is one closed-loop client: a single thread
sends each request after the previous verdict.  A run

1. times, in seven fresh interpreters, importing tenseprove and building
   the workload's inputs (``setup_s`` is their median);
2. sends the request list once as the reference pass: after each request,
   its certificate is re-checked from its serialised form and its counts
   are recorded; these times are not used;
3. sends it again, with new atom spellings each time, until the next pass
   would end more than ``--seconds`` after the reference pass.  Every pass
   must reproduce the reference counts exactly.  With ``--trace 1``,
   traced and plain passes alternate.

Every time is reported at the reference speed of ``calibrate.py``: a fixed
kernel runs between the requests, and each request's time is scaled by
the kernel's speed around it, so that the drift of a shared machine's
speed cancels.  A request's time is then its median over the plain passes,
so a burst of load from outside slows one sample of a request rather than
the result.  ``wall_s`` is the sum of these times and the latency
percentiles are taken over them; the sample count is the number of
requests.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
per-request counts, and with ``--trace 1`` the spans, are written to
``perfbench/out``; standard error gives the unscaled pass times.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_UNITS = 100  # kernel units on each side of a set-up probe
PROBE = """import sys, time
sys.path.insert(0, {bench!r})
import calibrate
before = calibrate.factor({units!r})
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import workloads
workloads.texts(workloads.build({name!r}), {name!r}, {seed!r}, 0)
t = time.perf_counter() - t0
print(t * (before + calibrate.factor({units!r})) / 2)
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("valid_ladder", "invalid_ladder", "random_mix", "transform"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tenseprove" / "__init__.py").is_file():
        print(f"perfbench: no tenseprove sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tenseprove
    if Path(tenseprove.__file__).resolve().parent != (SRC / "tenseprove").resolve():
        print(f"perfbench: imported tenseprove from {tenseprove.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup_s = statistics.median(_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES))
    reqs = workloads.build(args.workload)
    run = Run(workloads, tracing.Tracer(), args.workload, args.seed, reqs)
    run.reference_pass()
    run.timed_passes(args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    OUT.mkdir(exist_ok=True)
    run.write_counts(OUT / f"counts_{args.workload}_seed{args.seed}.json")

    if args.trace:
        run.tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
        metrics = run.layer_metrics()
    else:
        times = run.request_times(run.plain)
        q = statistics.quantiles(times, n=100)
        metrics = {
            "wall_s": (sum(times), "s"),
            "latency_p50_ms": (q[49] * 1e3, "ms"),
            "latency_p90_ms": (q[89] * 1e3, "ms"),
            "latency_p99_ms": (q[98] * 1e3, "ms"),
            "success_share": ((run.attempted - run.failed) / run.attempted, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    for problem in run.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(reqs)} requests; "
          f"{len(run.plain[0])} plain and {len(run.traced[0])} traced passes after the "
          f"reference pass; latency percentiles over {len(reqs)} per-request medians; "
          f"unscaled plain pass times {_seconds(w for t, w in run.raw_wall if not t)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _seconds(values) -> str:
    return " ".join(f"{v:.3f}" for v in values) + " s"


def _setup_probe(name: str, seed: int) -> float:
    code = PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, units=PROBE_UNITS)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    def __init__(self, workloads, tracer, name: str, seed: int, reqs):
        self.w = workloads
        self.name, self.seed, self.reqs = name, seed, reqs
        self.reference: list[tuple | None] = []
        self.plain: list[list[float]] = [[] for _ in reqs]
        self.traced: list[list[float]] = [[] for _ in reqs]
        self.layer_passes: list[tuple[dict, dict]] = []
        self.raw_wall: list[tuple[bool, float]] = []  # (traced, unscaled pass time)
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def _texts(self) -> list[str]:
        self.passes += 1
        return self.w.texts(self.reqs, self.name, self.seed, self.passes - 1)

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as e:  # a request that raises is counted, never fatal
            return e

    def reference_pass(self):
        """The first plain pass; after each request's timer stops, its
        certificate is re-checked and its counts become the reference."""
        self._pass(traced=False, reference=True)
        verdicts: dict[int, dict] = {}
        for r, counts in zip(self.reqs, self.reference):
            if r.group >= 0:
                verdicts.setdefault(r.group, {})[r.variant] = counts and counts[0]
        for group, by_variant in verdicts.items():
            if by_variant[self.w.KT] != by_variant[self.w.KT_STAR]:
                self.problems.append(f"formula {group}: KT says {by_variant[self.w.KT]}, "
                                     f"KT* says {by_variant[self.w.KT_STAR]}")

    def timed_passes(self, seconds: float, trace: int):
        """Further passes, traced and plain in turn with trace, until the
        next one would end after seconds."""
        kinds = ("traced", "plain") if trace else ("plain",)
        minimum = {"traced": 2, "plain": 2 if trace else 3}
        done = {k: 0 for k in kinds}
        last = {k: 0.0 for k in kinds}
        start = time.perf_counter()
        for i in itertools.count():
            kind = kinds[i % len(kinds)]
            short = any(done[k] < minimum[k] for k in kinds)
            if not short and time.perf_counter() - start + last[kind] > seconds:
                break
            t0 = time.perf_counter()
            self._pass(traced=kind == "traced")
            last[kind] = time.perf_counter() - t0
            done[kind] += 1

    def _pass(self, traced: bool, reference: bool = False):
        texts = self._texts()
        n = len(self.reqs)
        samples = self.traced if traced else self.plain
        tr, tally, first = self.tracer, {}, len(self.tracer.spans)
        gc.collect()
        meter, raw = calibrate.Meter(), []
        with self.w.traced_check(tr, tally) if traced else nullcontext():
            for i, (r, text) in enumerate(zip(self.reqs, texts)):
                if traced:
                    tr.request = (self.passes - 1) * n + i
                    t0 = time.perf_counter()
                    with tr.span("request"):
                        out = self._outcome(self.w.run_traced, tr, r, text, tally)
                else:
                    t0 = time.perf_counter()
                    out = self._outcome(self.w.run, r, text)
                raw.append(time.perf_counter() - t0)
                if reference:
                    self._check_reference(r, text, out)
                else:
                    meter.after(raw[-1])
                self._tally_request(r, out, i, tally)
        if reference:
            return
        scales = meter.scales()
        self.raw_wall.append((traced, sum(raw)))
        for i, (dt, scale) in enumerate(zip(raw, scales)):
            samples[i].append(dt * scale)
        if traced:
            base = (self.passes - 1) * n
            self.layer_passes.append(
                (tr.self_times(first, {base + i: f for i, f in enumerate(scales)}), tally))

    def _check_reference(self, r, text: str, out):
        problems = self._outcome(self.w.verify, r, text, out)
        if isinstance(problems, Exception):
            problems = [f"re-check raised {type(problems).__name__}: {problems}"]
        self.problems += [f"{r.label}: {p}" for p in problems]
        self.failed += bool(problems) and not self.w.failed(out)
        self.reference.append(None if isinstance(out, Exception) else self.w.counts(out))

    def _tally_request(self, r, out, i: int, tally: dict):
        self.attempted += 1
        counts = None if isinstance(out, Exception) else self.w.counts(out)
        if counts != self.reference[i]:
            self.problems.append(f"{r.label}: counts {counts} differ from {self.reference[i]}")
        self.failed += self.w.failed(out) or counts != self.reference[i]
        stats = getattr(out, "stats", None)
        if stats is not None:
            tally["prover.search_nodes"] = tally.get("prover.search_nodes", 0) + stats.nodes
            tally["prover.restarts"] = tally.get("prover.restarts", 0) + stats.restarts
            tally["prover.max_length"] = max(tally.get("prover.max_length", 0), stats.max_length)

    @staticmethod
    def request_times(samples: list[list[float]]) -> list[float]:
        return [statistics.median(s) for s in samples]

    def layer_metrics(self) -> dict:
        times = {}
        for name in ("formula.parse", "formula.desugar", "prover.search", "prover.derivation_from",
                     "prover.prune", "prover.extract_model", "semantics.falsifies",
                     "metatheory.check", "metatheory.generalised_init", "metatheory.cut",
                     "metatheory.weaken_contract", "metatheory.to_ktstar"):
            times[name] = statistics.median(st.get(name, 0.0) for st, _ in self.layer_passes)
        tally = self.layer_passes[-1][1]
        nodes, checked = tally.get("prover.search_nodes", 0), tally.get("metatheory.checked_nodes", 0)
        search_s, check_s = times["prover.search"], times["metatheory.check"]
        m = {f"{name}_s": (t, "s") for name, t in times.items()}
        m.update({name: (tally.get(name, 0), "count") for name in (
            "prover.search_nodes", "prover.restarts", "prover.max_length", "prover.budget_hits",
            "semantics.model_worlds", "metatheory.checked_nodes", "metatheory.cut_monitor_calls",
            "metatheory.cut_output_size")})
        m.update({
            "prover.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
            "prover.useful_node_share": (tally.get("kept_nodes", 0) / nodes if nodes else 0.0, "share"),
            "metatheory.check_us_per_node": (check_s / checked * 1e6 if checked else 0.0, "us"),
            "trace.overhead_s": (sum(self.request_times(self.traced))
                                 - sum(self.request_times(self.plain)), "s"),
        })
        return m

    def write_counts(self, path: Path):
        rows = [json.dumps({"request": r.label, "counts": c})
                for r, c in zip(self.reqs, self.reference)]
        path.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    sys.exit(main())
