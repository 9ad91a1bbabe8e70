"""Command-line frontend: decide, prove, check, modelcheck, corpus.

Exit codes for decide/prove: 0 valid, 1 invalid, 2 resource limit, 3 usage
or parse error, 4 internal error.  A bad command line, an unreadable input
file and malformed JSON are usage errors.  A crash, such as a recursion or
memory error or a failed self-check, and a failed --certify exit 4 with one
`internal error:` line on stderr, so no verdict code ever comes from a
crash.  --certify re-checks the certificate as emitted: read back from its
JSON form.  All reports are machine-readable; JSON outputs carry a
schema-version field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import metatheory, prover, semantics
from .calculus import CalculusVariant
from .formula import ParseError, collapse_backward, desugar, parse, print_ascii
from .metatheory import derivation_from_json, derivation_to_json, derivation_to_latex
from .prover import Budget, ResourceLimit, Valid
from .semantics import KripkeModel
from .sequent import single

SCHEMA_VERSION = "1"
DEFAULT_BUDGET_NODES = 1_000_000
DEFAULT_BUDGET_MS = 30_000


@dataclass
class Config:
    logic: str = "kt"
    calculus: str = "lns-star"
    output: str = "text"
    budget_nodes: int = DEFAULT_BUDGET_NODES
    budget_ms: int = DEFAULT_BUDGET_MS
    certify: bool = False

    def variant(self) -> CalculusVariant:
        if self.logic == "kb":
            return CalculusVariant.KB
        return CalculusVariant.KT if self.calculus == "lns" else CalculusVariant.KT_STAR

    def budget(self) -> Budget:
        return Budget(self.budget_nodes, self.budget_ms)


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError (exit 3), not argparse's
    exit 2, which is the resource-limit code."""

    def error(self, message):
        raise UsageError(message)


def _config_from(args) -> Config:
    ms = args.budget_ms
    if ms is None:
        env = os.environ.get("TENSEPROVE_BUDGET_MS")
        ms = int(env) if env else DEFAULT_BUDGET_MS
    if args.logic == "kb" and args.calculus == "lns":
        raise UsageError("--logic kb has a single rule set; --calculus lns does not apply")
    return Config(
        logic=args.logic,
        calculus=args.calculus or "lns-star",
        output=args.output,
        budget_nodes=args.budget_nodes,
        budget_ms=ms,
        certify=getattr(args, "certify", False),
    )


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    return arg


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from None


def _read_json(path: str, kind: str, decode):
    """decode(data) of the JSON in path; unreadable or malformed input is a
    UsageError."""
    text = _read_file(path)
    try:
        return decode(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise UsageError(f"malformed {kind} in {path}: {type(e).__name__}: {e}") from None


def _decide(formula_text: str, cfg: Config):
    f = parse(formula_text.strip())
    return prover.prove(f, cfg.variant(), cfg.budget()), f


def _certify(outcome, f, v: CalculusVariant) -> bool:
    """Whether the certificate the CLI emits, read back from its JSON form,
    proves the verdict on f: a derivation must check and conclude exactly
    `=> f`, a model must not force f at its root."""
    core = desugar(f)
    if v is CalculusVariant.KB:
        core = collapse_backward(core)
    if isinstance(outcome, Valid):
        d = derivation_from_json(json.loads(json.dumps(derivation_to_json(outcome.derivation))))
        return bool(metatheory.check(d, v)) and d.conclusion == single((), (core,))
    data = json.loads(json.dumps(outcome.model.to_json(outcome.root)))
    return not semantics.forces(KripkeModel.from_json(data), data["root"], core,
                                symmetric=(v is CalculusVariant.KB))


def _report_decide(outcome, f, cfg: Config) -> int:
    if isinstance(outcome, ResourceLimit):
        print("resource limit reached", file=sys.stderr)
        return 2
    if cfg.certify and not _certify(outcome, f, cfg.variant()):
        print("internal error: certification failed", file=sys.stderr)
        return 4
    if isinstance(outcome, Valid):
        if cfg.output == "json":
            print(json.dumps({
                "schema": SCHEMA_VERSION,
                "formula": print_ascii(f),
                "verdict": "valid",
                "derivation": derivation_to_json(outcome.derivation),
                "stats": outcome.stats.to_json(),
            }, indent=None, sort_keys=True))
        elif cfg.output == "latex":
            print(derivation_to_latex(outcome.derivation))
        elif cfg.output == "dot":
            print("// valid: no countermodel")
        else:
            print(f"valid: {print_ascii(f)}")
            print(f"derivation: {len(outcome.derivation.rules_used())} rule applications, "
                  f"height {outcome.derivation.height}")
        return 0
    if cfg.output == "json":
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "formula": print_ascii(f),
            "verdict": "invalid",
            "model": outcome.model.to_json(outcome.root),
            "stats": outcome.stats.to_json(),
        }, indent=None, sort_keys=True))
    elif cfg.output == "dot":
        print(outcome.model.to_dot(outcome.root))
    elif cfg.output == "latex":
        print("% invalid: countermodel found")
    else:
        print(f"invalid: {print_ascii(f)}")
        print(f"countermodel: {json.dumps(outcome.model.to_json(outcome.root), sort_keys=True)}")
    return 1


def cmd_decide(args) -> int:
    cfg = _config_from(args)
    outcome, f = _decide(_read_text(args.formula), cfg)
    return _report_decide(outcome, f, cfg)


def _derivation_from_report(data) -> metatheory.Derivation:
    """A derivation JSON, bare or inside a `decide --output json` report."""
    if isinstance(data, dict) and "derivation" in data:
        data = data["derivation"]
    return derivation_from_json(data)


def cmd_check(args) -> int:
    cfg = _config_from(args)
    d = _read_json(args.derivation, "derivation", _derivation_from_report)
    res = metatheory.check(d, cfg.variant())
    if res:
        print("ok")
        return 0
    print(f"invalid derivation at premiss path {list(res.path)}: {res.message}")
    return 1


def cmd_modelcheck(args) -> int:
    cfg = _config_from(args)
    m, root = _read_json(args.model, "model",
                         lambda data: (KripkeModel.from_json(data), data.get("root")))
    world = args.world or root
    if world is None:
        raise UsageError("no world: model JSON has no root and --world not given")
    f = desugar(parse(_read_text(args.formula).strip()))
    if cfg.logic == "kb":
        f = collapse_backward(f)
    try:
        ok = semantics.forces(m, world, f, symmetric=(cfg.logic == "kb"))
    except semantics.UnknownWorld as e:
        raise UsageError(f"world {e} is not in the model") from None
    print("forced" if ok else "not forced")
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    import time

    cfg = _config_from(args)
    lines = [ln for ln in _read_file(args.corpus).splitlines() if ln.strip()]
    failures = 0
    rows = []
    t0 = time.monotonic()
    for ln in lines:
        expected, _, text = ln.partition("\t")
        expected = expected.strip()
        if expected not in ("valid", "invalid", "unknown"):
            raise UsageError(f"bad expectation {expected!r} (want valid/invalid/unknown)")
        f = parse(text.strip())
        outcome = prover.prove(f, cfg.variant(), cfg.budget())
        if isinstance(outcome, ResourceLimit):
            got, certified = "resource-limit", False
        else:
            got = "valid" if isinstance(outcome, Valid) else "invalid"
            certified = _certify(outcome, f, cfg.variant())
        agree = expected == "unknown" or expected == got
        if not agree or not certified:
            failures += 1
        rows.append((expected, got, "yes" if certified else "NO", text.strip()))
    for row in rows:
        print("\t".join(row))
    print(f"# {len(rows)} formulas, {failures} failures")
    # timing goes to stderr so stdout stays byte-identical across runs
    print(f"# elapsed {int((time.monotonic() - t0) * 1000)} ms", file=sys.stderr)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="tenseprove",
                         description="decision procedures for tense logic and KB")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, certify=False):
        sp.add_argument("--logic", choices=("kt", "kb"), default="kt")
        sp.add_argument("--calculus", choices=("lns", "lns-star"), default=None)
        sp.add_argument("--output", choices=("text", "json", "dot", "latex"), default="text")
        sp.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET_NODES)
        sp.add_argument("--budget-ms", type=int, default=None)
        if certify:
            sp.add_argument("--certify", action="store_true")

    for name, help_text in (("decide", "decide a formula"), ("prove", "alias of decide")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("formula", help="formula text, or - for stdin")
        common(sp, certify=True)

    sp = sub.add_parser("check", help="check a derivation JSON file")
    sp.add_argument("derivation", help="path to derivation JSON, or -")
    common(sp)

    sp = sub.add_parser("modelcheck", help="evaluate a formula in a model JSON file")
    sp.add_argument("model", help="path to model JSON, or -")
    sp.add_argument("formula", help="formula text")
    sp.add_argument("--world", default=None)
    common(sp)

    sp = sub.add_parser("corpus", help="run a tab-separated expectation/formula file")
    sp.add_argument("corpus", help="path to corpus file, or -")
    common(sp)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("decide", "prove"):
            return cmd_decide(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "modelcheck":
            return cmd_modelcheck(args)
        if args.command == "corpus":
            return cmd_corpus(args)
        raise UsageError(f"unknown command {args.command}")
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # no crash may exit with a verdict code
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
