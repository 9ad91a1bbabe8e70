"""Command-line frontend: decide, prove, check, modelcheck, corpus.

Each subcommand takes only the options it reads: decide/prove --logic
--calculus --output --budget-nodes --budget-ms --certify; check --logic
--calculus; modelcheck --logic --world; corpus --logic --calculus
--budget-nodes --budget-ms.  An option of another subcommand is a usage
error that names it.  The budget defaults are prover.Budget's;
TENSEPROVE_BUDGET_MS, read by decide/prove/corpus only, replaces the default
time limit, and every budget must be a positive integer.

Exit codes for decide/prove: 0 valid, 1 invalid, 2 resource limit, 3 usage
or parse error, 4 internal error.  A bad command line or budget, an
unreadable input file or standard input and malformed JSON are usage
errors.  Running out of memory is a resource limit, reported as one
`resource limit: out of memory` line on stderr where Python can still
report it.  A crash, such
as a recursion error or a failed self-check, and a failed --certify exit 4
with one `internal error:` line on stderr, so no verdict code ever comes
from a crash.  Each command fixes its exit code before it prints, and a
reader that closes standard output early does not change it; any other
failed write exits 4.  --certify
re-checks the certificate as emitted: read back from its JSON form.  All
reports are machine-readable; JSON outputs carry a schema-version field.

check exits 0 when the derivation checks and 1 when a node does not, both
on its replay from the end sequent and under the checker; a derivation
file that is not schema-2 derivation JSON, schema 1 included, is a usage
error.  check and modelcheck each read a bare derivation or model file, or
the derivation or model inside a `decide --output json` report; a report
that carries the other kind of certificate is a usage error that says so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import metatheory, prover, semantics
from .calculus import CalculusVariant
from .formula import ParseError, parse, print_ascii
from .metatheory import derivation_from_json, derivation_to_json, derivation_to_latex
from .prover import Budget, ResourceLimit, Valid
from .semantics import KripkeModel
from .sequent import single

SCHEMA_VERSION = "2"


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError (exit 3), not argparse's
    exit 2, which is the resource-limit code."""

    def error(self, message):
        raise UsageError(message)


class _NotTaken(argparse.Action):
    """Records an option of another subcommand, with its value if it takes
    one, so the value is not read as a positional and the usage error names
    the option."""

    def __call__(self, parser, namespace, values, option_string=None):
        name = self.option_strings[0]
        if name not in namespace.not_taken:
            namespace.not_taken = namespace.not_taken + (name,)


def _variant(args) -> CalculusVariant:
    if args.logic == "kb":
        if args.calculus == "lns":
            raise UsageError("--logic kb has a single rule set; --calculus lns does not apply")
        return CalculusVariant.KB
    return CalculusVariant.KT if args.calculus == "lns" else CalculusVariant.KT_STAR


def _positive(name: str, value) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n <= 0:
        raise UsageError(f"{name} must be a positive integer, not {value!r}")
    return n


def _budget(args) -> Budget:
    """--budget-nodes and --budget-ms, the time limit falling back to
    TENSEPROVE_BUDGET_MS; a limit not given keeps prover.Budget's default."""
    budget = Budget()
    if args.budget_nodes is not None:
        budget.max_nodes = _positive("--budget-nodes", args.budget_nodes)
    if args.budget_ms is not None:
        budget.max_ms = _positive("--budget-ms", args.budget_ms)
    elif os.environ.get("TENSEPROVE_BUDGET_MS"):
        budget.max_ms = _positive("TENSEPROVE_BUDGET_MS", os.environ["TENSEPROVE_BUDGET_MS"])
    return budget


def _read_text(arg: str) -> str:
    return _read_file(arg) if arg == "-" else arg


def _read_file(path: str) -> str:
    """The text of path, or of standard input for -; input that cannot be
    read or decoded, or a closed standard input, is a usage error."""
    try:
        if path != "-":
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        if sys.stdin is None:
            raise UsageError("cannot read standard input: it is closed")
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {'standard input' if path == '-' else path}: {e}") from None


# What the report of each verdict carries.
_CERTIFICATE_OF = {"valid": "derivation", "invalid": "model"}


def _read_json(path: str, kind: str, decode):
    """decode(data) of the JSON in path, or of its `kind` field when path
    holds a `decide --output json` report; unreadable or malformed input,
    and the report of a verdict whose certificate is not a `kind`, are
    UsageErrors."""
    text = _read_file(path)
    try:
        data = json.loads(text)
        if isinstance(data, dict) and kind not in data and data.get("verdict") in _CERTIFICATE_OF:
            verdict = data["verdict"]
            raise UsageError(f"{path} is {'an' if verdict == 'invalid' else 'a'} {verdict} "
                             f"verdict's report: it carries a {_CERTIFICATE_OF[verdict]}, "
                             f"not a {kind}")
        if isinstance(data, dict) and kind in data:
            data = data[kind]
        return decode(data)
    # JSON nested past the recursion limit raises RecursionError.
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as e:
        raise UsageError(f"malformed {kind} in {path}: {type(e).__name__}: {e}") from None


def _certify(outcome, f, v: CalculusVariant) -> bool:
    """Whether the certificate the CLI emits, read back from its JSON form,
    proves the verdict on f: a derivation must check and conclude exactly
    `=> f`, a model must not force f at its root."""
    core = prover.core_formula(f, v)
    if isinstance(outcome, Valid):
        data = json.loads(json.dumps(derivation_to_json(outcome.derivation)))
        try:
            d = derivation_from_json(data)
        except metatheory.InvalidDerivation:
            return False
        return bool(metatheory.check(d, v)) and d.conclusion == single((), (core,))
    data = json.loads(json.dumps(outcome.model.to_json(outcome.root)))
    return not semantics.forces(KripkeModel.from_json(data), data["root"], core,
                                symmetric=(v is CalculusVariant.KB))


def _report_decide(outcome, f, output: str) -> tuple[int, str]:
    if isinstance(outcome, Valid):
        if output == "json":
            text = json.dumps({
                "schema": SCHEMA_VERSION,
                "formula": print_ascii(f),
                "verdict": "valid",
                "derivation": derivation_to_json(outcome.derivation),
                "stats": outcome.stats.to_json(),
            }, indent=None, sort_keys=True)
        elif output == "latex":
            text = derivation_to_latex(outcome.derivation)
        elif output == "dot":
            text = "// valid: no countermodel"
        else:
            text = (f"valid: {print_ascii(f)}\n"
                    f"derivation: {outcome.derivation.rule_applications()} rule applications, "
                    f"height {outcome.derivation.height}")
        return 0, text + "\n"
    if output == "json":
        text = json.dumps({
            "schema": SCHEMA_VERSION,
            "formula": print_ascii(f),
            "verdict": "invalid",
            "model": outcome.model.to_json(outcome.root),
            "stats": outcome.stats.to_json(),
        }, indent=None, sort_keys=True)
    elif output == "dot":
        text = outcome.model.to_dot(outcome.root)
    elif output == "latex":
        text = "% invalid: countermodel found"
    else:
        text = (f"invalid: {print_ascii(f)}\n"
                f"countermodel: {json.dumps(outcome.model.to_json(outcome.root), sort_keys=True)}")
    return 1, text + "\n"


# Each command returns its exit code and its standard output, so the code is
# fixed before anything is printed.

def cmd_decide(args) -> tuple[int, str]:
    v, budget = _variant(args), _budget(args)
    f = parse(_read_text(args.formula).strip())
    outcome = prover.prove(f, v, budget)
    if isinstance(outcome, ResourceLimit):
        print("resource limit reached", file=sys.stderr)
        return 2, ""
    if args.certify and not _certify(outcome, f, v):
        print("internal error: certification failed", file=sys.stderr)
        return 4, ""
    return _report_decide(outcome, f, args.output)


def cmd_check(args) -> tuple[int, str]:
    v = _variant(args)
    try:
        d = _read_json(args.derivation, "derivation", derivation_from_json)
    except metatheory.InvalidDerivation as e:
        res = e.result
    else:
        res = metatheory.check(d, v)
    if res:
        return 0, "ok\n"
    return 1, f"invalid derivation at premiss path {list(res.path)}: {res.message}\n"


def _decode_model(data) -> tuple[KripkeModel, str | None]:
    """The model and root world of a model's JSON form."""
    worlds, root = data["worlds"], data.get("root")
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise TypeError("worlds must be a list of strings")
    if root is not None and not isinstance(root, str):
        raise TypeError("root must be a string")
    return KripkeModel.from_json(data), root


def cmd_modelcheck(args) -> tuple[int, str]:
    v = CalculusVariant.KB if args.logic == "kb" else CalculusVariant.KT
    m, root = _read_json(args.model, "model", _decode_model)
    world = args.world or root
    if world is None:
        raise UsageError("no world: model JSON has no root and --world not given")
    f = prover.core_formula(parse(_read_text(args.formula).strip()), v)
    try:
        ok = semantics.forces(m, world, f, symmetric=(v is CalculusVariant.KB))
    except semantics.UnknownWorld as e:
        raise UsageError(f"world {e} is not in the model") from None
    return (0, "forced\n") if ok else (1, "not forced\n")


def cmd_corpus(args) -> tuple[int, str]:
    import time

    v, budget = _variant(args), _budget(args)
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
        outcome = prover.prove(f, v, budget)
        if isinstance(outcome, ResourceLimit):
            got, certified = "resource-limit", False
        else:
            got = "valid" if isinstance(outcome, Valid) else "invalid"
            certified = _certify(outcome, f, v)
        agree = expected == "unknown" or expected == got
        if not agree or not certified:
            failures += 1
        rows.append((expected, got, "yes" if certified else "NO", text.strip()))
    out = ["\t".join(row) for row in rows]
    out.append(f"# {len(rows)} formulas, {failures} failures")
    # timing goes to stderr so stdout stays byte-identical across runs
    print(f"# elapsed {int((time.monotonic() - t0) * 1000)} ms", file=sys.stderr)
    return (0 if failures == 0 else 1), "\n".join(out) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="tenseprove",
                         description="decision procedures for tense logic and KB")
    sub = ap.add_subparsers(dest="command", required=True)

    options = {
        "--logic": dict(choices=("kt", "kb"), default="kt"),
        "--calculus": dict(choices=("lns", "lns-star"), default=None),
        "--output": dict(choices=("text", "json", "dot", "latex"), default="text"),
        "--budget-nodes": dict(type=int, default=None),
        "--budget-ms": dict(type=int, default=None),
        "--certify": dict(action="store_true"),
        "--world": dict(default=None),
    }

    def subcommand(name, help_text, positionals, *opts):
        sp = sub.add_parser(name, help=help_text)
        for arg, arg_help in positionals:
            sp.add_argument(arg, help=arg_help)
        for opt, kwargs in options.items():
            if opt in opts:
                sp.add_argument(opt, **kwargs)
            else:
                nargs = 0 if kwargs.get("action") == "store_true" else None
                sp.add_argument(opt, action=_NotTaken, nargs=nargs, help=argparse.SUPPRESS)
        sp.set_defaults(not_taken=())

    search = ("--logic", "--calculus", "--budget-nodes", "--budget-ms")
    for name, help_text in (("decide", "decide a formula"), ("prove", "alias of decide")):
        subcommand(name, help_text, [("formula", "formula text, or - for stdin")],
                   *search, "--output", "--certify")
    subcommand("check", "check a derivation JSON file",
               [("derivation", "path to derivation JSON, or -")], "--logic", "--calculus")
    subcommand("modelcheck", "evaluate a formula in a model JSON file",
               [("model", "path to model JSON, or -"), ("formula", "formula text")],
               "--logic", "--world")
    subcommand("corpus", "run a tab-separated expectation/formula file",
               [("corpus", "path to corpus file, or -")], *search)
    return ap


# Built once, at import: a parser is a web of cyclic references, which a
# parser built per call would leave for the collector on every call.
_PARSER = build_parser()


_COMMANDS = {"decide": cmd_decide, "prove": cmd_decide, "check": cmd_check,
             "modelcheck": cmd_modelcheck, "corpus": cmd_corpus}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.not_taken:
            raise UsageError(f"{args.command} does not take {', '.join(args.not_taken)}")
        code, out = _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        # Best effort: with no memory left, even this line may not print.
        print("resource limit: out of memory", file=sys.stderr)
        return 2
    except Exception as e:  # no crash may exit with a verdict code
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as e:
        # A reader that closed standard output early leaves the code
        # standing; any other write error, such as a full disk, is internal.
        # Standard output now points at os.devnull, so the interpreter's
        # flush at exit cannot fail again (the Python signal module's note
        # on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(e, BrokenPipeError):
            print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
            return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
