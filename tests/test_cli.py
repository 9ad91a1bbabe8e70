import contextlib
import functools
import gc
import io
import json
import os
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import KT_STUCK_MESSAGE, surface_formulas
from tenseprove import cli, prover
from tenseprove.calculus import CalculusVariant
from tenseprove.cli import main
from tenseprove.formula import parse, print_ascii
from tenseprove.semantics import KripkeModel


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_decide_valid_exit_zero(capsys):
    rc, out, _ = run(capsys, "decide", "p -> [F]~[P]~p")
    assert rc == 0 and out.startswith("valid")


def test_decide_invalid_exit_one(capsys):
    rc, out, _ = run(capsys, "decide", "p")
    assert rc == 1 and out.startswith("invalid")
    assert "w0" in out


def test_decide_kb_b_axiom(capsys):
    rc, out, _ = run(capsys, "decide", "--logic", "kb", "p -> [F]~[F]~p")
    assert rc == 0


def test_parse_error_exit_three(capsys):
    rc, _, err = run(capsys, "decide", "p ->")
    assert rc == 3 and "parse error" in err


def test_kb_forbids_full_calculus(capsys):
    for spelling in (["--calculus", "lns"], ["--calculus=lns"], ["--calc", "lns"]):
        rc, _, err = run(capsys, "decide", "--logic", "kb", *spelling, "p")
        assert rc == 3 and "usage error" in err, spelling
    rc, _, _ = run(capsys, "decide", "--logic", "kb", "--calculus", "lns-star", "p -> [F]~[F]~p")
    assert rc == 0


def test_resource_limit_exit_two(capsys):
    rc, _, err = run(capsys, "decide", "--budget-nodes", "1", "p -> [F]~[P]~p")
    assert rc == 2


def test_main_leaves_no_cyclic_garbage(tmp_path):
    # An argparse parser is a web of cyclic references: when main built one
    # per call, each call left 350 objects that only the collector frees.
    # Objects made before the loop are frozen, so that each collection
    # walks only what the call left.
    cases = [(0, "decide", "p -> [F]~[P]~p"), (1, "decide", "p"),
             (3, "check", str(tmp_path / "missing.json")), (3, "decide", "--world", "w0", "p")]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        for want, *argv in cases:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            assert (rc, gc.collect()) == (want, 0), argv
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def test_json_output_schema(capsys):
    rc, out, _ = run(capsys, "decide", "--output", "json", "[F]p -> p")
    data = json.loads(out)
    assert data["schema"] == "2" and data["verdict"] == "invalid"
    assert data["model"]["root"] in data["model"]["worlds"]


def test_json_then_check_roundtrip(capsys, tmp_path):
    rc, out, _ = run(capsys, "decide", "--output", "json", "<F>[P]p -> p")
    data = json.loads(out)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data["derivation"]))
    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 0 and out.strip() == "ok"


def _mp_derivation(capsys):
    """The derivation JSON of p -> (p -> q) -> q: nodes id q, id p,
    impL [0, 1], impR [2], impR [3]."""
    rc, out, _ = run(capsys, "decide", "--output", "json", "p -> (p -> q) -> q")
    d = json.loads(out)["derivation"]
    assert [n["rule"] for n in d["nodes"]] == ["id", "id", "impL", "impR", "impR"]
    return d


def _check(capsys, tmp_path, data):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    return run(capsys, "check", str(path))


def test_check_rejects_tampered_derivation(capsys, tmp_path):
    d = _mp_derivation(capsys)
    assert _check(capsys, tmp_path, d)[:2] == (0, "ok\n")
    # the two id nodes swap principals
    d["nodes"][0]["principal"], d["nodes"][1]["principal"] = "p", "q"
    rc, out, _ = _check(capsys, tmp_path, d)
    assert rc == 1 and out.startswith("invalid derivation at premiss path [0, 0, 1]: ")


def test_check_rejects_a_shared_node_reached_with_two_conclusions(capsys, tmp_path):
    d = _mp_derivation(capsys)
    d["nodes"][2]["premisses"] = [0, 0]
    rc, out, _ = _check(capsys, tmp_path, d)
    assert rc == 1 and out.startswith("invalid derivation at premiss path [0, 0, 1]: node 0 ")


def test_check_rejects_a_forward_premiss_index_as_malformed(capsys, tmp_path):
    d = _mp_derivation(capsys)
    d["nodes"][2]["premisses"] = [0, 3]
    rc, _, err = _check(capsys, tmp_path, d)
    assert rc == 3 and err.startswith("usage error: malformed derivation") and "earlier" in err


def test_check_names_schema_1_input(capsys, tmp_path):
    """A schema-1 derivation, bare or inside a report, is a usage error
    that says so."""
    sequent = {"components": [{"antecedent": ["p"], "succedent": ["p"]}], "links": []}
    bare = {"sequent": sequent, "rule": "id", "premisses": []}
    report = {"schema": "1", "verdict": "valid", "formula": "p -> p", "derivation": bare}
    for data in (bare, report):
        rc, out, err = _check(capsys, tmp_path, data)
        assert rc == 3 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("usage error: malformed derivation") and "schema 1" in err


def test_dot_output_for_countermodel(capsys):
    rc, out, _ = run(capsys, "decide", "--output", "dot", "[F]p -> p")
    assert rc == 1 and out.startswith("digraph") and "doublecircle" in out


def test_latex_output_for_derivation(capsys):
    rc, out, _ = run(capsys, "decide", "--output", "latex", "p -> p")
    assert rc == 0 and out.startswith(r"\begin{prooftree}")


def test_modelcheck(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "worlds": ["u", "v"], "edges": [["u", "v"]],
        "valuation": {"v": {"p": True}}, "root": "u",
    }))
    rc, out, _ = run(capsys, "modelcheck", str(path), "[F]p")
    assert rc == 0 and out.strip() == "forced"
    rc, out, _ = run(capsys, "modelcheck", str(path), "p")
    assert rc == 1 and out.strip() == "not forced"
    rc, out, _ = run(capsys, "modelcheck", "--world", "v", str(path), "p")
    assert rc == 0


def test_corpus_run(capsys, tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("valid\tp -> p\ninvalid\tp\nunknown\t[F]p -> p\n")
    rc, out, _ = run(capsys, "corpus", str(path))
    assert rc == 0 and "# 3 formulas, 0 failures" in out


def test_corpus_flags_mismatch(capsys, tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("valid\tp\n")
    rc, out, _ = run(capsys, "corpus", str(path))
    assert rc == 1 and "1 failures" in out


def test_corpus_empty(capsys, tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("")
    rc, out, _ = run(capsys, "corpus", str(path))
    assert rc == 0 and "# 0 formulas" in out


def test_certify_does_not_change_verdict(capsys):
    rc1, out1, _ = run(capsys, "decide", "--output", "json", "p -> p")
    rc2, out2, _ = run(capsys, "decide", "--output", "json", "--certify", "p -> p")
    assert rc1 == rc2 == 0 and out1 == out2
    rc3, out3, _ = run(capsys, "decide", "--output", "json", "p")
    rc4, out4, _ = run(capsys, "decide", "--output", "json", "--certify", "p")
    assert rc3 == rc4 == 1 and out3 == out4


def test_byte_identical_reruns(capsys):
    rc1, out1, _ = run(capsys, "decide", "--output", "json", "<F>p -> [F]p")
    rc2, out2, _ = run(capsys, "decide", "--output", "json", "<F>p -> [F]p")
    assert (rc1, out1) == (rc2, out2)


def test_budget_ms_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TENSEPROVE_BUDGET_MS", "9")
    # tiny wall budget still decides a trivial formula but exists as config
    rc, out, _ = run(capsys, "decide", "p -> p")
    assert rc == 0


def test_deep_input_is_an_internal_error(capsys, monkeypatch):
    deep = "[F]" * 30000
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{deep}p -> {deep}p"))
    rc, _, err = run(capsys, "decide", "-")
    assert rc == 4 and err.startswith("internal error:")
    assert len(err.strip().splitlines()) == 1


def test_search_invariant_error_is_an_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise prover.SearchInvariantError("watchdog fired")

    monkeypatch.setattr(prover, "prove", broken)
    rc, _, err = run(capsys, "decide", "p -> p")
    assert rc == 4 and err.strip() == "internal error: SearchInvariantError: watchdog fired"


def test_certify_checks_the_emitted_derivation(capsys, monkeypatch):
    emit = cli.derivation_to_json

    def drop_premiss(d):
        data = emit(d)
        data["nodes"][-1]["premisses"] = []
        return data

    monkeypatch.setattr(cli, "derivation_to_json", drop_premiss)
    rc, _, err = run(capsys, "decide", "--certify", "p -> p")
    assert rc == 4 and err == "internal error: certification failed\n"
    rc, out, _ = run(capsys, "decide", "p -> p")
    assert rc == 0 and out.startswith("valid")


def test_certify_checks_the_emitted_model(capsys, monkeypatch):
    emit = KripkeModel.to_json

    def make_p_true(self, root=None):
        data = emit(self, root)
        data["valuation"] = {w: {"p": True} for w in data["worlds"]}
        return data

    monkeypatch.setattr(KripkeModel, "to_json", make_p_true)
    rc, _, err = run(capsys, "decide", "--certify", "p")
    assert rc == 4 and err.startswith("internal error:")


def test_unknown_option_value_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "decide", "--logic", "zz", "p")
    assert rc == 3 and err.startswith("usage error:") and len(err.splitlines()) == 1


def test_missing_formula_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "decide")
    assert rc == 3 and err.startswith("usage error:")


def test_help_exits_zero(capsys):
    try:
        main(["decide", "--help"])
    except SystemExit as e:
        assert e.code == 0
    else:
        raise AssertionError("--help did not exit")


def test_check_missing_file_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert rc == 3 and err.startswith("usage error: cannot read")


def test_check_malformed_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text("{")
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 3 and err.startswith("usage error: malformed derivation")


def test_check_unknown_rule_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({
        "sequent": {"components": [{"antecedent": ["p"], "succedent": ["p"]}], "links": []},
        "nodes": [{"rule": "nope", "principal": "p", "premisses": []}],
    }))
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 3 and err.startswith("usage error: malformed derivation")


def test_modelcheck_reads_the_model_inside_a_decide_report(capsys, tmp_path):
    rc, out, _ = run(capsys, "decide", "--output", "json", "p -> [F]p")
    assert rc == 1
    path = tmp_path / "r.json"
    path.write_text(out)
    rc, out, err = run(capsys, "modelcheck", str(path), "p -> [F]p")
    assert (rc, out, err) == (1, "not forced\n", "")
    rc, out, _ = run(capsys, "modelcheck", str(path), "p")
    assert (rc, out) == (0, "forced\n")


def test_modelcheck_unknown_world_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"worlds": ["u"], "edges": [], "root": "u"}))
    rc, _, err = run(capsys, "modelcheck", "--world", "w9", str(path), "p")
    assert rc == 3 and err.startswith("usage error: world w9")


@pytest.mark.parametrize("model, message", [
    ({"worlds": ["a"], "valuation": {"a": {"p": True}}, "root": ["a"]}, "root must be a string"),
    ({"worlds": "ab", "root": "a"}, "worlds must be a list of strings"),
])
def test_modelcheck_malformed_root_or_worlds_is_a_usage_error(capsys, tmp_path, model, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    rc, out, err = run(capsys, "modelcheck", str(path), "p")
    assert (rc, out) == (3, "")
    assert err == f"usage error: malformed model in {path}: TypeError: {message}\n"


def test_corpus_missing_file_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "corpus", str(tmp_path / "missing.tsv"))
    assert rc == 3 and err.startswith("usage error: cannot read")


def test_corpus_has_no_certify_flag(capsys, tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("valid\tp -> p\n")
    rc, _, err = run(capsys, "corpus", "--certify", str(path))
    assert rc == 3 and err.startswith("usage error:")




@pytest.fixture
def files(tmp_path):
    """A derivation, a model and a corpus file, each accepted as it is."""
    derivation = tmp_path / "d.json"
    derivation.write_text(json.dumps(cli.derivation_to_json(prover.prove("p -> p").derivation)))
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"worlds": ["u"], "edges": [], "root": "u"}))
    corpus = tmp_path / "c.tsv"
    corpus.write_text("valid\tp -> p\n")
    return {"derivation": str(derivation), "model": str(model), "corpus": str(corpus)}


@pytest.mark.parametrize("argv", [
    ("check", "--output", "json", "{derivation}"),
    ("check", "--budget-nodes", "1", "{derivation}"),
    ("modelcheck", "--calculus", "lns", "{model}", "p"),
    ("modelcheck", "--budget-ms", "5", "{model}", "p"),
    ("modelcheck", "--output", "latex", "{model}", "p"),
    ("corpus", "--output", "json", "{corpus}"),
], ids=" ".join)
def test_subcommand_rejects_an_option_it_does_not_read(capsys, files, argv):
    rc, _, err = run(capsys, *(a.format(**files) for a in argv))
    assert rc == 3 and err.startswith("usage error:")


@pytest.mark.parametrize("argv,message", [
    (("check", "--output", "json", "--budget-nodes", "1", "{derivation}"),
     "check does not take --output, --budget-nodes"),
    (("modelcheck", "--calculus", "lns", "{model}", "p"), "modelcheck does not take --calculus"),
    (("corpus", "--certify", "--world", "u", "{corpus}"), "corpus does not take --certify, --world"),
    (("decide", "--world", "u", "p"), "decide does not take --world"),
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else "")
def test_usage_error_names_the_options_not_taken(capsys, files, argv, message):
    # The value of an option the subcommand does not take is not read as
    # its positional argument.
    rc, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert rc == 3 and out == "" and err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv", [("decide", "p -> p"), ("corpus", "{corpus}")], ids=" ".join)
def test_bad_budget_environment_is_a_usage_error(capsys, monkeypatch, files, argv):
    monkeypatch.setenv("TENSEPROVE_BUDGET_MS", "abc")
    rc, _, err = run(capsys, *(a.format(**files) for a in argv))
    assert rc == 3 and err.startswith("usage error: TENSEPROVE_BUDGET_MS")
    assert len(err.splitlines()) == 1


def test_budget_environment_is_not_read_by_check_or_modelcheck(capsys, monkeypatch, files):
    monkeypatch.setenv("TENSEPROVE_BUDGET_MS", "abc")
    rc, out, _ = run(capsys, "check", files["derivation"])
    assert rc == 0 and out.strip() == "ok"
    rc, out, _ = run(capsys, "modelcheck", files["model"], "p -> p")
    assert rc == 0 and out.strip() == "forced"


@pytest.mark.parametrize("option,value", [
    ("--budget-nodes", "0"), ("--budget-nodes", "-5"), ("--budget-ms", "0"),
])
def test_budget_must_be_positive(capsys, option, value):
    rc, _, err = run(capsys, "decide", option, value, "p -> p")
    assert rc == 3 and err.startswith(f"usage error: {option} must be a positive integer")


def test_modelcheck_of_a_valid_verdicts_report_says_it_carries_a_derivation(capsys, tmp_path):
    rc, out, _ = run(capsys, "decide", "--output", "json", "p -> p")
    assert rc == 0
    path = tmp_path / "r.json"
    path.write_text(out)
    rc, _, err = run(capsys, "modelcheck", str(path), "p")
    assert rc == 3
    assert err == (f"usage error: {path} is a valid verdict's report: "
                   "it carries a derivation, not a model\n")


def test_check_of_an_invalid_verdicts_report_says_it_carries_a_model(capsys, tmp_path):
    rc, out, _ = run(capsys, "decide", "--output", "json", "p -> q")
    assert rc == 1
    path = tmp_path / "r.json"
    path.write_text(out)
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 3
    assert err == (f"usage error: {path} is an invalid verdict's report: "
                   "it carries a model, not a derivation\n")


def _main_with(stdin: str, *argv) -> tuple[int, str]:
    """cli.main on argv with this standard input; the exit code and what it
    printed.  Hypothesis examples cannot share pytest's capture fixtures."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


@given(surface_formulas, st.sampled_from([(), ("--logic", "kb")]))
def test_certified_json_verdicts_replay_through_check_and_modelcheck(f, logic):
    # A verdict exit code only ever comes with a certificate that the CLI's
    # own check (a derivation) or modelcheck (a countermodel) accepts.
    text = print_ascii(f)
    rc, report = _main_with("", "decide", "--certify", "--output", "json", *logic, text)
    assert rc in (0, 1), text
    if rc == 0:
        assert _main_with(report, "check", *logic, "-") == (0, "ok\n"), text
    else:
        assert _main_with(report, "modelcheck", *logic, "-", text) == (1, "not forced\n"), text


class _ClosingStdout(io.TextIOBase):
    """A standard output that takes `limit` characters: the write that
    would pass that point raises `error`, BrokenPipeError by default, as a
    write to a closed pipe does.  Its descriptor is a real file's, which
    main may point at os.devnull."""

    def __init__(self, limit: int, fd: int, error: OSError = BrokenPipeError(32, "Broken pipe")):
        self.limit, self.fd, self.error, self.written = limit, fd, error, 0

    def write(self, s: str) -> int:
        if self.written + len(s) > self.limit:
            self.written = self.limit
            raise self.error
        self.written += len(s)
        return len(s)

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("limit", [0, 1, 100, 4096, 10**9])
def test_a_closed_standard_output_keeps_the_exit_code(limit, tmp_path, monkeypatch, capsys):
    # `decide --output json "$fan7" | head -c 100` exited 4 when head closed
    # the pipe: the verdict's code must stand however much was read.
    fan = " | ".join([f"[F]p{i}" for i in range(3)] + [f"[P]~[F]q{i}" for i in range(3)])
    cases = [(1, "decide", "--output", "json", fan), (0, "decide", "--output", "json", "p -> p"),
             (1, "decide", "p"), (0, "decide", "--output", "latex", "p -> [F]~[P]~p")]
    for want, *argv in cases:
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosingStdout(limit, fd))
            assert main(argv) == want, argv
        finally:
            monkeypatch.undo()
            os.close(fd)
        assert capsys.readouterr().err == "", argv


@pytest.mark.parametrize("limit", [0, 10])
def test_a_failed_write_is_an_internal_error(limit, tmp_path, monkeypatch, capsys):
    # A full disk is no verdict: a valid and an invalid formula both exit 4.
    for argv in (("decide", "p -> p"), ("decide", "p")):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            full = OSError(28, "No space left on device")
            monkeypatch.setattr(sys, "stdout", _ClosingStdout(limit, fd, full))
            assert main(list(argv)) == 4, argv
        finally:
            monkeypatch.undo()
            os.close(fd)
        assert capsys.readouterr().err == (
            "internal error: OSError: [Errno 28] No space left on device\n"), argv


def test_out_of_memory_is_a_resource_limit(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(prover, "prove", exhausted)
    assert run(capsys, "decide", "p") == (2, "", "resource limit: out of memory\n")


def _main_on(argv, stdin: bytes, errors: str, limit: int) -> tuple[int, str]:
    """cli.main on argv, with standard input the bytes decoded as UTF-8
    under `errors` and a standard output that closes after `limit`
    characters; the exit code and what main wrote to standard error."""
    fd = os.open(os.devnull, os.O_WRONLY)
    saved, err = (sys.stdin, sys.stdout), io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors=errors)
    sys.stdout = _ClosingStdout(limit, fd)
    try:
        with contextlib.redirect_stderr(err):
            rc = main(list(argv))
    finally:
        sys.stdin, sys.stdout = saved
        os.close(fd)
    return rc, err.getvalue()


_OPTIONS = st.tuples(
    st.sampled_from([(), ("--logic", "kt"), ("--logic", "kb")]),
    st.sampled_from([(), ("--calculus", "lns"), ("--calculus", "lns-star")]),
    st.sampled_from([(), ("--output", "text"), ("--output", "json"), ("--output", "dot"),
                     ("--output", "latex")]),
    st.sampled_from([(), ("--certify",)]),
    st.sampled_from([(), ("--budget-nodes", "1"), ("--budget-nodes", "40"),
                     ("--budget-ms", "10000")]),
    # One in three draws adds a usage error.
    st.sampled_from([()] * 8 + [("--world", "w0"), ("--output", "pdf"),
                                ("--budget-nodes", "0"), ("--budget-ms", "x")]),
).map(lambda parts: sum(parts, ()))

# Text that reaches the parser: a printed formula, or, one time in three,
# random bytes; given as the argument (decoded as the interpreter decodes
# argv) or on standard input.
_formula_bytes = st.builds(lambda f: print_ascii(f).encode(), surface_formulas)
_INPUTS = st.tuples(st.one_of(_formula_bytes, _formula_bytes, st.binary(max_size=40)),
                    st.booleans())


@settings(max_examples=200)
@given(st.sampled_from(["decide", "prove"]), _OPTIONS, _INPUTS,
       st.sampled_from(["strict", "surrogateescape"]),
       st.one_of(st.integers(0, 300), st.just(10**9)))
def test_decide_exits_with_prove_s_verdict_a_limit_or_a_usage_error(
        command, options, data_on_stdin, errors, limit):
    # No input, option set or early-closing reader ends in a traceback or in
    # a verdict code that came from a crash.  The one exit 4 allowed is KT's
    # known SearchInvariantError, pinned below.
    data, on_stdin = data_on_stdin
    arg = "-" if on_stdin else data.decode("utf-8", "surrogateescape")
    rc, err = _main_on((command, *options, arg), data if on_stdin else b"", errors, limit)
    event(f"exit {rc}")
    logic = options[options.index("--logic") + 1] if "--logic" in options else "kt"
    calculus = options[options.index("--calculus") + 1] if "--calculus" in options else None
    v = {"kb": CalculusVariant.KB, "lns": CalculusVariant.KT}.get(
        logic if logic == "kb" else calculus, CalculusVariant.KT_STAR)
    if rc == 4:
        assert v is CalculusVariant.KT, err
        assert err == f"internal error: SearchInvariantError: {KT_STUCK_MESSAGE}\n", err
        return
    assert rc in (0, 1, 2, 3), (rc, err)
    if rc in (0, 1):
        text = data.decode("utf-8", errors) if on_stdin else arg
        outcome = prover.prove(parse(text.strip()), v)
        assert rc == (0 if isinstance(outcome, prover.Valid) else 1), text


# What check, modelcheck and corpus read from standard input: decide's JSON
# reports, valid and invalid under each variant (the last formula's KT model
# comes through a box choice whose left premiss closed by ew), and a corpus
# file; each as it is, truncated or mutated, or random JSON or text.
_REPORT_FORMULAS = ("p -> [F]~[P]~p", "[F](p -> [P]q) -> [F]p -> [F][P]q", "p -> [F]p",
                    "[F][P]((p -> [F][F]q) -> [F][F]q)")
_VARIANTS = ((), ("--calculus", "lns"), ("--logic", "kb"))
_CORPUS_TEXT = "valid\tp -> p\ninvalid\tp\nunknown\t[F]p -> p\nvalid\tp -> [F]~[P]~p\n"

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text("pqw01[]FP->~ ", max_size=6),
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(
        st.sampled_from(["nodes", "rule", "principal", "premisses", "end", "worlds", "edges",
                         "valuation", "root", "verdict", "derivation", "model"]) | st.text(max_size=3),
        sub, max_size=3),
    max_leaves=6)


@functools.cache
def _report(variant: tuple, text: str) -> str:
    rc, out = _main_with("", "decide", "--output", "json", *variant, text)
    assert rc in (0, 1), (variant, text)
    return out


def _mutate(draw, data) -> None:
    """Replace or delete one entry somewhere inside the JSON value data."""
    node = data
    while node:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.booleans()):
            node[key] = draw(_json_values)
            return
        else:
            del node[key]
            return


@st.composite
def _standard_inputs(draw) -> str:
    source = draw(st.sampled_from(["random", "report", "report", "corpus"]))
    if source == "random":
        return draw(st.one_of(_json_values.map(json.dumps), st.text(max_size=40)))
    text = _CORPUS_TEXT if source == "corpus" else _report(
        draw(st.sampled_from(_VARIANTS)), draw(st.sampled_from(_REPORT_FORMULAS)))
    how = draw(st.sampled_from(["as it is", "truncated", "mutated"]))
    if how == "truncated":
        return text[:draw(st.integers(0, len(text)))]
    if how == "mutated" and source == "report":
        data = json.loads(text)
        _mutate(draw, data)
        return json.dumps(data)
    if how == "mutated":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.text(max_size=3)) + text[i + 1:]
    return text


_READERS = st.one_of(
    st.tuples(st.just("check"), st.sampled_from(_VARIANTS), st.just(("-",))),
    st.tuples(st.just("modelcheck"),
              st.sampled_from([(), ("--logic", "kb"), ("--world", "w1"), ("--world", "w9")]),
              st.sampled_from(_REPORT_FORMULAS).map(lambda f: ("-", f))),
    st.tuples(st.just("corpus"), st.sampled_from(_VARIANTS + (("--budget-nodes", "40"),)),
              st.just(("-",))),
)


@settings(max_examples=200)
@given(_READERS, _standard_inputs(), st.one_of(st.integers(0, 300), st.just(10**9)))
def test_readers_exit_with_a_verdict_a_limit_or_a_usage_error(reader, text, limit):
    # check, modelcheck and corpus end in 0 or 1 (their verdict), 2 or 3,
    # whatever they read, and never in a traceback.  The one exit 4 allowed
    # is KT's known SearchInvariantError on a corpus line.
    command, options, args = reader
    rc, err = _main_on((command, *options, *args), text.encode(), "strict", limit)
    event(f"{command} exit {rc}")
    assert "Traceback" not in err, err
    if rc == 4:
        assert command == "corpus" and "lns" in options, err
        assert err == f"internal error: SearchInvariantError: {KT_STUCK_MESSAGE}\n", err
        return
    assert rc in (0, 1, 2, 3), (rc, err)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="KT search gives up on a box rule's left premiss that KT* proves")
def test_kt_decides_a_formula_kt_star_proves(capsys):
    text = "[F][F][P][P][P](p -> p)"
    assert run(capsys, "decide", text)[0] == 0
    assert run(capsys, "decide", "--calculus", "lns", text)[0] == 0


def test_unreadable_standard_input_is_a_usage_error(monkeypatch, capsys):
    # Each exited 4 with an internal error: bytes that are not UTF-8 under
    # a strict locale, a closed standard input (`decide - <&-`), and JSON
    # nested past the recursion limit.
    rc, err = _main_on(("decide", "-"), b"p \xff", "strict", 10**9)
    assert rc == 3 and err.startswith("usage error: cannot read standard input: 'utf-8' codec")
    assert _main_with("[" * 100_000, "check", "-")[0] == 3
    monkeypatch.setattr(sys, "stdin", None)
    assert run(capsys, "decide", "-") == (
        3, "", "usage error: cannot read standard input: it is closed\n")
