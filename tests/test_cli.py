import argparse
import contextlib
import copy
import importlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofgen import random_injected_proof, random_proof
from tml import cli, nd, tableau
from tml.cli import main
from tml.syntax import MAX_DEPTH, parse

GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


def run(capsys, *argv, expect=None):
    code = main(list(argv))
    captured = capsys.readouterr()
    if expect is not None:
        assert code == expect, (code, captured.out, captured.err)
    return code, captured.out, captured.err


# --- parse ---------------------------------------------------------------------


def test_parse_prints_canonical_form(capsys):
    _, out, _ = run(capsys, "parse", "(p)&((q))", expect=0)
    assert out.strip() == "p & q"


def test_parse_error_position_and_exit(capsys):
    code, out, err = run(capsys, "parse", "p &", expect=2)
    assert "parse error at position 4" in err


def test_parse_json(capsys):
    _, out, _ = run(capsys, "parse", "q > p | p", "--json", expect=0)
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["formula"] == "q > p | p"
    assert obj["variables"] == ["p", "q"]


def test_formula_from_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("p | ~[]p\n")
    _, out, _ = run(capsys, "valid", f"@{path}", expect=0)
    assert out.strip() == "VALID"


def test_formula_file_missing(capsys):
    code, _, err = run(capsys, "valid", "@/no/such/file", expect=2)
    assert "cannot read" in err


# --- table ---------------------------------------------------------------------


def test_table_succ_layout(capsys):
    _, out, _ = run(capsys, "table", ">", expect=0)
    lines = out.splitlines()
    assert lines[0].split("|")[1].split() == ["0", "n", "b", "1"]
    rows = {l.split("|")[0].strip(): l.split("|")[1].split() for l in lines[2:]}
    assert rows["b"] == ["b", "n", "1", "1"]
    assert rows["n"] == ["n", "1", "b", "1"]


def test_table_word_name_and_json(capsys):
    _, out, _ = run(capsys, "table", "neg", "--json", expect=0)
    obj = json.loads(out)
    assert obj["table"] == {"0": "1", "n": "n", "b": "b", "1": "0"}


def test_table_unknown_connective(capsys):
    run(capsys, "table", "xor", expect=2)


# --- eval -----------------------------------------------------------------------


def test_eval_with_assignment(capsys):
    _, out, _ = run(capsys, "eval", "p > q", "--assign", "p=b,q=n", expect=0)
    assert out.strip() == "n"


def test_eval_missing_assignment(capsys):
    code, _, err = run(capsys, "eval", "p & q", "--assign", "p=1", expect=2)
    assert "misses q" in err


def test_eval_bad_value(capsys):
    run(capsys, "eval", "p", "--assign", "p=2", expect=2)


def test_eval_enumerates_valuations(capsys):
    _, out, _ = run(capsys, "eval", "~p", expect=0)
    lines = out.strip().splitlines()
    assert lines == ["p=0  ->  1", "p=n  ->  n", "p=b  ->  b", "p=1  ->  0"]


def test_eval_vars_pins_order(capsys):
    _, out, _ = run(capsys, "eval", "p", "--vars", "q,p", "--json", expect=0)
    obj = json.loads(out)
    assert obj["variables"] == ["q", "p"]
    assert len(obj["rows"]) == 16
    # the later-pinned variable varies slowest
    assert [r["assignment"]["p"] for r in obj["rows"][:5]] == ["0", "0", "0", "0", "n"]


def test_eval_vars_must_cover_formula(capsys):
    run(capsys, "eval", "p & q", "--vars", "p", expect=2)


@pytest.mark.parametrize("option, value, message", [
    ("--assign", "p=1,p=0", "assignment gives p twice"),
    ("--assign", "p=1,Q=0", "bad variable name 'Q' in assignment"),
    ("--assign", "p=1,top=0", "bad variable name 'top' in assignment"),
    ("--vars", "p,Q", "bad variable name 'Q' in --vars"),
    ("--vars", "p,q,p", "--vars gives p twice"),
    # A value with spaces carries further arguments.
    ("--assign", "p=1 --vars q", "give --assign or --vars, not both"),
])
def test_eval_rejects_ambiguous_variables(capsys, option, value, message):
    _, out, err = run(capsys, "eval", "p", option, *value.split(), expect=2)
    assert (out, err) == ("", message + "\n")


# --- valid / countermodel / consequence --------------------------------------------


def test_valid_pin(capsys):
    _, out, _ = run(capsys, "valid", "p | ~[]p", expect=0)
    assert out.strip() == "VALID"


def test_invalid_reports_countermodel(capsys):
    code, out, _ = run(capsys, "valid", "p | ~p", expect=1)
    assert out.startswith("INVALID")
    assert "p=n" in out


def test_valid_json(capsys):
    _, out, _ = run(capsys, "valid", "[]p > p", "--json", expect=0)
    assert json.loads(out) == {"schema": 1, "verdict": "valid"}
    _, out, _ = run(capsys, "valid", "p", "--json", expect=1)
    assert json.loads(out) == {"schema": 1, "verdict": "invalid",
                               "countermodel": {"p": "0"}}


def test_countermodel_command(capsys):
    _, out, _ = run(capsys, "countermodel", "p | ~p", expect=1)
    assert out.strip() == "p=n"
    _, out, _ = run(capsys, "countermodel", "p > p", expect=0)
    assert out.strip() == "VALID"


def test_consequence_holds(capsys):
    _, out, _ = run(capsys, "consequence", "p & q", "--to", "p", expect=0)
    assert out.strip() == "HOLDS"


def test_consequence_fails_with_countermodel(capsys):
    code, out, _ = run(capsys, "consequence", "p", "~p", "--to", "bot", expect=1)
    assert "FAILS" in out and "p=n" in out


def test_consequence_premise_count_is_bounded(capsys):
    run(capsys, "consequence", *["p"] * MAX_DEPTH, "--to", "p", expect=0)
    _, out, err = run(capsys, "consequence", *["p"] * (MAX_DEPTH + 1), "--to", "p",
                      expect=2)
    assert out == ""
    assert err == f"more than {MAX_DEPTH} premises\n"


def test_consequence_deduction_failure_pin(capsys):
    alpha = ("<>(p & ~p) & <>(q & ~q) & <>((p > q) & ~(p > q)) & p")
    run(capsys, "consequence", alpha, "q", "--to", "bot", expect=0)
    code, out, _ = run(capsys, "consequence", alpha, "--to", "q > bot", expect=1)
    assert "p=n" in out and "q=b" in out


# --- prove / translate ----------------------------------------------------------------


def test_prove_refuted_pin(capsys):
    code, out, _ = run(capsys, "prove", "--system", "full", "[]<>p > <>[]p",
                       expect=1)
    assert out.startswith("REFUTED")
    assert "p=n" in out


def test_prove_proved_both_systems(capsys):
    for system in ("succ", "full"):
        _, out, _ = run(capsys, "prove", "--system", system, "p | ~[]p", expect=0)
        assert out.strip() == "PROVED"


def test_prove_emit_tableau(capsys):
    _, out, _ = run(capsys, "prove", "--system", "succ", "p > p",
                    "--emit-tableau", expect=0)
    assert "PROVED" in out
    assert "[F(>)]" in out
    assert "closed" in out


def test_prove_derived_flag(capsys):
    _, out, _ = run(capsys, "prove", "--system", "succ", "--derived",
                    "p > p", expect=0)
    assert out.strip() == "PROVED"
    code, out, _ = run(capsys, "prove", "--system", "succ", "--derived",
                       "[]<>p > <>[]p", expect=1)
    assert "p=n" in out


def test_prove_json_includes_countermodel(capsys):
    _, out, _ = run(capsys, "prove", "--system", "full", "p & q", "--json",
                    expect=1)
    obj = json.loads(out)
    assert obj["verdict"] == "refuted"
    assert obj["countermodel"] == {"p": "0", "q": "0"}


def test_prove_agrees_with_valid_on_exit_codes(capsys):
    formulas = ["p > p", "p | ~p", "[]p > p", "p > []p", "~(p & ~p)",
                "[](p & q) > ([]p & []q)", "bot > p", "p > top"]
    for text in formulas:
        v = main(["valid", text])
        capsys.readouterr()
        for system in ("succ", "full"):
            t = main(["prove", "--system", system, text])
            capsys.readouterr()
            assert t == v, (text, system)


def test_prove_exits_3_on_a_wrong_countermodel(capsys, monkeypatch):
    monkeypatch.setattr(tableau, "_model", lambda trail: {"p": "1"})
    _, out, err = run(capsys, "prove", "--system", "succ", "p | ~p", expect=3)
    assert out == ""
    assert err.startswith("invariant violation: ")


def test_translate(capsys):
    _, out, _ = run(capsys, "translate", "[]p", "--to", "succ", expect=0)
    assert out.strip() == "~(p > ~p)"
    _, out, _ = run(capsys, "translate", "p > q", "--to", "full", expect=0)
    assert parse(out.strip()) is not None


# --- nd subcommands ------------------------------------------------------------------


@pytest.fixture
def lem_i_file(tmp_path):
    path = tmp_path / "lem-i.json"
    path.write_text(json.dumps(nd.to_json(nd.builtin_examples()["lem-i"])))
    return str(path)


def test_nd_check_ok(capsys, lem_i_file):
    _, out, _ = run(capsys, "nd-check", lem_i_file, expect=0)
    assert "OK" in out
    assert "|- [](p | ~[]p)" in out
    assert "normal: yes" in out


def test_nd_check_json(capsys, lem_i_file):
    _, out, _ = run(capsys, "nd-check", lem_i_file, "--json", expect=0)
    obj = json.loads(out)
    assert obj["verdict"] == "ok"
    assert obj["open_assumptions"] == []
    assert obj["conclusion"] == "[](p | ~[]p)"
    assert obj["normal"] is True


def test_nd_check_ill_formed(capsys, tmp_path):
    obj = nd.to_json(nd.builtin_examples()["lem-i"])
    obj["conclusion"] = "p"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "nd-check", str(path), expect=1)
    assert "ILL-FORMED" in out


def test_nd_check_bad_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    run(capsys, "nd-check", str(path), expect=2)
    path.write_text('{"rule": "NoSuchRule", "conclusion": "p", "premises": []}')
    run(capsys, "nd-check", str(path), expect=2)


def test_nd_check_missing_file(capsys):
    run(capsys, "nd-check", "/no/such/proof.json", expect=2)


@pytest.mark.parametrize("error, code", [(TypeError, 3), (KeyError, 3), (ValueError, 2)])
def test_only_a_value_error_from_the_reader_is_bad_input(capsys, monkeypatch, lem_i_file,
                                                          error, code):
    # from_json checks every field's type before it uses it, so a TypeError
    # or KeyError out of it is a bug in the reader, not a bad proof.
    def reader(obj):
        raise error("from the reader")

    monkeypatch.setattr(nd, "from_json", reader)
    _, out, err = run(capsys, "nd-check", lem_i_file, expect=code)
    assert out == ""
    if code == 3:
        assert "Traceback" in err and "from the reader" in err
    else:
        assert err.strip() == "bad proof object: from the reader"


def stdin_of(data):
    """A stand-in for sys.stdin holding data, decoded as utf-8 like a
    process started with PYTHONIOENCODING=utf-8."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@pytest.mark.parametrize("command", ["nd-check", "nd-normalize"])
def test_proof_from_stdin_reads_as_from_a_file(capsys, monkeypatch, lem_i_file, command):
    from_file = run(capsys, command, lem_i_file, expect=0)
    monkeypatch.setattr(sys, "stdin", stdin_of(pathlib.Path(lem_i_file).read_bytes()))
    assert run(capsys, command, "-", expect=0) == from_file


@pytest.mark.parametrize("command", ["nd-check", "nd-normalize"])
@pytest.mark.parametrize("stdin, message", [
    (None, "cannot read -: no standard input\n"),
    (b"\xff", "cannot read -: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n"),
], ids=["closed", "not-utf-8"])
def test_unreadable_stdin_is_a_usage_error(capsys, monkeypatch, command, stdin, message):
    monkeypatch.setattr(sys, "stdin", stdin if stdin is None else stdin_of(stdin))
    assert run(capsys, command, "-", expect=2) == (2, "", message)


def test_nd_normalize_detour(capsys, tmp_path):
    proof = nd.and_e1(nd.and_i(nd.Assume(parse("p")), nd.Assume(parse("q"))))
    path = tmp_path / "detour.json"
    path.write_text(json.dumps(nd.to_json(proof)))
    _, out, err = run(capsys, "nd-normalize", str(path), "--trace", expect=0)
    assert json.loads(out) == {"rule": "Assume", "formula": "p", "marker": None}
    assert "detour" in err
    assert "measure=" in err


def test_nd_normalize_json(capsys, tmp_path):
    proof = nd.neg_neg_e(nd.neg_neg_i(nd.Assume(parse("q"))))
    path = tmp_path / "detour.json"
    path.write_text(json.dumps(nd.to_json(proof)))
    _, out, _ = run(capsys, "nd-normalize", str(path), "--json", expect=0)
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["proof"] == {"rule": "Assume", "formula": "q", "marker": None}


def test_nd_normalize_ill_formed(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rule": "BoxE", "conclusion": "p",
                                "premises": [{"rule": "Assume", "formula": "q",
                                              "marker": None}],
                                "discharges": []}))
    run(capsys, "nd-normalize", str(path), expect=1)


def _negneg_proof(rules):
    """JSON text of NegNegI and NegNegE applied in turn to p, `rules` deep."""
    opens = ('{"rule": "NegNegI", "conclusion": "~~p", "discharges": [], "premises": ['
             if level % 2 else
             '{"rule": "NegNegE", "conclusion": "p", "discharges": [], "premises": ['
             for level in range(rules, 0, -1))
    leaf = '{"rule": "Assume", "formula": "p", "marker": null}'
    return "".join(opens) + leaf + "]}" * rules


@pytest.mark.parametrize("command", ["nd-check", "nd-normalize"])
def test_proof_depth_bound(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    for rules, code in ((nd.MAX_PROOF_DEPTH, 0), (nd.MAX_PROOF_DEPTH + 1, 2), (1000, 2)):
        path.write_text(_negneg_proof(rules))
        _, out, err = run(capsys, command, str(path), expect=code)
        assert "Traceback" not in err
        if code == 0:
            assert out.startswith("OK  p |- p" if command == "nd-check" else "{")
        else:
            assert out == ""


# --- identities / dispatch --------------------------------------------------------------


def test_identities_all_hold(capsys):
    _, out, _ = run(capsys, "identities", expect=0)
    assert "33/33 identities hold" in out
    assert "FAIL" not in out


def test_identities_json(capsys):
    _, out, _ = run(capsys, "identities", "--json", expect=0)
    obj = json.loads(out)
    assert obj["all_hold"] is True
    assert len(obj["results"]) == 33
    suites = {r["suite"] for r in obj["results"]}
    assert suites == {"axioms", "modal", "lattice", "definability", "implication"}


def test_unknown_subcommand(capsys):
    run(capsys, "frobnicate", expect=2)


def test_no_arguments(capsys):
    run(capsys, expect=2)


def test_help_exits_zero(capsys):
    run(capsys, "--help", expect=0)


# --- golden output ---------------------------------------------------------------
#
# cli_golden.json holds the README examples and every subcommand in text and
# --json form, with the stdout, stderr and exit code each had before the
# handlers were folded onto one output path.  "{name}" arguments stand for
# the proof file built from GOLDEN["files"][name].


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, obj in GOLDEN["files"].items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return paths


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
def test_golden_output(capsys, golden_files, case):
    argv = [str(golden_files[a[1:-1]]) if a.startswith("{") else a
            for a in case["argv"]]
    code, out, err = run(capsys, *argv)
    assert code == case["exit"]
    assert out == case["stdout"]
    assert err == case["stderr"]


# --- bad input exits 2 -------------------------------------------------------------


LIST_MARKER_PROOF = {
    "rule": "BoxI", "conclusion": "[]p",
    "premises": [{"rule": "Assume", "formula": "p", "marker": None},
                 {"rule": "Assume", "formula": "bot", "marker": None}],
    "discharges": [{"marker": ["u"], "formula": "~p"}],
}


@pytest.mark.parametrize("argv", [
    ["valid", " & ".join(f"v{i}" for i in range(14))],
    ["valid", "~" * 1200 + "p"],
    ["nd-check", "{list-marker}"],
    ["valid", "(" * 200 + "p" + ")" * 200],
    ["valid", " & ".join(["p"] * 1000)],
    ["eval", " | ".join(f"v{i}" for i in range(14))],
    ["valid", "@\0"],
    ["valid", "@{latin-1}"],
    ["nd-check", "{latin-1}"],
], ids=["14-variables", "deep-neg", "list-marker", "deep-parens", "long-chain",
        "eval-14-variables", "nul-in-path", "formula-not-utf-8", "proof-not-utf-8"])
def test_bad_input_exits_2(capsys, tmp_path, argv):
    (tmp_path / "list-marker").write_text(json.dumps(LIST_MARKER_PROOF))
    (tmp_path / "latin-1").write_bytes(b"p \xff q")
    argv = [a.replace("{", f"{tmp_path}/").replace("}", "") for a in argv]
    code, out, err = run(capsys, *argv, expect=2)
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["parse"], ["valid"], ["countermodel"], ["eval"],
    ["translate", "--to", "full"], ["prove", "--system", "full"],
], ids=" ".join)
def test_max_depth_is_accepted(capsys, argv):
    code, out, err = run(capsys, *argv, "<>" * MAX_DEPTH + "p")
    assert code in (0, 1), err
    run(capsys, *argv, "<>" * (MAX_DEPTH + 1) + "p", expect=2)


def test_max_depth_chain_survives_succ_translation(capsys):
    chain = " & ".join(["p"] * (MAX_DEPTH + 1))
    code, _, err = run(capsys, "prove", "--system", "succ", chain)
    assert code == 1, err
    _, out, _ = run(capsys, "translate", "--to", "succ", "~" * MAX_DEPTH + "p",
                    expect=0)
    assert out.strip() == "~" * MAX_DEPTH + "p"


# --- generated input -----------------------------------------------------------------


_TOKENS = ["p", "q", "r", "bot", "top", "~", "[]", "<>", "&", "|", ">", "(", ")",
           "[", "<", "P", "1", "@", "-"]
_FORMULAS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
    st.text(max_size=8),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["parse", "eval", "valid", "countermodel", "consequence", "translate", "prove"]))
    argv = [command]
    if command == "consequence":
        argv += draw(st.lists(_FORMULAS, max_size=2)) + ["--to"]
    argv.append(draw(_FORMULAS))
    if command == "eval":
        argv += draw(st.sampled_from([
            [], ["--assign", "p=1"], ["--assign", "p=n,q=b,r=0"], ["--assign", "p=2"],
            ["--assign", "p"], ["--vars", "q,p"], ["--vars", "p,q,r,s"], ["--vars", ""],
        ]))
    if command == "translate":
        argv += ["--to", draw(st.sampled_from(["succ", "full", "none"]))]
    if command == "prove":
        argv += ["--system", draw(st.sampled_from(["succ", "full"]))]
        argv += [flag for flag in ("--derived", "--emit-tableau") if draw(st.booleans())]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None, database=None)
@given(_argv())
def test_generated_input_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and code in (0, 1):
        json.loads(out.getvalue())


# --- mutated proofs -------------------------------------------------------------------


_JUNK = [None, 0, -1, 2.5, True, "", "p &", "top", "<>p", "p > q", "p", "~~p", "[]p",
         "q & p", "bot", "AndI", "BotE", "MA", "Assume", "Frobnicate", [], [None], ["u"],
         [[]], {}, {"rule": "Assume"}, {"rule": "MA", "formula": "p"},
         {"marker": "u", "formula": "p"}]


def _objects(obj):
    """Every JSON object in obj: proof nodes and discharge entries."""
    stack, out = [obj], []
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            out.append(x)
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
    return out


def _mutant(rng):
    """A generated proof with 1-3 fields of random objects set to junk: a
    field the object has, or an extra key."""
    proof = (random_proof(rng, fuel=3) if rng.random() < 0.5
             else random_injected_proof(rng, fuel=2))
    obj = nd.to_json(proof)
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(_objects(obj))
        target[rng.choice(sorted(target) + ["extra"])] = copy.deepcopy(rng.choice(_JUNK))
    return obj


def test_mutated_proofs_keep_the_exit_contract(tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "proof.json"
    for _ in range(400):
        obj = _mutant(rng)
        path.write_text(json.dumps(obj))
        for command in ("nd-check", "nd-normalize"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 1, 2), (command, obj, err.getvalue())
            assert "Traceback" not in err.getvalue()


# --- start-up --------------------------------------------------------------------
#
# Every command line starts a fresh interpreter, so what `import tml.cli`
# loads is paid on every call.  These run the interpreter as the console
# script would, without site-packages (-S), on this checkout's sources.

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                          text=True, timeout=60)


def _modules_after(statement):
    done = _fresh_python("-c", f"import sys; {statement}; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_a_command_skips_shutil(lem_i_file):
    # argparse's stock formatter imports shutil to read the terminal width
    # each time it is built, also when no help is printed.  And a command
    # loads only the tml modules it runs, on its error paths too: tml.nd and
    # tml.tableau for the commands that use them, and weakref.py for none.
    assert not {m for m in _modules_after("import tml") if m.startswith("tml.")}
    command = "import tml.cli; tml.cli.main({!r})"
    for argv in (["parse", "p"], ["parse", "p &"], ["valid", "@"], ["table", "nosuch"]):
        loaded = _modules_after(command.format(argv))
        assert not {"tml.nd", "tml.tableau", "weakref", "shutil"} & loaded, argv
    loaded = _modules_after(command.format(["prove", "--system", "full", "p"]))
    assert "tml.tableau" in loaded and not {"tml.nd", "weakref"} & loaded
    loaded = _modules_after(command.format(["nd-check", lem_i_file]))
    assert "tml.nd" in loaded and not {"tml.tableau", "weakref"} & loaded


# The public names of the package, by the module that defines them.
_PUBLIC = {
    "algebra": ["B", "DESIGNATED", "N", "ONE", "VALUES", "ZERO", "apply_op",
                "check_identity", "designated", "leq"],
    "semantics": ["TooManyVariables", "conjugate", "consequence", "consequence_countermodel",
                  "countermodel", "evaluate", "valid", "valuations"],
    "errors": ["InvariantViolation"],
    "nd": ["MA", "Assume", "DischargeError", "Judgement", "Rule", "SchemaError",
           "atomize_bot", "builtin_examples", "check", "is_normal", "normalize"],
    "syntax": ["BOT", "TOP", "And", "Bot", "Box", "Dia", "Formula", "Neg", "Or", "ParseError",
               "Signature", "SignatureError", "Succ", "Top", "Var", "complexity", "degree",
               "in_signature", "parse", "render", "translate", "variables"],
    "tableau": ["F", "Proved", "Refuted", "SignedFormula", "T", "Tableau", "complete",
                "decide", "decide_consequence", "extract_model", "format_tableau"],
}
_SUBMODULES = ["algebra", "cli", "errors", "hashcons", "nd", "semantics", "syntax", "tableau"]


def test_the_package_names_the_objects_of_its_modules():
    import tml

    public = [name for names in _PUBLIC.values() for name in names]
    assert len(public) == 63 and sorted(tml.__all__) == sorted(public)
    for module, names in _PUBLIC.items():
        for name in names:
            assert getattr(tml, name) is getattr(importlib.import_module(f"tml.{module}"), name)
    assert set(public + _SUBMODULES) <= set(dir(tml))
    assert not hasattr(tml, "nosuch")


def test_a_star_import_binds_the_public_names():
    done = _fresh_python("-c", "import json, tml; names = {}; exec('from tml import *', names); "
                               "print(json.dumps([sorted(set(names) - {'__builtins__'}), "
                               "tml.__all__, dir(tml)]))")
    assert done.returncode == 0, done.stderr
    star, public, listed = json.loads(done.stdout)
    assert star == sorted(public) == sorted(name for names in _PUBLIC.values() for name in names)
    assert set(public + _SUBMODULES) <= set(listed)


@pytest.mark.parametrize("module", _SUBMODULES)
def test_a_bare_import_resolves_each_submodule(module):
    done = _fresh_python("-c", f"import tml; print(tml.{module}.__name__)")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"tml.{module}\n", "")


def test_the_handlers_call_what_is_swapped_in_the_module(capsys, monkeypatch):
    # perfbench's traced pass swaps these four names in tml.cli for wrapped
    # ones; a handler that bound them anywhere else would miss the wrappers.
    commands = {
        ("parse", "p > q"): {"parse"},
        ("prove", "--system", "full", "[]p > p"): {"parse", "decide"},
        ("valid", "p"): {"parse", "countermodel"},
        ("countermodel", "p | ~p"): {"parse", "countermodel"},
        ("consequence", "p", "--to", "p | q"): {"parse", "consequence_countermodel"},
    }
    plain = {argv: (main(list(argv)), capsys.readouterr()) for argv in commands}
    called = set()

    def stand_in(name):
        real = getattr(cli, name)

        def delegate(*args, **kwargs):
            called.add(name)
            return real(*args, **kwargs)

        return delegate

    for name in ("parse", "decide", "countermodel", "consequence_countermodel"):
        monkeypatch.setattr(cli, name, stand_in(name))
    for argv, names in commands.items():
        called.clear()
        assert (main(list(argv)), capsys.readouterr()) == plain[argv]
        assert called == names, argv


def _stock_main(monkeypatch, argv):
    """main(argv) with argparse's own formatter and subcommand prog."""
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def stock_add_subparsers(self, prog=None, **kwargs):
        return add_subparsers(self, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
        patch.setattr(argparse.ArgumentParser, "add_subparsers", stock_add_subparsers)
        return main(argv)


@pytest.mark.parametrize("columns", ["30", "40", "80", "200"])
@pytest.mark.parametrize("argv", [
    ["--help"], ["prove", "--help"], ["eval", "--help"], ["prove", "p"], ["nosuch"],
], ids=" ".join)
def test_help_and_usage_match_argparse(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    ours = main(argv), capsys.readouterr()
    stock = _stock_main(monkeypatch, argv), capsys.readouterr()
    assert ours == stock
    assert ours[1].out or ours[1].err


def _with_closed_stdout(*argv):
    """Run the CLI with its stdout a pipe whose reader is gone."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-S", "-m", "tml.cli", *argv],
                              env={**os.environ, "PYTHONPATH": _SRC}, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)


@pytest.mark.parametrize("argv, code", [
    (["valid", "p | ~[]p"], 0),
    (["valid", "p"], 1),
    (["table", "succ", "--json"], 0),
], ids=["valid-holds", "valid-fails", "table-json"])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    done = _with_closed_stdout(*argv)
    assert (done.returncode, done.stderr) == (code, "")


def test_importing_the_cli_skips_costly_modules():
    # Measured against what `python -m` loads by itself, so that another
    # Python version's stdlib cannot fail it.
    baseline = _modules_after("import runpy, importlib.util")
    loaded = _modules_after("import tml.cli")
    assert "tml.cli" in loaded
    assert not {"dataclasses", "typing", "inspect", "json", "argparse", "gettext", "locale",
                "re", "weakref"} & (loaded - baseline)


def _imports_of(*args):
    """The completed `python -S -X importtime *args` and the names of the
    modules it imported."""
    done = _fresh_python("-X", "importtime", *args)
    return done, {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["parse", "p"], ["valid", "p"], ["table", "and"], ["eval", "p", "--assign", "p=1"],
    ["prove", "--system", "full", "p"], ["translate", "p", "--to", "succ"],
    ["consequence", "p", "--to", "p"],
], ids=" ".join)
def test_a_plain_command_line_loads_neither_argparse_nor_re(argv):
    # argparse, with gettext and locale, loads only for help and usage
    # errors, and re for none of these commands.
    _, baseline = _imports_of("-c", "import runpy, importlib.util")
    done, loaded = _imports_of("-m", "tml.cli", *argv)
    assert done.returncode in (0, 1) and done.stdout, done.stderr
    costly = {"argparse", "gettext", "locale", "re"}
    assert not {m for m in loaded - baseline if m.split(".")[0] in costly}, argv


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["consequence", "p", "--to"], 2),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_print_argparses_text(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    done = _fresh_python("-m", "tml.cli", *argv)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    stock = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, stock.out, stock.err)
    assert stock.out or stock.err


# --- the fast path -----------------------------------------------------------------
#
# main reads plain command lines off cli._COMMANDS without argparse and
# hands every other argv to argparse.  What the fast path accepts, it must
# read as argparse does.

def _argparse_reads(parser, argv):
    """vars() of parser.parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_the_fast_path_reads_every_plain_golden_argv_as_argparse_does():
    parser = cli.build_parser()
    orders = [["prove", "--system", "full", "p"], ["prove", "p", "--system", "full", "--json"],
              ["consequence", "p", "q", "--to", "r"], ["consequence", "--to", "r"]]
    for argv in [case["argv"] for case in GOLDEN["cases"]] + orders:
        fast, stock = cli._fast_parse(argv), _argparse_reads(parser, argv)
        if fast is not None or not {"-h", "--help"} & set(argv):
            assert fast is not None and vars(fast) == stock, argv


def test_the_fast_path_agrees_with_argparse_on_random_tokens():
    parser = cli.build_parser()
    flags = sorted({option[0] for *_, options in cli._COMMANDS.values() for option in options})
    words = [*cli._COMMANDS, *flags, "--json", "-", "--", "-h", "--to=full", "--sys",
             "-1", "", "p", "p & q", "full", "succ", "p=1"]
    values = ["full", "succ", "p", "", "-", "-1", "--json"]
    rng = random.Random(34)
    accepted = dict.fromkeys(cli._COMMANDS, 0)
    for _ in range(20_000):
        name = rng.choice(list(cli._COMMANDS))
        argv = [name if rng.random() < 0.95 else rng.choice(words)]
        own = [flag for flag, *_ in cli._COMMANDS[name][3]] + ["--json"]
        for _ in range(rng.randint(1, 4)):
            argv += [rng.choice(own), rng.choice(values)] if rng.random() < 0.5 else [rng.choice(words)]
        fast = cli._fast_parse(argv)
        if fast is not None:
            accepted[argv[0]] += 1
            assert vars(fast) == _argparse_reads(parser, argv), argv
    assert min(accepted.values()) >= 10, accepted


@pytest.mark.parametrize("argv, code, out", [
    (["parse", "p"], 0, "p\n"),
    (["valid", "p"], 1, "INVALID  countermodel: p=0\n"),
    (["parse", "p", "--json"], 0, '{\n  "schema": 1,\n  "formula": "p",\n  "variables": [\n    "p"\n  ]\n}\n'),
])
def test_module_entry_point(argv, code, out):
    done = _fresh_python("-m", "tml.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
