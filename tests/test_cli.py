import io
import json
import os
import select
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import vplogic
from vplogic.cli import main

DATA = Path(__file__).parent / "data"
CORE = str(DATA / "golden_core.vpl")
HOUSING = str(DATA / "golden_housing.vpl")
TRAVEL = str(DATA / "golden_travel.vpl")


def run_cli(*argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage failures
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def machine_record(*argv, **kwargs):
    code, out, err = run_cli(*argv, "--output", "machine", **kwargs)
    lines = [line for line in out.splitlines() if line.strip()]
    return code, [json.loads(line) for line in lines]


# -- exit codes ----------------------------------------------------------------


def test_entails_exit_codes():
    code, out, _ = run_cli("entails", CORE, "i past bake*potato", "i past cook*vegetable")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli("entails", CORE, "i past cook*vegetable", "i past bake*potato")
    assert code == 1 and out.startswith("false")
    code, _, err = run_cli("entails", CORE, "i past bake*granite", "i past cook*vegetable")
    assert code == 2 and "granite" in err


def test_usage_error_is_exit_2():
    code, _, _ = run_cli("entails", CORE, "only-one-arg")
    assert code == 2
    code, _, _ = run_cli("nonsense", CORE)
    assert code == 2
    code, _, err = run_cli("entails", CORE, "i past bake * potato", "gibberish here")
    assert code == 2 and "error" in err


def test_missing_file_is_exit_2():
    code, _, err = run_cli("laws", str(DATA / "missing.vpl"))
    assert code == 2 and "missing.vpl" in err


def test_check_exit_codes():
    code, out, _ = run_cli("check", CORE, '"i past_perfect live_in*tokyo"')
    assert code == 0 and out.strip() == "factual"
    code, out, _ = run_cli("check", CORE, 'NOT "i past_perfect live_in*tokyo"')
    assert code == 1 and out.strip() == "not_factual"
    code, out, _ = run_cli("check", CORE, '"i past_perfect eat*bread"')
    assert code == 1 and out.strip() == "unknown"
    code, out, _ = run_cli("check", HOUSING, '"i future own*property*us"')
    assert code == 0 and out.strip() == "plan"


def test_render_uses_subject_lifetime(tmp_path):
    path = tmp_path / "lifetimes.vpl"
    path.write_text(
        "noun laptop kind_of computer\nverb buy way_of own\nlifetime bob = [5,50]\n"
    )
    code, out, _ = run_cli("render", str(path), "bob past_perfect buy*laptop")
    assert code == 0 and out.strip() == "EXISTS t in [5,50]: bob buy_t * laptop"
    # Anyone without a declared lifetime gets the default.
    code, out, _ = run_cli("render", str(path), "eve past_perfect buy*laptop")
    assert out.strip() == "EXISTS t in [0,100]: eve buy_t * laptop"


def test_closure_output_deterministic():
    args = ("closure", HOUSING, "i future buy*house*california")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    code, out, _ = first
    assert code == 0
    assert out.splitlines() == [
        "i future buy*house*us",
        "i future buy*property*california",
        "i future own*house*california",
        "i future buy*property*us",
        "i future own*house*us",
        "i future own*property*california",
        "i future own*property*us",
    ]


def test_closure_cap_flag():
    code, out, err = run_cli(
        "closure", HOUSING, "i future buy*house*california", "--cap", "2"
    )
    assert code == 0 and len(out.splitlines()) == 2
    assert "truncated" in err


def test_contrapose_and_disjunct():
    code, out, _ = run_cli(
        "contrapose", CORE, "i past_perfect bake*potato", "i past_perfect cook*vegetable"
    )
    assert code == 0
    assert out.strip() == (
        "i past_perfect not cook*vegetable => i past_perfect not bake*potato"
    )
    code, out, _ = run_cli(
        "disjunct", CORE, "i past_perfect bake*potato", "i past_perfect cook*vegetable"
    )
    assert code == 0
    assert out.strip() == (
        "NOT(i past_perfect bake*potato) OR (i past_perfect cook*vegetable)"
    )
    code, out, _ = run_cli(
        "contrapose", CORE, "i past_perfect cook*vegetable", "i past_perfect bake*potato"
    )
    assert code == 1 and out.startswith("no:")


def test_render_command():
    code, out, _ = run_cli("render", CORE, "i past_perfect buy*laptop_computer")
    assert code == 0 and out.strip() == "EXISTS t in [0,100]: i buy_t * laptop_computer"
    code, out, _ = run_cli("render", CORE, "i future buy*laptop_computer")
    assert code == 1


def test_ask_command():
    code, out, _ = run_cli(
        "ask", HOUSING, "which_part", "i future own*property*us", "--slot", "1"
    )
    assert code == 0 and out.strip() == "i future own*property*california"
    code, out, _ = run_cli(
        "ask", HOUSING, "which_kind", "i future buy*house*california", "--slot", "0"
    )
    assert code == 1 and "no_refinement" in out
    # Unsupported statements are a logical negative, not a usage error.
    code, out, _ = run_cli("ask", HOUSING, "how", "i future own*house*us")
    assert code == 0 and out.strip() == "i future buy*house*us"
    code, out, _ = run_cli(
        "ask", HOUSING, "how", "i past_perfect own*property*us"
    )
    assert code == 1


def test_fuzzy_command():
    code, out, _ = run_cli("fuzzy", CORE, "american", "eat", "seaweed")
    assert code == 0 and out.strip() == "american rarely eat seaweed"
    code, _, err = run_cli("fuzzy", CORE, "i", "bake", "potato")
    assert code == 1


def test_laws_command():
    code, out, _ = run_cli("laws", CORE)
    assert code == 0
    assert out.splitlines()[-1] == "violations: 0"


def test_laws_audits_each_tense_class(tmp_path):
    path = tmp_path / "tenses.vpl"
    path.write_text(
        "noun potato kind_of vegetable\n"
        "verb bake way_of cook\n"
        "fact i past_perfect bake * potato\n"
        "fact i present_continuous bake * potato\n"
        "fact i past bake * potato @ [3,4]\n"
        "fact i future bake * potato\n"
    )
    code, out, _ = run_cli("laws", str(path))
    assert code == 0
    lines = out.splitlines()
    # Three auditable classes (future is a plan and stays out).
    assert sum(1 for line in lines if line.startswith("ok ")) == 3
    assert lines[-1] == "violations: 0"


_TIMED_FACTS = ("fact i past eat*apple @ [3,4]\n", "fact i past_perfect not eat*fruit\n")


@pytest.mark.parametrize("facts", [_TIMED_FACTS, _TIMED_FACTS[::-1]])
def test_timed_past_facts_contradict_across_tenses(tmp_path, facts):
    # "At some t in [3,4] I ate an apple" breaks "at no t in my lifetime
    # did I eat fruit", in whichever order the two facts are loaded.
    path = tmp_path / "timed.vpl"
    path.write_text(
        "noun apple kind_of fruit\nverb eat way_of consume\nlifetime i = [0,100]\n"
        + "".join(facts)
    )
    code, out, err = run_cli("laws", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "the opposite is already entailed" in lines[0]


def test_entails_across_timed_past_tenses(tmp_path):
    path = tmp_path / "timed.vpl"
    path.write_text(
        "noun apple kind_of fruit\nverb eat way_of consume\nlifetime i = [0,100]\n"
        + _TIMED_FACTS[0]
    )
    code, out, _ = run_cli(
        "entails", str(path), "i past eat*apple @ [3,4]", "i past_perfect eat*fruit"
    )
    assert code == 0 and out.strip() == "true"


def test_identical_inputs_identical_outputs():
    invocations = [
        ("closure", HOUSING, "i future buy*house*california"),
        ("entails", CORE, "i past bake*potato", "i past cook*vegetable"),
        ("check", CORE, '"i past_perfect live_in*tokyo"'),
        ("laws", CORE),
        ("fuzzy", CORE, "american", "eat", "seaweed"),
        ("render", CORE, "i past_perfect buy*laptop_computer"),
    ]
    for argv in invocations:
        assert run_cli(*argv) == run_cli(*argv)
        assert machine_record(*argv) == machine_record(*argv)


def test_repl_session():
    transcript = "= i future own*property*us\n? which_part 1\nexit\n"
    code, out, _ = run_cli("repl", HOUSING, stdin_text=transcript)
    assert code == 0
    assert out.splitlines() == ["A: plan", "A: i future own*property*california"]


def test_lenient_flag(tmp_path):
    path = tmp_path / "loose.vpl"
    path.write_text("verb bake way_of cook\nfact i past_perfect bake * mystery\n")
    code, _, err = run_cli("laws", str(path))
    assert code == 2 and "mystery" in err
    code, out, _ = run_cli("laws", str(path), "--lenient")
    assert code == 0


def test_vpl_cap_env(monkeypatch):
    monkeypatch.setenv("VPL_CAP", "2")
    code, out, err = run_cli("closure", HOUSING, "i future buy*house*california")
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
def test_bad_vpl_cap_env_is_a_usage_error(monkeypatch, value):
    monkeypatch.setenv("VPL_CAP", value)
    code, out, err = run_cli("closure", HOUSING, "i future buy*house*california")
    assert code == 2 and out == ""
    assert err == f"error: VPL_CAP: invalid cap {value!r}: expected a positive integer\n"
    monkeypatch.delenv("VPL_CAP")
    code, _, err = run_cli(
        "closure", HOUSING, "i future buy*house*california", f"--cap={value}"
    )
    assert code == 2
    assert f"argument --cap: invalid cap {value!r}: expected a positive integer" in err


@pytest.mark.parametrize("output", ["text", "machine"])
def test_repl_flushes_each_answer(output):
    # A pipe is block-buffered unless PYTHONUNBUFFERED is set, so an
    # answer that is not flushed only arrives when the repl exits.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(vplogic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "vplogic.cli", "repl", HOUSING, "--output", output],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    ) as proc:
        proc.stdin.write("= i future own*property*us\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 20)
        answer = proc.stdout.readline() if ready else None
    assert answer is not None, "no answer while the repl is still running"
    if output == "text":
        assert answer == "A: plan\n"
    else:
        assert json.loads(answer)["response"] == "A: plan"


# -- machine output ---------------------------------------------------------------


def test_machine_records_have_documented_fields():
    cases = {
        ("check", CORE, '"i past_perfect live_in*tokyo"'): {"command", "status", "value"},
        ("entails", CORE, "i past bake*potato", "i past cook*vegetable"): {
            "command", "status", "result"},
        ("closure", HOUSING, "i future buy*house*california"): {
            "command", "status", "truncated", "count", "conclusions"},
        ("contrapose", CORE, "i past_perfect bake*potato",
         "i past_perfect cook*vegetable"): {"command", "status", "from", "to"},
        ("disjunct", CORE, "i past_perfect bake*potato",
         "i past_perfect cook*vegetable"): {"command", "status", "expression"},
        ("render", CORE, "i past_perfect buy*laptop_computer"): {
            "command", "status", "statement", "quantifier", "interval", "subject", "phrase"},
        ("ask", HOUSING, "how", "i future own*property*california"): {
            "command", "status", "answers", "reason"},
        ("fuzzy", CORE, "i", "eat", "chicken"): {
            "command", "status", "statement", "degree", "adverb", "possible"},
        ("laws", CORE): {"command", "status", "verified", "indeterminate",
                         "violations", "entries"},
    }
    for argv, fields in cases.items():
        code, records = machine_record(*argv)
        assert len(records) == 1, argv
        assert set(records[0]) == fields, argv
        assert records[0]["status"] == "ok"


def test_machine_repl_records():
    code, records = machine_record("repl", HOUSING, stdin_text="= i future own*property*us\nexit\n")
    assert code == 0
    assert records[0] == {"command": "repl", "status": "ok", "response": "A: plan"}


def test_machine_negative_result():
    code, records = machine_record(
        "entails", CORE, "i past cook*vegetable", "i past bake*potato"
    )
    assert code == 1 and records[0]["result"] is False

    code, records = machine_record("render", CORE, "i future buy*laptop_computer")
    assert code == 1 and records[0]["status"] == "negative"


def test_closure_machine_steps():
    code, records = machine_record("closure", HOUSING, "i future buy*house*california")
    top = records[0]["conclusions"][-1]
    assert top["sentence"] == "i future own*property*us"
    assert [s["rule"] for s in top["steps"]] == [
        "verb_general", "noun_general", "noun_general",
    ]
    assert all({"rule", "premise", "slot"} == set(s) for s in top["steps"])
