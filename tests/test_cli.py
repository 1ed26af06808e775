import importlib.util
import io
import json
import os
import select
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import vplogic
from vplogic.cli import main
from vplogic.errors import (
    ArityMismatch,
    Contradiction,
    IntervalOutOfLifetime,
    OutOfRange,
    VagueTense,
)

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


def _readme_block(heading):
    """The first fenced block after ``heading`` in README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    fence = text.index("```", text.index(heading))
    start = text.index("\n", fence) + 1
    return text[start:text.index("```", start)]


def test_readme_examples_run(tmp_path):
    kb = tmp_path / "kb.vpl"
    kb.write_text(_readme_block("## Knowledge-base files"))
    vplogic.load_path(kb)
    commands = [shlex.split(line)[1:] for line in _readme_block("## CLI").splitlines()]
    for argv in commands:
        if argv[0] != "repl":
            code, out, err = run_cli(argv[0], str(kb), *argv[2:])
            assert code == 0 and err == "", (argv, out, err)
    session = _readme_block("A session that walks").splitlines()
    assert session[0] == "$ vplogic repl kb.vpl"
    lines = [line for line in session[1:] if not line.startswith("A: ")]
    code, out, _ = run_cli("repl", str(kb), stdin_text="\n".join(lines) + "\n")
    assert code == 0
    assert out.splitlines() == [line for line in session[1:] if line.startswith("A: ")]


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


_KITCHEN_KB = (
    "noun potato kind_of vegetable\nnoun apple kind_of fruit\n"
    "verb bake way_of cook\nverb eat way_of consume\n"
    "fact i past_perfect bake*potato\nfact i past_perfect bake*apple\n"
)


@pytest.mark.parametrize("expr, value", [
    ('"i past_perfect cook*(vegetable and fruit)"', "factual"),
    ("i past_perfect cook * ( vegetable and fruit )", "factual"),
    ('"i past_perfect (bake and cook)*potato"', "factual"),
    ('"i past_perfect (bake and eat)*potato"', "unknown"),
    ('"i past_perfect (bake or eat)*potato"', "factual"),
    ('NOT "i past_perfect (bake and eat)*potato"', "unknown"),
    ('"i past_perfect consume*(vegetable or fruit)" OR "i past_perfect bake*potato"',
     "factual"),
])
def test_check_distributes_compound_phrases(tmp_path, expr, value):
    # "I have baked potatoes and apples" answers "have I cooked vegetables
    # and fruit?", one conjunct per fact.
    path = tmp_path / "kitchen.vpl"
    path.write_text(_KITCHEN_KB)
    code, out, err = run_cli("check", str(path), expr)
    assert (code, out.strip(), err) == (0 if value == "factual" else 1, value, "")


def test_malformed_compound_is_a_positioned_usage_error(tmp_path):
    path = tmp_path / "kitchen.vpl"
    path.write_text(_KITCHEN_KB)
    code, out, err = run_cli("check", str(path), '"i past_perfect (bake xor eat)*potato"')
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: line 1, column 23: unexpected 'xor' (expected and, or)"
    )
    code, _, err = run_cli("check", str(path), '"i past_perfect (bake and stew)*potato"')
    assert code == 2 and err.strip() == (
        "error: unknown verb: 'stew' (line 1, column 1)"
    )
    # A fact line takes no compound.
    path.write_text(_KITCHEN_KB + "fact i past_perfect (bake and eat)*potato\n")
    code, _, err = run_cli("laws", str(path))
    assert code == 2 and "line 7, column 21: unexpected '('" in err


@pytest.mark.parametrize("source, line", [
    (  # noun edge: do*pear <= do*something <= do*car
        "noun pear kind_of food\nnoun something part_of car\n"
        "fact i past_perfect not do*car\nfact i past_perfect do*pear\n", 2,
    ),
    (  # verb edge: eat*pear <= do*something <= act*something
        "noun pear kind_of fruit\nverb eat way_of consume\nverb do way_of act\n"
        "fact i past_perfect eat*pear\nfact i past_perfect not act*something\n", 3,
    ),
    (  # across arities: eat*apple*apple <= do*something <= do*fruit
        "noun apple kind_of fruit\nverb eat way_of consume\n"
        "noun something kind_of fruit\n", 3,
    ),
], ids=["noun_edge", "verb_edge", "across_arities"])
def test_no_edge_leaves_a_phrase_bound(tmp_path, source, line):
    path = tmp_path / "bound.vpl"
    path.write_text(source)
    code, out, err = run_cli("laws", str(path))
    assert code == 2 and out == ""
    assert "a phrase bound" in err and err.strip().endswith(f"(line {line})")
    # Edges into the bounds stay legal.
    path.write_text("noun fruit kind_of something\nverb consume way_of do\n")
    code, out, _ = run_cli("laws", str(path))
    assert code == 0 and out.strip() == "violations: 0"


_ARITY_KB = (
    "noun house kind_of property\nverb buy way_of own\nfact i past_perfect buy*house\n"
)


def test_repl_answers_do_not_depend_on_question_order(tmp_path):
    path = tmp_path / "arity.vpl"
    path.write_text(_ARITY_KB)
    two, one = "= i past_perfect own*house*house", "= i past_perfect own*house"
    _, out, _ = run_cli("repl", str(path), stdin_text=f"{two}\n{one}\n")
    assert out.splitlines() == ["A: unknown", "A: factual"]
    _, out, _ = run_cli("repl", str(path), stdin_text=f"{one}\n{two}\n")
    assert out.splitlines() == ["A: factual", "A: unknown"]
    # An accepted fact pins its verb's arity; a refused one does not.
    _, out, _ = run_cli("repl", str(path), stdin_text=(
        "! i past_perfect not own*property\n"
        "! i past_perfect own*house*house\n"
        f"{one}\n"
    ))
    assert out.splitlines() == [
        "ERR: I cannot accept that, it contradicts what I already hold [contradiction]",
        "A: noted",
        "ERR: verb 'own' takes 2 noun slot(s), got 1 [arity_mismatch]",
    ]


def test_queries_leave_arities_unchanged(tmp_path, monkeypatch):
    # Facts and cond lines pin arities; no fact uses sell or trade.
    path = tmp_path / "arity.vpl"
    path.write_text(
        _ARITY_KB + "verb sell way_of trade\n"
        'cond "if rich" => i future own*house*house\n'
    )
    loaded = []
    load_path = vplogic.dsl.load_path

    def spy(*args, **kwargs):
        kb, world = load_path(*args, **kwargs)
        loaded.append((kb, dict(kb.arities)))
        return kb, world

    monkeypatch.setattr(vplogic.dsl, "load_path", spy)
    for argv, stdin in [
        (("check", '"i past_perfect (sell and trade)*house"'), ""),
        (("entails", "i past_perfect sell*house", "i past_perfect trade*property"), ""),
        (("closure", "i past_perfect sell*house*house"), ""),
        (("ask", "how", "i past_perfect do*something"), ""),
        (("repl",), "= i past_perfect sell*house*house\n= i past_perfect sell*house\n"),
    ]:
        code, out, err = run_cli(argv[0], str(path), *argv[1:], stdin_text=stdin)
        assert code in (0, 1) and err == "", (argv, out, err)
        kb, after_load = loaded[-1]
        assert after_load == {"do": 1, "buy": 1, "own": 2}
        assert kb.arities == after_load, argv


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


_LIFETIME_KB = "noun apple kind_of fruit\nverb eat way_of consume\nlifetime i = [0,100]\n"


@pytest.mark.parametrize("body, error, line, message", [
    ("".join(_TIMED_FACTS), Contradiction, 5, "the opposite is already entailed"),
    ("fact i past eat*apple\n", VagueTense, 4, "plain past needs a timeframe"),
    (
        "noun tokyo part_of japan\nfact i past_perfect eat*apple\n"
        "fact i past_perfect eat*apple*tokyo\n",
        ArityMismatch, 6, "takes 1 noun slot(s), got 2",
    ),
    ("degree * apple in fruit = 1.5\n", OutOfRange, 4, "degree must lie in [0, 1]"),
    (
        "fact i past eat*apple @ [90,120]\n",
        IntervalOutOfLifetime, 4, "timeframe [90,120] outside lifetime [0,100]",
    ),
], ids=["contradiction", "vague_tense", "arity_mismatch", "out_of_range", "out_of_lifetime"])
def test_load_errors_name_their_line(tmp_path, body, error, line, message):
    source = _LIFETIME_KB + body
    with pytest.raises(error, match=rf"\(line {line}\)$"):
        vplogic.load_text(source)
    path = tmp_path / "bad.vpl"
    path.write_text(source)
    code, out, err = run_cli("laws", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ") and message in lines[0]
    assert lines[0].endswith(f"(line {line})")


def test_timeframe_outside_lifetime_is_refused_at_assertion(tmp_path):
    # Queries refuse such a timeframe as assertion and render do.
    path = tmp_path / "lifetime.vpl"
    path.write_text(_LIFETIME_KB)
    refused = "timeframe [90,120] outside lifetime [0,100]"
    code, out, _ = run_cli(
        "repl", str(path),
        stdin_text="! i past eat*apple @ [90,120]\n= i past eat*apple @ [90,120]\n",
    )
    assert code == 0
    assert out.splitlines() == [f"ERR: {refused} [interval_out_of_lifetime]"] * 2
    for argv in (
        ("check", '"i past eat*apple @ [90,120]"'),
        ("entails", "i past eat*apple @ [90,120]", "i past eat*fruit @ [90,120]"),
        ("entails", "i past_perfect eat*apple", "i past eat*fruit @ [90,120]"),
        ("render", "i past eat*apple @ [90,120]"),
    ):
        code, out, _ = run_cli(argv[0], str(path), *argv[1:])
        assert code == 1 and out.strip() == f"no: {refused}", argv


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


# -- benchmark hooks ----------------------------------------------------------------


def test_benchmark_hooks_find_their_targets():
    # vplbench/spans.py wraps engine functions by name and silently drops
    # the metric of a hook whose target is gone, so a rename must show here.
    path = Path(__file__).parents[1] / "vplbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("vplbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = spans.install(lambda: 0)
    try:
        assert hooks.missing == []
    finally:
        hooks.off()
    assert not hasattr(vplogic.dsl.parse_expr, "__wrapped__")
    assert not hasattr(vplogic.World.status_of, "__wrapped__")
