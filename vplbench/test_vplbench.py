"""Tests of the benchmark itself: python3 -m pytest vplbench -q"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import OneShotChecker, Orders, RefWorld, ReplChecker  # noqa: E402


def small(name):
    """A scaled-down copy of a workload, quick enough for a unit test."""
    p = workloads.WORKLOADS[name]
    return replace(p, nouns=120, verbs=18, facts=min(p.facts, 150), subjects=8,
                   degrees=10, isos=4, min_asks=30, min_evals=30, min_asserts=30,
                   min_oneshots=27)


def script(w):
    return [op.line for op in w.repl], [(c.command,) + c.args for c in w.oneshots]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(name):
    a = workloads.build(name, 7, 1, small(name))
    b = workloads.build(name, 7, 1, small(name))
    assert a.kb_text == b.kb_text
    assert script(a) == script(b)
    c = workloads.build(name, 8, 1, small(name))
    assert c.kb_text != a.kb_text


def test_full_size_generation_is_deterministic():
    a = workloads.build("facts", 3, 10)
    b = workloads.build("facts", 3, 10)
    assert a.kb_text == b.kb_text and script(a) == script(b)
    assert len(a.facts) == workloads.WORKLOADS["facts"].facts


def test_script_meets_its_counts():
    w = workloads.build("taxonomy", 1, 10)
    kinds = [op.kind for op in w.repl]
    for kind in "?=!":
        assert kinds.count(kind) >= w.counts[kind]
    assert len(w.oneshots) >= w.counts["oneshot"]


def _cli():
    sys.path.insert(0, str(SRC))
    import vplogic.cli as cli
    return cli


def _run_cli(cli, argv, stdin=""):
    out = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = old
    return code, [json.loads(x) for x in out.getvalue().splitlines() if x.strip()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_reference_agrees_with_vplogic(tmp_path, name, seed):
    cli = _cli()
    w = workloads.build(name, seed, 1, small(name))
    kb = tmp_path / "kb.vpl"
    kb.write_text(w.kb_text)
    code, records = _run_cli(cli, ["repl", str(kb), "--output", "machine"],
                             "\n".join(op.line for op in w.repl) + "\n")
    assert code == 0 and len(records) == len(w.repl)
    checker = ReplChecker(RefWorld(Orders(w.taxonomy), w.facts))
    outcomes = set()
    for op, rec in zip(w.repl, records):
        assert checker.check(op, rec["response"]) is None, (op.line, rec["response"])
        outcomes.add((op.kind, rec["response"].split("[")[-1] if "ERR" in rec["response"]
                      else rec["response"][:5]))
    # The scripts do reach refusals and refinements, not only easy answers.
    assert ("!", "contradiction]") in outcomes
    checker = OneShotChecker(w.taxonomy, w.facts)
    commands = set()
    for call in w.oneshots:
        code, records = _run_cli(cli, [call.command, str(kb), *call.args, "--output", "machine"])
        assert checker.check(call, code, records) is None, call
        commands.add(call.command)
    assert {"closure", "entails", "contrapose", "check", "render", "ask", "fuzzy"} <= commands


def test_reference_catches_a_wrong_answer():
    w = workloads.build("facts", 1, 1, small("facts"))
    checker = ReplChecker(RefWorld(Orders(w.taxonomy), w.facts))
    op = next(op for op in w.repl if op.kind == "=")
    right = f"A: {checker.world.eval(op.payload)}"
    wrong = "A: factual" if right != "A: factual" else "A: unknown"
    assert checker.check(op, wrong) is not None


def test_reference_imports_no_engine_module():
    code = ("import sys; sys.path.insert(0, %r); import oracle; "
            "print(sorted(m for m in sys.modules if m.startswith('vplogic')))" % str(HERE))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_span_self_time_arithmetic():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds a kernel span [6, 8].
    t = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]), keep=3)
    outer, a, b, k = (t.intern(n) for n in ("outer", "a", "b", spans.KERNEL))
    f_outer = t.open(outer)
    t.close(t.open(a))
    f_b = t.open(b)
    t.close(t.open(k))
    t.close(f_b)
    t.close(f_outer)
    stats = t.snapshot()
    assert stats["outer"]["self_s"] == 10 - 3 - 4
    assert stats["b"]["self_s"] == 4 - 2
    assert stats[spans.KERNEL]["self_s"] == 2
    # Totals leave out kernel time underneath, except the kernel's own.
    assert stats["outer"]["total_s"] == 10 - 2
    assert stats["b"]["total_s"] == 4 - 2
    assert stats[spans.KERNEL]["total_s"] == 2
    assert [r[3] for r in t.spans] == [-1, 0, 0]  # parents of the kept rows
    assert t.dropped == 1


def test_recursive_span_counts_once_in_total():
    t = spans.Tracer(clock=FakeClock([0, 2, 5, 9]))
    f = t.intern("f")
    outer = t.open(f)
    t.close(t.open(f))
    t.close(outer)
    assert t.snapshot()["f"] == {"calls": 2, "total_s": 9, "self_s": 9}


def test_missing_hook_is_reported_not_raised():
    _cli()
    h = spans.Hooks()
    h.span("gone.function", "vplogic.sentence", "World.no_such_method")
    h.span("gone.module", "vplogic.no_such_module", "f")
    h.count("gone.counter", "vplogic.order", "Preorder.renamed_leq")
    assert h.missing == ["gone.function", "gone.module", "gone.counter"]
    h.off()


def test_hooks_count_and_switch_off(tmp_path):
    cli = _cli()
    # The package re-exports dsl.sentence, which shadows the submodule name.
    sentence = sys.modules["vplogic.sentence"]
    original = sentence.World.status_of
    hooks = spans.install(lambda: 0)
    try:
        assert hooks.missing == []
        w = workloads.build("oneshot", 1, 1, small("oneshot"))
        path = tmp_path / "kb.vpl"
        path.write_text(w.kb_text)
        _run_cli(cli, ["laws", str(path), "--output", "machine"])
    finally:
        hooks.off()
    assert sentence.World.status_of is original
    metrics = spans.layer_metrics(hooks.tracer.snapshot(), hooks.counters())
    assert metrics["sentence.assert_fact_calls"] == len(w.facts)
    assert metrics["dsl.statements"] > len(w.facts)
    assert metrics["sentence.check_laws_s"] > 0
    assert metrics["sentence.claims_per_status_of"] > 0


def test_tail_percentile_ladder():
    values = list(range(1, 1001))
    assert run.tail(values[:20], 20) == (50.0, 10)
    assert run.tail(values[:40], 40) == (75.0, 30)
    assert run.tail(values[:100], 100) == (90.0, 90)
    assert run.tail(values[:250], 200) == (95.0, 238)
    assert run.tail(values, 1000) == (99.0, 990)
