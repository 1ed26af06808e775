#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``vplogic`` CLI.

Run from the root of a checkout:

    python3 vplbench/run.py --workload taxonomy --seed 1 --seconds 10 --trace 0

``--trace 0`` drives ``python -m vplogic.cli`` as child processes (one
client, closed loop, one child at a time) and prints the end-to-end
metrics.  ``--trace 1`` replays the same inputs in this process, each
phase plain and then with spans around each layer, and prints the
per-layer metrics.  Every answer is checked against ``oracle.py``.  The last line
of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import client
import spans
from oracle import OneShotChecker, Orders, RefWorld, ReplChecker
from workloads import WORKLOADS, build

perf = time.perf_counter

READY = "#ready"  # a malformed line, answered without touching the world
READY_ANSWER = "ERR: lines start with ?, ! or = [parse_error]"
LINE_TIMEOUT_S = 30.0
CALL_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # stop issuing operations after this; the rest fail
OUT_DIR = ".vplbench_out"

# Tail percentiles in tenths of a percent, highest first.
LADDER = (999, 990, 950, 900, 750, 500)

E2E_UNITS = {
    "setup_s": "s", "oneshot_p50_s": "s", "oneshot_tail_s": "s",
    "closure_conclusions_per_s": "1/s",
    "assert_p50_ms": "ms", "assert_tail_ms": "ms", "eval_p50_ms": "ms", "eval_tail_ms": "ms",
    "ask_p50_ms": "ms", "ask_tail_ms": "ms", "repl_lines_per_s": "1/s", "peak_rss_mb": "MB",
}


def percentile(values, per_mille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-per_mille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def tail(values, guaranteed: int) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.
    It is chosen from the count the script guarantees, not the count a
    seed happens to produce, so every seed reports the same percentile."""
    for q in LADDER:
        if guaranteed * (1000 - q) >= 10_000:
            return q / 10, percentile(values, q)
    return 100.0, max(values)


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if "_ratio" in name or "_per_" in name:
        return "ratio"
    return "count"


# -- environment -------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # vplogic repl does not flush its answers; without this a pipe sees
    # nothing until the child exits (a known defect, see README).
    env["PYTHONUNBUFFERED"] = "1"
    for name in ("VPL_CAP", "VPLOGIC_PURE"):
        env.pop(name, None)
    return env


def prepare(root: Path, env: dict) -> dict:
    """Byte-compile the package and report what the children will import."""
    client.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "vplogic")],
               env, 120.0)
    probe = ("import json, sys, vplogic; print(json.dumps({'file': vplogic.__file__, "
             "'kernel_backend': getattr(vplogic, 'kernel_backend', None)}))")
    res = client.run([sys.executable, "-c", probe], env, 60.0)
    if res.code != 0:
        raise SystemExit(f"cannot import vplogic from {root / 'src'}:\n{res.stderr}")
    info = json.loads(res.stdout)
    if not Path(info["file"]).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"vplogic resolved to {info['file']}, not this checkout")
    prov = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    if info["kernel_backend"] is not None:
        prov["vplogic.kernel_backend"] = info["kernel_backend"]
    return prov


# -- untraced run: child processes ---------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problem}")


def run_processes(w, kb: Path, env: dict, out: Path, tally: Tally, started: float) -> dict:
    """Setups, repl lines and one-shot calls, interleaved so that every
    metric samples the whole run rather than one stretch of it."""
    base = [sys.executable, "-m", "vplogic.cli"]
    repl_argv = base + ["repl", str(kb), "--output", "machine"]
    stderr_path = out / f"{w.name}-{w.seed}.stderr"
    rss, setups = [], []
    latencies = {"!": [], "=": [], "?": []}
    oneshot, closure_s, conclusions = [], 0.0, 0

    def over_budget(what) -> bool:
        if perf() - started > RUN_BUDGET_S:
            tally.record(what, "run budget exhausted")
            return True
        return False

    def setup(keep: bool):
        """Spawn a repl and time it to its answer to the readiness probe."""
        if over_budget("setup"):
            return None
        s = client.ReplSession(repl_argv, env, stderr_path)
        try:
            line, _ = s.request(READY, LINE_TIMEOUT_S)
            answer = json.loads(line).get("response")
        except (client.Timeout, ValueError) as exc:
            s.close(1.0)
            rss.append(s.maxrss_kb)
            tally.record("setup", str(exc))
            return None
        setups.append(perf() - s.started)
        problem = None if answer == READY_ANSWER else f"probe answered {answer!r}"
        if keep:
            tally.record("setup", problem)
            return s
        if not s.close():
            problem = problem or f"exit code {s.code}"
        rss.append(s.maxrss_kb)
        tally.record("setup", problem)
        return None

    session = setup(keep=True)
    repl_checker = ReplChecker(RefWorld(Orders(w.taxonomy), w.facts))

    def repl_line(op):
        nonlocal session
        if session is None:
            tally.record(op.line, "no repl session")
            return
        if over_budget(op.line):
            return
        try:
            line, seconds = session.request(op.line, LINE_TIMEOUT_S)
        except client.Timeout as exc:
            tally.record(op.line, str(exc))
            session.close(1.0)
            rss.append(session.maxrss_kb)
            session = None
            return
        latencies[op.kind].append(seconds)
        tally.record(op.line, repl_checker.check(op, json.loads(line)["response"]))

    oneshot_checker = OneShotChecker(w.taxonomy, w.facts)

    def oneshot_call(call):
        nonlocal closure_s, conclusions
        what = f"{call.command} {' '.join(call.args)}"
        if over_budget(what):
            return
        res = client.run(base + [call.command, str(kb), *call.args, "--output", "machine"],
                         env, CALL_TIMEOUT_S)
        rss.append(res.maxrss_kb)
        if res.timed_out:
            tally.record(what, "timed out")
            return
        try:
            records = [json.loads(x) for x in res.stdout.splitlines() if x.strip()]
            problem = oneshot_checker.check(call, res.code, records)
        except ValueError as exc:
            problem = f"bad output: {exc}"
        tally.record(what, problem)
        oneshot.append(res.seconds)
        if call.command == "closure" and problem is None:
            closure_s += res.seconds
            conclusions += records[0]["count"]

    n = len(w.oneshots)
    more_setups = w.params.setups - 1
    setup_at = {int((k + 0.5) * n / more_setups) for k in range(more_setups)}
    done = 0
    for j, call in enumerate(w.oneshots):
        upto = round((j + 1) * len(w.repl) / n)
        for op in w.repl[done:upto]:
            repl_line(op)
        done = upto
        oneshot_call(call)
        if j in setup_at:
            setup(keep=False)
    if session is not None:
        ok = session.close()
        rss.append(session.maxrss_kb)
        if not ok:
            tally.record("repl exit", f"exit code {session.code}")

    def ms(values):
        return [v * 1000 for v in values]

    answered = sum(len(v) for v in latencies.values())
    metrics, tails = {}, {}
    metrics["setup_s"] = statistics.median(setups) if setups else None
    for prefix, kind, scale in (("oneshot", "oneshot", "s"), ("assert", "!", "ms"),
                                ("eval", "=", "ms"), ("ask", "?", "ms")):
        values = oneshot if kind == "oneshot" else ms(latencies[kind])
        if values:
            metrics[f"{prefix}_p50_{scale}"] = percentile(values, 500)
            q, value = tail(values, w.counts[kind])
            metrics[f"{prefix}_tail_{scale}"] = value
            tails[f"{prefix}_tail_{scale}"] = {"percentile": q, "samples": len(values)}
    metrics["closure_conclusions_per_s"] = conclusions / closure_s if closure_s else None
    repl_busy = sum(sum(v) for v in latencies.values())
    metrics["repl_lines_per_s"] = answered / repl_busy if repl_busy else None
    metrics["peak_rss_mb"] = max(rss) / 1024 if rss else None
    return {"metrics": metrics, "tails": tails, "setups_s": setups,
            "counts": {k: len(v) for k, v in latencies.items()} | {"oneshot": len(oneshot)}}


# -- traced run: in-process replay ------------------------------------------------


class Sink(io.TextIOBase):
    """Captures what the CLI prints and counts its characters."""

    def __init__(self):
        self.parts: list[str] = []
        self.written = 0

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.written += len(text)
        return len(text)

    def take(self) -> str:
        out = "".join(self.parts)
        self.parts.clear()
        return out


def run_cli(cli, argv, stdin_text: str, sink: Sink) -> tuple[int, str]:
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(sink), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, sink.take()


PHASES = ("setup", "session", "oneshot")


def run_phase(cli, w, kb: Path, sink: Sink, phase: str, tally: Tally | None) -> dict:
    """One phase of the untraced run's work, in process; answers are
    checked when a tally is given."""
    repl_argv = ["repl", str(kb), "--output", "machine"]
    t0 = perf()
    if phase == "setup":
        for _ in range(w.params.setups - 1):
            code, out = run_cli(cli, repl_argv, READY + "\n", sink)
            if tally is not None:
                ok = code == 0 and json.loads(out)["response"] == READY_ANSWER
                tally.record("setup", None if ok else f"exit {code}: {out[:200]}")
        return {"wall": perf() - t0}
    if phase == "session":
        script = "\n".join([READY] + [op.line for op in w.repl]) + "\n"
        code, out = run_cli(cli, repl_argv, script, sink)
        wall = perf() - t0
        if tally is not None:
            responses = [json.loads(x)["response"] for x in out.splitlines() if x.strip()]
            tally.record("setup", None if responses[:1] == [READY_ANSWER] else "bad probe answer")
            checker = ReplChecker(RefWorld(Orders(w.taxonomy), w.facts))
            for op, response in zip(w.repl, responses[1:] + [None] * len(w.repl)):
                tally.record(op.line, "no answer" if response is None else checker.check(op, response))
        return {"wall": wall}
    calls = []
    checker = OneShotChecker(w.taxonomy, w.facts)
    for call in w.oneshots:
        c0 = perf()
        code, out = run_cli(cli, [call.command, str(kb), *call.args, "--output", "machine"], "", sink)
        calls.append(perf() - c0)
        if tally is not None:
            try:
                records = [json.loads(x) for x in out.splitlines() if x.strip()]
                problem = checker.check(call, code, records)
            except ValueError as exc:
                problem = f"bad output: {exc}"
            tally.record(call.command, problem)
    return {"wall": perf() - t0, "call_p50": statistics.median(calls) if calls else 0.0}


def startup_times(env: dict) -> tuple[float, float]:
    """Median bare interpreter start, and median ``import vplogic.cli`` time."""
    starts, imports = [], []
    code = ("import time; t = time.perf_counter(); import vplogic.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(5):
        starts.append(client.run([sys.executable, "-c", "pass"], env, 30.0).seconds)
        res = client.run([sys.executable, "-c", code], env, 30.0)
        if res.code == 0:
            imports.append(float(res.stdout))
    return statistics.median(starts), statistics.median(imports) if imports else 0.0


def run_traced(w, kb: Path, root: Path, env: dict, out: Path, tally: Tally) -> dict:
    sys.path.insert(0, str(root / "src"))
    import vplogic.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"vplogic resolved to {cli.__file__}, not this checkout")

    interp_s, import_s = startup_times(env)
    sink = Sink()
    run_cli(cli, ["repl", str(kb)], READY + "\n", sink)  # warm up: first import, first load
    sink.take()
    # Each phase runs plain and then traced, back to back, so that the
    # host's drifting speed moves both sides of tracing_overhead_s alike.
    hooks = spans.install(lambda: sink.written)
    tracer = hooks.tracer
    plain, traced, windows = {}, {}, {}
    try:
        for phase in PHASES:
            hooks.off()
            plain[phase] = run_phase(cli, w, kb, sink, phase, None)
            hooks.on()
            before = tracer.snapshot()
            traced[phase] = run_phase(cli, w, kb, sink, phase, tally)
            windows[phase] = spans.window(before, tracer.snapshot())
    finally:
        hooks.off()
    layer = spans.layer_metrics(tracer.snapshot(), hooks.counters())
    missing_hooks = set(hooks.missing)
    missing = sorted(m for m, h in spans.METRIC_HOOKS.items() if h in missing_hooks)
    for m in missing:
        layer.pop(m, None)
    metrics = {"cli.interp_start_s": interp_s, "cli.import_s": import_s, **layer,
               "tracing_overhead_s": sum(traced[p]["wall"] - plain[p]["wall"] for p in PHASES)}

    # Shares of the in-process setup time by layer, from self times: they
    # show which layer each workload loads.
    shares = {}
    for name, row in windows["setup"].items():
        if row["calls"]:
            key = "setup_self_share." + name.split(".")[0]
            shares[key] = shares.get(key, 0.0) + row["self_s"] / traced["setup"]["wall"]
    call = plain["oneshot"]["call_p50"]
    shares["startup_share_of_oneshot_call"] = (interp_s + import_s) / (interp_s + import_s + call)
    tracer.dump(out / f"spans-{w.name}.jsonl")
    return {"metrics": metrics, "missing": missing, "shares": shares,
            "walls": {"plain": plain, "traced": traced},
            "spans": {"kept": len(tracer.spans), "dropped": tracer.dropped}}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf()
    root = Path.cwd()
    if not (root / "src" / "vplogic" / "__init__.py").is_file():
        print(f"error: {root} holds no src/vplogic; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    env = child_env(root)
    provenance = prepare(root, env)

    t0 = perf()
    w = build(args.workload, args.seed, args.seconds)
    kb = out / f"{w.name}-{w.seed}.vpl"
    kb.write_text(w.kb_text)
    generate_s = perf() - t0

    tally = Tally()
    if args.trace:
        result = run_traced(w, kb, root, env, out, tally)
    else:
        result = run_processes(w, kb, env, out, tally, started)
    metrics = result["metrics"]
    ops_failed_share = tally.failed / tally.attempted if tally.attempted else 1.0

    record = {
        "provenance": provenance | w.describe() | {"trace": args.trace},
        "generate_s": generate_s,
        "wall_s": perf() - started,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops_failed_share": ops_failed_share,
        "failures": tally.failures,
        **result,
    }
    (out / f"BENCH_{w.name}-{w.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, value in metrics.items():
        unit = E2E_UNITS.get(name) or metric_unit(name)
        extra = result.get("tails", {}).get(name)
        note = f"  (p{extra['percentile']:g} of {extra['samples']})" if extra else ""
        print(f"{name} = {value} {unit}{note}")
    print(f"ops_failed_share = {ops_failed_share} share ({tally.failed}/{tally.attempted})")
    for name, value in result.get("shares", {}).items():
        print(f"{name} = {value:.3f}")
    for name in result.get("missing", []):
        print(f"missing layer metric: {name}")
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"record: {json.dumps(record['provenance'], sort_keys=True)}")

    reported = {
        name: {"value": value, "unit": E2E_UNITS.get(name) or metric_unit(name)}
        for name, value in metrics.items() if value is not None
    }
    correct = tally.failed == 0 and len(reported) == len(metrics)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
