"""In-memory spans around the public functions of each ``vplogic`` layer.

A span is (name, start, end, parent).  Spans are aggregated as they close
and the first ones are kept in memory and written out at the end.  A
layer's self time is its span time minus the time of its direct children.

Hooks are looked up by module and attribute name when they are installed.
One whose target no longer exists is reported as missing, never raised,
so internals can be renamed without breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import operator
import sys
import time
from collections import Counter

perf = time.perf_counter


KERNEL = "kernel.reach_closure"


class Tracer:
    """Nested spans, aggregated as they close.

    Per name it keeps calls, self time (span less its direct children) and
    total time of the outermost spans.  Closure builds are lazy and run
    inside whichever layer first compares two atoms, so every total except
    the kernel's own leaves out the kernel spans beneath it.  The first
    ``keep`` spans are also stored as (name, start, end, parent) rows.
    """

    def __init__(self, clock=perf, keep: int = 100_000):
        self.clock = clock
        self.keep = keep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []  # open spans per name
        self.spans: list[list] = []
        self.dropped = 0
        self.counters = Counter()
        self._stack: list[list] = []  # [name id, start, child time, kernel time, row]
        self._kernel = self.intern(KERNEL)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.active.append(0)
        return nid

    def open(self, nid: int) -> list:
        self.active[nid] += 1
        row = -1
        if len(self.spans) < self.keep:
            row = len(self.spans)
            self.spans.append([nid, 0.0, 0.0, self._stack[-1][4] if self._stack else -1])
        else:
            self.dropped += 1
        frame = [nid, 0.0, 0.0, 0.0, row]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        nid, start, child, kernel, row = frame
        self._stack.pop()
        self.active[nid] -= 1
        duration = end - start
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        if nid == self._kernel:
            kernel = duration
        if not self.active[nid]:
            self.total[nid] += duration if nid == self._kernel else duration - kernel
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += kernel
        if row >= 0:
            self.spans[row][1] = start
            self.spans[row][2] = end

    def is_active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.active[nid] > 0

    def snapshot(self) -> dict[str, dict]:
        return {n: {"calls": self.calls[i], "total_s": self.total[i],
                    "self_s": self.self_time[i]} for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write a header line (names, counters, totals), then one
        [name, start, end, parent] row per kept span."""
        with open(path, "w") as out:
            json.dump({"names": self.names, "counters": dict(self.counters),
                       "totals": self.snapshot(), "kept": len(self.spans),
                       "dropped": self.dropped, "fields": ["name", "start", "end", "parent"]},
                      out)
            out.write("\n")
            for nid, start, end, parent in self.spans:
                out.write(f"[{nid},{start:.9f},{end:.9f},{parent}]\n")


def window(before: dict, after: dict) -> dict[str, dict]:
    """Aggregates of the spans that closed between two snapshots."""
    return {n: {k: v - before.get(n, {}).get(k, 0) for k, v in row.items()}
            for n, row in after.items()}


class Hooks:
    """Installs span wrappers and counters around one imported ``vplogic``."""

    def __init__(self):
        self.tracer = Tracer()
        self.missing: list[str] = []
        self._swaps: list[tuple[object, str, object, object]] = []  # owner, name, fn, wrapper
        self._yield_counts: dict[str, list] = {}

    # -- installation --------------------------------------------------

    def _target(self, module: str, path: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None, None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, None, None
        fn = getattr(owner, attr, None)
        return (owner, attr, fn) if callable(fn) else (None, None, None)

    def _replace(self, owner, attr, fn, wrapper) -> None:
        """Swap fn for wrapper on its owner and wherever a vplogic module
        imported it by name."""
        self._swaps.append((owner, attr, fn, wrapper))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, mod in list(sys.modules.items()):
            if name.startswith("vplogic") and mod is not owner and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._swaps.append((mod, key, fn, wrapper))
                        setattr(mod, key, wrapper)

    def span(self, name: str, module: str, path: str, after=None) -> None:
        owner, attr, fn = self._target(module, path)
        if fn is None:
            self.missing.append(name)
            return
        tracer = self.tracer
        nid = tracer.intern(name)
        open_, close = tracer.open, tracer.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if after is not None:
                after(tracer, args, result)
            return result
        self._replace(owner, attr, fn, wrapper)

    def count(self, name: str, module: str, path: str) -> None:
        """A counter-only hook: no span, one count per call."""
        owner, attr, fn = self._target(module, path)
        if fn is None:
            self.missing.append(name)
            return
        counters = self.tracer.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        self._replace(owner, attr, fn, wrapper)

    def count_yields(self, name: str, module: str, path: str, inside: str) -> None:
        """Count the items a generator hands out while a span named
        ``inside`` is open.  The count rides along in C (zip with
        itertools.count), so the scan it measures is not slowed much."""
        owner, attr, fn = self._target(module, path)
        if fn is None:
            self.missing.append(name)
            return
        tracer = self.tracer
        counts = self._yield_counts.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            if not tracer.is_active(inside):
                return items
            count = itertools.count()
            counts.append(count)
            return map(operator.itemgetter(0), zip(items, count))
        self._replace(owner, attr, fn, wrapper)

    def counters(self) -> Counter:
        """Counters, with the generator counts settled."""
        out = Counter(self.tracer.counters)
        for name, counts in self._yield_counts.items():
            out[name] += sum(next(c) for c in counts)
            counts.clear()
        return out

    def on(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def off(self) -> None:
        """Put the original functions back; ``on`` swaps the wrappers in again."""
        for owner, attr, fn, _ in reversed(self._swaps):
            setattr(owner, attr, fn)


def _count_statements(tracer, args, doc):
    tracer.counters["dsl.statements"] += len(doc.statements)


def _max_nodes(tracer, args, result):
    n = args[0] if args else 0
    tracer.counters["kernel.reach_closure_max_nodes"] = max(
        tracer.counters["kernel.reach_closure_max_nodes"], n)


def _leq_true(tracer, args, result):
    if result:
        tracer.counters["phrase.vp_leq_true"] += 1


def _held_check(tracer, args, result):
    if tracer.is_active("dialogue.apply_question"):
        tracer.counters["dialogue.held_checks"] += 1


def _answers(tracer, args, result):
    tracer.counters["dialogue.answers"] += len(result.answers)


def _closure(tracer, args, result):
    tracer.counters["inference.closure_conclusions"] += len(result)
    tracer.counters["inference.closure_truncated"] += bool(result.truncated)


def install(emit_bytes) -> Hooks:
    """Wrap every traced layer of an imported ``vplogic``.

    ``emit_bytes`` returns the number of bytes written to stdout so far;
    the ``Emitter.emit`` hook counts what each call adds.
    """
    h = Hooks()
    h.span("dsl.parse_kb", "vplogic.dsl", "parse_kb", _count_statements)
    h.span("dsl.load_document", "vplogic.dsl", "load_document")
    h.span("dsl.sentence", "vplogic.dsl", "sentence")
    h.span("dsl.parse_expr", "vplogic.dsl", "parse_expr")
    h.span("kernel.reach_closure", "vplogic._kernel", "reach_closure", _max_nodes)
    h.span("order.specializations", "vplogic.order", "Preorder.specializations")
    h.count("order.leq", "vplogic.order", "Preorder.leq")
    h.span("phrase.vp_leq", "vplogic.phrase", "vp_leq", _leq_true)
    h.span("sentence.assert_fact", "vplogic.sentence", "World.assert_fact")
    h.span("sentence.status_of", "vplogic.sentence", "World.status_of", _held_check)
    h.count_yields("sentence.claims", "vplogic.sentence", "World.claims", "sentence.status_of")
    h.span("sentence.eval", "vplogic.sentence", "World.eval")
    h.span("sentence.check_laws", "vplogic.sentence", "check_laws")
    h.span("inference.closure", "vplogic.inference", "closure", _closure)
    h.span("inference.entails", "vplogic.inference", "entails")
    h.span("dialogue.repl_step", "vplogic.dialogue", "repl_step")
    h.span("dialogue.apply_question", "vplogic.dialogue", "apply_question", _answers)
    h.span("temporal.render", "vplogic.temporal", "render")
    h.span("fuzzy.fuzzy_statement", "vplogic.fuzzy", "fuzzy_statement")

    owner, attr, emit = h._target("vplogic.cli", "Emitter.emit")
    if emit is None:
        h.missing.append("cli.emit")
    else:
        def counted_emit(self, *args, **kwargs):
            before = emit_bytes()
            result = emit(self, *args, **kwargs)
            h.tracer.counters["cli.output_bytes"] += emit_bytes() - before
            return result
        functools.update_wrapper(counted_emit, emit)
        h._replace(owner, attr, emit, counted_emit)
        h.span("cli.emit", "vplogic.cli", "Emitter.emit")
    return h


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, dict], counters: Counter) -> dict[str, float]:
    """Per-layer metrics from aggregated spans and counters.  Metrics of
    hooks that were never installed come out as zero; callers drop them."""
    def total(name):
        return stats[name]["total_s"] if name in stats else 0.0

    def self_s(name):
        return stats[name]["self_s"] if name in stats else 0.0

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    parse_s = total("dsl.parse_kb")
    return {
        "cli.emit_s": total("cli.emit"),
        "cli.output_bytes": counters["cli.output_bytes"],
        "dsl.parse_kb_s": parse_s,
        "dsl.statements": counters["dsl.statements"],
        "dsl.statements_per_s": _ratio(counters["dsl.statements"], parse_s),
        "dsl.load_document_self_s": self_s("dsl.load_document"),
        "dsl.sentence_s": total("dsl.sentence"),
        "dsl.parse_expr_s": total("dsl.parse_expr"),
        "kernel.reach_closure_calls": calls("kernel.reach_closure"),
        "kernel.reach_closure_s": total("kernel.reach_closure"),
        "kernel.reach_closure_max_nodes": counters["kernel.reach_closure_max_nodes"],
        "order.specializations_calls": calls("order.specializations"),
        "order.specializations_s": total("order.specializations"),
        "order.leq_calls": counters["order.leq"],
        "phrase.vp_leq_calls": calls("phrase.vp_leq"),
        "phrase.vp_leq_s": total("phrase.vp_leq"),
        "phrase.vp_leq_true_ratio": _ratio(counters["phrase.vp_leq_true"], calls("phrase.vp_leq")),
        "sentence.assert_fact_calls": calls("sentence.assert_fact"),
        "sentence.assert_fact_s": total("sentence.assert_fact"),
        "sentence.status_of_calls": calls("sentence.status_of"),
        "sentence.status_of_self_s": self_s("sentence.status_of"),
        "sentence.claims_per_status_of": _ratio(counters["sentence.claims"],
                                                calls("sentence.status_of")),
        "sentence.eval_s": total("sentence.eval"),
        "sentence.check_laws_s": total("sentence.check_laws"),
        "inference.closure_s": total("inference.closure"),
        "inference.closure_conclusions": counters["inference.closure_conclusions"],
        "inference.closure_truncated": counters["inference.closure_truncated"],
        "inference.entails_s": total("inference.entails"),
        "dialogue.repl_step_self_s": self_s("dialogue.repl_step"),
        "dialogue.apply_question_s": total("dialogue.apply_question"),
        "dialogue.answers_per_held_check": _ratio(counters["dialogue.answers"],
                                                  counters["dialogue.held_checks"]),
        "temporal.render_s": total("temporal.render"),
        "fuzzy.fuzzy_statement_s": total("fuzzy.fuzzy_statement"),
    }


# The hook each per-layer metric depends on, for reporting missing layers.
METRIC_HOOKS = {
    "cli.emit_s": "cli.emit", "cli.output_bytes": "cli.emit",
    "dsl.parse_kb_s": "dsl.parse_kb", "dsl.statements": "dsl.parse_kb",
    "dsl.statements_per_s": "dsl.parse_kb", "dsl.load_document_self_s": "dsl.load_document",
    "dsl.sentence_s": "dsl.sentence", "dsl.parse_expr_s": "dsl.parse_expr",
    "kernel.reach_closure_calls": "kernel.reach_closure",
    "kernel.reach_closure_s": "kernel.reach_closure",
    "kernel.reach_closure_max_nodes": "kernel.reach_closure",
    "order.specializations_calls": "order.specializations",
    "order.specializations_s": "order.specializations", "order.leq_calls": "order.leq",
    "phrase.vp_leq_calls": "phrase.vp_leq", "phrase.vp_leq_s": "phrase.vp_leq",
    "phrase.vp_leq_true_ratio": "phrase.vp_leq",
    "sentence.assert_fact_calls": "sentence.assert_fact",
    "sentence.assert_fact_s": "sentence.assert_fact",
    "sentence.status_of_calls": "sentence.status_of",
    "sentence.status_of_self_s": "sentence.status_of",
    "sentence.claims_per_status_of": "sentence.claims",
    "sentence.eval_s": "sentence.eval", "sentence.check_laws_s": "sentence.check_laws",
    "inference.closure_s": "inference.closure",
    "inference.closure_conclusions": "inference.closure",
    "inference.closure_truncated": "inference.closure",
    "inference.entails_s": "inference.entails",
    "dialogue.repl_step_self_s": "dialogue.repl_step",
    "dialogue.apply_question_s": "dialogue.apply_question",
    "dialogue.answers_per_held_check": "dialogue.apply_question",
    "temporal.render_s": "temporal.render", "fuzzy.fuzzy_statement_s": "fuzzy.fuzzy_statement",
}
