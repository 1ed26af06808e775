"""Command-line front end.

Every subcommand takes the knowledge-base file first.  Exit codes keep
scripting simple: 0 means computed and affirmative, 1 means computed but
negative (an entailment that does not hold, an unsupported statement),
2 means the input could not be processed at all.  ``--output machine``
emits one JSON record per invocation with stable field names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dialogue, dsl, fuzzy, inference, temporal
from .errors import NoIso, VplError
from .order import normalize_id
from .sentence import FACTUAL, FUTURE, PLAN, check_laws, expr_text


class Emitter:
    """Routes results to plain text or one-record JSON output."""

    def __init__(self, command: str, machine: bool):
        self.command = command
        self.machine = machine

    def emit(self, text_lines, **fields) -> None:
        if self.machine:
            record = {"command": self.command, "status": "ok"}
            record.update(fields)
            print(json.dumps(record, sort_keys=True))
        else:
            for line in text_lines:
                print(line)


def cap_value(text: str) -> int:
    """A closure cap from ``--cap`` or ``VPL_CAP``: a positive integer."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise argparse.ArgumentTypeError(
            f"invalid cap {text!r}: expected a positive integer"
        )
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vplogic",
        description="Query a verb-phrase logic knowledge base.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("kb", help="knowledge-base file (.vpl)")
    common.add_argument(
        "--output", choices=("text", "machine"), default="text",
        help="machine prints one JSON record per result",
    )
    common.add_argument(
        "--lenient", action="store_true",
        help="auto-register unknown atoms mentioned by fact lines",
    )
    common.add_argument(
        "--cap", type=cap_value, default=None,
        help="bound on closure size (default 10000, or VPL_CAP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", parents=[common], help="evaluate an expression")
    sp.add_argument("expr")
    sp = sub.add_parser("entails", parents=[common], help="does one sentence force another")
    sp.add_argument("frm", metavar="from")
    sp.add_argument("to")
    sp = sub.add_parser("closure", parents=[common], help="everything a fact entails")
    sp.add_argument("fact")
    sp = sub.add_parser("contrapose", parents=[common], help="contrapositive of an implication")
    sp.add_argument("frm", metavar="from")
    sp.add_argument("to")
    sp = sub.add_parser("disjunct", parents=[common], help="implication as not-A OR B")
    sp.add_argument("frm", metavar="from")
    sp.add_argument("to")
    sp = sub.add_parser("render", parents=[common], help="quantified time form of a sentence")
    sp.add_argument("sentence")
    sp = sub.add_parser("ask", parents=[common], help="refine a statement with a question")
    sp.add_argument("op", choices=sorted(dialogue.OPERATOR_ALIASES))
    sp.add_argument("sentence")
    sp.add_argument("--slot", type=int, default=None)
    sp = sub.add_parser("fuzzy", parents=[common], help="frequency statement for an item")
    sp.add_argument("subject")
    sp.add_argument("verb")
    sp.add_argument("item")
    sub.add_parser("laws", parents=[common], help="audit excluded middle over the world")
    sub.add_parser("repl", parents=[common], help="interactive dialogue loop")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    emitter = Emitter(args.command, args.output == "machine")
    try:
        cap = args.cap or cap_value(os.environ.get("VPL_CAP", str(inference.DEFAULT_CAP)))
    except argparse.ArgumentTypeError as exc:
        print(f"error: VPL_CAP: {exc}", file=sys.stderr)
        return 2
    try:
        kb, world = dsl.load_path(args.kb, lenient=args.lenient)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VplError, ValueError) as exc:  # any failure to load is bad input
        print(f"error: {args.kb}: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args, kb, world, emitter, cap)
    except (VplError, ValueError) as exc:
        status = getattr(exc, "exit_code", 2)
        if status == 2:
            print(f"error: {exc}", file=sys.stderr)
        elif emitter.machine:
            print(json.dumps({
                "command": args.command, "status": "negative", "reason": str(exc),
            }, sort_keys=True))
        else:
            print(f"no: {exc}")
        return status


def _cmd_check(args, kb, world, emitter, cap) -> int:
    expr = dsl.parse_expr(args.expr, kb)
    value = world.eval(expr)
    emitter.emit([value], value=value)
    return 0 if value in (FACTUAL, PLAN) else 1


def _cmd_entails(args, kb, world, emitter, cap) -> int:
    frm = dsl.sentence(kb, args.frm)
    to = dsl.sentence(kb, args.to)
    result = inference.entails(kb, frm, to)
    if result:
        emitter.emit(["true"], result=True)
        return 0
    emitter.emit([f"false ({frm.text()} does not force {to.text()})"], result=False)
    return 1


def _cmd_closure(args, kb, world, emitter, cap) -> int:
    fact = dsl.sentence(kb, args.fact)
    result = inference.closure(kb, fact, cap)
    lines = [d.conclusion.text() for d in result]
    if result.truncated and not emitter.machine:
        print(f"warning: output truncated at {cap} conclusions", file=sys.stderr)
    emitter.emit(
        lines,
        truncated=result.truncated,
        count=len(result),
        conclusions=[
            {
                "sentence": d.conclusion.text(),
                "steps": [
                    {"rule": s.rule, "premise": s.premise(), "slot": s.slot}
                    for s in d.steps
                ],
            }
            for d in result
        ],
    )
    return 0


def _cmd_contrapose(args, kb, world, emitter, cap) -> int:
    frm = dsl.sentence(kb, args.frm)
    to = dsl.sentence(kb, args.to)
    neg_to, neg_frm = inference.contrapose(kb, (frm, to))
    emitter.emit(
        [f"{neg_to.text()} => {neg_frm.text()}"],
        **{"from": neg_to.text(), "to": neg_frm.text()},
    )
    return 0


def _cmd_disjunct(args, kb, world, emitter, cap) -> int:
    frm = dsl.sentence(kb, args.frm)
    to = dsl.sentence(kb, args.to)
    expr = inference.implication_to_disjunction(kb, (frm, to))
    emitter.emit([expr_text(expr)], expression=expr_text(expr))
    return 0


def _cmd_render(args, kb, world, emitter, cap) -> int:
    s = dsl.sentence(kb, args.sentence)
    ts = temporal.render(s, kb.lifetime(s.subject))
    emitter.emit(
        [ts.text()],
        statement=ts.text(),
        quantifier=ts.quantifier,
        interval=[ts.interval.start, ts.interval.end],
        subject=ts.subject,
        phrase=ts.vp.text(),
    )
    return 0


def _cmd_ask(args, kb, world, emitter, cap) -> int:
    s = dsl.sentence(kb, args.sentence)
    result = dialogue.apply_question(world, args.op, s, args.slot)
    lines = [a.text() for a in result.answers] or [f"no answers ({result.reason})"]
    emitter.emit(lines, answers=[a.text() for a in result.answers], reason=result.reason)
    return 0 if result.answers else 1


def _cmd_fuzzy(args, kb, world, emitter, cap) -> int:
    subject = normalize_id(args.subject)
    verb = kb.verbs.atom(normalize_id(args.verb))
    item = kb.nouns.atom(normalize_id(args.item))
    categories = kb.iso_categories(verb)
    if not categories:
        raise NoIso(f"verb {verb!r} has no declared noun category")
    with_degree = [
        c for c in categories if kb.degree(subject, item, c) is not None
    ]
    category = (with_degree or categories)[0]
    iso = fuzzy.NVIso(verb, category)
    statement = fuzzy.fuzzy_statement(kb, subject, iso, item)
    degree = kb.degree(subject, item, category)
    emitter.emit(
        [statement],
        statement=statement,
        degree=degree,
        adverb=fuzzy.adverb_for(fuzzy.DEFAULT_SCALE, degree),
        possible=fuzzy.possibility(kb, subject, iso, item),
    )
    return 0


def _cmd_laws(args, kb, world, emitter, cap) -> int:
    groups: dict = {}
    for stored, status in world.facts():
        tense = stored.tense
        if tense.form == FUTURE or tense.vague:
            continue
        subjects, vps = groups.setdefault(tense, (set(), set()))
        subjects.add(stored.subject)
        vps.add(stored.vp.core())
    verified, indeterminate, violations = [], [], []
    for tense, (subjects, vps) in groups.items():
        report = check_laws(world, subjects, vps, tense)
        verified.extend(report.verified)
        indeterminate.extend(report.indeterminate)
        violations.extend(report.violations)
    lines = [f"ok {s.text()}" for s, _, _ in sorted(verified, key=lambda e: e[0].text())]
    lines += [f"? {s.text()}" for s, _, _ in sorted(indeterminate, key=lambda e: e[0].text())]
    lines.append(f"violations: {len(violations)}")
    emitter.emit(
        lines,
        verified=len(verified),
        indeterminate=len(indeterminate),
        violations=len(violations),
        entries=[s.text() for s, _, _ in verified],
    )
    return 0 if not violations else 1


def _cmd_repl(args, kb, world, emitter, cap) -> int:
    state = dialogue.ReplState(world)
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("vpl> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line in ("exit", "quit"):
            break
        state, response = dialogue.repl_step(state, line)
        if emitter.machine:
            print(json.dumps(
                {"command": "repl", "status": "ok", "response": response},
                sort_keys=True,
            ), flush=True)
        else:
            print(response, flush=True)
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "entails": _cmd_entails,
    "closure": _cmd_closure,
    "contrapose": _cmd_contrapose,
    "disjunct": _cmd_disjunct,
    "render": _cmd_render,
    "ask": _cmd_ask,
    "fuzzy": _cmd_fuzzy,
    "laws": _cmd_laws,
    "repl": _cmd_repl,
}


if __name__ == "__main__":
    sys.exit(main())
