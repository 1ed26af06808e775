"""Independent answer reference for the benchmark.

Everything here is derived from the generator's own edge lists: ancestor
sets by BFS, the componentwise phrase order on top of them, statuses from
the stored facts, and from those the expected answer to every ``repl``
line and one-shot call.  It shares no code with ``vplogic.order``,
``vplogic.phrase`` or ``vplogic.sentence``.
"""

from __future__ import annotations

import math

from workloads import FUTURE, KIND_OF, PART_OF, PAST, PAST_PERFECT, Sent, ancestors, invert

FACTUAL = "factual"
NOT_FACTUAL = "not_factual"
UNKNOWN = "unknown"
PLAN = "plan"

TOP_VERB, TOP_NOUN = "do", "something"

_NUMERIC = {FACTUAL: 1.0, NOT_FACTUAL: 0.0, UNKNOWN: 0.5}

ADVERBS = ((0.7, "often"), (0.4, "more or less"), (0.2, "less likely"),
           (0.05, "rarely"), (0.0, "never"))


class Orders:
    """Reflexive ancestor and descendant sets of both preorders."""

    def __init__(self, tax):
        noun_pairs = [(lo, hi) for lo, hi, _ in tax.noun_edges]
        self.noun_up = ancestors(tax.nouns, noun_pairs)
        self.noun_down = invert(self.noun_up)
        self.noun_up_by = {}
        self.noun_down_by = {}
        for label in (KIND_OF, PART_OF):
            up = ancestors(tax.nouns, [(lo, hi) for lo, hi, lab in tax.noun_edges if lab == label])
            self.noun_up_by[label] = up
            self.noun_down_by[label] = invert(up)
        self.verb_up = ancestors(tax.verbs, tax.verb_edges)
        self.verb_down = invert(self.verb_up)

    def leq(self, a: Sent, b: Sent) -> bool:
        """Phrase order of a below b, with the do*something bounds."""
        if (a.verb, a.nouns, a.negated) == (b.verb, b.nouns, b.negated):
            return True
        if not b.negated and (b.verb, b.nouns) == (TOP_VERB, (TOP_NOUN,)) and not a.negated:
            return True
        if a.negated and (a.verb, a.nouns) == (TOP_VERB, (TOP_NOUN,)) and b.negated:
            return True
        if a.negated != b.negated or len(a.nouns) != len(b.nouns):
            return False
        if a.negated:
            a, b = b, a
        if b.verb not in self.verb_up[a.verb]:
            return False
        return all(hi in self.noun_up[lo] for lo, hi in zip(a.nouns, b.nouns))


class RefWorld:
    """The stored facts, bucketed by subject and tense class."""

    def __init__(self, orders: Orders, facts=()):
        self.orders = orders
        self.buckets: dict[tuple, dict[Sent, None]] = {}
        for f in facts:
            self.add(f)

    @staticmethod
    def _bucket_key(s: Sent):
        return (s.subject, s.form, s.tf)

    def add(self, s: Sent) -> None:
        self.buckets.setdefault(self._bucket_key(s), {})[s] = None

    def status(self, s: Sent) -> str:
        bucket = self.buckets.get(self._bucket_key(s), ())
        negated = s.negate()
        if any(self.orders.leq(k, negated) for k in bucket):
            return NOT_FACTUAL
        if any(self.orders.leq(k, s) for k in bucket):
            return PLAN if s.form == FUTURE else FACTUAL
        return UNKNOWN

    def held(self, s: Sent) -> bool:
        return self.status(s) in (FACTUAL, PLAN)

    def eval(self, expr) -> str:
        strict = self._value(expr, 0.5)
        if strict == 1.0:
            return FACTUAL
        if strict == 0.0:
            return NOT_FACTUAL
        loose = self._value(expr, 1.0)
        if loose == 1.0:
            return PLAN
        if loose == 0.0:
            return NOT_FACTUAL
        return UNKNOWN

    def _value(self, expr, plan_value):
        kind = expr[0]
        if kind == "leaf":
            status = self.status(expr[1])
            return plan_value if status == PLAN else _NUMERIC[status]
        if kind == "not":
            return 1.0 - self._value(expr[1], plan_value)
        left = self._value(expr[1], plan_value)
        right = self._value(expr[2], plan_value)
        return min(left, right) if kind == "and" else max(left, right)

    def refinements(self, op: str, s: Sent, slot: int | None):
        """Held sentences strictly more specific than s in the targeted
        slot, or an error code."""
        o = self.orders
        if op == "how":
            pool = (o.verb_up if s.negated else o.verb_down)[s.verb]
            cands = (Sent(s.subject, s.form, s.tf, v, s.nouns, s.negated) for v in pool)
        else:
            if slot is None:
                if len(s.nouns) > 1:
                    return "slot_out_of_range"
                slot = 0
            if not 0 <= slot < len(s.nouns):
                return "slot_out_of_range"
            label = KIND_OF if op == "which_kind" else PART_OF
            pool = (o.noun_up_by if s.negated else o.noun_down_by)[label][s.nouns[slot]]
            cands = (Sent(s.subject, s.form, s.tf, s.verb,
                          s.nouns[:slot] + (n,) + s.nouns[slot + 1:], s.negated)
                     for n in pool)
        return {c.text(): c for c in cands if c != s and self.held(c)}


class ReplChecker:
    """Follows one ``repl`` session line by line and judges each response."""

    def __init__(self, world: RefWorld):
        self.world = world
        self.focus: Sent | None = None

    def check(self, op, response: str) -> str | None:
        """None when the response is right, else what was expected."""
        w = self.world
        if op.kind == "!":
            s = op.payload
            if w.status(s) == NOT_FACTUAL:
                return _expect_error(response, "contradiction")
            w.add(s)
            self.focus = s
            return None if response == "A: noted" else "A: noted"
        if op.kind == "=":
            expr = op.payload
            if expr[0] == "leaf":
                self.focus = expr[1]
            want = f"A: {w.eval(expr)}"
            return None if response == want else want
        operator, slot = op.payload
        if self.focus is None:
            return _expect_error(response, "no_focus")
        if not w.held(self.focus):
            return _expect_error(response, "not_factual")
        answers = w.refinements(operator, self.focus, slot)
        if isinstance(answers, str):
            return _expect_error(response, answers)
        if not answers:
            return None if response == "A: no refinement" else "A: no refinement"
        text = response[3:] if response.startswith("A: ") else None
        if text not in answers:
            return f"one of {sorted(answers)[:3]}..."
        self.focus = answers[text]
        return None


def _expect_error(response: str, code: str) -> str | None:
    ok = response.startswith("ERR: ") and response.endswith(f"[{code}]")
    return None if ok else f"ERR: ... [{code}]"


# -- one-shot calls ----------------------------------------------------------


def _render(s: Sent, lifetime):
    if s.form == PAST_PERFECT:
        interval = lifetime
    elif s.form == PAST and s.tf is not None:
        interval = s.tf
    else:
        return None
    quantifier = "forall" if s.negated else "exists"
    body = " * ".join((f"{s.verb}_t",) + s.nouns)
    if s.negated:
        body = "not " + body
    text = f"{quantifier.upper()} t in [{interval[0]},{interval[1]}]: {s.subject} {body}"
    return {"statement": text, "quantifier": quantifier, "interval": list(interval),
            "subject": s.subject, "phrase": ("not " if s.negated else "") + "*".join((s.verb,) + s.nouns)}


def _adverb(degree: float) -> str:
    for cut, adverb in ADVERBS:
        if degree >= cut:
            return adverb
    raise ValueError(degree)


class OneShotChecker:
    """Expected exit code and record for each one-shot call on the KB as
    loaded (no repl assertions)."""

    def __init__(self, tax, facts):
        self.tax = tax
        self.orders = Orders(tax)
        self.world = RefWorld(self.orders, facts)
        self.facts = facts

    def check(self, call, code: int, records: list) -> str | None:
        if len(records) != 1:
            return f"expected one JSON record, got {len(records)}"
        rec = records[0]
        want_code, check = getattr(self, "_" + call.command)(call.payload)
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        return check(rec)

    def _closure(self, payload):
        s, cap = payload
        o = self.orders
        verbs, nouns = (o.verb_down, o.noun_down) if s.negated else (o.verb_up, o.noun_up)
        total = math.prod([len(verbs[s.verb])] + [len(nouns[n]) for n in s.nouns]) - 1

        def check(rec):
            want_count = min(total, cap)
            if rec.get("count") != want_count or rec.get("truncated") != (total > cap):
                return f"count {rec.get('count')} truncated {rec.get('truncated')}, expected {want_count} {total > cap}"
            seen = set()
            for c in rec["conclusions"]:
                t = c["sentence"]
                if t in seen:
                    return f"duplicate conclusion {t}"
                seen.add(t)
            if len(seen) != want_count:
                return "conclusion count differs from count"
            sample = {c["sentence"] for c in rec["conclusions"][:50]}
            for t in sample:
                if not self._strict_generalization(s, t):
                    return f"{t} is not a strict consequence of {s.text()}"
            return None
        return 0, check

    def _strict_generalization(self, s: Sent, text: str) -> bool:
        body = text[len(f"{s.subject} {s.form} "):]
        if s.tf is not None:
            body = body.rsplit(" @ ", 1)[0]
        negated = body.startswith("not ")
        parts = body[4:].split("*") if negated else body.split("*")
        t = Sent(s.subject, s.form, s.tf, parts[0], tuple(parts[1:]), negated)
        return t.text() == text and t != s and self.orders.leq(s, t)

    def _entails(self, payload):
        a, b = payload
        result = self.orders.leq(a, b)
        return (0 if result else 1), lambda rec: None if rec.get("result") is result else "wrong result"

    def _contrapose(self, payload):
        a, b = payload
        if not self.orders.leq(a, b):
            return 1, lambda rec: None if rec.get("status") == "negative" else "expected negative"
        want = {"from": b.negate().text(), "to": a.negate().text()}
        return 0, lambda rec: None if {k: rec.get(k) for k in want} == want else f"expected {want}"

    def _check(self, expr):
        value = self.world.eval(expr)
        code = 0 if value in (FACTUAL, PLAN) else 1
        return code, lambda rec: None if rec.get("value") == value else f"expected {value}"

    def _render(self, s):
        want = _render(s, self.tax.lifetimes[s.subject])
        if want is None:
            return 1, lambda rec: None if rec.get("status") == "negative" else "expected negative"
        return 0, lambda rec: None if {k: rec.get(k) for k in want} == want else f"expected {want}"

    def _ask(self, payload):
        op, s, slot = payload
        if not self.world.held(s):
            return 1, lambda rec: None if rec.get("status") == "negative" else "expected negative"
        answers = self.world.refinements(op, s, None if op == "how" else slot)
        want = sorted(answers)
        return (0 if want else 1), lambda rec: None if rec.get("answers") == want else f"expected {want[:3]}"

    def _fuzzy(self, payload):
        subject, verb, item = payload
        degrees = {(s, i, c): d for s, i, c, d in self.tax.degrees}

        def degree(c):
            d = degrees.get((subject, item, c))
            return d if d is not None else degrees.get(("*", item, c))
        categories = sorted(c for v, c in self.tax.isos if v == verb)
        with_degree = [c for c in categories if degree(c) is not None]
        category = (with_degree or categories)[0]
        d = degree(category)
        if d is None:
            return 1, lambda rec: None if rec.get("status") == "negative" else "expected negative"
        adverb = _adverb(d)
        want = {
            "statement": f"{subject} {adverb} {verb} {item}",
            "degree": d,
            "adverb": adverb,
            "possible": category in self.orders.noun_up[item] and d > 0.0,
        }
        return 0, lambda rec: None if {k: rec.get(k) for k in want} == want else f"expected {want}"

    def _laws(self, _payload):
        groups: dict = {}
        for f in self.facts:
            if f.form == FUTURE:
                continue
            grp = groups.setdefault((f.form, f.tf), (set(), set()))
            grp[0].add(f.subject)
            grp[1].add((f.verb, f.nouns))
        verified, indeterminate, violations = [], 0, 0
        for (form, tf), (subjects, cores) in groups.items():
            for subject in subjects:
                for verb, nouns in cores:
                    s = Sent(subject, form, tf, verb, nouns)
                    pos, negs = self.world.status(s), self.world.status(s.negate())
                    if {pos, negs} == {FACTUAL, NOT_FACTUAL}:
                        verified.append(s.text())
                    elif pos in (UNKNOWN, PLAN) or negs in (UNKNOWN, PLAN):
                        indeterminate += 1
                    else:
                        violations += 1

        def check(rec):
            got = (rec.get("verified"), rec.get("indeterminate"), rec.get("violations"))
            if got != (len(verified), indeterminate, violations):
                return f"counts {got}, expected {(len(verified), indeterminate, violations)}"
            if sorted(rec.get("entries", [])) != sorted(verified):
                return "verified entries differ"
            return None
        return (0 if not violations else 1), check

