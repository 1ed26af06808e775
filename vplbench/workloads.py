"""Seeded generators for the benchmark workloads.

Everything a run sends to ``vplogic`` comes from here: the ``.vpl``
knowledge base, the ``repl`` script and the list of one-shot CLI calls.
The same workload name, seed and run length give byte-identical output.

Facts are consistent by construction.  Verb trees are split into a
positive half and a negative half with no edge between them, positive
facts use only positive trees and negated facts only negative ones, so no
stored fact can ever entail the negation of another.  The only
contradictions are the deliberate ones in the ``repl`` script, which the
program must refuse.  Every verb tree has one arity, and every subject has
one tense class (and ``past @ [a,b]`` subjects one fixed timeframe), so no
answer depends on the order in which verbs or tenses first appear.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

PAST = "past"
PAST_PERFECT = "past_perfect"
PRESENT_CONTINUOUS = "present_continuous"
FUTURE = "future"

KIND_OF = "kind_of"
PART_OF = "part_of"
WAY_OF = "way_of"


@dataclass(frozen=True)
class Sent:
    """A sentence as the generator and the reference see it."""

    subject: str
    form: str
    tf: tuple[int, int] | None
    verb: str
    nouns: tuple[str, ...]
    negated: bool = False

    def negate(self) -> Sent:
        return replace(self, negated=not self.negated)

    def core(self) -> Sent:
        return replace(self, negated=False)

    def text(self) -> str:
        body = "*".join((self.verb,) + self.nouns)
        out = f"{self.subject} {self.form} {'not ' if self.negated else ''}{body}"
        if self.tf is not None:
            out += f" @ [{self.tf[0]},{self.tf[1]}]"
        return out


# Expressions are nested tuples: ("leaf", Sent), ("not", e), ("and", a, b),
# ("or", a, b).  ``neg`` folds negation into leaves exactly as the
# expression parser does, so a rendered expression parses back to the
# same tree.


def neg(expr):
    if expr[0] == "leaf":
        return ("leaf", expr[1].negate())
    if expr[0] == "not":
        return expr[1]
    return ("not", expr)


def expr_text(expr, top: bool = True) -> str:
    kind = expr[0]
    if kind == "leaf":
        return f'"{expr[1].text()}"'
    if kind == "not":
        return f"NOT {expr_text(expr[1], top=False)}"
    body = f"{expr_text(expr[1], top=False)} {kind.upper()} {expr_text(expr[2], top=False)}"
    return body if top else f"({body})"


@dataclass(frozen=True)
class Params:
    """Every knob of one workload; recorded in each result."""

    nouns: int
    noun_roots: int
    part_of_share: float
    extra_parent_share: float
    synonym_cycles: int
    branching: int  # children per noun, give or take the jitter
    verbs: int
    verb_trees: int
    subjects: int
    facts: int
    negated_share: float
    isos: int
    degrees: int
    setups: int
    # Operations per second of run length; each count has a floor so the
    # tail percentile always has ten samples beyond it.  Counts sit just
    # under a step of the percentile ladder (199 gives p90, 400 gives p95)
    # where they can, so the tail rests on about twenty samples, not ten.
    asks_per_s: float
    evals_per_s: float
    asserts_per_s: float
    oneshots_per_s: float
    min_asks: int = 20
    min_evals: int = 20
    min_asserts: int = 20
    min_oneshots: int = 20
    # Candidates a question should scan; foci are picked as close to this
    # as the taxonomy allows.
    ask_candidates: int = 30
    contradiction_share: float = 0.15
    compound_share: float = 0.4
    held_focus_share: float = 0.95
    run_laws: bool = True


WORKLOADS = {
    # Large noun DAG, few facts; cost sits in the reachability kernel at load
    # and in specialization scans on `?`.
    "taxonomy": Params(
        nouns=2000, noun_roots=6, part_of_share=0.25, extra_parent_share=0.10,
        synonym_cycles=4, branching=3, verbs=100, verb_trees=8, subjects=8,
        facts=80, negated_share=0.2, isos=6, degrees=20, setups=7,
        asks_per_s=40.0, evals_per_s=20.0, asserts_per_s=19.9, oneshots_per_s=4.0,
    ),
    # Small taxonomy, many facts; cost sits in World scans and vp_leq.
    "facts": Params(
        nouns=400, noun_roots=4, part_of_share=0.25, extra_parent_share=0.10,
        synonym_cycles=2, branching=3, verbs=30, verb_trees=6, subjects=24,
        facts=1500, negated_share=0.2, isos=6, degrees=20, setups=7,
        asks_per_s=19.9, evals_per_s=20.0, asserts_per_s=19.9, oneshots_per_s=1.0,
        ask_candidates=10, run_laws=False,
    ),
    # Deep small KB queried by many separate processes; cost sits in
    # process start, import, parsing, closure and JSON output.
    "oneshot": Params(
        nouns=400, noun_roots=3, part_of_share=0.25, extra_parent_share=0.10,
        synonym_cycles=2, branching=2, verbs=40, verb_trees=6, subjects=8,
        facts=60, negated_share=0.2, isos=10, degrees=40, setups=15,
        asks_per_s=40.0, evals_per_s=20.0, asserts_per_s=19.9, oneshots_per_s=7.0,
        min_oneshots=100, ask_candidates=12,
    ),
}


@dataclass(frozen=True)
class Taxonomy:
    nouns: tuple[str, ...]
    noun_edges: tuple[tuple[str, str, str], ...]  # (lower, upper, label)
    verbs: tuple[str, ...]
    verb_edges: tuple[tuple[str, str], ...]  # (lower, upper), all way_of
    verb_arity: dict
    negative_verbs: frozenset
    subjects: tuple[str, ...]
    tense: dict  # subject -> (form, timeframe or None)
    lifetimes: dict  # subject -> (start, end)
    isos: tuple[tuple[str, str], ...]
    degrees: tuple[tuple[str, str, str, float], ...]  # (subject|*, item, category, degree)


@dataclass(frozen=True)
class ReplOp:
    kind: str  # "!", "=" or "?"
    line: str
    payload: object  # Sent, expression tuple, or (operator, slot)


@dataclass(frozen=True)
class OneShot:
    command: str
    args: tuple[str, ...]
    payload: object


@dataclass
class Workload:
    name: str
    seed: int
    seconds: int
    params: Params
    taxonomy: Taxonomy
    facts: tuple[Sent, ...]
    kb_text: str
    # Samples each kind of operation is guaranteed (scripts may hold more).
    counts: dict
    repl: list[ReplOp]
    oneshots: list[OneShot]

    def describe(self) -> dict:
        return {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
                "params": asdict(self.params)}


# -- taxonomy ---------------------------------------------------------------


def _tree_parents(rng, count, roots, branching):
    """Parent index for each node of a forest where every node has about
    ``branching`` children.  The jitter keeps it random, the regular
    branching keeps its shape (and so the cost of each query) alike from
    one seed to the next."""
    parents = [None] * count
    for i in range(roots, count):
        center = (i - roots) // branching + rng.randint(-branching, branching)
        parents[i] = min(i - 1, max(0, center))
    for r in range(min(roots, count - roots)):  # every root gets a child
        parents[roots + r] = r
    return parents


def _taxonomy(rng, p: Params) -> Taxonomy:
    nouns = tuple(f"c{i}" for i in range(p.nouns))
    edges = []
    parents = _tree_parents(rng, p.nouns, p.noun_roots, p.branching)
    for i, parent in enumerate(parents):
        if parent is None:
            continue
        label = PART_OF if rng.random() < p.part_of_share else KIND_OF
        edges.append((nouns[i], nouns[parent], label))
        if i > p.noun_roots and rng.random() < p.extra_parent_share:
            other = min(i - 1, max(0, parent + rng.randint(-20, 20)))
            if other != parent:
                label = PART_OF if rng.random() < p.part_of_share else KIND_OF
                edges.append((nouns[i], nouns[other], label))
    # A synonym cycle: a noun and its parent name the same thing.
    for i in rng.sample(range(p.noun_roots, p.nouns), p.synonym_cycles):
        edges.append((nouns[parents[i]], nouns[i], KIND_OF))
        edges.append((nouns[i], nouns[parents[i]], KIND_OF))
    edges = tuple(dict.fromkeys(edges))

    verbs = tuple(f"v{i}" for i in range(p.verbs))
    tree_of = [i % p.verb_trees for i in range(p.verbs)]
    verb_edges, arity, negative = [], {}, set()
    for t in range(p.verb_trees):
        members = [i for i in range(p.verbs) if tree_of[i] == t]
        for i, parent in zip(members, _tree_parents(rng, len(members), 1, 2)):
            arity[verbs[i]] = 1 + t % 3
            if t >= p.verb_trees // 2:
                negative.add(verbs[i])
            if parent is not None:
                verb_edges.append((verbs[i], verbs[members[parent]]))

    subjects = tuple(f"s{i}" for i in range(p.subjects))
    classes = (PAST_PERFECT, PAST, PRESENT_CONTINUOUS, FUTURE)
    tense, lifetimes = {}, {}
    for i, s in enumerate(subjects):
        form = classes[i % len(classes)]
        lifetimes[s] = (0, 80 + i)
        tense[s] = (form, (10 + i, 30 + 2 * i) if form == PAST else None)

    iso_verbs = rng.sample(verbs, p.isos)
    categories = [nouns[i] for i in range(p.noun_roots)] + list(rng.sample(nouns, 8))
    isos = tuple(sorted({(v, rng.choice(categories)) for v in iso_verbs}))
    degrees = {}
    for _ in range(p.degrees):
        _, cat = rng.choice(isos)
        subject = rng.choice(("*",) + subjects)
        degrees[(subject, rng.choice(nouns), cat)] = round(rng.random(), 2)
    degrees = tuple((s, i, c, d) for (s, i, c), d in degrees.items())
    return Taxonomy(nouns, edges, verbs, tuple(verb_edges), arity, frozenset(negative),
                    subjects, tense, lifetimes, isos, degrees)


# -- ancestor sets (also used by the reference) ------------------------------


def ancestors(nodes, edges):
    """Reflexive ancestor set of every node, by BFS over (lower, upper) pairs."""
    ups = {n: [] for n in nodes}
    for lo, hi in edges:
        ups[lo].append(hi)
    out = {}
    for n in nodes:
        seen = {n}
        frontier = [n]
        while frontier:
            nxt = []
            for x in frontier:
                for y in ups[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        out[n] = frozenset(seen)
    return out


def invert(up):
    down = {n: set() for n in up}
    for n, ancestors_of_n in up.items():
        for a in ancestors_of_n:
            down[a].add(n)
    return {n: frozenset(d) for n, d in down.items()}


# -- facts ------------------------------------------------------------------


def _sentence(rng, tax: Taxonomy, subject, verb) -> Sent:
    form, tf = tax.tense[subject]
    nouns = tuple(rng.choice(tax.nouns) for _ in range(tax.verb_arity[verb]))
    return Sent(subject, form, tf, verb, nouns, verb in tax.negative_verbs)


def _facts(rng, tax: Taxonomy, p: Params) -> tuple[Sent, ...]:
    positive = [v for v in tax.verbs if v not in tax.negative_verbs]
    negative = sorted(tax.negative_verbs)
    facts = {}
    while len(facts) < p.facts:
        subject = tax.subjects[len(facts) % len(tax.subjects)]  # same count each
        pool = negative if rng.random() < p.negated_share else positive
        s = _sentence(rng, tax, subject, rng.choice(pool))
        facts.setdefault(s, None)
    return tuple(facts)


def kb_text(tax: Taxonomy, facts, header: str) -> str:
    lines = [f"# {header}"]
    lines += [f"noun {lo} {label} {hi}" for lo, hi, label in tax.noun_edges]
    lines += [f"verb {lo} way_of {hi}" for lo, hi in tax.verb_edges]
    lines += [f"iso {v} ~ {c}" for v, c in tax.isos]
    lines += [f"degree {s} {i} in {c} = {d:.2f}" for s, i, c, d in tax.degrees]
    lines += [f"lifetime {s} = [{a},{b}]" for s, (a, b) in tax.lifetimes.items()]
    lines += [f"fact {f.text()}" for f in facts]
    return "\n".join(lines) + "\n"


# -- scripts ----------------------------------------------------------------


class _Walker:
    """Random walks up and down the generator's own edge lists."""

    def __init__(self, rng, tax: Taxonomy):
        self.rng = rng
        self.noun_up = {n: [] for n in tax.nouns}
        self.noun_down = {n: [] for n in tax.nouns}
        self.up_by = {KIND_OF: {n: [] for n in tax.nouns}, PART_OF: {n: [] for n in tax.nouns}}
        self.down_by = {KIND_OF: {n: [] for n in tax.nouns}, PART_OF: {n: [] for n in tax.nouns}}
        for lo, hi, label in tax.noun_edges:
            self.noun_up[lo].append(hi)
            self.noun_down[hi].append(lo)
            self.up_by[label][lo].append(hi)
            self.down_by[label][hi].append(lo)
        self.verb_up = {v: [] for v in tax.verbs}
        self.verb_down = {v: [] for v in tax.verbs}
        for lo, hi in tax.verb_edges:
            self.verb_up[lo].append(hi)
            self.verb_down[hi].append(lo)
        # How many atoms a question about each atom scans, by direction.
        self.reach_up = {}
        self.reach_down = {}
        for label, graph in ((KIND_OF, self.up_by[KIND_OF]), (PART_OF, self.up_by[PART_OF]),
                             (WAY_OF, self.verb_up)):
            up = ancestors(graph, [(lo, hi) for lo, his in graph.items() for hi in his])
            self.reach_up[label] = {n: len(a) for n, a in up.items()}
            self.reach_down[label] = {n: len(d) for n, d in invert(up).items()}

    def walk(self, graph, start, max_steps, min_steps=0):
        node = start
        for _ in range(self.rng.randint(min_steps, max_steps)):
            if not graph[node]:
                break
            node = self.rng.choice(graph[node])
        return node

    def moved(self, s: Sent, up: bool, max_steps: int) -> Sent:
        """A sentence above (``up``) or below ``s`` in the phrase order."""
        ngraph = self.noun_up if up else self.noun_down
        vgraph = self.verb_up if up else self.verb_down
        verb = self.walk(vgraph, s.verb, 2)
        nouns = tuple(self.walk(ngraph, n, max_steps) for n in s.nouns)
        return replace(s, verb=verb, nouns=nouns)


def _held_leaf(rng, walker, facts, max_steps) -> Sent:
    """A sentence the facts decide: above a positive fact, or (as the
    negated phrase) above a negated fact's core's negation."""
    fact = rng.choice(facts)
    if fact.negated:
        # not V*N entails not v*n for every v*n below V*N.
        return walker.moved(fact.core(), up=False, max_steps=max_steps).negate()
    return walker.moved(fact, up=True, max_steps=max_steps)


def _leaf(rng, tax, walker, facts, held_share, max_steps) -> Sent:
    if rng.random() < held_share:
        s = _held_leaf(rng, walker, facts, max_steps)
        # Ask about the opposite polarity now and then: not_factual answers.
        return s.negate() if rng.random() < 0.2 else s
    subject = rng.choice(tax.subjects)
    return _sentence(rng, tax, subject, rng.choice(tax.verbs))


def _expr(rng, tax, walker, facts, p: Params, max_steps):
    leaf = ("leaf", _leaf(rng, tax, walker, facts, 0.7, max_steps))
    if rng.random() >= p.compound_share:
        return leaf
    expr = leaf
    for _ in range(2):  # always three leaves, so every seed has the same mix
        other = ("leaf", _leaf(rng, tax, walker, facts, 0.7, max_steps))
        if rng.random() < 0.3:
            other = neg(other)
        expr = (rng.choice(("and", "or")), expr, other)
        if rng.random() < 0.2:
            expr = neg(expr)
    return expr


def _assertion(rng, tax, walker, facts, p: Params) -> tuple[Sent, bool]:
    """A sentence to assert, and whether it is a deliberate contradiction."""
    if rng.random() < p.contradiction_share:
        fact = rng.choice(facts)
        if fact.negated:
            # Below a negated fact's core: refused.
            return walker.moved(fact.core(), up=False, max_steps=3), True
        # Negation of something above a positive fact: refused.
        return walker.moved(fact, up=True, max_steps=3).negate(), True
    subject = rng.choice(tax.subjects)
    negative = rng.random() < p.negated_share
    pool = sorted(tax.negative_verbs) if negative else [
        v for v in tax.verbs if v not in tax.negative_verbs]
    return _sentence(rng, tax, subject, rng.choice(pool)), False


_OPERATORS = ("which_kind",) * 4 + ("which_part",) + ("which_kind",) * 4 + ("how",)


def _question(op: str, slot: int, arity: int) -> ReplOp:
    if op == "how" or arity == 1:
        return ReplOp("?", f"? {op}", (op, None))
    return ReplOp("?", f"? {op} {slot}", (op, slot))


def _focus_block(rng, tax, walker, facts, p: Params, index: int) -> list[ReplOp]:
    """A focus moved away from a fact along one label, then the question
    that refines it back, which scans every specialization of the focus."""
    # The operators take turns, so every seed has the same mix of questions,
    # and each focus is the one of 30 tries whose question scans the number
    # of candidates nearest the workload's target, so questions cost about
    # the same on every seed.
    op = _OPERATORS[index % len(_OPERATORS)]
    best = None
    for _ in range(30):
        fact = rng.choice(facts)
        slot = rng.randrange(len(fact.nouns))
        base, up = fact.core(), not fact.negated
        scanned = walker.reach_down if up else walker.reach_up
        if op == "how":
            focus = replace(base, verb=walker.walk(
                walker.verb_up if up else walker.verb_down, base.verb, 3, 1))
            size = scanned[WAY_OF][focus.verb]
        else:
            label = KIND_OF if op == "which_kind" else PART_OF
            noun = walker.walk((walker.up_by if up else walker.down_by)[label],
                               base.nouns[slot], 6, 1)
            focus = replace(base, nouns=base.nouns[:slot] + (noun,) + base.nouns[slot + 1:])
            size = scanned[label][noun]
        if focus == base:
            continue  # the walk did not move: nothing to refine
        miss = abs(size - p.ask_candidates)
        if best is None or miss < best[0]:
            best = (miss, fact, slot, focus)
        if miss == 0:
            break
    if best is not None:
        _, fact, slot, focus = best
    focus = focus.negate() if fact.negated else focus
    if rng.random() >= p.held_focus_share:
        focus = _sentence(rng, tax, rng.choice(tax.subjects), rng.choice(tax.verbs))
    return [ReplOp("=", f"= {expr_text(('leaf', focus))}", ("leaf", focus)),
            _question(op, slot, len(focus.nouns))]


def counts(p: Params, seconds: int) -> dict:
    return {"?": max(p.min_asks, round(p.asks_per_s * seconds)),
            "=": max(p.min_evals, round(p.evals_per_s * seconds)),
            "!": max(p.min_asserts, round(p.asserts_per_s * seconds)),
            "oneshot": max(p.min_oneshots, round(p.oneshots_per_s * seconds))}


def _repl_script(rng, tax, walker, facts, p: Params, n: dict) -> list[ReplOp]:
    asks, evals, asserts = n["?"], n["="], n["!"]
    ops = []
    blocks = 0
    while asks > 0 or evals > 0 or asserts > 0:
        kind = rng.choices(("?", "=", "!"), weights=(max(asks, 0), max(evals, 0),
                                                     max(asserts, 0)))[0]
        if kind == "!":
            s, _ = _assertion(rng, tax, walker, facts, p)
            ops.append(ReplOp("!", f"! {s.text()}", s))
            asserts -= 1
        elif kind == "=":
            expr = _expr(rng, tax, walker, facts, p, 6)
            ops.append(ReplOp("=", f"= {expr_text(expr)}", expr))
            evals -= 1
        else:
            ops.extend(_focus_block(rng, tax, walker, facts, p, blocks))
            blocks += 1
            asks -= 1
            evals -= 1
    return ops


# -- one-shot calls ---------------------------------------------------------

CLOSURE_CAP = 200


def _closure_total(up_verbs, up_nouns, down_verbs, down_nouns, s: Sent) -> int:
    verbs, nouns = (down_verbs, down_nouns) if s.negated else (up_verbs, up_nouns)
    total = len(verbs[s.verb])
    for n in s.nouns:
        total *= len(nouns[n])
    return total - 1


def _oneshots(rng, tax, walker, facts, p: Params, count: int) -> list[OneShot]:
    noun_up = ancestors(tax.nouns, [(lo, hi) for lo, hi, _ in tax.noun_edges])
    verb_up = ancestors(tax.verbs, tax.verb_edges)
    noun_down, verb_down = invert(noun_up), invert(verb_up)
    totals = {s: _closure_total(verb_up, noun_up, verb_down, noun_down, s) for s in facts}
    big = [s for s in facts if totals[s] > CLOSURE_CAP]
    mid = [s for s in facts if 0.8 * CLOSURE_CAP <= totals[s] <= CLOSURE_CAP]
    kinds = ["closure", "closure", "entails", "contrapose", "check", "check",
             "render", "ask", "fuzzy"] + (["laws"] if p.run_laws else [])
    calls = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        if kind == "closure":
            # Alternately a closure cut at the cap and one answered in full
            # with 80% to 100% of the cap, so every seed returns about the
            # same number of conclusions.
            if (i // len(kinds)) % 2 or not mid:
                s = rng.choice(big) if big else max(facts, key=totals.get)
            else:
                s = rng.choice(mid)
            calls.append(OneShot("closure", (s.text(), "--cap", str(CLOSURE_CAP)), (s, CLOSURE_CAP)))
        elif kind in ("entails", "contrapose"):
            a = rng.choice(facts)
            if rng.random() < 0.6:
                b = walker.moved(a.core(), up=not a.negated, max_steps=4)
                b = b.negate() if a.negated else b
            else:
                b = _sentence(rng, tax, a.subject, rng.choice(
                    [v for v in tax.verbs if tax.verb_arity[v] == len(a.nouns)]))
                b = b.negate() if a.negated != b.negated else b
            calls.append(OneShot(kind, (a.text(), b.text()), (a, b)))
        elif kind == "check":
            expr = _expr(rng, tax, walker, facts, p, 6)
            calls.append(OneShot("check", (expr_text(expr),), expr))
        elif kind == "render":
            s = _held_leaf(rng, walker, facts, 4)
            calls.append(OneShot("render", (s.text(),), s))
        elif kind == "ask":
            s = _held_leaf(rng, walker, facts, 3)
            op = rng.choice(("which_kind", "which_part", "how"))
            slot = rng.randrange(len(s.nouns))
            calls.append(OneShot("ask", (op, s.text(), "--slot", str(slot)), (op, s, slot)))
        elif kind == "fuzzy":
            subject, item, category, _ = rng.choice(tax.degrees)
            subject = rng.choice(tax.subjects) if subject == "*" else subject
            verb = rng.choice([v for v, c in tax.isos if c == category])
            calls.append(OneShot("fuzzy", (subject, verb, item), (subject, verb, item)))
        else:
            calls.append(OneShot("laws", (), None))
    return calls


def build(name: str, seed: int, seconds: int, params: Params | None = None) -> Workload:
    """The workload's KB, repl script and one-shot calls for one seed."""
    p = params or WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    tax = _taxonomy(rng, p)
    facts = _facts(rng, tax, p)
    walker = _Walker(rng, tax)
    header = f"vplbench workload={name} seed={seed} seconds={seconds}"
    n = counts(p, seconds)
    return Workload(name, seed, seconds, p, tax, facts, kb_text(tax, facts, header), n,
                    _repl_script(rng, tax, walker, facts, p, n),
                    _oneshots(rng, tax, walker, facts, p, n["oneshot"]))
