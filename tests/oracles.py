"""Brute-force reference implementations the engine is checked against.

Nothing here reuses the engine's order machinery: atom reachability is
per-node depth-first search, the phrase order is reachability over the
explicitly built product graph, fact status is a linear scan over that
graph, and temporal entailment is countermodel search over discrete time
points.
"""

import itertools
from collections import deque

from vplogic import KnowledgeBase, TemporalStatement, TimeInterval, VerbPhrase
from vplogic.order import KIND_OF, WAY_OF

TIME_POINTS = range(0, 11)


def dfs_pairs(n, edges):
    """Reflexive-transitive reachability of an index graph via DFS."""
    adj = {i: set() for i in range(n)}
    for lo, hi in edges:
        adj[lo].add(hi)
    pairs = set()
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            pairs.add((start, node))
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return pairs


def make_kb(noun_edges=(), verb_edges=(), nouns=(), verbs=()):
    """Small knowledge base from edge lists; labels default to
    kind_of/way_of, a third tuple element overrides."""
    kb = KnowledgeBase()
    for n in nouns:
        kb.nouns.add_atom(n)
    for v in verbs:
        kb.verbs.add_atom(v)
    for edge in noun_edges:
        lo, hi = edge[0], edge[1]
        label = edge[2] if len(edge) > 2 else KIND_OF
        kb.nouns.add_atom(lo)
        kb.nouns.add_atom(hi)
        kb.nouns.declare(lo, hi, label)
    for edge in verb_edges:
        lo, hi = edge[0], edge[1]
        label = edge[2] if len(edge) > 2 else WAY_OF
        kb.verbs.add_atom(lo)
        kb.verbs.add_atom(hi)
        kb.verbs.declare(lo, hi, label)
    return kb


class ProductOracle:
    """Reachability over the explicit product graph of a small kb.

    Nodes are every (polarity, verb, noun-slots) combination over the
    kb's atoms at one arity; edges generalize a single component along a
    declared edge, reversed for negated nodes, and never leave the arity
    (a verb edge to a verb of another arity yields no phrase).  The designated bounds
    are postulates of the order, so ``leq`` grants them on top of plain
    graph reachability; ``upset`` deliberately leaves them out, matching
    what slot-wise generalization can reach.
    """

    def __init__(self, kb, arity=1):
        self.kb = kb
        self.arity = arity
        self.top = kb.top
        self.bottom = kb.bottom
        verb_ids = [v for v in kb.verbs.atoms() if kb.arities.get(v) in (None, arity)]
        noun_ids = list(kb.nouns.atoms())
        self.universe = [
            VerbPhrase(v, ns, neg)
            for neg in (False, True)
            for v in verb_ids
            for ns in itertools.product(noun_ids, repeat=arity)
        ]
        self._succ = {}
        for vp in self.universe:
            succ = []
            if vp.negated:
                for lower in kb.verbs.direct_lowers(vp.verb):
                    succ.append(vp.replace(verb=lower))
                for slot, noun in enumerate(vp.nouns):
                    for lower in kb.nouns.direct_lowers(noun):
                        succ.append(vp.replace(slot=slot, noun=lower))
            else:
                for upper in kb.verbs.direct_uppers(vp.verb):
                    succ.append(vp.replace(verb=upper))
                for slot, noun in enumerate(vp.nouns):
                    for upper in kb.nouns.direct_uppers(noun):
                        succ.append(vp.replace(slot=slot, noun=upper))
            self._succ[vp] = succ
        universe = set(self.universe)
        for vp, succ in self._succ.items():
            succ[:] = [nxt for nxt in succ if nxt in universe]
        self._reach = {}

    def reach(self, vp):
        """Shortest edge distance from ``vp`` to each phrase it reaches.
        A phrase outside this arity's graph reaches only itself."""
        cached = self._reach.get(vp)
        if cached is None:
            cached = {vp: 0}
            queue = deque([vp])
            while queue:
                node = queue.popleft()
                for nxt in self._succ.get(node, ()):
                    if nxt not in cached:
                        cached[nxt] = cached[node] + 1
                        queue.append(nxt)
            self._reach[vp] = cached
        return cached

    def distance(self, a, b):
        """Edges on a shortest product-graph path from a to b, or None."""
        return self.reach(a).get(b)

    def leq(self, a, b):
        if a == b:
            return True
        if b == self.top and not a.negated:
            return True
        if a == self.bottom and b.negated:
            return True
        if a.negated != b.negated or a.arity != b.arity:
            return False
        return b in self.reach(a)

    def upset(self, vp):
        """Everything strictly above by edge reachability alone."""
        return set(self.reach(vp)) - {vp}


class StatusScan:
    """Reference for ``World.status_of``: a linear scan of stored facts.

    A stored fact supports a sentence of the same subject when
    - both are perfect or timeframed past, and their quantified readings
      (exists over the lifetime or timeframe for a positive phrase,
      forall for a negated one) pass ``oracle_temporal_entails``;
    - or else the tenses are equal and the product graph puts the fact's
      phrase below.
    One ``ProductOracle`` per arity supplies the phrase order.  A
    not_factual fact claims its negation.  Build it once the kb's atoms,
    verb arities and lifetimes are final.
    """

    def __init__(self, kb, arities=(1,)):
        self.kb = kb
        self.oracles = {n: ProductOracle(kb, n) for n in arities}

    def supports(self, known, claim):
        if known.subject != claim.subject:
            return False
        oracle = self.oracles[known.vp.arity]
        lifetime = self.kb.lifetime(known.subject)
        a, b = _reading(known, lifetime), _reading(claim, lifetime)
        if a is None or b is None:
            return known.tense == claim.tense and oracle.leq(known.vp, claim.vp)
        return oracle_temporal_entails(oracle, *_onto_time_points(a, b))

    def status(self, facts, sentence):
        """Status of ``sentence`` given ``(sentence, status)`` pairs."""
        claims = [
            (stored.negate(), "factual") if status == "not_factual" else (stored, status)
            for stored, status in facts
        ]
        negated = sentence.negate()
        if any(self.supports(known, negated) for known, _ in claims):
            return "not_factual"
        for known, status in claims:
            if self.supports(known, sentence):
                return status
        return "unknown"


def _reading(sentence, lifetime):
    """The quantified statement a perfect or timeframed-past sentence
    makes, or None for the other tenses."""
    tense = sentence.tense
    if tense.form == "past_perfect":
        interval = lifetime
    elif tense.form == "past" and tense.timeframe is not None:
        interval = tense.timeframe
    else:
        return None
    quantifier = "forall" if sentence.vp.negated else "exists"
    return TemporalStatement(quantifier, interval, sentence.subject, sentence.vp)


def _onto_time_points(a, b):
    """Both statements with every interval endpoint replaced by its rank
    among the endpoints, so that any lifetime fits TIME_POINTS.

    A countermodel uses a point only through the intervals that hold it,
    and places at most one witness per statement.  So all that counts is
    which regions (in a only, in b only, in both) are empty and whether
    the common region holds two points, and ranks keep both.
    """
    ends = {a.interval.start, a.interval.end, b.interval.start, b.interval.end}
    rank = {point: i for i, point in enumerate(sorted(ends))}

    def squeeze(stmt):
        interval = TimeInterval(rank[stmt.interval.start], rank[stmt.interval.end])
        return TemporalStatement(stmt.quantifier, interval, stmt.subject, stmt.vp)

    return squeeze(a), squeeze(b)


def _constraint(stmt, negate=False):
    """(kind, points, required value) for one quantified statement.

    The value is what the statement requires of "the core was performed
    at t"; negating a statement flips both the quantifier and the value.
    """
    pts = frozenset(range(stmt.interval.start, stmt.interval.end + 1))
    value = 0 if stmt.vp.negated else 1
    forall = stmt.quantifier == "forall"
    if negate:
        forall = not forall
        value = 1 - value
    return ("forall" if forall else "exists", pts, value)


def _need(constraint, witness, point):
    kind, pts, value = constraint
    if kind == "forall":
        return value if point in pts else None
    return value if point == witness else None


def oracle_temporal_entails(product_oracle, a, b):
    """Countermodel search over TIME_POINTS.

    A model assigns each point an upward-closed set of performed
    phrases; only the two cores matter, so per-point states collapse to
    the (did-a, did-b) pairs compatible with the core order.  Entailment
    holds iff no model satisfies ``a`` together with ``not b``.  Both
    intervals must lie inside TIME_POINTS.
    """
    if a.subject != b.subject:
        return False
    core_a, core_b = a.vp.core(), b.vp.core()
    leq_ab = product_oracle.leq(core_a, core_b)
    leq_ba = product_oracle.leq(core_b, core_a)
    allowed = [
        (xa, xb)
        for xa in (0, 1)
        for xb in (0, 1)
        if not (leq_ab and xa == 1 and xb == 0)
        and not (leq_ba and xb == 1 and xa == 0)
    ]
    holds_a = _constraint(a)
    breaks_b = _constraint(b, negate=True)
    witnesses_a = [None] if holds_a[0] == "forall" else sorted(holds_a[1])
    witnesses_b = [None] if breaks_b[0] == "forall" else sorted(breaks_b[1])
    for wa in witnesses_a:
        for wb in witnesses_b:
            feasible = True
            for point in TIME_POINTS:
                need_a = _need(holds_a, wa, point)
                need_b = _need(breaks_b, wb, point)
                if not any(
                    (need_a is None or xa == need_a)
                    and (need_b is None or xb == need_b)
                    for xa, xb in allowed
                ):
                    feasible = False
                    break
            if feasible:
                return False
    return True
