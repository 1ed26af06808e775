import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from vplogic import (
    FACTUAL,
    NOT_FACTUAL,
    PLAN,
    UNKNOWN,
    And,
    Leaf,
    Not,
    Or,
    Sentence,
    Tense,
    World,
    check_laws,
    entails,
    expr_text,
    neg,
)
from vplogic.dsl import parse_expr
from vplogic.errors import (
    Contradiction,
    ParseError,
    IntervalOutOfLifetime,
    UnsupportedTense,
    VagueTense,
)
from vplogic.order import KIND_OF, WAY_OF
from vplogic.sentence import FUTURE, PAST, PAST_PERFECT, PRESENT_CONTINUOUS
from vplogic.temporal import TimeInterval

from oracles import StatusScan, make_kb

# The package exports a ``sentence`` function, which shadows the module.
sentence_module = importlib.import_module("vplogic.sentence")


@pytest.fixture
def kb():
    return make_kb(
        noun_edges=[("potato", "vegetable"), ("apple", "fruit"), ("hybrid_car", "car")],
        verb_edges=[("bake", "cook"), ("buy", "own")],
    )


def s(kb, verb, noun, *, negated=False, subject="i", form=PAST_PERFECT, timeframe=None):
    return Sentence(subject, Tense(form, timeframe), kb.phrase(verb, [noun], negated))


def test_assert_and_lookup(kb):
    w = World(kb)
    fact = s(kb, "bake", "potato")
    w.assert_fact(fact)
    assert w.status_of(fact) == FACTUAL
    assert w.status_of(s(kb, "cook", "vegetable")) == FACTUAL
    assert w.status_of(s(kb, "cook", "vegetable", negated=True)) == NOT_FACTUAL


def test_assert_contradiction(kb):
    w = World(kb)
    w.assert_fact(s(kb, "bake", "potato"))
    with pytest.raises(Contradiction):
        w.assert_fact(s(kb, "bake", "potato", negated=True))
    with pytest.raises(Contradiction):
        w.assert_fact(s(kb, "cook", "vegetable", negated=True))
    with pytest.raises(Contradiction):
        w.assert_fact(s(kb, "bake", "potato"), NOT_FACTUAL)


def test_assert_entailed_negative_blocks_specific(kb):
    w = World(kb)
    w.assert_fact(s(kb, "own", "car", negated=True))
    with pytest.raises(Contradiction):
        w.assert_fact(s(kb, "buy", "hybrid_car"))


def test_vague_past_rejected(kb):
    w = World(kb)
    with pytest.raises(VagueTense):
        w.assert_fact(s(kb, "bake", "potato", form=PAST))
    w.assert_fact(s(kb, "bake", "potato", form=PAST, timeframe=TimeInterval(3, 4)))


def test_future_becomes_plan(kb):
    w = World(kb)
    fact = s(kb, "buy", "car", form=FUTURE)
    w.assert_fact(fact)
    assert w.status_of(fact) == PLAN
    stored = {f.text(): status for f, status in w.facts()}
    assert stored[fact.text()] == PLAN


def test_future_not_factual_normalizes_to_negated_plan(kb):
    w = World(kb)
    fact = s(kb, "buy", "car", form=FUTURE)
    w.assert_fact(fact, NOT_FACTUAL)
    assert w.status_of(fact) == NOT_FACTUAL
    assert w.status_of(fact.negate()) == PLAN


def test_not_factual_status_supports_negation(kb):
    w = World(kb)
    w.assert_fact(s(kb, "own", "car"), NOT_FACTUAL)
    assert w.status_of(s(kb, "own", "car")) == NOT_FACTUAL
    assert w.status_of(s(kb, "buy", "hybrid_car", negated=True)) == FACTUAL


def test_tense_classes_are_separate(kb):
    w = World(kb)
    w.assert_fact(s(kb, "bake", "potato"))
    assert w.status_of(s(kb, "bake", "potato", form=PRESENT_CONTINUOUS)) == UNKNOWN
    # Timed past tenses compare over their intervals instead: "at some t
    # in [1,2]" carries over to [1,3], not to [2,2].
    w.assert_fact(s(kb, "bake", "potato", form=PAST, timeframe=TimeInterval(1, 2)))
    assert w.status_of(s(kb, "cook", "vegetable", form=PAST, timeframe=TimeInterval(1, 3))) \
        == FACTUAL
    assert w.status_of(s(kb, "bake", "potato", form=PAST, timeframe=TimeInterval(2, 2))) \
        == UNKNOWN
    assert w.status_of(s(kb, "bake", "potato", form=PRESENT_CONTINUOUS)) == UNKNOWN


# -- expression evaluation ----------------------------------------------


def test_eval_kleene_tables(kb):
    w = World(kb)
    w.assert_fact(s(kb, "bake", "potato"))
    w.assert_fact(s(kb, "bake", "apple"))
    both = And(Leaf(s(kb, "bake", "potato")), Leaf(s(kb, "bake", "apple")))
    assert w.eval(both) == FACTUAL
    mixed = Or(Leaf(s(kb, "bake", "potato", negated=True)), Leaf(s(kb, "bake", "apple")))
    assert w.eval(mixed) == FACTUAL  # 0 + 1 = 1
    assert w.eval(Not(both)) == NOT_FACTUAL


def test_eval_excluded_middle_on_determinate_atom(kb):
    w = World(kb)
    w.assert_fact(s(kb, "bake", "potato"))
    atom = Leaf(s(kb, "bake", "potato"))
    assert w.eval(Or(atom, neg(atom))) == FACTUAL
    assert w.eval(And(atom, neg(atom))) == NOT_FACTUAL


def test_eval_unknown_propagates(kb):
    w = World(kb)
    atom = Leaf(s(kb, "bake", "potato"))
    assert w.eval(atom) == UNKNOWN
    assert w.eval(Or(atom, neg(atom))) == UNKNOWN
    w.assert_fact(s(kb, "bake", "apple"))
    assert w.eval(Or(atom, Leaf(s(kb, "bake", "apple")))) == FACTUAL


def test_eval_plan_taints_only_when_needed(kb):
    w = World(kb)
    w.assert_fact(s(kb, "buy", "car", form=FUTURE))
    w.assert_fact(s(kb, "bake", "potato"))
    plan_atom = Leaf(s(kb, "buy", "car", form=FUTURE))
    fact_atom = Leaf(s(kb, "bake", "potato"))
    assert w.eval(plan_atom) == PLAN
    assert w.eval(And(plan_atom, fact_atom)) == PLAN
    assert w.eval(Or(plan_atom, fact_atom)) == FACTUAL
    assert w.eval(And(plan_atom, neg(plan_atom))) == NOT_FACTUAL


def test_eval_monotone_under_new_facts(kb):
    w = World(kb)
    expr = Or(Leaf(s(kb, "cook", "vegetable")), Leaf(s(kb, "bake", "apple")))
    assert w.eval(expr) == UNKNOWN
    w.assert_fact(s(kb, "bake", "potato"))
    assert w.eval(expr) == FACTUAL


@given(
    st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), max_size=8),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=150)
def test_eval_only_refines_as_facts_arrive(picks, i, j):
    # A determinate answer never flips when consistent facts are added.
    kb = make_kb(
        noun_edges=[("n0", "n1"), ("n2", "n1"), ("n2", "n3")],
        verb_edges=[("v0", "v1")],
    )
    nouns = ["n0", "n1", "n2", "n3"]
    w = World(kb)
    expr = Or(
        Leaf(Sentence("i", Tense(PAST_PERFECT), kb.phrase("v1", [nouns[i]]))),
        Leaf(Sentence("i", Tense(PAST_PERFECT), kb.phrase("v0", [nouns[j]], True))),
    )
    seen = [w.eval(expr)]
    for idx, negated, positive_status in picks:
        fact = Sentence("i", Tense(PAST_PERFECT), kb.phrase("v0", [nouns[idx]], negated))
        try:
            w.assert_fact(fact, FACTUAL if positive_status else NOT_FACTUAL)
        except Contradiction:
            continue
        seen.append(w.eval(expr))
    for earlier, later in zip(seen, seen[1:]):
        if earlier in (FACTUAL, NOT_FACTUAL):
            assert later == earlier


# -- compound phrases ----------------------------------------------------


def test_distribute_left_and(kb):
    expr = parse_expr("i past bake * ( potato and apple )", kb)
    assert expr_text(expr) == "(i past bake*potato) AND (i past bake*apple)"


def test_distribute_right_and(kb):
    kb.verbs.add_atom("eat")
    expr = parse_expr("i past ( bake and eat ) * potato", kb)
    assert expr_text(expr) == "(i past bake*potato) AND (i past eat*potato)"


def test_distribute_left_or(kb):
    expr = parse_expr('"i past bake * ( potato or apple )"', kb)
    assert expr_text(expr) == "(i past bake*potato) OR (i past bake*apple)"


def test_distribute_bad_shape(kb):
    with pytest.raises(ParseError):
        parse_expr("i past bake * ( potato )", kb)
    with pytest.raises(ParseError) as err:
        parse_expr("i past bake * ( potato while apple )", kb)
    assert err.value.expected == {"and", "or"}


def test_verb_compound_shares_multi_slot_nouns(kb):
    kb.nouns.add_atom("x")
    kb.verbs.add_atom("eat")
    expr = parse_expr("i past ( bake and eat ) * potato * x", kb)
    assert expr_text(expr) == "(i past bake*potato*x) AND (i past eat*potato*x)"


def test_compound_generalizes_through_simple_sentences(kb):
    # "baked potatoes and apples" to "cooked vegetable and fruit": each
    # conjunct of the distributed compound entails the matching one.
    specific = parse_expr("i past_perfect bake * ( potato and apple )", kb)
    general = parse_expr("i past_perfect cook * ( vegetable and fruit )", kb)
    for leaf, target in ((specific.left, general.left), (specific.right, general.right)):
        assert entails(kb, leaf.sentence, target.sentence)
    w = World(kb)
    w.assert_fact(specific.left.sentence)
    assert w.eval(general) == UNKNOWN
    w.assert_fact(specific.right.sentence)
    assert w.eval(general) == FACTUAL


# -- law audit -------------------------------------------------------------


def test_check_laws_reports_determinate_pair(kb):
    w = World(kb)
    w.assert_fact(s(kb, "bake", "potato"))
    report = check_laws(w, {"i"}, {kb.phrase("bake", ["potato"])})
    assert len(report.verified) == 1
    assert not report.violations


def test_check_laws_empty_world(kb):
    w = World(kb)
    report = check_laws(w, {"i"}, {kb.phrase("bake", ["potato"])})
    assert not report.verified and not report.violations
    assert len(report.indeterminate) == 1


def test_check_laws_rejects_future(kb):
    w = World(kb)
    with pytest.raises(UnsupportedTense):
        check_laws(w, {"i"}, {kb.phrase("bake", ["potato"])}, Tense(FUTURE))


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=6))
@settings(max_examples=100)
def test_check_laws_zero_violations_on_random_worlds(picks):
    kb = make_kb(
        noun_edges=[("n0", "n1"), ("n2", "n1")],
        verb_edges=[("v0", "v1")],
        nouns=["n0", "n1", "n2", "n3"],
        verbs=["v0", "v1"],
    )
    w = World(kb)
    nouns = ["n0", "n1", "n2", "n3"]
    for idx, negated in picks:
        fact = Sentence("i", Tense(PAST_PERFECT), kb.phrase("v0", [nouns[idx]], negated))
        try:
            w.assert_fact(fact)
        except Contradiction:
            pass
    vps = {kb.phrase("v0", [n]) for n in nouns} | {kb.phrase("v1", [n]) for n in nouns}
    report = check_laws(w, {"i"}, vps)
    assert not report.violations


_SCAN_ARITY = {"do": 1, "u": 1, "v": 1, "w": 2, "x": 2}
_SCAN_NOUNS = ("a", "b", "c", "something")
# Edges across arities relate no phrases; the bounds still hold there.
_SCAN_VERB_EDGES = (("u", "v"), ("v", "u"), ("u", "do"), ("w", "x"), ("x", "w"), ("u", "w"))
_phrases = st.one_of(
    st.tuples(st.just("do"), st.just(["something"]), st.booleans()),
    st.sampled_from(sorted(_SCAN_ARITY)).flatmap(
        lambda verb: st.tuples(
            st.just(verb),
            st.lists(st.sampled_from(_SCAN_NOUNS), min_size=_SCAN_ARITY[verb],
                     max_size=_SCAN_ARITY[verb]),
            st.booleans(),
        )
    ),
)


@given(
    verb_edges=st.lists(st.sampled_from(_SCAN_VERB_EDGES), max_size=3),
    noun_edges=st.lists(
        st.tuples(st.sampled_from(_SCAN_NOUNS), st.sampled_from(_SCAN_NOUNS)).filter(
            # An edge out of ``something`` is refused (BoundEdge).
            lambda e: e[0] != e[1] and e[0] != "something"
        ),
        max_size=4,
    ),
    facts=st.lists(
        st.tuples(
            st.sampled_from(("i", "you")),
            st.sampled_from((PAST_PERFECT, FUTURE)),
            _phrases,
            st.sampled_from((FACTUAL, NOT_FACTUAL)),
        ),
        max_size=8,
    ),
)
@settings(max_examples=100)
def test_status_of_matches_reference_scan(verb_edges, noun_edges, facts):
    kb = make_kb(noun_edges, verb_edges, nouns=_SCAN_NOUNS, verbs=sorted(_SCAN_ARITY))
    for verb, arity in _SCAN_ARITY.items():
        kb.phrase(verb, ["a"] * arity)
    w = World(kb)
    for subject, form, (verb, nouns, negated), status in facts:
        try:
            w.assert_fact(Sentence(subject, Tense(form), kb.phrase(verb, nouns, negated)), status)
        except Contradiction:
            pass
    scan = StatusScan(kb, arities=(1, 2))
    stored = w.facts()
    phrases = [vp for oracle in scan.oracles.values() for vp in oracle.universe]
    assert kb.top in phrases and kb.bottom in phrases
    for subject in ("i", "you"):
        for form in (PAST_PERFECT, FUTURE):
            for vp in phrases:
                query = Sentence(subject, Tense(form), vp)
                assert w.status_of(query) == scan.status(stored, query), query


_TIMED_NOUNS = ("a", "b", "something")
_TIMED_VERBS = ("do", "u", "v")
_intervals = st.tuples(st.integers(0, 10), st.integers(0, 10)).map(
    lambda ends: TimeInterval(min(ends), max(ends))
)


@given(
    verb_edges=st.lists(st.sampled_from((("u", "v"), ("v", "u"), ("u", "do"))), max_size=2),
    noun_edges=st.lists(
        st.sampled_from((("a", "b"), ("b", "a"), ("a", "something"))), max_size=2
    ),
    lifetimes=st.tuples(_intervals, _intervals),
    facts=st.lists(
        st.tuples(
            st.sampled_from(("i", "you")),
            st.one_of(st.none(), _intervals),
            st.sampled_from(_TIMED_VERBS),
            st.sampled_from(_TIMED_NOUNS),
            st.booleans(),
        ),
        max_size=6,
    ),
    frames=st.lists(_intervals, max_size=3),
)
@settings(max_examples=100)
def test_status_of_matches_temporal_scan(verb_edges, noun_edges, lifetimes, facts, frames):
    # Worlds that mix "past @ I" and past_perfect facts on one subject,
    # against the countermodel search over TIME_POINTS.
    kb = make_kb(noun_edges, verb_edges, nouns=_TIMED_NOUNS, verbs=_TIMED_VERBS)
    for subject, lifetime in zip(("i", "you"), lifetimes):
        kb.set_lifetime(subject, lifetime)

    def tense(frame):
        return Tense(PAST_PERFECT) if frame is None else Tense(PAST, frame)

    w = World(kb)
    for subject, frame, verb, noun, negated in facts:
        try:
            w.assert_fact(Sentence(subject, tense(frame), kb.phrase(verb, [noun], negated)))
        except (Contradiction, IntervalOutOfLifetime):
            pass
    scan = StatusScan(kb)
    stored = w.facts()
    tenses = {tense(frame) for frame in [None, *frames]}
    tenses |= {known.tense for known, _ in stored}
    for subject in ("i", "you"):
        lifetime = kb.lifetime(subject)
        for t in tenses:
            if t.timeframe is not None and not lifetime.contains(t.timeframe):
                # Refused as a query, as it is at assertion.
                with pytest.raises(IntervalOutOfLifetime):
                    w.status_of(Sentence(subject, t, kb.top))
                continue
            for vp in scan.oracles[1].universe:
                query = Sentence(subject, t, vp)
                assert w.status_of(query) == scan.status(stored, query), query
                for known, _ in stored:
                    if known.subject == subject:
                        assert entails(kb, known, query) == scan.supports(known, query)


def test_status_of_scans_no_other_facts(monkeypatch):
    # 2,000 facts on other subjects beside a few on the asked one.  The
    # index proposes only supporters today, so an answer confirms one
    # candidate (none for unknown), and no query walks claims().
    nouns = [f"n{k}" for k in range(50)]
    kb = make_kb(
        noun_edges=[("potato", "vegetable"), ("vegetable", "food")],
        verb_edges=[("bake", "cook")],
        nouns=nouns,
    )
    w = World(kb)
    forms = (PAST_PERFECT, PRESENT_CONTINUOUS, FUTURE)
    for k in range(2000):
        noun = k // 40
        vp = kb.phrase("bake", [nouns[noun]], negated=noun >= 25)
        w.assert_fact(Sentence(f"s{k % 40}", Tense(forms[k % 3]), vp))
    for form in forms:
        w.assert_fact(s(kb, "bake", "potato", form=form))
    w.assert_fact(s(kb, "bake", "potato", form=PAST, timeframe=TimeInterval(3, 4)))
    w.assert_fact(s(kb, "cook", "n3", negated=True))
    w.assert_fact(s(kb, "bake", "n4", negated=True))
    w.assert_fact(s(kb, "bake", "n1", form=FUTURE))
    assert len(w.facts()) == 2007

    calls = {"supports": 0, "claims": 0}
    real_supports, real_claims = sentence_module.supports, World.claims

    def counting_supports(*args):
        calls["supports"] += 1
        return real_supports(*args)

    def counting_claims(self):
        calls["claims"] += 1
        return real_claims(self)

    monkeypatch.setattr(sentence_module, "supports", counting_supports)
    monkeypatch.setattr(World, "claims", counting_claims)
    expected = [
        (s(kb, "cook", "food"), FACTUAL),
        (s(kb, "cook", "vegetable", negated=True), NOT_FACTUAL),
        (s(kb, "bake", "n3"), NOT_FACTUAL),
        (s(kb, "cook", "n4"), UNKNOWN),
        (s(kb, "cook", "vegetable", form=PAST, timeframe=TimeInterval(5, 6)), UNKNOWN),
        (s(kb, "cook", "n1", form=FUTURE), PLAN),
        (s(kb, "do", "something"), FACTUAL),
    ]
    for query, status in expected:
        calls["supports"] = 0
        assert w.status_of(query) == status, query
        assert calls["supports"] == (status != UNKNOWN), query
    calls["supports"] = 0
    assert w.supporters(s(kb, "cook", "food", form=PRESENT_CONTINUOUS)) == [
        s(kb, "bake", "potato", form=PRESENT_CONTINUOUS)
    ]
    assert calls["supports"] == 1
    assert calls["claims"] == 0


_MACHINE_ARITY = {"do": 1, "u": 1, "v": 1, "w": 2, "x": 2}
# Verb edges stay within one arity, and none leaves a designated atom.
_MACHINE_VERB_EDGES = (("u", "v"), ("v", "u"), ("u", "do"), ("w", "x"), ("x", "w"))
_MACHINE_NEW_NOUNS = ("d", "e")
_MACHINE_LIFETIMES = {"i": TimeInterval(0, 10), "you": TimeInterval(2, 8)}


class WorldMachine(RuleBasedStateMachine):
    """Assertions (contradictions included), new edges and new atoms in
    any order, with every answer checked against ``StatusScan`` after each
    step.  A new edge must rebuild the support index; a new atom must not."""

    def __init__(self):
        super().__init__()
        self.kb = make_kb(nouns=("a", "b", "c", "something"), verbs=sorted(_MACHINE_ARITY))
        for verb, arity in _MACHINE_ARITY.items():
            self.kb.phrase(verb, ["a"] * arity)
        for subject, lifetime in _MACHINE_LIFETIMES.items():
            self.kb.set_lifetime(subject, lifetime)
        self.world = World(self.kb)

    def _index_after_read(self):
        self.world.status_of(Sentence("i", Tense(PAST_PERFECT), self.kb.top))
        return self.world._index

    def _draw_sentence(self, data):
        subject = data.draw(st.sampled_from(sorted(_MACHINE_LIFETIMES)))
        form = data.draw(st.sampled_from((PAST_PERFECT, FUTURE, PAST)))
        timeframe = None
        if form == PAST:
            lifetime = _MACHINE_LIFETIMES[subject]
            start = data.draw(st.integers(lifetime.start, lifetime.end))
            timeframe = TimeInterval(start, data.draw(st.integers(start, lifetime.end)))
        verb = data.draw(st.sampled_from(sorted(_MACHINE_ARITY)))
        noun = st.sampled_from(self.kb.nouns.atoms())
        nouns = [data.draw(noun) for _ in range(_MACHINE_ARITY[verb])]
        vp = self.kb.phrase(verb, nouns, data.draw(st.booleans()))
        return Sentence(subject, Tense(form, timeframe), vp)

    @rule(data=st.data(), status=st.sampled_from((FACTUAL, NOT_FACTUAL)))
    def assert_fact(self, data, status):
        sentence = self._draw_sentence(data)
        claim = sentence if status == FACTUAL else sentence.negate()
        scan = StatusScan(self.kb, arities=(1, 2))
        refused = scan.status(self.world.facts(), claim) == NOT_FACTUAL
        try:
            self.world.assert_fact(sentence, status)
        except Contradiction:
            assert refused, sentence
        else:
            assert not refused, sentence

    @precondition(lambda self: self.world.facts())
    @rule(data=st.data())
    def contradict(self, data):
        stored, status = data.draw(st.sampled_from(self.world.facts()))
        with pytest.raises(Contradiction):
            self.world.assert_fact(stored, FACTUAL if status == NOT_FACTUAL else NOT_FACTUAL)

    @rule(data=st.data())
    def declare_edge(self, data):
        before = self._index_after_read()
        if data.draw(st.booleans()):
            order = self.kb.verbs
            lower, upper = data.draw(st.sampled_from(_MACHINE_VERB_EDGES))
        else:
            order = self.kb.nouns
            lower = data.draw(st.sampled_from([n for n in order.atoms() if n != "something"]))
            upper = data.draw(st.sampled_from([n for n in order.atoms() if n != lower]))
        new = not order.labels_between(lower, upper)
        order.declare(lower, upper, KIND_OF if order is self.kb.nouns else WAY_OF)
        assert (self._index_after_read() is not before) == new

    @precondition(lambda self: any(n not in self.kb.nouns for n in _MACHINE_NEW_NOUNS))
    @rule()
    def register_noun(self):
        before = self._index_after_read()
        self.kb.nouns.add_atom(next(n for n in _MACHINE_NEW_NOUNS if n not in self.kb.nouns))
        assert self._index_after_read() is before

    @invariant()
    def matches_scan(self):
        scan = StatusScan(self.kb, arities=(1, 2))
        stored = self.world.facts()
        phrases = set(scan.oracles[1].universe)
        phrases |= {vp for vp in scan.oracles[2].universe if set(vp.nouns) <= {"a", "something"}}
        phrases |= {vp for known, _ in stored for vp in (known.vp, known.vp.negate())}
        tenses = {Tense(PAST_PERFECT), Tense(FUTURE)} | {known.tense for known, _ in stored}
        for subject, lifetime in _MACHINE_LIFETIMES.items():
            for tense in tenses:
                if tense.timeframe is not None and not lifetime.contains(tense.timeframe):
                    continue
                for vp in phrases:
                    query = Sentence(subject, tense, vp)
                    assert self.world.status_of(query) == scan.status(stored, query), query


WorldMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None)
TestWorldMachine = WorldMachine.TestCase
