import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic import (
    FACTUAL,
    NOT_FACTUAL,
    PLAN,
    UNKNOWN,
    And,
    CompoundPhrase,
    Leaf,
    Not,
    Or,
    Sentence,
    Tense,
    World,
    check_laws,
    distribute,
    entails,
    expr_text,
    factor,
    neg,
)
from vplogic.errors import Contradiction, UnsupportedShape, UnsupportedTense, VagueTense
from vplogic.sentence import FUTURE, PAST, PAST_PERFECT, PRESENT_CONTINUOUS
from vplogic.temporal import TimeInterval

from oracles import StatusScan, make_kb


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


# -- distribute / factor --------------------------------------------------


def compound(kb, verbs, nouns, connective):
    return CompoundPhrase("i", Tense(PAST), tuple(verbs), tuple(nouns), connective)


def test_distribute_left_and(kb):
    cp = compound(kb, ["bake"], ["potato", "apple"], "and")
    expr = distribute(cp)
    assert expr_text(expr) == "(i past bake*potato) AND (i past bake*apple)"


def test_distribute_right_and(kb):
    kb.verbs.add_atom("eat")
    cp = compound(kb, ["bake", "eat"], ["potato"], "and")
    expr = distribute(cp)
    assert expr_text(expr) == "(i past bake*potato) AND (i past eat*potato)"


def test_distribute_left_or(kb):
    cp = compound(kb, ["bake"], ["potato", "apple"], "or")
    assert expr_text(distribute(cp)) == "(i past bake*potato) OR (i past bake*apple)"


def test_distribute_bad_shape(kb):
    with pytest.raises(UnsupportedShape):
        distribute(compound(kb, ["bake"], ["potato"], "and"))
    with pytest.raises(UnsupportedShape):
        distribute(compound(kb, ["bake"], ["potato", "apple"], "while"))


def test_verb_compound_shares_multi_slot_nouns(kb):
    kb.nouns.add_atom("x")
    kb.verbs.add_atom("eat")
    cp = compound(kb, ["bake", "eat"], ["potato", "x"], "and")
    expr = distribute(cp)
    assert expr_text(expr) == "(i past bake*potato*x) AND (i past eat*potato*x)"
    assert factor(expr) == cp


def test_factor_inverts_distribute(kb):
    kb.verbs.add_atom("eat")
    cases = [
        compound(kb, ["bake"], ["potato", "apple"], "and"),
        compound(kb, ["bake", "eat"], ["potato"], "and"),
        compound(kb, ["bake"], ["potato", "apple"], "or"),
        compound(kb, ["bake", "eat"], ["potato"], "or"),
    ]
    for cp in cases:
        assert factor(distribute(cp)) == cp


def test_factor_rejects_unrelated(kb):
    expr = And(Leaf(s(kb, "bake", "potato")), Leaf(s(kb, "cook", "apple")))
    with pytest.raises(UnsupportedShape):
        factor(expr)


def test_compound_generalizes_through_simple_sentences(kb):
    # "baked potatoes and apples" to "cooked vegetable and fruit":
    # distribute, generalize each conjunct, recombine.
    from vplogic import entails

    cp = CompoundPhrase("i", Tense(PAST), ("bake",), ("potato", "apple"), "and")
    expr = distribute(cp)
    generalized = []
    for leaf, target in zip((expr.left, expr.right), ("vegetable", "fruit")):
        general = Sentence("i", Tense(PAST), kb.phrase("cook", [target]))
        assert entails(kb, leaf.sentence, general)
        generalized.append(Leaf(general))
    recombined = factor(And(*generalized))
    assert recombined == CompoundPhrase(
        "i", Tense(PAST), ("cook",), ("vegetable", "fruit"), "and"
    )


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
            lambda e: e[0] != e[1]
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
        except Contradiction:
            pass
    scan = StatusScan(kb)
    stored = w.facts()
    tenses = {tense(frame) for frame in [None, *frames]}
    tenses |= {known.tense for known, _ in stored}
    for subject in ("i", "you"):
        for t in tenses:
            for vp in scan.oracles[1].universe:
                query = Sentence(subject, t, vp)
                assert w.status_of(query) == scan.status(stored, query), query
                for known, _ in stored:
                    if known.subject == subject:
                        assert entails(kb, known, query) == scan.supports(known, query)
