import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic import (
    EXISTS,
    FORALL,
    Sentence,
    TemporalStatement,
    Tense,
    TimeInterval,
    VerbPhrase,
    inverse_render,
    render,
    temporal_entails,
)
from vplogic.errors import (
    IntervalOutOfLifetime,
    NonCanonicalForm,
    SubjectMismatch,
    UnknownAtom,
    UnsupportedTense,
)
from vplogic.sentence import FUTURE, PAST, PAST_PERFECT

from oracles import ProductOracle, make_kb, oracle_temporal_entails

LIFETIME = TimeInterval(0, 100)


@pytest.fixture
def kb():
    return make_kb(
        noun_edges=[("laptop_computer", "computer")],
        verb_edges=[("buy", "own")],
    )


def perfect(kb, verb, noun, *, negated=False):
    return Sentence("i", Tense(PAST_PERFECT), kb.phrase(verb, [noun], negated))


# -- render / inverse-render ------------------------------------------------


def test_render_positive_perfect(kb):
    ts = render(perfect(kb, "buy", "laptop_computer"), LIFETIME)
    assert ts == TemporalStatement(EXISTS, LIFETIME, "i", kb.phrase("buy", ["laptop_computer"]))
    assert ts.text() == "EXISTS t in [0,100]: i buy_t * laptop_computer"


def test_render_negated_perfect(kb):
    ts = render(perfect(kb, "own", "computer", negated=True), LIFETIME)
    assert ts.quantifier == FORALL and ts.vp.negated
    assert ts.text() == "FORALL t in [0,100]: i not own_t * computer"


def test_render_past_with_timeframe(kb):
    s = Sentence("i", Tense(PAST, TimeInterval(3, 4)), kb.phrase("buy", ["laptop_computer"]))
    ts = render(s, LIFETIME)
    assert ts.quantifier == EXISTS and ts.interval == TimeInterval(3, 4)


def test_render_rejects_unsupported(kb):
    with pytest.raises(UnsupportedTense):
        render(Sentence("i", Tense(FUTURE), kb.phrase("buy", ["computer"])), LIFETIME)
    with pytest.raises(UnsupportedTense):
        render(Sentence("i", Tense(PAST), kb.phrase("buy", ["computer"])), LIFETIME)
    with pytest.raises(IntervalOutOfLifetime):
        render(
            Sentence("i", Tense(PAST, TimeInterval(90, 120)), kb.phrase("buy", ["computer"])),
            LIFETIME,
        )


def test_inverse_render_forms(kb):
    vp = kb.phrase("own", ["computer"])
    assert inverse_render(TemporalStatement(EXISTS, LIFETIME, "i", vp), LIFETIME) == perfect(
        kb, "own", "computer"
    )
    negated = TemporalStatement(FORALL, LIFETIME, "i", vp.negate())
    assert inverse_render(negated, LIFETIME) == perfect(kb, "own", "computer", negated=True)
    sub = TemporalStatement(EXISTS, TimeInterval(3, 4), "i", vp)
    assert inverse_render(sub, LIFETIME).tense == Tense(PAST, TimeInterval(3, 4))


def test_inverse_render_non_canonical(kb):
    vp = kb.phrase("own", ["computer"])
    with pytest.raises(NonCanonicalForm):
        inverse_render(TemporalStatement(FORALL, LIFETIME, "i", vp), LIFETIME)
    with pytest.raises(NonCanonicalForm):
        inverse_render(TemporalStatement(EXISTS, LIFETIME, "i", vp.negate()), LIFETIME)
    with pytest.raises(NonCanonicalForm):
        inverse_render(TemporalStatement(EXISTS, TimeInterval(90, 120), "i", vp), LIFETIME)


@given(
    st.booleans(),
    st.integers(0, 10),
    st.integers(0, 10),
    st.booleans(),
)
@settings(max_examples=200)
def test_render_round_trip(negated, lo, hi, use_timeframe):
    kb = make_kb(noun_edges=[("a", "b")], verb_edges=[("u", "v")])
    lifetime = TimeInterval(0, 50)
    start, end = sorted((lo, hi))
    if use_timeframe and (start, end) != (0, 50):
        tense = Tense(PAST, TimeInterval(start, end))
    else:
        tense = Tense(PAST_PERFECT)
    s = Sentence("i", tense, kb.phrase("u", ["a"], negated))
    assert inverse_render(render(s, lifetime), lifetime) == s


# -- quantifier negation ------------------------------------------------------


def test_negate_quantified(kb):
    # Negating a sentence negates its quantified reading: the quantifier
    # swaps and the phrase flips.
    s = Sentence("i", Tense(PAST_PERFECT), kb.phrase("own", ["computer"]))
    ts = render(s, LIFETIME)
    flipped = render(s.negate(), LIFETIME)
    assert (ts.quantifier, flipped.quantifier) == (EXISTS, FORALL)
    assert flipped.vp == ts.vp.negate()
    assert render(s.negate().negate(), LIFETIME) == ts


# -- entailment ----------------------------------------------------------------


def test_temporal_entails_exists_superinterval(kb):
    a = TemporalStatement(EXISTS, TimeInterval(3, 4), "i", kb.phrase("buy", ["laptop_computer"]))
    b = TemporalStatement(EXISTS, LIFETIME, "i", kb.phrase("own", ["computer"]))
    assert temporal_entails(kb, a, b)
    assert not temporal_entails(kb, b, a)


def test_temporal_entails_forall_subinterval(kb):
    a = TemporalStatement(FORALL, LIFETIME, "i", kb.phrase("own", ["computer"], True))
    b = TemporalStatement(
        FORALL, TimeInterval(3, 4), "i", kb.phrase("buy", ["laptop_computer"], True)
    )
    assert temporal_entails(kb, a, b)
    assert not temporal_entails(kb, b, a)


def test_temporal_entails_reflexive_and_mixed(kb):
    a = TemporalStatement(EXISTS, LIFETIME, "i", kb.phrase("own", ["computer"]))
    assert temporal_entails(kb, a, a)
    b = TemporalStatement(FORALL, LIFETIME, "i", kb.phrase("own", ["computer"]))
    assert not temporal_entails(kb, a, b)
    # A universal carries over to an overlapping existential.
    assert temporal_entails(kb, b, a)


def test_temporal_entails_subject_mismatch(kb):
    a = TemporalStatement(EXISTS, LIFETIME, "i", kb.phrase("own", ["computer"]))
    b = TemporalStatement(EXISTS, LIFETIME, "you", kb.phrase("own", ["computer"]))
    with pytest.raises(SubjectMismatch):
        temporal_entails(kb, a, b)


def test_temporal_entails_rejects_unknown_atoms(kb):
    # Same answer as vp_leq and entails on an undeclared atom, even for
    # a statement against itself.
    a = TemporalStatement(EXISTS, LIFETIME, "i", VerbPhrase("swim", ("computer",)))
    b = TemporalStatement(EXISTS, LIFETIME, "i", VerbPhrase("own", ("sea",)))
    known = TemporalStatement(EXISTS, LIFETIME, "i", kb.phrase("own", ["computer"]))
    for x, y in ((a, a), (a, known), (known, b)):
        with pytest.raises(UnknownAtom):
            temporal_entails(kb, x, y)


def _random_statement(rng, oracle):
    lo = rng.randint(0, 10)
    hi = rng.choice((lo, rng.randint(lo, 10)))
    q = rng.choice((EXISTS, FORALL))
    return TemporalStatement(q, TimeInterval(lo, hi), "i", rng.choice(oracle.universe))


def test_temporal_entails_matches_discrete_oracle():
    # Quantifiers are drawn independently of each other and of the
    # phrase polarity; about half the intervals are one point.
    kbs = (
        (make_kb(noun_edges=[("n0", "n1"), ("n1", "n2"), ("n3", "n2")],
                 verb_edges=[("v0", "v1"), ("v2", "v1")]), 7),
        (make_kb(noun_edges=[("n0", "n1")], verb_edges=[("v0", "v1")]), 11),
    )
    for kb, seed in kbs:
        oracle = ProductOracle(kb)
        rng = random.Random(seed)
        seen, one_point = set(), 0
        for _ in range(4000):
            a = _random_statement(rng, oracle)
            b = _random_statement(rng, oracle)
            got = temporal_entails(kb, a, b)
            assert got == oracle_temporal_entails(oracle, a, b), (a, b)
            seen.add((a.quantifier, b.quantifier, got))
            one_point += a.interval.start == a.interval.end
        assert len(seen) == 8 and one_point >= 1500


def test_forall_to_exists_flag_matches_oracle():
    # Formerly behind allow_forall_to_exists; a universal now carries over to
    # an overlapping existential by default, for both phrase polarities.
    kb = make_kb(noun_edges=[("n0", "n1")], verb_edges=[("v0", "v1")])
    oracle = ProductOracle(kb)
    rng = random.Random(11)
    for _ in range(300):
        negated = rng.random() < 0.5
        a, b = _random_statement(rng, oracle), _random_statement(rng, oracle)
        a = TemporalStatement(FORALL, a.interval, "i",
                              a.vp.core().negate() if negated else a.vp.core())
        b = TemporalStatement(EXISTS, b.interval, "i",
                              b.vp.core().negate() if negated else b.vp.core())
        assert temporal_entails(kb, a, b) == oracle_temporal_entails(oracle, a, b)
