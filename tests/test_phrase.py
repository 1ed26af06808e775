import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vplogic import Sentence, Step, Tense, VerbPhrase, closure, vp_chain, vp_leq
from vplogic.errors import ArityMismatch, UnknownAtom
from vplogic.inference import (
    BOUND,
    CONTRAPOSITION,
    NOUN_GENERAL,
    VERB_GENERAL,
    apply_step,
)
from vplogic.sentence import PAST_PERFECT

from oracles import ProductOracle, make_kb


@pytest.fixture
def travel_kb():
    return make_kb(
        noun_edges=[("tokyo", "japan", "part_of"), ("la", "us", "part_of")],
        verb_edges=[("fly", "travel")],
    )


@pytest.fixture
def kitchen_kb():
    return make_kb(
        noun_edges=[("potato", "vegetable"), ("hybrid_car", "car")],
        verb_edges=[("bake", "cook"), ("buy", "own")],
    )


def test_negate_flips_flag_and_is_involutive(kitchen_kb):
    vp = kitchen_kb.phrase("buy", ["hybrid_car"])
    assert vp.negate().negated
    assert vp.negate().negate() == vp


def test_negate_two_slots(travel_kb):
    vp = travel_kb.phrase("fly", ["tokyo", "la"])
    assert vp.negate() == VerbPhrase("fly", ("tokyo", "la"), True)


def test_leq_componentwise(travel_kb):
    a = travel_kb.phrase("fly", ["tokyo", "la"])
    b = travel_kb.phrase("travel", ["japan", "us"])
    assert vp_leq(travel_kb, a, b)
    assert not vp_leq(travel_kb, b, a)


def test_leq_negated_pair(kitchen_kb):
    a = kitchen_kb.phrase("own", ["car"], negated=True)
    b = kitchen_kb.phrase("buy", ["hybrid_car"], negated=True)
    assert vp_leq(kitchen_kb, a, b)
    assert not vp_leq(kitchen_kb, b, a)


def test_leq_reflexive(kitchen_kb):
    vp = kitchen_kb.phrase("bake", ["potato"])
    assert vp_leq(kitchen_kb, vp, vp)


def test_leq_mixed_polarity_false(kitchen_kb):
    a = kitchen_kb.phrase("bake", ["potato"])
    assert not vp_leq(kitchen_kb, a, a.negate())
    assert not vp_leq(kitchen_kb, a.negate(), a)


def test_arity_mismatch(travel_kb):
    travel_kb.nouns.add_atom("spare")
    a = VerbPhrase("fly", ("tokyo",))
    b = VerbPhrase("fly", ("tokyo", "la"))
    with pytest.raises(ArityMismatch):
        vp_leq(travel_kb, a, b)


def test_unknown_atom(travel_kb):
    with pytest.raises(UnknownAtom):
        vp_leq(travel_kb, VerbPhrase("swim", ("tokyo",)), travel_kb.top)


def test_kb_pins_verb_arity(travel_kb):
    travel_kb.phrase("fly", ["tokyo", "la"])
    with pytest.raises(ArityMismatch):
        travel_kb.phrase("fly", ["tokyo"])
    # ...and the reserved top verb is always single-slot.
    with pytest.raises(ArityMismatch):
        travel_kb.phrase("do", ["tokyo", "la"])


def test_bounds(kitchen_kb):
    kb = kitchen_kb
    for vp in (kb.phrase("bake", ["potato"]), kb.phrase("own", ["car"])):
        assert vp_leq(kb, vp, kb.top)
        assert vp_leq(kb, kb.bottom, vp.negate())
        # The bounds only govern their own polarity class.
        assert not vp_leq(kb, vp.negate(), kb.top)
        assert not vp_leq(kb, kb.bottom, vp)


def test_bounds_ignore_arity(travel_kb):
    two_slots = travel_kb.phrase("fly", ["tokyo", "la"])
    assert vp_leq(travel_kb, two_slots, travel_kb.top)
    assert vp_leq(travel_kb, travel_kb.bottom, two_slots.negate())


def walk(a, steps):
    """Every phrase the steps pass through, from ``a`` on."""
    chain = [a]
    for step in steps:
        chain.append(apply_step(chain[-1], step))
    return chain


def test_chain_simple(kitchen_kb):
    a = kitchen_kb.phrase("bake", ["potato"])
    b = kitchen_kb.phrase("cook", ["vegetable"])
    steps = vp_chain(kitchen_kb, a, b)
    assert steps == (
        Step(VERB_GENERAL, "bake", "cook", "way_of"),
        Step(NOUN_GENERAL, "potato", "vegetable", "kind_of", 0),
    )
    chain = walk(a, steps)
    assert chain[0] == a and chain[-1] == b
    assert all(vp_leq(kitchen_kb, x, y) for x, y in zip(chain, chain[1:]))


def test_chain_trivial_and_absent(kitchen_kb):
    vp = kitchen_kb.phrase("bake", ["potato"])
    assert vp_chain(kitchen_kb, vp, vp) == ()
    assert walk(vp, ()) == [vp]
    assert vp_chain(kitchen_kb, kitchen_kb.phrase("cook", ["vegetable"]), vp) is None


def test_chain_interleaving(travel_kb):
    travel_kb.verbs.add_atom("walk")
    travel_kb.verbs.declare("walk", "travel", "way_of")
    a = travel_kb.phrase("walk", ["tokyo"])
    b = travel_kb.phrase("travel", ["japan"])
    chain = walk(a, vp_chain(travel_kb, a, b))
    assert len(chain) == 3
    assert chain[0] == a and chain[-1] == b
    assert all(vp_leq(travel_kb, x, y) for x, y in zip(chain, chain[1:]))


def test_chain_negated(kitchen_kb):
    a = kitchen_kb.phrase("own", ["car"], negated=True)
    b = kitchen_kb.phrase("buy", ["hybrid_car"], negated=True)
    steps = vp_chain(kitchen_kb, a, b)
    assert [step.rule for step in steps] == [CONTRAPOSITION, CONTRAPOSITION]
    chain = walk(a, steps)
    assert chain[0] == a and chain[-1] == b
    assert all(vp_leq(kitchen_kb, x, y) for x, y in zip(chain, chain[1:]))


def test_chain_to_top_jumps(kitchen_kb):
    vp = kitchen_kb.phrase("bake", ["potato"])
    steps = vp_chain(kitchen_kb, vp, kitchen_kb.top)
    assert steps == (Step(BOUND, "bake*potato", "do*something", BOUND),)
    assert walk(vp, steps) == [vp, kitchen_kb.top]


# -- property suites -----------------------------------------------------

small_kbs = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6
    ),
).map(
    lambda pair: make_kb(
        noun_edges=[(f"n{a}", f"n{b}") for a, b in pair[0]],
        verb_edges=[(f"v{a}", f"v{b}") for a, b in pair[1]],
        nouns=[f"n{i}" for i in range(5)],
        verbs=[f"v{i}" for i in range(4)],
    )
)


@given(small_kbs)
@settings(max_examples=60)
def test_product_monotonicity(kb):
    verbs = [a.id for a in kb.verbs.atoms()]
    nouns = [a.id for a in kb.nouns.atoms()]
    for v1 in verbs:
        for v2 in verbs:
            if not kb.verbs.leq(v1, v2):
                continue
            for n1 in nouns:
                for n2 in nouns:
                    if not kb.nouns.leq(n1, n2):
                        continue
                    a = VerbPhrase(v1, (n1,))
                    mid1 = VerbPhrase(v2, (n1,))
                    mid2 = VerbPhrase(v1, (n2,))
                    b = VerbPhrase(v2, (n2,))
                    assert vp_leq(kb, a, mid1) and vp_leq(kb, mid1, b)
                    assert vp_leq(kb, a, mid2) and vp_leq(kb, mid2, b)


@given(small_kbs)
@settings(max_examples=60)
def test_antitone_negation(kb):
    oracle = ProductOracle(kb)
    phrases = [vp for vp in oracle.universe if not vp.negated]
    for a in phrases:
        for b in phrases:
            assert vp_leq(kb, a, b) == vp_leq(kb, b.negate(), a.negate())


@given(small_kbs)
@settings(max_examples=60)
def test_leq_matches_product_oracle(kb):
    oracle = ProductOracle(kb)
    for a in oracle.universe:
        for b in oracle.universe:
            assert vp_leq(kb, a, b) == oracle.leq(a, b)


def _pairs(oracle):
    """Every pair of the oracle's universe, plus each phrase against the
    bound of its polarity."""
    pairs = [(a, b) for a in oracle.universe for b in oracle.universe]
    for vp in oracle.universe:
        if vp.negated:
            pairs.append((oracle.bottom, vp))
        else:
            pairs.append((vp, oracle.top))
    return pairs


# An example runs vp_chain on up to ~83,000 phrase pairs, so shrinking a
# failure would take minutes; report the first failing example instead.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@given(small_kbs, st.integers(1, 2))
@settings(max_examples=60, phases=_NO_SHRINK)
def test_chain_is_the_closure_derivation(kb, arity):
    oracle = ProductOracle(kb, arity)
    for vp in oracle.universe:
        fact = Sentence("i", Tense(PAST_PERFECT), vp)
        for derivation in closure(kb, fact):
            assert vp_chain(kb, vp, derivation.conclusion.vp) == derivation.steps


@given(small_kbs, st.integers(1, 2))
@settings(max_examples=60, phases=_NO_SHRINK)
def test_chain_matches_product_oracle(kb, arity):
    oracle = ProductOracle(kb, arity)
    for a, b in _pairs(oracle):
        steps = vp_chain(kb, a, b)
        assert (steps is None) == (not oracle.leq(a, b))
        if steps is None:
            continue
        assert walk(a, steps)[-1] == b
        distance = oracle.distance(a, b)
        if distance is None:
            assert steps == (Step(BOUND, a.text(), b.text(), BOUND),)
        else:
            assert len(steps) == distance
