import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic import (
    ConditionalRule,
    Leaf,
    Or,
    Sentence,
    Tense,
    TimeInterval,
    World,
    closure,
    contrapose,
    entails,
    expr_text,
    implication_to_disjunction,
    propagate_conditional,
    replay,
)
from vplogic.errors import NotEntailed, SubjectMismatch, TenseMismatch
from vplogic.sentence import FACTUAL, FUTURE, NOT_FACTUAL, PAST, PAST_PERFECT, UNKNOWN

from oracles import ProductOracle, make_kb


@pytest.fixture
def kb():
    return make_kb(
        noun_edges=[("potato", "vegetable"), ("hybrid_car", "car")],
        verb_edges=[("bake", "cook"), ("buy", "own")],
    )


@pytest.fixture
def housing_kb():
    return make_kb(
        noun_edges=[("house", "property"), ("california", "us", "part_of")],
        verb_edges=[("buy", "own")],
    )


def mk(kb, verb, nouns, *, negated=False, subject="i", form=PAST):
    return Sentence(subject, Tense(form), kb.phrase(verb, nouns, negated))


def test_entails_upward(kb):
    assert entails(kb, mk(kb, "bake", ["potato"]), mk(kb, "cook", ["vegetable"]))
    assert not entails(kb, mk(kb, "cook", ["vegetable"]), mk(kb, "bake", ["potato"]))


def test_entails_negated_downward(kb):
    frm = mk(kb, "own", ["car"], negated=True, form=PAST_PERFECT)
    to = mk(kb, "buy", ["hybrid_car"], negated=True, form=PAST_PERFECT)
    assert entails(kb, frm, to)


def test_entails_reflexive(kb):
    s = mk(kb, "bake", ["potato"])
    assert entails(kb, s, s)


def test_entails_mismatches(kb):
    with pytest.raises(SubjectMismatch):
        entails(kb, mk(kb, "bake", ["potato"]), mk(kb, "cook", ["vegetable"], subject="you"))
    with pytest.raises(TenseMismatch):
        entails(kb, mk(kb, "bake", ["potato"]), mk(kb, "cook", ["vegetable"], form=FUTURE))
    # A vague past compares with no other tense; the message names both
    # sentences, since the bare tense forms can read the same.
    timed = Sentence("i", Tense(PAST, TimeInterval(0, 10)), kb.phrase("cook", ["vegetable"]))
    with pytest.raises(TenseMismatch) as info:
        entails(kb, mk(kb, "bake", ["potato"]), timed)
    assert str(info.value) == (
        "tenses do not compare: 'i past bake*potato' vs 'i past cook*vegetable @ [0,10]'"
    )


def test_closure_seven_conclusions(housing_kb):
    fact = mk(housing_kb, "buy", ["house", "california"], form=FUTURE)
    result = closure(housing_kb, fact)
    texts = [d.conclusion.text() for d in result]
    assert len(texts) == 7
    assert "i future own*property*us" in texts
    # Deterministic order: step count first, then verb, then nouns.
    keys = [(len(d.steps), d.conclusion.vp.verb, d.conclusion.vp.nouns) for d in result]
    assert keys == sorted(keys)


def test_closure_empty_without_edges():
    kb = make_kb(nouns=["rock"], verbs=["sit"])
    result = closure(kb, mk(kb, "sit", ["rock"]))
    assert len(result) == 0 and not result.truncated


def test_closure_counts_independent_steps():
    # k independent one-step generalizations give 2^k - 1 conclusions.
    for k in range(1, 6):
        noun_edges = [(f"a{i}", f"b{i}") for i in range(k - 1)]
        kb = make_kb(
            noun_edges=noun_edges,
            verb_edges=[("v_lo", "v_hi")],
            nouns=["iso"],
        )
        nouns = [f"a{i}" for i in range(k - 1)] or ["iso"]
        if k == 1:
            fact = mk(kb, "v_lo", ["iso"])
        else:
            fact = mk(kb, "v_lo", nouns)
        assert len(closure(kb, fact)) == 2**k - 1


def test_closure_cap_truncates(housing_kb):
    fact = mk(housing_kb, "buy", ["house", "california"], form=FUTURE)
    result = closure(housing_kb, fact, cap=3)
    assert result.truncated and len(result) == 3


def test_closure_negated_fact(kb):
    fact = mk(kb, "own", ["car"], negated=True, form=PAST_PERFECT)
    texts = {d.conclusion.text() for d in closure(kb, fact)}
    assert texts == {
        "i past_perfect not own*hybrid_car",
        "i past_perfect not buy*car",
        "i past_perfect not buy*hybrid_car",
    }


def test_derivations_replay(housing_kb):
    fact = mk(housing_kb, "buy", ["house", "california"], form=FUTURE)
    for derivation in closure(housing_kb, fact):
        assert replay(housing_kb, fact, derivation) == derivation.conclusion
        assert entails(housing_kb, fact, derivation.conclusion)


def test_derivations_replay_negated(kb):
    fact = mk(kb, "own", ["car"], negated=True, form=PAST_PERFECT)
    for derivation in closure(kb, fact):
        assert replay(kb, fact, derivation) == derivation.conclusion
        assert all(step.rule == "contraposition" for step in derivation.steps)


def test_contrapose(kb):
    frm = mk(kb, "bake", ["potato"])
    to = mk(kb, "cook", ["vegetable"])
    neg_to, neg_frm = contrapose(kb, (frm, to))
    assert neg_to == to.negate() and neg_frm == frm.negate()
    assert entails(kb, neg_to, neg_frm)
    assert contrapose(kb, (neg_to, neg_frm)) == (frm, to)


def test_contrapose_trivial_and_invalid(kb):
    s = mk(kb, "bake", ["potato"])
    assert contrapose(kb, (s, s)) == (s.negate(), s.negate())
    with pytest.raises(NotEntailed):
        contrapose(kb, (mk(kb, "cook", ["vegetable"]), mk(kb, "bake", ["potato"])))


def test_disjunction_text(kb):
    frm = mk(kb, "bake", ["potato"], form=PAST_PERFECT)
    to = mk(kb, "cook", ["vegetable"], form=PAST_PERFECT)
    expr = implication_to_disjunction(kb, (frm, to))
    assert expr == Or(Leaf(frm.negate()), Leaf(to))
    assert expr_text(expr) == (
        "NOT(i past_perfect bake*potato) OR (i past_perfect cook*vegetable)"
    )


def test_disjunction_excluded_middle(kb):
    s = mk(kb, "bake", ["potato"], form=PAST_PERFECT)
    expr = implication_to_disjunction(kb, (s, s))
    w = World(kb)
    w.assert_fact(s)
    assert w.eval(expr) == FACTUAL


def test_propagate_conditional(housing_kb):
    rule = ConditionalRule(
        "if i get this job", mk(housing_kb, "buy", ["house", "california"], form=FUTURE)
    )
    derived = propagate_conditional(housing_kb, rule)
    assert len(derived) == 7
    assert all(r.antecedent == rule.antecedent for r in derived)
    texts = {r.consequent.text() for r in derived}
    assert "i future own*property*us" in texts
    assert len(derived) == len(closure(housing_kb, rule.consequent))


def test_propagate_empty():
    kb = make_kb(nouns=["rock"], verbs=["sit"])
    rule = ConditionalRule("whatever", mk(kb, "sit", ["rock"]))
    assert len(propagate_conditional(kb, rule)) == 0


# -- completeness against the product oracle -------------------------------

small_kbs = st.tuples(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6),
).map(
    lambda pair: make_kb(
        noun_edges=[(f"n{a}", f"n{b}") for a, b in pair[0]],
        verb_edges=[(f"v{a}", f"v{b}") for a, b in pair[1]],
        nouns=[f"n{i}" for i in range(5)],
        verbs=[f"v{i}" for i in range(4)],
    )
)


@given(small_kbs)
@settings(max_examples=40)
def test_closure_matches_product_oracle(kb):
    oracle = ProductOracle(kb)
    tense = Tense(PAST_PERFECT)
    for vp in oracle.universe:
        fact = Sentence("i", tense, vp)
        got = {d.conclusion.vp for d in closure(kb, fact)}
        assert got == oracle.upset(vp)


# -- material conditional equivalence ---------------------------------------


def test_conditional_equals_disjunction_under_all_assignments(kb):
    frm = mk(kb, "bake", ["potato"], form=PAST_PERFECT)
    to = mk(kb, "cook", ["vegetable"], form=PAST_PERFECT)
    kb.nouns.add_atom("noise1")
    kb.verbs.add_atom("noise2")
    extra = mk(kb, "noise2", ["noise1"], form=PAST_PERFECT)
    expr = implication_to_disjunction(kb, (frm, to))
    numeric = {FACTUAL: 1.0, NOT_FACTUAL: 0.0, UNKNOWN: 0.5}
    bases = [frm, to, extra]
    for assignment in itertools.product((FACTUAL, NOT_FACTUAL, None), repeat=len(bases)):
        w = World(kb)
        consistent = True
        for base, status in zip(bases, assignment):
            if status is None:
                continue
            try:
                w.assert_fact(base, status)
            except Exception:
                consistent = False
                break
        if not consistent:
            continue
        antecedent = numeric[w.status_of(frm)]
        consequent = numeric[w.status_of(to)]
        material = max(1.0 - antecedent, consequent)
        got = numeric[w.eval(expr)] if w.eval(expr) in numeric else None
        assert got == material
