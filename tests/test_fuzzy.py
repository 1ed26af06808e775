import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic import (
    DEFAULT_SCALE,
    AdverbScale,
    NVIso,
    adverb_for,
    fuzzy_statement,
    possibility,
)
from vplogic.errors import NoDegree, NoIso, OutOfRange

from oracles import make_kb


@pytest.fixture
def kb():
    kb = make_kb(
        noun_edges=[
            ("chicken", "food"),
            ("seaweed", "food"),
            ("bread", "food"),
        ],
        nouns=["book"],
        verbs=["eat"],
    )
    kb.add_iso("eat", "food")
    kb.add_degree("*", "chicken", "food", 0.95)
    kb.add_degree("american", "seaweed", "food", 0.1)
    kb.add_degree("japanese", "seaweed", "food", 0.8)
    kb.add_degree("*", "book", "food", 0.0)
    return kb


EAT_FOOD = NVIso("eat", "food")


def test_adverb_buckets():
    assert adverb_for(DEFAULT_SCALE, 0.95) == "often"
    assert adverb_for(DEFAULT_SCALE, 0.1) == "rarely"
    assert adverb_for(DEFAULT_SCALE, 0.5) == "more or less"
    assert adverb_for(DEFAULT_SCALE, 0.3) == "less likely"
    assert adverb_for(DEFAULT_SCALE, 0.01) == "never"


def test_adverb_boundaries():
    # Buckets are closed below, so each cut belongs to the bucket above it.
    assert adverb_for(DEFAULT_SCALE, 0.0) == "never"
    assert adverb_for(DEFAULT_SCALE, 0.05) == "rarely"
    assert adverb_for(DEFAULT_SCALE, 0.2) == "less likely"
    assert adverb_for(DEFAULT_SCALE, 0.4) == "more or less"
    assert adverb_for(DEFAULT_SCALE, 0.7) == "often"
    assert adverb_for(DEFAULT_SCALE, 1.0) == "often"


def test_adverb_out_of_range():
    with pytest.raises(OutOfRange):
        adverb_for(DEFAULT_SCALE, -0.1)
    with pytest.raises(OutOfRange):
        adverb_for(DEFAULT_SCALE, 1.1)


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200)
def test_adverb_monotone(a, b):
    # A higher degree never lands in a lower bucket; the thresholds run
    # from the top bucket down.
    adverbs = [adverb for _, adverb in DEFAULT_SCALE.thresholds]
    if a >= b:
        assert adverbs.index(adverb_for(DEFAULT_SCALE, a)) <= adverbs.index(
            adverb_for(DEFAULT_SCALE, b))


def test_bad_scale_rejected():
    with pytest.raises(ValueError):
        AdverbScale(((0.5, "x"), (0.7, "y"), (0.0, "z")))
    with pytest.raises(ValueError):
        AdverbScale(((0.5, "x"),))


def test_fuzzy_statements(kb):
    assert fuzzy_statement(kb, "american", EAT_FOOD, "seaweed") == "american rarely eat seaweed"
    assert fuzzy_statement(kb, "japanese", EAT_FOOD, "seaweed") == "japanese often eat seaweed"
    assert fuzzy_statement(kb, "i", EAT_FOOD, "chicken") == "i often eat chicken"
    assert fuzzy_statement(kb, "i", EAT_FOOD, "book") == "i never eat book"


def test_fuzzy_statement_errors(kb):
    with pytest.raises(NoIso):
        fuzzy_statement(kb, "i", NVIso("eat", "book"), "bread")
    with pytest.raises(NoDegree):
        fuzzy_statement(kb, "i", EAT_FOOD, "bread")


def test_possibility(kb):
    assert possibility(kb, "anyone", EAT_FOOD, "bread")  # no degree, under food
    assert possibility(kb, "i", EAT_FOOD, "chicken")
    assert not possibility(kb, "i", EAT_FOOD, "book")  # degree 0 and not food
    kb.nouns.add_atom("pebble")
    assert not possibility(kb, "i", EAT_FOOD, "pebble")  # not under food


def test_possibility_zero_degree_under_category(kb):
    kb.nouns.declare("book", "food", "kind_of")
    assert not possibility(kb, "i", EAT_FOOD, "book")


def test_subject_shadowing(kb):
    # Wildcard applies when no subject-specific entry exists.
    kb.add_degree("*", "seaweed", "food", 0.5)
    assert fuzzy_statement(kb, "someone", EAT_FOOD, "seaweed") == "someone more or less eat seaweed"
    assert fuzzy_statement(kb, "american", EAT_FOOD, "seaweed") == "american rarely eat seaweed"


@given(
    st.floats(0, 1),
    st.floats(0, 1),
    st.booleans(),
)
@settings(max_examples=100)
def test_subject_shadowing_property(wild, specific, add_specific):
    kb = make_kb(noun_edges=[("item", "cat")], verbs=["use"])
    kb.add_iso("use", "cat")
    kb.add_degree("*", "item", "cat", wild)
    if add_specific:
        kb.add_degree("bob", "item", "cat", specific)
    expected = specific if add_specific else wild
    assert kb.degree("bob", "item", "cat") == expected
    assert kb.degree("other", "item", "cat") == wild
