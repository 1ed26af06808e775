import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic import (
    ReplState,
    Sentence,
    Tense,
    World,
    apply_question,
    dsl,
    entails,
    generate_dialogue,
    repl_step,
    sentence,
)
from vplogic.dialogue import HOW, NO_REFINEMENT, WHICH_KIND, WHICH_PART
from vplogic.errors import Contradiction, NotFactual, SlotOutOfRange, VplError
from vplogic.order import KIND_OF, PART_OF
from vplogic.sentence import FACTUAL, FUTURE, PAST_PERFECT, PLAN, PRESENT_CONTINUOUS

from oracles import dfs_pairs, make_kb


@pytest.fixture
def housing():
    kb = make_kb(
        noun_edges=[("house", "property"), ("california", "us", "part_of")],
        verb_edges=[("buy", "own")],
    )
    world = World(kb)
    world.assert_fact(sentence(kb, "i future buy*house*california"))
    return kb, world


def test_which_part_refines_location(housing):
    kb, world = housing
    result = apply_question(world, WHICH_PART, sentence(kb, "i future own*property*us"), slot=1)
    assert [a.text() for a in result.answers] == ["i future own*property*california"]


def test_how_refines_verb(housing):
    kb, world = housing
    result = apply_question(world, HOW, sentence(kb, "i future own*property*california"))
    assert [a.text() for a in result.answers] == ["i future buy*property*california"]


def test_which_kind_refines_category(housing):
    kb, world = housing
    result = apply_question(
        world, WHICH_KIND, sentence(kb, "i future buy*property*california"), slot=0
    )
    assert [a.text() for a in result.answers] == ["i future buy*house*california"]


def test_question_requires_support(housing):
    kb, world = housing
    with pytest.raises(NotFactual):
        apply_question(world, HOW, sentence(kb, "i future own*house*us").negate())


def test_question_slot_handling(housing):
    kb, world = housing
    s = sentence(kb, "i future own*property*us")
    with pytest.raises(SlotOutOfRange):
        apply_question(world, WHICH_PART, s)  # two slots, none picked
    with pytest.raises(SlotOutOfRange):
        apply_question(world, WHICH_PART, s, slot=5)


def test_question_no_refinement(housing):
    kb, world = housing
    result = apply_question(world, WHICH_KIND, sentence(kb, "i future buy*house*california"), slot=0)
    assert result.answers == () and result.reason == NO_REFINEMENT
    assert not result


def test_answers_entail_the_question(housing):
    kb, world = housing
    s = sentence(kb, "i future own*property*us")
    for op, slot in ((HOW, None), (WHICH_PART, 1), (WHICH_KIND, 0)):
        for answer in apply_question(world, op, s, slot).answers:
            assert answer != s
            assert entails(kb, answer, s)


def test_generate_dialogue_script(housing):
    kb, world = housing
    root = sentence(kb, "i future buy*house*california")
    turns = generate_dialogue(world, root)
    statements = [t.payload for t in turns if t.speaker == "system"]
    assert statements[0].text() == "i future own*property*us"
    assert statements[-1] == root
    assert len(statements) == 4  # three generalization steps plus the fact
    assert [t.speaker for t in turns] == [
        "system", "user", "system", "user", "system", "user", "system",
    ]
    for general, specific in zip(statements, statements[1:]):
        assert entails(kb, specific, general)


def test_generate_dialogue_single_turn():
    kb = make_kb(nouns=["rock"], verbs=["sit"])
    world = World(kb)
    fact = Sentence("i", Tense(PAST_PERFECT), kb.phrase("sit", ["rock"]))
    world.assert_fact(fact)
    turns = generate_dialogue(world, fact)
    assert len(turns) == 1 and turns[0].payload == fact


def test_generate_dialogue_over_mixed_arities():
    # Ground facts of different arity are incomparable, not an error.
    kb = make_kb(
        noun_edges=[("potato", "vegetable"), ("tokyo", "japan", "part_of")],
        verb_edges=[("bake", "cook"), ("fly", "travel")],
    )
    world = World(kb)
    world.assert_fact(sentence(kb, "i past_perfect bake*potato"))
    world.assert_fact(sentence(kb, "i past_perfect fly*tokyo*japan"))
    turns = generate_dialogue(world, sentence(kb, "i past_perfect do*something"))
    assert turns[-1].text == "i past_perfect bake*potato"
    system = [t.payload for t in turns if t.speaker == "system"]
    for general, specific in zip(system, system[1:]):
        assert entails(kb, specific, general)


def test_generate_dialogue_grounds_in_a_fact_of_another_tense():
    # A timed past fact supports a perfect-tense claim, so it can be the
    # ground: the script then talks in the ground fact's tense, and its
    # opening statement still entails the claim.
    kb = make_kb(noun_edges=[("apple", "fruit")], verb_edges=[("eat", "consume")])
    world = World(kb)
    world.assert_fact(sentence(kb, "i past eat*apple @ [3,4]"))
    claim = sentence(kb, "i past_perfect consume*fruit")
    turns = generate_dialogue(world, claim)
    assert [t.text for t in turns] == [
        "i past consume*fruit @ [3,4]",
        "which kind of fruit?",
        "i past consume*apple @ [3,4]",
        "how?",
        "i past eat*apple @ [3,4]",
    ]
    assert entails(kb, turns[0].payload, claim)


def test_generate_dialogue_on_a_negated_fact():
    # Each question is read off the closure step it undoes: moving a
    # denial from tokyo to japan follows a part_of edge, so the question
    # is which_part, and the world answers it with the next statement.
    kb = make_kb(
        noun_edges=[("tokyo", "japan", "part_of")],
        verb_edges=[("fly", "travel")],
    )
    world = World(kb)
    fact = sentence(kb, "i past_perfect not travel*japan")
    world.assert_fact(fact)
    turns = generate_dialogue(world, fact)
    assert [(t.text, t.payload if t.speaker == "user" else None) for t in turns] == [
        ("i past_perfect not fly*tokyo", None),
        ("which part of tokyo?", (WHICH_PART, 0)),
        ("i past_perfect not fly*japan", None),
        ("how?", (HOW, None)),
        ("i past_perfect not travel*japan", None),
    ]
    for general, question, specific in zip(turns[::2], turns[1::2], turns[2::2]):
        op, slot = question.payload
        answers = apply_question(world, op, general.payload, slot).answers
        assert specific.payload in answers


def test_generate_dialogue_script_length_matches_chain(housing):
    kb, world = housing
    root = sentence(kb, "i future buy*house*california")
    turns = generate_dialogue(world, root)
    system_turns = [t for t in turns if t.speaker == "system"]
    assert len(system_turns) == 3 + 1


# -- repl protocol -----------------------------------------------------------


def test_repl_walkthrough(housing):
    kb, world = housing
    state = ReplState(world)
    state, out = repl_step(state, "= i future own*property*us")
    assert out == "A: plan"
    state, out = repl_step(state, "? which_part 1")
    assert out == "A: i future own*property*california"
    state, out = repl_step(state, "? how")
    assert out == "A: i future buy*property*california"
    state, out = repl_step(state, "? which_kind 0")
    assert out == "A: i future buy*house*california"
    state, out = repl_step(state, "? which_kind 0")
    assert out == "A: no refinement"


def test_repl_assert_and_query(housing):
    kb, world = housing
    state = ReplState(world)
    state, out = repl_step(state, "! i past_perfect buy*house*california")
    assert out == "A: noted"
    state, out = repl_step(state, "= i past_perfect own*property*us")
    assert out == "A: factual"


def test_repl_errors_leave_state_alone(housing):
    kb, world = housing
    state = ReplState(world)
    state, out = repl_step(state, "nonsense")
    assert out.startswith("ERR:") and "[parse_error]" in out
    assert state.focus is None
    state, out = repl_step(state, "! i future not buy*house*california")
    assert "[contradiction]" in out
    state, out = repl_step(state, "? how")
    assert "[no_focus]" in out
    state, out = repl_step(state, "! i past bake*potato")
    assert out.startswith("ERR:")


@pytest.mark.parametrize(
    "lines, code",
    [
        (["nonsense"], "parse_error"),
        (["! i past_perfect buy*unicorn*california"], "parse_error"),
        (["! i past_perfect buy*house"], "arity_mismatch"),
        (["! i past buy*house*california"], "vague_tense"),
        (["! i future not own*property*us"], "contradiction"),
        (["? how"], "no_focus"),
        (["= i past_perfect own*house*us", "? how"], "not_factual"),
        (["= i future buy*house*california", "? which_kind 2"], "slot_out_of_range"),
    ],
)
def test_repl_error_codes(housing, lines, code):
    # Every code is the snake_case of the error's class name, apart from
    # the parse_error group.
    kb, world = housing
    state = ReplState(world)
    for line in lines:
        state, out = repl_step(state, line)
    assert out.startswith("ERR: ") and out.endswith(f"[{code}]")


_REPL_CODES = {
    "ArityMismatch": "arity_mismatch",
    "BoundEdge": "bound_edge",
    "Contradiction": "contradiction",
    "IntervalOutOfLifetime": "interval_out_of_lifetime",
    "KindMismatch": "kind_mismatch",
    "NoDegree": "no_degree",
    "NoIso": "no_iso",
    "NonCanonicalForm": "non_canonical_form",
    "NotEntailed": "not_entailed",
    "NotFactual": "not_factual",
    "OutOfRange": "out_of_range",
    "ParseError": "parse_error",
    "ResolutionError": "parse_error",
    "SlotOutOfRange": "slot_out_of_range",
    "SubjectMismatch": "subject_mismatch",
    "TenseMismatch": "tense_mismatch",
    "UnknownAtom": "parse_error",
    "UnsupportedTense": "unsupported_tense",
    "VagueTense": "vague_tense",
}


def test_every_error_class_answers_with_its_code(housing, monkeypatch):
    kb, world = housing
    classes = VplError.__subclasses__()
    assert {cls.__name__ for cls in classes} == set(_REPL_CODES)
    for cls in classes:
        def raise_it(*args):
            raise cls("boom")

        monkeypatch.setattr(dsl, "parse_expr", raise_it)
        state = ReplState(world)
        after, out = repl_step(state, "= i future own*property*us")
        assert after is state
        if cls is Contradiction:
            message = "I cannot accept that, it contradicts what I already hold"
        else:
            message = str(cls("boom"))
        assert out == f"ERR: {message} [{_REPL_CODES[cls.__name__]}]"


def test_repl_is_deterministic(housing):
    kb, world = housing
    outs = []
    for _ in range(2):
        state = ReplState(world)
        state, out = repl_step(state, "= i future own*property*us")
        state, out = repl_step(state, "? which_part 1")
        outs.append(out)
    assert outs[0] == outs[1]


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_repl_never_raises(line):
    kb = make_kb(noun_edges=[("potato", "vegetable")], verb_edges=[("bake", "cook")])
    world = World(kb)
    state = ReplState(world)
    state, response = repl_step(state, line)
    assert response.startswith(("A:", "ERR:"))


def test_what_kind_alias(housing):
    kb, world = housing
    state = ReplState(world)
    state, _ = repl_step(state, "= i future buy*property*california")
    state, out = repl_step(state, "? what_kind 0")
    assert out == "A: i future buy*house*california"


def test_question_on_negated_statement():
    # Refining a never-statement moves its core upward: the more general
    # the core, the stronger (more specific) the denial.
    kb = make_kb(noun_edges=[("car", "vehicle")], verb_edges=[("buy", "own")])
    world = World(kb)
    world.assert_fact(sentence(kb, "i past_perfect not own*vehicle"))
    asked = sentence(kb, "i past_perfect not own*car")
    result = apply_question(world, WHICH_KIND, asked, slot=0)
    assert [a.text() for a in result.answers] == ["i past_perfect not own*vehicle"]
    for answer in result.answers:
        assert entails(kb, answer, asked)


def test_how_skips_verbs_of_another_arity():
    # lease is a way of owning, but it takes two noun slots, so it does
    # not refine a one-slot phrase.
    kb = make_kb(noun_edges=[("house", "property")],
                 verb_edges=[("buy", "own"), ("lease", "own")])
    world = World(kb)
    world.assert_fact(sentence(kb, "i past_perfect buy*house"))
    world.assert_fact(sentence(kb, "i past_perfect lease*house*house"))
    result = apply_question(world, HOW, sentence(kb, "i past_perfect own*house"))
    assert [a.text() for a in result.answers] == ["i past_perfect buy*house"]


_Q_NOUNS = [f"n{i}" for i in range(4)]
_Q_VERBS = [f"v{i}" for i in range(3)]

question_worlds = st.tuples(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.sampled_from([KIND_OF, PART_OF])), max_size=8),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.sampled_from([PRESENT_CONTINUOUS, FUTURE]),
    st.lists(st.tuples(st.integers(0, 2), st.lists(st.integers(0, 3), min_size=2, max_size=2),
                       st.booleans()), min_size=1, max_size=4),
)


def _reference_refinements(world, noun_edges, verb_edges, op, s, slot):
    """Brute force: every held sentence that swaps the targeted atom for
    another one related to it along the operator's edges, below it in a
    positive phrase and above it in a negated one.  Which sentences are
    held is the world's answer; the status tests check that one."""
    kb = world.kb
    vp = s.vp
    if op == HOW:
        pool, atom, edges = _Q_VERBS, vp.verb, verb_edges
    else:
        label = PART_OF if op == WHICH_PART else KIND_OF
        pool, atom = _Q_NOUNS, vp.nouns[slot]
        edges = [(lo, hi) for lo, hi, lab in noun_edges if lab == label]
    pairs = dfs_pairs(len(pool), edges)
    i = pool.index(atom)
    out = []
    for j, other in enumerate(pool):
        if other == atom or ((i, j) if vp.negated else (j, i)) not in pairs:
            continue
        if op == HOW:
            if kb.arities.get(other, vp.arity) != vp.arity:
                continue
            refined = vp.replace(verb=other)
        else:
            refined = vp.replace(slot=slot, noun=other)
        candidate = Sentence(s.subject, s.tense, refined)
        if world.status_of(candidate) in (FACTUAL, PLAN):
            out.append(candidate)
    return sorted(out, key=lambda c: c.text())


@given(question_worlds)
@settings(max_examples=150, deadline=None)
def test_apply_question_matches_brute_force(params):
    noun_edges, verb_edges, arities, form, facts = params
    kb = make_kb(
        [(_Q_NOUNS[a], _Q_NOUNS[b], lab) for a, b, lab in noun_edges],
        [(_Q_VERBS[a], _Q_VERBS[b]) for a, b in verb_edges],
        nouns=_Q_NOUNS, verbs=_Q_VERBS,
    )
    tense = Tense(form)
    queries = []
    for verb, arity in zip(_Q_VERBS, arities):
        for nouns in itertools.product(_Q_NOUNS, repeat=arity):
            for negated in (False, True):
                queries.append(Sentence("i", tense, kb.phrase(verb, nouns, negated)))
    world = World(kb)
    for v, nouns, negated in facts:
        phrase = kb.phrase(_Q_VERBS[v], [_Q_NOUNS[n] for n in nouns[:arities[v]]], negated)
        try:
            world.assert_fact(Sentence("i", tense, phrase))
        except Contradiction:
            pass
    for s in queries:
        if world.status_of(s) not in (FACTUAL, PLAN):
            with pytest.raises(NotFactual):
                apply_question(world, HOW, s)
            continue
        for op in (HOW, WHICH_KIND, WHICH_PART):
            for slot in range(s.vp.arity):
                want = _reference_refinements(world, noun_edges, verb_edges, op, s, slot)
                assert list(apply_question(world, op, s, slot).answers) == want, (op, slot, s)


def test_repl_travel_conversation():
    # General statement down to "I flew from Tokyo", one slot at a time.
    kb = make_kb(
        noun_edges=[("tokyo", "japan", "part_of"), ("la", "us", "part_of")],
        verb_edges=[("fly", "travel")],
    )
    world = World(kb)
    world.assert_fact(sentence(kb, "i past_perfect fly*tokyo*la"))
    state = ReplState(world)
    state, out = repl_step(state, "= i past_perfect travel*japan*us")
    assert out == "A: factual"
    state, out = repl_step(state, "? which_part 1")
    assert out == "A: i past_perfect travel*japan*la"
    state, out = repl_step(state, "? how")
    assert out == "A: i past_perfect fly*japan*la"
    state, out = repl_step(state, "? which_part 0")
    assert out == "A: i past_perfect fly*tokyo*la"
