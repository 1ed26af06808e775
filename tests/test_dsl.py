import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplogic import (
    And,
    Leaf,
    Not,
    Or,
    Sentence,
    Tense,
    TimeInterval,
    VerbPhrase,
    expr_text,
    load_text,
    parse_expr,
    parse_kb,
    parse_sentence,
    sentence,
    serialize,
)
from vplogic.dsl import (
    CondStmt,
    DegreeStmt,
    FactStmt,
    IsoStmt,
    KbDocument,
    LifetimeStmt,
    RelationStmt,
)
from vplogic.errors import Contradiction, ParseError, ResolutionError
from vplogic.order import KIND_OF, PART_OF
from vplogic.sentence import PAST, TENSE_FORMS

EXAMPLE = """
# a worked example
noun potato kind_of vegetable
verb bake way_of cook
iso eat ~ food
noun food kind_of food
verb eat way_of eat
degree * chicken in food = 0.95
noun chicken kind_of food
lifetime i = [0,100]
fact i past_perfect bake * potato
cond "if i am hungry" => i future bake * potato
"""


def test_parse_example_document():
    doc = parse_kb(EXAMPLE)
    kinds = [type(s).__name__ for s in doc.statements]
    assert kinds.count("RelationStmt") == 5
    assert kinds.count("CommentStmt") == 1
    assert kinds.count("FactStmt") == 1
    assert kinds.count("CondStmt") == 1


def test_load_example():
    kb, world = load_text(EXAMPLE)
    fact = sentence(kb, "i past_perfect cook*vegetable")
    assert world.status_of(fact) == "factual"
    assert kb.rules[0].antecedent == "if i am hungry"
    assert kb.lifetime("i") == TimeInterval(0, 100)
    assert kb.degree("anyone", "chicken", "food") == 0.95


def test_empty_document():
    assert parse_kb("") == KbDocument(())
    assert serialize(KbDocument(())) == ""


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_kb("noun potato kindof vegetable")
    assert err.value.line == 1 and err.value.column == 13
    with pytest.raises(ParseError) as err:
        parse_kb("noun potato kind_of vegetable\nverb bake wayof cook")
    assert err.value.line == 2 and err.value.column == 11
    with pytest.raises(ParseError) as err:
        parse_kb("bogus line here")
    assert err.value.line == 1 and err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_kb('cond "unterminated => i past bake * potato')
    assert err.value.line == 1


def test_parse_error_trailing_tokens():
    with pytest.raises(ParseError) as err:
        parse_kb("noun a kind_of b extra")
    assert err.value.column == 18


def test_reserved_word_rejected():
    with pytest.raises(ParseError):
        parse_kb("noun not kind_of vegetable")


@pytest.mark.parametrize("text, distributed", [
    ("i past bake * ( potato and apple )", "(i past bake*potato) AND (i past bake*apple)"),
    ("i future bake * ( potato or apple )", "(i future bake*potato) OR (i future bake*apple)"),
    ("i past ( bake and eat ) * potato", "(i past bake*potato) AND (i past eat*potato)"),
    (
        "you past_perfect ( fly or drive ) * tokyo * la",
        "(you past_perfect fly*tokyo*la) OR (you past_perfect drive*tokyo*la)",
    ),
    (
        "i past ( bake or eat ) * potato @ [3,4]",
        "(i past bake*potato @ [3,4]) OR (i past eat*potato @ [3,4])",
    ),
])
def test_parse_compound_round_trip(text, distributed):
    # Quoted or bare, a compound distributes into two leaves, and the
    # rendered expression parses back to it.
    expr = parse_expr(text)
    assert parse_expr(f'"{text}"') == expr
    assert expr_text(expr) == distributed
    assert parse_expr(expr_text(expr)) == expr


def test_parse_compound_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("i past bake * ( potato xor apple )")
    assert (err.value.line, err.value.column) == (1, 24)
    assert err.value.expected == {"and", "or"}
    with pytest.raises(ParseError) as err:
        parse_expr("i yesterday ( bake and eat ) * potato")
    assert (err.value.line, err.value.column) == (1, 3)


@pytest.mark.parametrize("text, column", [
    ("i past not ( bake and eat ) * potato", 12),  # no negated compound
    ("i past ( bake and eat ) * ( potato and apple )", 27),  # one pair only
    ("i past bake * ( potato and apple ) * x", 36),  # a noun pair stands alone
    ("i past bake * x * ( potato and apple )", 19),
    ("i past ( bake and eat and cook ) * potato", 23),  # exactly two
    ("i past ( bake ) * potato", 15),
])
def test_other_compound_shapes_are_refused(text, column):
    for source, shift in ((text, 0), (f'"{text}"', 1), (f"NOT ( {text} )", 6)):
        with pytest.raises(ParseError) as err:
            parse_expr(source)
        assert (err.value.line, err.value.column) == (1, column + shift), source


@pytest.mark.parametrize("parse, template, expected", [
    (parse_kb, "noun potato {} vegetable", {KIND_OF, PART_OF}),
    (parse_kb, "fact i {} bake*potato", set(TENSE_FORMS)),
    (parse_kb, "degree * potato {} food = 0.5", {"in"}),
    (parse_expr, "i past_perfect ( bake {} cook ) * potato", {"and", "or"}),
], ids=["relation", "tense", "in", "connective"])
def test_keyword_errors_list_the_same_words(parse, template, expected):
    # A wrong word, a token that is no word, and the end of input all
    # report the words the position takes.
    wrong, not_a_word = template.format("xor"), template.format("5")
    for source in (wrong, not_a_word, template.split("{}")[0]):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.expected == expected, source


def test_compounds_only_in_expressions():
    with pytest.raises(ParseError) as err:
        parse_sentence("i past_perfect ( bake and eat ) * potato")
    assert (err.value.column, err.value.expected) == (16, {"verb id"})
    with pytest.raises(ParseError) as err:
        parse_kb("noun potato kind_of vegetable\nfact i past_perfect bake * ( potato and x )")
    assert (err.value.line, err.value.column) == (2, 28)


def test_compound_leaves_resolve_with_their_position():
    kb, _ = load_text("noun potato kind_of vegetable\nverb bake way_of cook")
    expr = parse_expr('"i past bake*potato" OR i past ( bake and cook ) * potato', kb)
    assert isinstance(expr.right, And)
    with pytest.raises(ResolutionError, match=r"'eat'.*\(line 1, column 25\)"):
        parse_expr('"i past bake*potato" OR i past ( bake and eat ) * potato', kb)
    with pytest.raises(ResolutionError, match=r"'apple'.*\(line 1, column 5\)"):
        parse_expr('NOT "i past bake * ( potato or apple )"', kb)


def test_fact_timeframe_only_for_past():
    parse_kb("fact i past eat * apple @ [3,4]\nnoun apple kind_of apple\nverb eat way_of eat")
    with pytest.raises(ParseError):
        parse_kb("fact i past_perfect eat * apple @ [3,4]")


def test_unknown_statement_keyword():
    with pytest.raises(ParseError) as err:
        parse_kb("assert i past bake * potato")
    assert "assert" in str(err.value)


def test_resolution_error_strict_and_lenient():
    source = "noun potato kind_of vegetable\nverb bake way_of cook\nfact i past_perfect bake * carrot"
    with pytest.raises(ResolutionError) as err:
        load_text(source)
    assert "carrot" in str(err.value) and "line 3" in str(err.value)
    kb, world = load_text(source, lenient=True)
    assert "carrot" in kb.nouns


def test_iso_and_degree_stay_strict_under_lenient():
    with pytest.raises(ResolutionError):
        load_text("iso eat ~ food", lenient=True)
    with pytest.raises(ResolutionError):
        load_text("degree * chicken in food = 0.5", lenient=True)


def test_contradictory_file_rejected():
    source = (
        "noun potato kind_of vegetable\nverb bake way_of cook\n"
        "fact i past_perfect bake * potato\n"
        "fact i past_perfect not cook * vegetable\n"
    )
    with pytest.raises(Contradiction):
        load_text(source)


def test_case_folding():
    kb, world = load_text("noun Potato kind_of Vegetable\nverb Bake way_of Cook")
    assert "potato" in kb.nouns
    s = sentence(kb, "I PAST_PERFECT Bake*Potato")
    assert s.subject == "i" and s.vp.verb == "bake"


# -- sentences ---------------------------------------------------------------


def test_parse_sentence_forms():
    s = parse_sentence("i past_perfect not buy*hybrid_car")
    assert s.vp == VerbPhrase("buy", ("hybrid_car",), True)
    s = parse_sentence("i past fly * tokyo * la @ [3,4]")
    assert s.vp.nouns == ("tokyo", "la")
    assert s.tense == Tense(PAST, TimeInterval(3, 4))


def test_parse_sentence_errors():
    with pytest.raises(ParseError):
        parse_sentence("i bake*potato")  # missing tense
    with pytest.raises(ParseError):
        parse_sentence("i past bake potato")  # missing star
    with pytest.raises(ParseError):
        parse_sentence("i past bake*")


# -- expressions --------------------------------------------------------------


def test_expr_quoted_and_bare():
    quoted = parse_expr('"i past bake*potato" AND "i past bake*apple"')
    bare = parse_expr("i past bake*potato AND i past bake*apple")
    assert quoted == bare
    assert isinstance(quoted, And)


def test_expr_precedence():
    expr = parse_expr('"a past x*y" OR "b past x*y" AND "c past x*y"')
    reference = parse_expr('"a past x*y" OR ("b past x*y" AND "c past x*y")')
    assert expr == reference
    assert isinstance(expr, Or) and isinstance(expr.right, And)


def test_expr_left_associative():
    expr = parse_expr('"a past x*y" AND "b past x*y" AND "c past x*y"')
    assert isinstance(expr.left, And) and isinstance(expr.right, Leaf)


def test_expr_not_normalizes_into_leaf():
    expr = parse_expr('NOT "s past x*y"')
    assert expr == Leaf(parse_sentence("s past not x*y"))
    expr = parse_expr('NOT NOT "s past x*y"')
    assert expr == Leaf(parse_sentence("s past x*y"))


def test_expr_not_over_compound_stays():
    expr = parse_expr('NOT ("a past x*y" AND "b past x*y")')
    assert isinstance(expr, Not) and isinstance(expr.operand, And)


def test_expr_resolution_against_kb():
    kb, _ = load_text("noun potato kind_of vegetable\nverb bake way_of cook")
    parse_expr('"i past bake*potato"', kb)
    with pytest.raises(ResolutionError):
        parse_expr('"i past bake*carrot"', kb)


def test_expr_parse_errors():
    with pytest.raises(ParseError):
        parse_expr('"a past x*y" AND')
    with pytest.raises(ParseError):
        parse_expr('("a past x*y"')
    with pytest.raises(ParseError):
        parse_expr("")


def test_rendered_expressions_reparse():
    from vplogic import expr_text

    samples = [
        'NOT "i past_perfect bake*potato" OR "i past_perfect cook*vegetable"',
        '"a past x*y" AND ("b past x*y" OR NOT "c past x*y")',
        'NOT ("a past x*y" AND "b past x*y*z")',
        '"i past fly*tokyo*la @ [3,4]" OR "i past fly*tokyo*la @ [5,6]"',
    ]
    for source in samples:
        expr = parse_expr(source)
        assert parse_expr(expr_text(expr)) == expr


# -- serialization round trip ---------------------------------------------------

_ids = st.sampled_from([f"w{i}" for i in range(8)])
_tenses = st.sampled_from(["past", "past_perfect", "present_continuous", "future"])


@st.composite
def documents(draw):
    statements = []
    n = draw(st.integers(0, 50))
    for _ in range(n):
        which = draw(st.integers(0, 6))
        if which == 0:
            statements.append(
                RelationStmt("noun", draw(_ids), draw(_ids),
                             draw(st.sampled_from(["kind_of", "part_of"])))
            )
        elif which == 1:
            statements.append(RelationStmt("verb", draw(_ids), draw(_ids), "way_of"))
        elif which == 2:
            statements.append(IsoStmt(draw(_ids), draw(_ids)))
        elif which == 3:
            statements.append(
                DegreeStmt(draw(st.one_of(st.just("*"), _ids)), draw(_ids), draw(_ids),
                           round(draw(st.floats(0, 1)), 3))
            )
        elif which == 4:
            lo = draw(st.integers(0, 50))
            statements.append(LifetimeStmt(draw(_ids), lo, lo + draw(st.integers(0, 50))))
        else:
            form = draw(_tenses)
            timeframe = None
            if form == "past" and draw(st.booleans()):
                lo = draw(st.integers(0, 20))
                timeframe = TimeInterval(lo, lo + draw(st.integers(0, 20)))
            s = Sentence(
                draw(_ids),
                Tense(form, timeframe),
                VerbPhrase(draw(_ids), tuple(draw(st.lists(_ids, min_size=1, max_size=3))),
                           draw(st.booleans())),
            )
            if which == 5:
                statements.append(FactStmt(s))
            else:
                statements.append(CondStmt(draw(st.text(
                    alphabet="abcdefgh ", min_size=0, max_size=12)).strip(), s))
    return KbDocument(tuple(statements))


@given(documents())
@settings(max_examples=150)
def test_serialize_parse_round_trip(doc):
    text = serialize(doc)
    reparsed = parse_kb(text)
    assert reparsed.canonical() == doc.canonical()
    assert serialize(reparsed) == text


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_parse_kb_is_total(text):
    # Arbitrary input either parses or fails with a positioned error.
    try:
        parse_kb(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1


@given(st.text(alphabet='abn *()"[]@,~=0123456789_ANDORT', max_size=60))
@settings(max_examples=300)
def test_parse_expr_is_total(text):
    try:
        parse_expr(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1


def test_round_trip_of_golden_premises():
    source = (
        "noun house kind_of property\n"
        "noun california part_of us\n"
        "verb buy way_of own\n"
        "fact i future buy * house * california\n"
    )
    doc = parse_kb(source)
    assert parse_kb(serialize(doc)).canonical() == doc.canonical()
