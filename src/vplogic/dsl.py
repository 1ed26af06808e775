"""Concrete syntax for knowledge bases, sentences, and expressions.

The knowledge-base format is line oriented, one statement per line:

    noun <id> kind_of|part_of <id>
    verb <id> way_of <id>
    iso <verb> ~ <noun>
    degree <subj|*> <id> in <id> = <float>
    lifetime <subj> = [<int>,<int>]
    fact <subj> <tense> [not] <verb> * <noun> {* <noun>} [@ [<int>,<int>]]
    cond "<text>" => <fact-body>
    # comment

Identifiers are case-folded; multi-word names use underscores (the
parser never tokenizes English).  Sentence expressions combine quoted or
bare sentences with NOT/AND/OR and parentheses, AND binding tighter.
A sentence in an expression may also be a compound phrase, two verbs
over shared nouns or one verb over two nouns, which the parser
distributes: ``i past_perfect (bake and eat)*potato`` reads as
``i past_perfect bake*potato AND i past_perfect eat*potato``.  Fact and
``cond`` lines and standalone sentences take no compound.  Parse errors
carry 1-based line/column positions pointing at the first offending
token; an error raised while loading a statement names its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError, ResolutionError, UnknownAtom, VplError
from .inference import ConditionalRule
from .kb import KnowledgeBase
from .order import KIND_OF, NOUN, PART_OF, RESERVED_IDS, VERB, WAY_OF, normalize_id
from .phrase import VerbPhrase
from .sentence import (
    TENSE_FORMS,
    And,
    Leaf,
    Or,
    Sentence,
    SentenceExpr,
    Tense,
    World,
    neg,
)
from .temporal import TimeInterval

# -- tokens --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<float>-?(?:\d+\.\d+|\.\d+))
      | (?P<int>-?\d+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"[^"\n]*")
      | (?P<arrow>=>)
      | (?P<punct>[*@\[\],=()~])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int = 1, col_offset: int = 0) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            ch = text[pos]
            msg = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(msg, line, pos + 1 + col_offset)
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, match.group(), line, match.start() + 1 + col_offset))
        pos = match.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token], line: int, end_column: int):
        self.tokens = tokens
        self.line = line
        self.end_column = end_column
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.unexpected(None)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            raise self.unexpected(tok, {what or (text if text is not None else kind)})
        self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        """Consume the next token if it is the word (case-folded) or
        punctuation mark ``text``; otherwise None."""
        tok = self.peek()
        if tok is None or tok.text.casefold() != text:
            return None
        self.pos += 1
        return tok

    def choice(self, words) -> str:
        """Consume the next token, case-folded, if it is one of ``words``;
        otherwise raise the error that lists them."""
        tok = self.peek()
        word = None if tok is None else tok.text.casefold()
        if word not in words:
            raise self.unexpected(tok, words)
        self.pos += 1
        return word

    def unexpected(self, tok: Token | None, expected=()) -> ParseError:
        """The error for ``tok``, or for the end of input when None."""
        if tok is None:
            return ParseError("unexpected end of input", self.line, self.end_column, expected)
        return ParseError(f"unexpected {tok.text!r}", tok.line, tok.column, expected)

    def require_done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)


def _identifier(cursor: _Cursor, what: str) -> str:
    tok = cursor.expect("word", what=what)
    ident = normalize_id(tok.text)
    if ident in RESERVED_IDS:
        raise ParseError(f"{ident!r} is a reserved word", tok.line, tok.column)
    return ident


def _integer(cursor: _Cursor) -> int:
    return int(cursor.expect("int", what="integer").text)


# -- document model -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RelationStmt:
    kind: str  # noun or verb
    lower: str
    upper: str
    label: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class IsoStmt:
    verb: str
    category: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class DegreeStmt:
    subject: str
    item: str
    category: str
    degree: float
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class LifetimeStmt:
    subject: str
    start: int
    end: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class FactStmt:
    sentence: Sentence
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class CondStmt:
    antecedent: str
    sentence: Sentence
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class CommentStmt:
    text: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class KbDocument:
    statements: tuple

    def canonical(self) -> tuple:
        """Comment-free statements in serialization order."""
        actual = [s for s in self.statements if not isinstance(s, CommentStmt)]
        return tuple(sorted(actual, key=lambda s: (_RANK[type(s)], _render(s))))


# -- parsing ---------------------------------------------------------------

_LINE_KEYWORDS = ("noun", "verb", "iso", "degree", "lifetime", "fact", "cond")


def parse_kb(source: str) -> KbDocument:
    """Parse a knowledge-base document; the first error wins."""
    statements = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            statements.append(CommentStmt(stripped[1:].strip(), line_no))
            continue
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        cursor = _Cursor(tokens, line_no, len(raw) + 1)
        head = cursor.expect("word", what="|".join(_LINE_KEYWORDS)).text.casefold()
        if head == "noun":
            statements.append(_parse_relation(cursor, NOUN, line_no))
        elif head == "verb":
            statements.append(_parse_relation(cursor, VERB, line_no))
        elif head == "iso":
            verb = _identifier(cursor, "verb id")
            cursor.expect("punct", "~")
            category = _identifier(cursor, "noun id")
            statements.append(IsoStmt(verb, category, line_no))
        elif head == "degree":
            statements.append(_parse_degree(cursor, line_no))
        elif head == "lifetime":
            subject = _identifier(cursor, "subject")
            cursor.expect("punct", "=")
            start, end = _parse_interval(cursor)
            statements.append(LifetimeStmt(subject, start, end, line_no))
        elif head == "fact":
            sentence = _parse_sentence_body(cursor)
            statements.append(FactStmt(sentence, line_no))
        elif head == "cond":
            tok = cursor.expect("string", what="quoted antecedent")
            antecedent = tok.text[1:-1].strip()
            cursor.expect("arrow", what="=>")
            sentence = _parse_sentence_body(cursor)
            statements.append(CondStmt(antecedent, sentence, line_no))
        else:
            raise ParseError(
                f"unknown statement keyword {head!r}", line_no, tokens[0].column,
                expected=set(_LINE_KEYWORDS),
            )
        cursor.require_done()
    return KbDocument(tuple(statements))


def _parse_relation(cursor: _Cursor, kind: str, line_no: int) -> RelationStmt:
    labels = (KIND_OF, PART_OF) if kind == NOUN else (WAY_OF,)
    lower = _identifier(cursor, f"{kind} id")
    label = cursor.choice(labels)
    upper = _identifier(cursor, f"{kind} id")
    return RelationStmt(kind, lower, upper, label, line_no)


def _parse_degree(cursor: _Cursor, line_no: int) -> DegreeStmt:
    subject = "*" if cursor.accept("*") else _identifier(cursor, "subject or *")
    item = _identifier(cursor, "noun id")
    cursor.choice(("in",))
    category = _identifier(cursor, "noun id")
    cursor.expect("punct", "=")
    value_tok = cursor.peek()
    if value_tok is None or value_tok.kind not in ("float", "int"):
        raise ParseError("expected a degree value", cursor.line, cursor.end_column,
                         expected={"float in [0,1]"})
    cursor.advance()
    return DegreeStmt(subject, item, category, float(value_tok.text), line_no)


def _parse_interval(cursor: _Cursor) -> tuple[int, int]:
    cursor.expect("punct", "[")
    start = _integer(cursor)
    cursor.expect("punct", ",")
    end = _integer(cursor)
    tok = cursor.expect("punct", "]")
    if start > end:
        raise ParseError(f"interval start {start} exceeds end {end}", tok.line, tok.column)
    return start, end


def _parse_sentence_body(cursor: _Cursor) -> Sentence:
    (sentence,), _ = _parse_sentences(cursor, compound=False)
    return sentence


def _parse_sentences(cursor: _Cursor, compound: bool) -> tuple[list[Sentence], str | None]:
    """One sentence, or with ``compound`` also one of the distributable
    compounds ``subj tense ( verb and|or verb ) * noun {* noun}`` and
    ``subj tense verb * ( noun and|or noun )``, returned as its two
    sentences and the connective (None for a plain sentence)."""
    subject = _identifier(cursor, "subject")
    form = cursor.choice(TENSE_FORMS)
    negated = cursor.accept("not") is not None
    compound = compound and not negated
    verbs, connective = _alternatives(cursor, "verb id", compound)
    cursor.expect("punct", "*")
    nouns, noun_connective = _alternatives(cursor, "noun id", compound and connective is None)
    if noun_connective is not None:
        # A noun pair stands alone in a single-slot phrase.
        connective, slots = noun_connective, [(noun,) for noun in nouns]
    else:
        while cursor.accept("*"):
            nouns.append(_identifier(cursor, "noun id"))
        slots = [tuple(nouns)]
    timeframe = None
    at_tok = cursor.accept("@")
    if at_tok is not None:
        start, end = _parse_interval(cursor)
        if form != "past":
            raise ParseError("only plain past takes an explicit timeframe",
                             at_tok.line, at_tok.column)
        timeframe = TimeInterval(start, end)
    tense = Tense(form, timeframe)
    sentences = [
        Sentence(subject, tense, VerbPhrase(verb, slot, negated))
        for verb in verbs for slot in slots
    ]
    return sentences, connective


def _alternatives(cursor: _Cursor, what: str, pair: bool) -> tuple[list[str], str | None]:
    """One id, or with ``pair`` also ``( id and|or id )``, with its connective."""
    if not (pair and cursor.accept("(")):
        return [_identifier(cursor, what)], None
    first = _identifier(cursor, what)
    connective = cursor.choice(("and", "or"))
    second = _identifier(cursor, what)
    cursor.expect("punct", ")")
    return [first, second], connective


def parse_sentence(text: str) -> Sentence:
    """Parse a standalone sentence without resolving it against a kb."""
    tokens = _tokenize(text)
    cursor = _Cursor(tokens, 1, len(text) + 1)
    out = _parse_sentence_body(cursor)
    cursor.require_done()
    return out


def sentence(kb: KnowledgeBase, text: str, lenient: bool = False) -> Sentence:
    """Parse a sentence and resolve its atoms against the knowledge base."""
    return _resolve_sentence(kb, parse_sentence(text), lenient)


def _resolve_sentence(kb: KnowledgeBase, s: Sentence, lenient: bool) -> Sentence:
    """Check a parsed sentence against the knowledge base.  Pins no
    arity: only an accepted fact or a loaded rule does."""
    if lenient:
        kb.verbs.add_atom(s.vp.verb)
        for noun in s.vp.nouns:
            kb.nouns.add_atom(noun)
    try:
        kb.check_phrase(s.vp)
    except UnknownAtom as exc:
        raise ResolutionError(str(exc)) from None
    return s


# -- expressions ------------------------------------------------------------

_EXPR_KEYWORDS = {"and", "or", "not"}


def parse_expr(text: str, kb: KnowledgeBase | None = None) -> SentenceExpr:
    """Parse NOT/AND/OR combinations of sentences.

    AND binds tighter than OR, both associate left, NOT tightest.
    Sentences appear quoted or bare; bare sentences run until a
    connective or a closing parenthesis outside a compound.  A compound
    ``subj tense ( verb and|or verb ) * noun {* noun}`` or
    ``subj tense verb * ( noun and|or noun )`` becomes the AND or OR of
    its two sentences, each resolved as a leaf of its own.
    """
    tokens = _tokenize(text)
    cursor = _Cursor(tokens, 1, len(text) + 1)
    expr = _parse_or(cursor, kb)
    cursor.require_done()
    return expr


def _keyword(tok: Token | None) -> str | None:
    if tok is not None and tok.kind == "word":
        word = tok.text.casefold()
        if word in _EXPR_KEYWORDS:
            return word
    return None


def _parse_or(cursor: _Cursor, kb) -> SentenceExpr:
    expr = _parse_and(cursor, kb)
    while cursor.accept("or"):
        expr = Or(expr, _parse_and(cursor, kb))
    return expr


def _parse_and(cursor: _Cursor, kb) -> SentenceExpr:
    expr = _parse_term(cursor, kb)
    while cursor.accept("and"):
        expr = And(expr, _parse_term(cursor, kb))
    return expr


def _parse_term(cursor: _Cursor, kb) -> SentenceExpr:
    tok = cursor.peek()
    if tok is None:
        raise cursor.unexpected(None, {"sentence", "NOT", "("})
    if cursor.accept("not"):
        return neg(_parse_term(cursor, kb))
    if cursor.accept("("):
        expr = _parse_or(cursor, kb)
        cursor.expect("punct", ")")
        return expr
    if tok.kind == "string":
        cursor.advance()
        inner = _tokenize(tok.text[1:-1], tok.line, tok.column)
        sub = _Cursor(inner, tok.line, tok.column + len(tok.text))
    else:
        # Bare sentence: swallow tokens until a connective or ')' outside
        # a compound's parentheses.
        taken = []
        depth = 0
        while True:
            tok = cursor.peek()
            if tok is None or (depth == 0 and (
                _keyword(tok) in ("and", "or") or (tok.kind == "punct" and tok.text == ")")
            )):
                break
            if tok.kind == "punct" and tok.text in ("(", ")"):
                depth += 1 if tok.text == "(" else -1
            taken.append(cursor.advance())
        if not taken:
            raise ParseError("expected a sentence", cursor.line,
                             tok.column if tok else cursor.end_column)
        tok = taken[0]
        sub = _Cursor(taken, tok.line, taken[-1].column + len(taken[-1].text))
    sentences, connective = _parse_sentences(sub, compound=True)
    sub.require_done()
    leaves = [Leaf(_maybe_resolve(kb, s, tok)) for s in sentences]
    if connective is None:
        return leaves[0]
    return (And if connective == "and" else Or)(*leaves)


def _maybe_resolve(kb, parsed: Sentence, tok: Token) -> Sentence:
    if kb is None:
        return parsed
    try:
        return _resolve_sentence(kb, parsed, lenient=False)
    except ResolutionError as exc:
        raise ResolutionError(f"{exc} (line {tok.line}, column {tok.column})") from None


# -- serialization ------------------------------------------------------------

_RANK = {
    RelationStmt: 0,  # nouns sort before verbs via the rendered text
    IsoStmt: 2,
    DegreeStmt: 3,
    LifetimeStmt: 4,
    FactStmt: 5,
    CondStmt: 6,
}


def _render(stmt) -> str:
    if isinstance(stmt, RelationStmt):
        return f"{stmt.kind} {stmt.lower} {stmt.label} {stmt.upper}"
    if isinstance(stmt, IsoStmt):
        return f"iso {stmt.verb} ~ {stmt.category}"
    if isinstance(stmt, DegreeStmt):
        return (
            f"degree {stmt.subject} {stmt.item} in {stmt.category} = {stmt.degree!r}"
        )
    if isinstance(stmt, LifetimeStmt):
        return f"lifetime {stmt.subject} = [{stmt.start},{stmt.end}]"
    if isinstance(stmt, FactStmt):
        return f"fact {stmt.sentence.text()}"
    if isinstance(stmt, CondStmt):
        return f'cond "{stmt.antecedent}" => {stmt.sentence.text()}'
    raise TypeError(f"cannot render {type(stmt).__name__}")


def serialize(doc: KbDocument) -> str:
    """Canonical text: comments dropped, one statement per line, sorted
    by statement kind then lexically."""
    lines = [_render(stmt) for stmt in doc.canonical()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- loading --------------------------------------------------------------------


# Relations first, then the tables facts read, then facts and rules in
# document order.
_LOAD_PASSES = ((RelationStmt,), (IsoStmt, DegreeStmt, LifetimeStmt), (FactStmt, CondStmt))


def load_document(doc: KbDocument, lenient: bool = False) -> tuple[KnowledgeBase, World]:
    """Build a knowledge base and world from a parsed document.

    Reference resolution is order independent: every relation line is
    applied before any fact is looked at.  Unknown atoms in facts are
    auto-registered only when ``lenient`` is set.  An error a statement
    raises keeps its class and names the statement's line.
    """
    kb = KnowledgeBase()
    world = World(kb)
    for kinds in _LOAD_PASSES:
        for stmt in doc.statements:
            if not isinstance(stmt, kinds):
                continue
            try:
                _load_statement(kb, world, stmt, lenient)
            except UnknownAtom as exc:
                raise ResolutionError(f"{exc} (line {stmt.line})") from None
            except VplError as exc:
                exc.args = (f"{exc} (line {stmt.line})",)
                raise
    return kb, world


def _load_statement(kb: KnowledgeBase, world: World, stmt, lenient: bool) -> None:
    if isinstance(stmt, RelationStmt):
        order = kb.nouns if stmt.kind == NOUN else kb.verbs
        order.declare(order.add_atom(stmt.lower), order.add_atom(stmt.upper), stmt.label)
    elif isinstance(stmt, IsoStmt):
        kb.add_iso(stmt.verb, stmt.category)
    elif isinstance(stmt, DegreeStmt):
        kb.add_degree(stmt.subject, stmt.item, stmt.category, stmt.degree)
    elif isinstance(stmt, LifetimeStmt):
        kb.set_lifetime(stmt.subject, TimeInterval(stmt.start, stmt.end))
    elif isinstance(stmt, FactStmt):
        world.assert_fact(_resolve_sentence(kb, stmt.sentence, lenient))
    else:
        consequent = _resolve_sentence(kb, stmt.sentence, lenient)
        kb.pin_arity(consequent.vp)
        kb.add_rule(ConditionalRule(stmt.antecedent, consequent))


def load_text(source: str, lenient: bool = False) -> tuple[KnowledgeBase, World]:
    return load_document(parse_kb(source), lenient)


def load_path(path, lenient: bool = False) -> tuple[KnowledgeBase, World]:
    with open(path, encoding="utf-8") as handle:
        return load_text(handle.read(), lenient)
