"""Verb-phrase logic: specificity orders with negation, sentence
connectives, deductive closure, temporal quantifiers, question
operators, and fuzzy frequency statements."""

from .dialogue import (
    HOW,
    WHICH_KIND,
    WHICH_PART,
    DialogueTurn,
    QuestionResult,
    ReplState,
    apply_question,
    generate_dialogue,
    repl_step,
)
from .dsl import (
    KbDocument,
    load_document,
    load_path,
    load_text,
    parse_expr,
    parse_kb,
    parse_sentence,
    sentence,
    serialize,
)
from .errors import VplError
from .fuzzy import (
    DEFAULT_SCALE,
    AdverbScale,
    NVIso,
    adverb_for,
    fuzzy_statement,
    possibility,
)
from .inference import (
    ClosureResult,
    ConditionalRule,
    Derivation,
    Step,
    closure,
    contrapose,
    entails,
    implication_to_disjunction,
    propagate_conditional,
    replay,
    vp_chain,
)
from .kb import KnowledgeBase
from .order import Preorder
from .phrase import VerbPhrase, vp_leq
from .sentence import (
    FACTUAL,
    FUTURE,
    NOT_FACTUAL,
    PAST,
    PAST_PERFECT,
    PLAN,
    PRESENT_CONTINUOUS,
    UNKNOWN,
    And,
    LawReport,
    Leaf,
    Not,
    Or,
    Sentence,
    SentenceExpr,
    Tense,
    World,
    check_laws,
    expr_text,
    neg,
)
from .temporal import (
    EXISTS,
    FORALL,
    TemporalStatement,
    TimeInterval,
    inverse_render,
    render,
    temporal_entails,
)

__version__ = "0.1.0"
