"""The knowledge base: both preorders plus everything keyed off them.

Holds the noun and verb orders, verb arities, the verb/noun-category
isomorphism table with membership degrees, per-subject lifetimes, and
conditional rules.  The designated atoms ``do`` and ``something`` are
registered in every knowledge base so the phrase bounds always exist.
"""

from __future__ import annotations

from .errors import ArityMismatch, OutOfRange
from .order import NOUN, VERB, Preorder, normalize_id
from .phrase import BOTTOM, TOP, TOP_NOUN, TOP_VERB, VerbPhrase
from .temporal import TimeInterval

DEFAULT_LIFETIME = TimeInterval(0, 100)


class KnowledgeBase:
    # The phrase bounds, the same in every knowledge base.
    top = TOP
    bottom = BOTTOM

    def __init__(self):
        self.nouns = Preorder(NOUN)
        self.verbs = Preorder(VERB)
        self.arities: dict[str, int] = {}
        self._isos: set[tuple[str, str]] = set()
        self._degrees: dict[tuple[str, str, str], float] = {}
        self._lifetimes: dict[str, TimeInterval] = {}
        self.rules: list = []
        self.verbs.add_atom(TOP_VERB)
        self.nouns.add_atom(TOP_NOUN)
        self.arities[TOP_VERB] = 1

    # -- phrase construction and validation ------------------------------

    def phrase(self, verb: str, nouns, negated: bool = False) -> VerbPhrase:
        """Build a validated phrase and pin the verb's arity."""
        vp = VerbPhrase(
            normalize_id(verb), tuple(normalize_id(n) for n in nouns), negated
        )
        self.check_phrase(vp)
        self.arities.setdefault(vp.verb, vp.arity)
        return vp

    def check_phrase(self, vp: VerbPhrase) -> None:
        """Raise unless every atom is registered and the verb's arity, if
        pinned, matches.  Records nothing."""
        self.verbs.atom(vp.verb)
        for noun in vp.nouns:
            self.nouns.atom(noun)
        known = self.arities.get(vp.verb)
        if known is not None and known != vp.arity:
            raise ArityMismatch(
                f"verb {vp.verb!r} takes {known} noun slot(s), got {vp.arity}"
            )

    # -- isomorphisms and degrees ----------------------------------------

    def add_iso(self, verb: str, category: str) -> None:
        verb = self.verbs.atom(normalize_id(verb)).id
        category = self.nouns.atom(normalize_id(category)).id
        self._isos.add((verb, category))

    def has_iso(self, verb: str, category: str) -> bool:
        return (verb, category) in self._isos

    def isos(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._isos))

    def iso_categories(self, verb: str) -> tuple[str, ...]:
        return tuple(sorted(cat for v, cat in self._isos if v == verb))

    def add_degree(self, subject: str, item: str, category: str, degree: float) -> None:
        if not 0.0 <= degree <= 1.0:
            raise OutOfRange(f"degree must lie in [0, 1], got {degree}")
        item = self.nouns.atom(normalize_id(item)).id
        category = self.nouns.atom(normalize_id(category)).id
        subject = "*" if subject == "*" else normalize_id(subject)
        self._degrees[(subject, item, category)] = degree

    def degree(self, subject: str, item: str, category: str) -> float | None:
        """Subject-specific entry first, wildcard second, else None."""
        subject = normalize_id(subject)
        specific = self._degrees.get((subject, item, category))
        if specific is not None:
            return specific
        return self._degrees.get(("*", item, category))

    def degrees(self) -> tuple:
        return tuple(sorted(self._degrees.items()))

    # -- lifetimes --------------------------------------------------------

    def set_lifetime(self, subject: str, interval: TimeInterval) -> None:
        self._lifetimes[normalize_id(subject)] = interval

    def lifetime(self, subject: str) -> TimeInterval:
        return self._lifetimes.get(normalize_id(subject), DEFAULT_LIFETIME)

    def lifetimes(self) -> tuple:
        return tuple(sorted(self._lifetimes.items()))

    # -- rules --------------------------------------------------------------

    def add_rule(self, rule) -> None:
        self.rules.append(rule)
