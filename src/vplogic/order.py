"""Specificity preorders over noun and verb atoms.

The ordering reads "lower is more specific": potato <= vegetable, fly <=
travel.  The orders are positive: negation lives on verb phrases
(``phrase.phrase_leq``), which read these orders backwards for a negated
phrase, so contraposition holds by construction rather than by data
discipline.  Cycles are allowed and mean mutual entailment, which is how
synonyms come out.
"""

from __future__ import annotations

import re

from ._kernel import reach_closure
from .errors import BoundEdge, KindMismatch, UnknownAtom
from .phrase import TOP_NOUN, TOP_VERB

NOUN = "noun"
VERB = "verb"

KIND_OF = "kind_of"
PART_OF = "part_of"
WAY_OF = "way_of"

LABELS_BY_KIND = {
    NOUN: frozenset({KIND_OF, PART_OF}),
    VERB: frozenset({WAY_OF}),
}

# Banned as identifiers because they are connective keywords in the
# expression syntax.
RESERVED_IDS = frozenset({"and", "or", "not"})

_ID_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")


def normalize_id(raw: str) -> str:
    """Case-fold and replace internal whitespace with underscores."""
    return "_".join(str(raw).strip().casefold().split())


def validate_id(ident: str) -> str:
    if not ident or not _ID_RE.match(ident):
        raise ValueError(f"invalid identifier: {ident!r}")
    if ident in RESERVED_IDS:
        raise ValueError(f"{ident!r} is a reserved word")
    return ident


class Preorder:
    """A labeled preorder over atoms of a single kind.

    Atoms are plain ids: ``add_atom`` normalizes and validates an id once
    and returns it, and every other method takes registered ids as they
    are.  Reflexivity is implicit and transitivity is computed, never
    stored.  Each declared edge is stored once, as a label set shared by
    the ``_up`` and ``_down`` adjacency maps.  Point queries (``reaches``,
    ``leq``) read one unlabelled closure built on first use; set queries
    (``generalizations``, ``specializations``) walk the declared edges.
    Mutation (registering atoms, declaring edges) happens while a
    knowledge base is loaded; afterwards all queries are read-only.
    ``version`` counts the new edges: it changes exactly when an existing
    atom's up-set may have grown, so a cache of up-sets keyed on it stays
    valid while atoms are registered.
    """

    def __init__(self, kind: str):
        if kind not in LABELS_BY_KIND:
            raise ValueError(f"unknown atom kind: {kind!r}")
        self.kind = kind
        self._index: dict[str, int] = {}
        self._up: dict[str, dict[str, set[str]]] = {}
        self._down: dict[str, dict[str, set[str]]] = {}
        self._reach: list[int] | None = None
        self.version = 0

    # -- construction -------------------------------------------------

    def add_atom(self, ident: str) -> str:
        """Register an atom and return its normalized id; re-registering
        the same id is a no-op."""
        ident = validate_id(normalize_id(ident))
        if ident not in self._index:
            self._index[ident] = len(self._index)
            self._up[ident] = {}
            self._down[ident] = {}
            self._reach = None
        return ident

    def declare(self, lower: str, upper: str, label: str) -> Preorder:
        """Record lower <= upper with the given relation label.  No edge
        may leave the kind's phrase bound, ``something`` or ``do``."""
        lo, hi = self.atom(lower), self.atom(upper)
        self._check_label(label)
        bound = TOP_NOUN if self.kind == NOUN else TOP_VERB
        if lo == bound:
            # The phrase bounds hold beside the declared edges, so an edge
            # out of one would break transitivity; edges into them are fine.
            raise BoundEdge(f"no edge may leave the {self.kind} {bound!r}, a phrase bound")
        labels = self._up[lo].get(hi)
        if labels is None:
            labels = self._up[lo][hi] = self._down[hi][lo] = set()
            self._reach = None
            self.version += 1
        labels.add(label)
        return self

    # -- lookups ------------------------------------------------------

    def atom(self, ident: str) -> str:
        """The id itself, if registered."""
        if ident not in self._index:
            raise UnknownAtom(f"unknown {self.kind}: {ident!r}")
        return ident

    def __contains__(self, ident: str) -> bool:
        return ident in self._index

    def atoms(self) -> tuple[str, ...]:
        return tuple(self._index)

    def labels_between(self, lower: str, upper: str) -> frozenset[str]:
        """Labels on the directly declared edge lower -> upper, if any."""
        return frozenset(self._up.get(lower, {}).get(upper, ()))

    def direct_uppers(self, ident: str) -> list[str]:
        return sorted(self._up.get(ident, ()))

    def direct_lowers(self, ident: str) -> list[str]:
        return sorted(self._down.get(ident, ()))

    # -- order queries ------------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        """a <= b for registered ids."""
        return self.reaches(self.atom(a), self.atom(b))

    def reaches(self, frm: str, to: str) -> bool:
        """frm <= to for registered ids, no lookups or checks."""
        index = self._index
        reach = self._reach
        if reach is None:
            edges = [(index[lo], index[hi]) for lo, ups in self._up.items() for hi in ups]
            reach = self._reach = reach_closure(len(index), edges)
        return bool(reach[index[frm]] >> index[to] & 1)

    def generalizations(self, ident: str, label: str | None = None) -> set[str]:
        """The id and everything above it, optionally through chains of
        edges carrying one label."""
        return self._walk(ident, self._up, label)

    def specializations(self, ident: str, label: str | None = None) -> set[str]:
        """The id and everything below it, optionally through chains of
        edges carrying one label."""
        return self._walk(ident, self._down, label)

    # -- internals ----------------------------------------------------

    def _check_label(self, label: str) -> None:
        if label not in LABELS_BY_KIND[self.kind]:
            raise KindMismatch(f"label {label!r} does not apply to {self.kind} atoms")

    def _walk(self, ident: str, adjacency, label: str | None) -> set[str]:
        if label is not None:
            self._check_label(label)
        seen = {self.atom(ident)}
        stack = [ident]
        while stack:
            for nxt, labels in adjacency[stack.pop()].items():
                if nxt not in seen and (label is None or label in labels):
                    seen.add(nxt)
                    stack.append(nxt)
        return seen
