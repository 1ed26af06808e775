"""Specificity preorders over noun and verb atoms.

The ordering reads "lower is more specific": potato <= vegetable, fly <=
travel.  Only positive atoms and positive edges are stored; a negative
literal query is answered by flipping the positive order (not-b <= not-a
whenever a <= b), so contraposition holds by construction rather than by
data discipline.  Cycles are allowed and mean mutual entailment, which is
how synonyms come out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._kernel import reach_closure
from .errors import KindMismatch, UnknownAtom

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


@dataclass(frozen=True, slots=True)
class Atom:
    id: str
    kind: str


@dataclass(frozen=True, slots=True)
class Literal:
    """A signed atom; negating twice gives back the original literal."""

    atom: Atom
    negated: bool = False

    def negate(self) -> Literal:
        return Literal(self.atom, not self.negated)

    @property
    def id(self) -> str:
        return self.atom.id


class Preorder:
    """A labeled preorder over atoms of a single kind.

    Reflexivity is implicit and transitivity is computed, never stored.
    Each declared edge is stored once, as a label set shared by the
    ``_up`` and ``_down`` adjacency maps.  Point queries (``reaches``,
    ``leq``) read one unlabelled closure built on first use; set queries
    (``generalizations``, ``specializations``) walk the declared edges.
    Mutation (registering atoms, declaring edges) happens while a
    knowledge base is loaded; afterwards all queries are read-only.
    """

    def __init__(self, kind: str):
        if kind not in LABELS_BY_KIND:
            raise ValueError(f"unknown atom kind: {kind!r}")
        self.kind = kind
        self._atoms: dict[str, Atom] = {}
        self._index: dict[str, int] = {}
        self._up: dict[str, dict[str, set[str]]] = {}
        self._down: dict[str, dict[str, set[str]]] = {}
        self._reach: list[int] | None = None

    # -- construction -------------------------------------------------

    def add_atom(self, ident: str) -> Atom:
        """Register an atom id; re-registering the same id is a no-op."""
        ident = validate_id(normalize_id(ident))
        atom = self._atoms.get(ident)
        if atom is None:
            atom = Atom(ident, self.kind)
            self._index[ident] = len(self._atoms)
            self._atoms[ident] = atom
            self._up[ident] = {}
            self._down[ident] = {}
            self._reach = None
        return atom

    def declare(self, lower, upper, label: str) -> Preorder:
        """Record lower <= upper with the given relation label."""
        lo = self._resolve(lower)
        hi = self._resolve(upper)
        if label not in LABELS_BY_KIND[self.kind]:
            raise KindMismatch(
                f"label {label!r} does not apply to {self.kind} atoms"
            )
        labels = self._up[lo.id].get(hi.id)
        if labels is None:
            labels = self._up[lo.id][hi.id] = self._down[hi.id][lo.id] = set()
            self._reach = None
        labels.add(label)
        return self

    # -- lookups ------------------------------------------------------

    def atom(self, ident: str) -> Atom:
        try:
            return self._atoms[ident]
        except KeyError:
            raise UnknownAtom(f"unknown {self.kind}: {ident!r}") from None

    def __contains__(self, ident: str) -> bool:
        return ident in self._atoms

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(self._atoms.values())

    def labels_between(self, lower: str, upper: str) -> frozenset[str]:
        """Labels on the directly declared edge lower -> upper, if any."""
        return frozenset(self._up.get(lower, {}).get(upper, ()))

    def direct_uppers(self, ident: str) -> list[str]:
        return sorted(self._up.get(ident, ()))

    def direct_lowers(self, ident: str) -> list[str]:
        return sorted(self._down.get(ident, ()))

    # -- order queries ------------------------------------------------

    def leq(self, a, b) -> bool:
        """Literal order: positive pairs follow the edges, negative pairs
        follow them backwards, mixed polarity is never comparable."""
        la = self._as_literal(a)
        lb = self._as_literal(b)
        if la.negated != lb.negated:
            return False
        if la.negated:
            return self.reaches(lb.id, la.id)
        return self.reaches(la.id, lb.id)

    def reaches(self, frm: str, to: str) -> bool:
        """frm <= to for registered positive atom ids, no lookups or checks."""
        index = self._index
        reach = self._reach
        if reach is None:
            edges = [(index[lo], index[hi]) for lo, ups in self._up.items() for hi in ups]
            reach = self._reach = reach_closure(len(index), edges)
        return bool(reach[index[frm]] >> index[to] & 1)

    def generalizations(self, a) -> set[Literal]:
        """Everything the literal entails upward, itself included."""
        lit = self._as_literal(a)
        return self._walk(lit, self._down if lit.negated else self._up)

    def specializations(self, a, label: str | None = None) -> set[Literal]:
        """Everything that entails the literal, optionally restricted to
        chains of edges carrying one label."""
        if label is not None and label not in LABELS_BY_KIND[self.kind]:
            raise KindMismatch(f"label {label!r} does not apply to {self.kind} atoms")
        lit = self._as_literal(a)
        return self._walk(lit, self._up if lit.negated else self._down, label)

    # -- internals ----------------------------------------------------

    def _resolve(self, ref) -> Atom:
        if isinstance(ref, Literal):
            ref = ref.atom
        if isinstance(ref, Atom):
            if ref.kind != self.kind:
                raise KindMismatch(f"expected a {self.kind} atom, got {ref.kind}")
            ref = ref.id
        ident = normalize_id(ref)
        return self.atom(ident)

    def _as_literal(self, ref) -> Literal:
        if isinstance(ref, Literal):
            atom = self._resolve(ref.atom)
            return Literal(atom, ref.negated)
        return Literal(self._resolve(ref), False)

    def _walk(self, lit: Literal, adjacency, label: str | None = None) -> set[Literal]:
        """The literal plus every atom reached along ``adjacency``, through
        edges carrying ``label`` if one is given, with the literal's sign."""
        seen = {lit.id}
        stack = [lit.id]
        while stack:
            for nxt, labels in adjacency[stack.pop()].items():
                if nxt not in seen and (label is None or label in labels):
                    seen.add(nxt)
                    stack.append(nxt)
        return {Literal(self._atoms[i], lit.negated) for i in seen}
