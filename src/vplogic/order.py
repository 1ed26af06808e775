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
    Mutation (registering atoms, declaring edges) happens while a
    knowledge base is loaded; afterwards all queries are read-only.
    """

    def __init__(self, kind: str):
        if kind not in LABELS_BY_KIND:
            raise ValueError(f"unknown atom kind: {kind!r}")
        self.kind = kind
        self._atoms: dict[str, Atom] = {}
        self._order: list[str] = []
        self._index: dict[str, int] = {}
        self._edges: set[tuple[str, str, str]] = set()
        self._up: dict[str, dict[str, set[str]]] = {}
        self._down: dict[str, dict[str, set[str]]] = {}
        # Closure rows per label: up-sets, and down-sets (the closure of
        # the reversed edges), each built on first use.
        self._up_rows: dict[str | None, list[int]] = {}
        self._down_rows: dict[str | None, list[int]] = {}

    # -- construction -------------------------------------------------

    def add_atom(self, ident: str) -> Atom:
        """Register an atom id; re-registering the same id is a no-op."""
        ident = validate_id(normalize_id(ident))
        atom = self._atoms.get(ident)
        if atom is None:
            atom = Atom(ident, self.kind)
            self._atoms[ident] = atom
            self._index[ident] = len(self._order)
            self._order.append(ident)
            self._up[ident] = {}
            self._down[ident] = {}
            self._up_rows.clear()
            self._down_rows.clear()
        return atom

    def declare(self, lower, upper, label: str) -> Preorder:
        """Record lower <= upper with the given relation label."""
        lo = self._resolve(lower)
        hi = self._resolve(upper)
        if label not in LABELS_BY_KIND[self.kind]:
            raise KindMismatch(
                f"label {label!r} does not apply to {self.kind} atoms"
            )
        edge = (lo.id, hi.id, label)
        if edge not in self._edges:
            self._edges.add(edge)
            self._up[lo.id].setdefault(hi.id, set()).add(label)
            self._down[hi.id].setdefault(lo.id, set()).add(label)
            self._up_rows.clear()
            self._down_rows.clear()
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
        return tuple(self._atoms[i] for i in self._order)

    def edges(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(sorted(self._edges))

    def labels_between(self, lower: str, upper: str) -> frozenset[str]:
        """Labels on the directly declared edge lower -> upper, if any."""
        return frozenset(self._up.get(lower, {}).get(upper, ()))

    def direct_uppers(self, ident: str, label: str | None = None) -> list[str]:
        ups = self._up.get(ident, {})
        return sorted(u for u, labels in ups.items() if label is None or label in labels)

    def direct_lowers(self, ident: str, label: str | None = None) -> list[str]:
        downs = self._down.get(ident, {})
        return sorted(d for d, labels in downs.items() if label is None or label in labels)

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
        return bool(self._closure()[index[frm]] >> index[to] & 1)

    def generalizations(self, a) -> set[Literal]:
        """Everything the literal entails upward, itself included."""
        lit = self._as_literal(a)
        if lit.negated:
            ids = self._down_ids(lit.id)
        else:
            ids = self._up_ids(lit.id)
        return {Literal(self._atoms[i], lit.negated) for i in ids}

    def specializations(self, a, label: str | None = None) -> set[Literal]:
        """Everything that entails the literal, optionally restricted to
        chains of edges carrying one label."""
        if label is not None and label not in LABELS_BY_KIND[self.kind]:
            raise KindMismatch(f"label {label!r} does not apply to {self.kind} atoms")
        lit = self._as_literal(a)
        if lit.negated:
            ids = self._up_ids(lit.id, label)
        else:
            ids = self._down_ids(lit.id, label)
        return {Literal(self._atoms[i], lit.negated) for i in ids}

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

    def _closure(self, label: str | None = None, reverse: bool = False) -> list[int]:
        cache = self._down_rows if reverse else self._up_rows
        reach = cache.get(label)
        if reach is None:
            index = self._index
            edges = [
                (index[hi], index[lo]) if reverse else (index[lo], index[hi])
                for lo, hi, lab in self._edges
                if label is None or lab == label
            ]
            reach = reach_closure(len(self._order), edges)
            cache[label] = reach
        return reach

    def _up_ids(self, ident: str, label: str | None = None) -> list[str]:
        return self._decode(self._closure(label)[self._index[ident]])

    def _down_ids(self, ident: str, label: str | None = None) -> list[str]:
        return self._decode(self._closure(label, reverse=True)[self._index[ident]])

    def _decode(self, row: int) -> list[str]:
        out = []
        while row:
            bit = row & -row
            out.append(self._order[bit.bit_length() - 1])
            row ^= bit
        return out
