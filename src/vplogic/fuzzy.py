"""Verb/noun-category pairs, membership degrees, and frequency adverbs.

A pair like eat~food licenses statements about items under the category:
a membership degree in [0, 1], possibly different per subject, is mapped
to a frequency adverb ("often" down to "never"), and possibility holds
when the item sits under the category with nonzero degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoDegree, NoIso, OutOfRange
from .order import normalize_id


@dataclass(frozen=True, slots=True)
class NVIso:
    """A mutually defining verb and noun category, e.g. eat~food."""

    verb: str
    category: str


@dataclass(frozen=True, slots=True)
class AdverbScale:
    """Descending thresholds partitioning [0, 1] into adverb buckets.

    Every bucket is closed below and open above, except the top bucket
    which is closed at 1.  The default reads: often from 0.7, more or
    less from 0.4, less likely from 0.2, rarely from 0.05, never below.
    """

    thresholds: tuple[tuple[float, str], ...] = (
        (0.7, "often"),
        (0.4, "more or less"),
        (0.2, "less likely"),
        (0.05, "rarely"),
        (0.0, "never"),
    )

    def __post_init__(self):
        cuts = [cut for cut, _ in self.thresholds]
        if not cuts or cuts[-1] != 0.0 or any(a <= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("thresholds must strictly descend and end at 0")

    def bucket_index(self, degree: float) -> int:
        for i, (cut, _) in enumerate(self.thresholds):
            if degree >= cut:
                return len(self.thresholds) - 1 - i
        raise OutOfRange(f"degree must lie in [0, 1], got {degree}")


DEFAULT_SCALE = AdverbScale()


def adverb_for(scale: AdverbScale, degree: float) -> str:
    """The unique adverb bucket containing the degree."""
    if not 0.0 <= degree <= 1.0:
        raise OutOfRange(f"degree must lie in [0, 1], got {degree}")
    for cut, adverb in scale.thresholds:
        if degree >= cut:
            return adverb
    raise OutOfRange(f"degree must lie in [0, 1], got {degree}")


def _require_iso(kb, iso: NVIso) -> NVIso:
    verb = normalize_id(iso.verb)
    category = normalize_id(iso.category)
    if not kb.has_iso(verb, category):
        raise NoIso(f"no declared pair {verb}~{category}")
    return NVIso(verb, category)


def fuzzy_statement(kb, subject: str, iso: NVIso, item: str,
                    scale: AdverbScale = DEFAULT_SCALE) -> str:
    """Frequency statement like "american rarely eat seaweed"."""
    iso = _require_iso(kb, iso)
    subject = normalize_id(subject)
    item = kb.nouns.atom(normalize_id(item)).id
    degree = kb.degree(subject, item, iso.category)
    if degree is None:
        raise NoDegree(f"no degree for {item!r} in {iso.category!r} (subject {subject!r})")
    return f"{subject} {adverb_for(scale, degree)} {iso.verb} {item}"


def possibility(kb, subject: str, iso: NVIso, item: str) -> bool:
    """Can the subject do the verb to the item at all?

    Requires the item to sit under the category; a missing degree counts
    as possible, a zero degree does not.
    """
    iso = _require_iso(kb, iso)
    item = kb.nouns.atom(normalize_id(item)).id
    if not kb.nouns.leq(item, iso.category):
        return False
    degree = kb.degree(subject, item, iso.category)
    return degree is None or degree > 0.0
