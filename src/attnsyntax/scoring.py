"""Consistency-based precision/recall between extracted and reference trees.

A span e is consistent with a span set P when it crosses no p in P, i.e.
for every p: disjoint, or p inside e, or e inside p.  Precision counts the
extracted tree's spans consistent with the reference span set; recall
counts the reference spans consistent with the extracted span set.  Counts
are pooled over sentences before dividing (micro-average).

``score`` reads an extracted tree as its preorder tuple of spans and
checks each span in O(1).  Recall: a reference span crosses no span of a
strictly binary tree exactly when it is one of them, because any other
span crosses a child of the smallest node around it.  Precision: an
extracted span (a, b) crosses no reference span exactly when
``first_end[a] >= b and last_start[b] <= a``, two arrays a reference tree
computes once however often it is scored (``ConstituencyTree.boundaries``).
``score_spans`` compares two arbitrary span sets pair by pair and is the
reference for both rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .attn_io import Span
from .errors import AlignmentError
from .treebank import ConstituencyTree
from .trees import SpanTree


class CountingPolicy(enum.Enum):
    """Which spans are counted: all of them, or only the informative ones
    (length-1 spans and the full-sentence span are consistent by
    construction and excluded under NONTRIVIAL, the default)."""

    ALL = "all"
    NONTRIVIAL = "nontrivial"


def crosses(e: Span, p: Span) -> bool:
    """True when the spans overlap without one containing the other."""
    (a1, b1), (a2, b2) = e, p
    overlap = a1 <= b2 and a2 <= b1
    nested = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
    return overlap and not nested


def is_consistent(e: Span, phrase_spans: Iterable[Span]) -> bool:
    return not any(crosses(e, p) for p in phrase_spans)


@dataclass(frozen=True)
class EvalReport:
    """Pooled consistency counts with derived precision/recall/F1."""

    extracted_phrases_total: int = 0
    extracted_consistent: int = 0
    gold_phrases_total: int = 0
    gold_consistent: int = 0

    @property
    def precision(self) -> float:
        # an empty claim set is vacuously correct
        if self.extracted_phrases_total == 0:
            return 1.0
        return self.extracted_consistent / self.extracted_phrases_total

    @property
    def recall(self) -> float:
        if self.gold_phrases_total == 0:
            return 1.0
        return self.gold_consistent / self.gold_phrases_total

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)

    def merged(self, other: "EvalReport") -> "EvalReport":
        return EvalReport(
            self.extracted_phrases_total + other.extracted_phrases_total,
            self.extracted_consistent + other.extracted_consistent,
            self.gold_phrases_total + other.gold_phrases_total,
            self.gold_consistent + other.gold_consistent,
        )

    @staticmethod
    def aggregate(reports: Iterable["EvalReport"]) -> "EvalReport":
        total = EvalReport()
        for report in reports:
            total = total.merged(report)
        return total


def _span_array(spans: Iterable[Span]) -> np.ndarray:
    """Distinct spans as an (m, 2) int64 array of (start, end) rows."""
    return np.array(list(set(spans)), dtype=np.int64).reshape(-1, 2)


def _countable(spans: np.ndarray, n: int, counting: CountingPolicy) -> np.ndarray:
    """Boolean mask of the spans the counting policy counts."""
    if counting is CountingPolicy.ALL:
        return np.ones(len(spans), dtype=bool)
    a, b = spans[:, 0], spans[:, 1]
    return (b > a) & ~((a == 1) & (b == n))


def score_spans(
    extracted_spans: Iterable[Span],
    gold_spans: Iterable[Span],
    n: int,
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> EvalReport:
    """Score two span sets over the same 1..n index space.

    Crossing is always checked against the full span set of the other side;
    the counting policy only filters which spans are counted.  The checks
    are one |E| x |G| array comparison, elementwise the same as ``crosses``.
    """
    extracted = _span_array(extracted_spans)
    gold = _span_array(gold_spans)
    a1, b1 = extracted[:, :1], extracted[:, 1:]  # column vectors: rows are E
    a2, b2 = gold[:, 0], gold[:, 1]  # row vectors: columns are G
    overlap = (a1 <= b2) & (a2 <= b1)
    nested = ((a1 <= a2) & (b2 <= b1)) | ((a2 <= a1) & (b1 <= b2))
    crossing = overlap & ~nested
    countable_extracted = _countable(extracted, n, counting)
    countable_gold = _countable(gold, n, counting)
    return EvalReport(
        extracted_phrases_total=int(countable_extracted.sum()),
        extracted_consistent=int((countable_extracted & ~crossing.any(axis=1)).sum()),
        gold_phrases_total=int(countable_gold.sum()),
        gold_consistent=int((countable_gold & ~crossing.any(axis=0)).sum()),
    )


def score(
    extracted: SpanTree,
    gold: ConstituencyTree,
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> EvalReport:
    """Per-sentence report for an extracted tree against a reference tree,
    by the module docstring's two O(1) rules; the counts equal
    ``score_spans`` on the two span sets."""
    preorder = extracted.preorder
    start, end = preorder[0]
    n = end - start + 1
    if start != 1:
        raise AlignmentError(f"extracted tree must start at position 1, got {(start, end)}")
    if gold.n != n:
        raise AlignmentError(
            f"extracted tree covers {n} subwords but the reference tree has {gold.n}"
        )
    first_end, last_start = gold.boundaries()
    if counting is CountingPolicy.ALL:
        counted_extracted, counted_gold = preorder, gold.spans()
    else:  # preorder[0] is the root, the only extracted span (1, n)
        counted_extracted = [(a, b) for a, b in preorder[1:] if a < b]
        counted_gold = [(a, b) for a, b in gold.spans() if a < b and (a, b) != (1, n)]
    extracted_spans = set(preorder)
    return EvalReport(
        extracted_phrases_total=len(counted_extracted),
        extracted_consistent=sum(
            first_end[a] >= b and last_start[b] <= a for a, b in counted_extracted
        ),
        gold_phrases_total=len(counted_gold),
        gold_consistent=sum(span in extracted_spans for span in counted_gold),
    )
