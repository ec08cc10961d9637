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
``score_arrays`` applies the same two rules to many lines at once, and
``reference_masks`` with ``score_nodes`` to many trees of one sentence,
as masks over its chart's spans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AlignmentError
from .treebank import ConstituencyTree, ReferenceArrays, repeated_keys, span_keys
from .trees import SpanTree, SpanTreeArrays


class CountingPolicy(enum.Enum):
    """Which spans are counted: all of them, or only the informative ones
    (length-1 spans and the full-sentence span are consistent by
    construction and excluded under NONTRIVIAL, the default)."""

    ALL = "all"
    NONTRIVIAL = "nontrivial"


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


def score(
    extracted: SpanTree,
    gold: ConstituencyTree,
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> EvalReport:
    """Per-sentence report for an extracted tree against a reference tree,
    by the module docstring's two O(1) rules."""
    preorder = extracted.preorder
    start, end = preorder[0]
    n = end - start + 1
    if start != 1:
        raise AlignmentError(f"extracted tree must start at position 1, got {(start, end)}")
    if gold.n != n:
        raise AlignmentError(
            f"extracted tree covers {n} subwords but the reference tree has {gold.n}"
        )
    first_end, last_start = gold.boundaries
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


def score_arrays(
    extracted: SpanTreeArrays,
    gold: ReferenceArrays,
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> list[EvalReport]:
    """``score`` of each line's extracted tree against its reference tree,
    both as arrays over the lines, by the same two O(1) rules: recall by
    looking each reference span up among the extracted nodes, precision
    by the reference trees' boundary arrays."""
    n_lines = len(extracted.n)
    n = extracted.n
    line, a, b = extracted.line[n_lines:], extracted.a[n_lines:], extracted.b[n_lines:]
    slot = (np.cumsum(n) - n + np.arange(n_lines))[line]  # where each line's boundaries begin
    consistent = (gold.first_end[slot + a] >= b) & (gold.last_start[slot + b] <= a)
    # the nodes of a tree are distinct and so are the spans of a
    # reference tree, so a span that occurs twice is in both
    keys = np.concatenate((extracted.keys, span_keys(gold.line, gold.starts, gold.ends, n)))
    counts = [
        n - 2,
        np.bincount(line[consistent], minlength=n_lines),
        np.bincount(gold.line, minlength=n_lines),
        repeated_keys(keys, n),
    ]
    if counting is CountingPolicy.ALL:
        # every leaf and the root are consistent both ways, and so is the
        # reference root (1, n)
        counts = [2 * n - 1, counts[1] + n + 1, counts[2] + 1, counts[3] + 1]
    return list(map(EvalReport, *(c.tolist() for c in counts)))


def reference_masks(
    gold: ConstituencyTree,
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> np.ndarray:
    """What ``score`` reads of a reference tree, as a (2, n+1, n+1) bool
    array over spans (a, b): [0] the extracted spans it counts that cross
    no reference span, by the boundary rule, and [1] the reference spans
    it counts.  ``score_nodes`` scores trees of nodes against them."""
    n = gold.n
    first_end, last_start = (np.array(bound) for bound in gold.boundaries)
    a, b = np.indices((n + 1, n + 1))
    counted = (a >= 1) & (a <= b) & (b <= n)
    if counting is not CountingPolicy.ALL:
        counted &= a < b
        counted[1, n] = False
    masks = np.zeros((2, n + 1, n + 1), dtype=bool)
    masks[0] = counted & (first_end[a] >= b) & (last_start[b] <= a)
    for start, end in gold.spans():
        masks[1, start, end] = counted[start, end]
    return masks


def score_nodes(nodes: np.ndarray, masks: np.ndarray,
                counting: CountingPolicy = CountingPolicy.NONTRIVIAL) -> np.ndarray:
    """``score``'s four counts, in ``EvalReport``'s field order, of each of
    many trees over 1..n against one reference tree: a (trees, 4) int64
    array.

    ``nodes`` is ``trees.tree_nodes``' (trees, n+1, n+1) marks and
    ``masks`` the reference tree's ``reference_masks`` under ``counting``.
    A strictly binary tree has n leaves and n - 1 phrases, the root among
    them, so the count of its extracted spans depends on n alone; the
    other counts are the nodes under each mask, and the reference spans.
    """
    n = nodes.shape[-1] - 1
    flat = nodes.reshape(len(nodes), -1)
    consistent, reference = masks.reshape(2, -1)
    counts = np.empty((len(nodes), 4), dtype=np.int64)
    counts[:, 0] = 2 * n - 1 if counting is CountingPolicy.ALL else max(n - 2, 0)
    counts[:, 1] = np.count_nonzero(flat & consistent, axis=1)
    counts[:, 2] = np.count_nonzero(reference)
    counts[:, 3] = np.count_nonzero(flat & reference, axis=1)
    return counts
