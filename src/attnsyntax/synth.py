"""Synthetic attention dumps: seeded random baselines and planted trees.

``random_attention_baseline`` is the ``rand.attn`` baseline: every row of
every head is an independent uniform draw from the probability simplex,
deterministic in the seed.  Note this differs from running the extraction
on a randomly *initialized* encoder; it is a weaker, model-free stand-in.

``planted_dump`` builds a dump whose balusters are exactly the internal
spans of a given binary tree, which the extraction pipeline should
recover; it anchors the recovery tests and the synthetic benchmark.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .attn_io import DEFAULT_EOS, AttentionDump, Span
from .trees import SpanTree, tree_from_splits


def _default_subwords(n: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(1, n)) + (DEFAULT_EOS,)


def random_attention_baseline(
    seed,
    n: int,
    layers: int,
    heads: int,
    sentence_id: str | None = None,
    subwords: Sequence[str] | None = None,
) -> AttentionDump:
    """A dump whose rows are seeded uniform draws from the simplex."""
    if n < 1 or layers < 1 or heads < 1:
        raise ValueError("n, layers and heads must all be >= 1")
    rng = np.random.default_rng(seed)
    matrices = rng.dirichlet(np.ones(n), size=(layers, heads, n))
    if subwords is None:
        subwords = _default_subwords(n)
    if sentence_id is None:
        sentence_id = f"rand-{seed}"
    return AttentionDump(sentence_id, tuple(subwords), matrices)


def random_binary_tree(rng: np.random.Generator, n: int) -> SpanTree:
    """Uniformly random split point at every node, drawn in preorder."""
    return tree_from_splits(n, lambda a, b: int(rng.integers(a, b)))


def baluster_matrix(n: int, spans: Sequence[Span], weight: float = 1.0) -> np.ndarray:
    """NxN stochastic matrix whose balusters are exactly the given spans.

    Rows inside each span attend to the span's first column with the given
    weight (remainder spread over the other columns); all other rows sit on
    the diagonal, which produces no runs of length >= 2.  Spans must be
    pairwise disjoint.
    """
    if not 1.0 / n <= weight <= 1.0:
        raise ValueError(f"weight {weight} cannot be a row maximum for n={n}")
    targets = np.arange(n)  # diagonal default
    for a, b in spans:
        if not (1 <= a < b <= n):
            raise ValueError(f"bad baluster span ({a},{b}) for n={n}")
        if np.any(targets[a - 1 : b] != np.arange(a - 1, b)):
            raise ValueError(f"baluster span ({a},{b}) overlaps another span")
        targets[a - 1 : b] = a - 1
    if n == 1:
        return np.ones((1, 1))
    matrix = np.full((n, n), (1.0 - weight) / (n - 1))
    matrix[np.arange(n), targets] = weight
    return matrix


def planted_dump(
    tree: SpanTree,
    sentence_id: str = "planted",
    subwords: Sequence[str] | None = None,
    weight: float = 1.0,
) -> AttentionDump:
    """One-layer dump whose balusters are exactly the tree's internal spans.

    Nested spans cannot share a head, so spans are first-fit packed into as
    few heads as needed.
    """
    if tree.span[0] != 1:
        raise ValueError(f"tree must start at position 1, got span {tree.span}")
    n = tree.span[1]
    internal = sorted(s for s in tree.spans() if s[1] > s[0])
    head_spans: list[list[Span]] = []
    for span in internal:
        for spans in head_spans:
            if all(span[1] < a or b < span[0] for a, b in spans):
                spans.append(span)
                break
        else:
            head_spans.append([span])
    if not head_spans:
        head_spans = [[]]
    matrices = np.stack(
        [baluster_matrix(n, spans, weight=weight) for spans in head_spans]
    )[np.newaxis, :, :, :]
    if subwords is None:
        subwords = _default_subwords(n)
    return AttentionDump(sentence_id, tuple(subwords), matrices)
