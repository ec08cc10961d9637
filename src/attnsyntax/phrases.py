"""Harden attention matrices, detect balusters, and weight candidate phrases.

The pipeline per head: keep only the maximal weight on each attention row
(hardening), find maximal runs of consecutive output rows that share their
argmax column (balusters), and emit the run's full span as a candidate
phrase weighted by the run's mean retained attention.  Per sentence, the
weights of identical spans from different heads are summed, then rescaled
so that phrases of each length average to weight 1.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .attn_io import AttentionDump, Head, Span


def harden(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep each row's maximal weight, zeroing the rest; ties go leftmost.

    Returns ``(cols, weight)``: per output row the 1-based argmax column
    and the retained maximum.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    cols = m.argmax(axis=1)  # first occurrence = leftmost tie-break
    return cols + 1, m[np.arange(m.shape[0]), cols]


class Baluster(NamedTuple):
    """A maximal run of >= 2 consecutive rows attending to one column.  A
    named tuple, since ``extract`` builds thousands per command."""

    head: Head
    span: Span  # 1-based inclusive output rows (a, b), b >= a + 1
    target_col: int
    mean_weight: float


def find_balusters(hardened: tuple[np.ndarray, np.ndarray], head: Head) -> list[Baluster]:
    """Maximal same-column runs of length >= 2 of ``harden``'s result, in
    row order."""
    cols, weight = hardened
    cols = cols.tolist()  # Python ints compare faster than numpy scalars
    n = len(cols)
    out: list[Baluster] = []
    start = 0
    for i in range(1, n + 1):
        if i < n and cols[i] == cols[start]:
            continue
        if i - start >= 2:
            out.append(
                Baluster(
                    head=head,
                    span=(start + 1, i),
                    target_col=cols[start],
                    # the one sum and division that weight[start:i].mean() makes
                    mean_weight=float(np.add.reduce(weight[start:i])) / (i - start),
                )
            )
        start = i
    return out


def equalize(raw: Mapping[Span, float]) -> dict[Span, float]:
    """Rescale weights so the mean over each represented length equals 1.

    Each length's total is a left fold in ``raw``'s order, written out:
    from Python 3.12 ``sum`` adds floats with compensation, which would
    make the weights depend on the interpreter.
    """
    by_length: dict[int, list[Span]] = {}
    for (a, b) in raw:
        by_length.setdefault(b - a + 1, []).append((a, b))
    equalized: dict[Span, float] = {}
    for length, spans in by_length.items():
        total = 0.0
        for s in spans:
            total += raw[s]
        if total == 0.0:
            raise ValueError(
                f"cannot equalize length {length}: the weights of {spans} sum to 0"
            )
        for s in spans:
            equalized[s] = raw[s] * len(spans) / total
    return equalized


HeadPhrases = tuple[tuple[Span, float], ...]


def head_phrases(dump: AttentionDump, head: Head) -> HeadPhrases:
    """One head's candidate phrases: (span, mean weight) of each baluster
    with a positive mean weight, in row order."""
    hardened = harden(dump.matrix(*head))
    return tuple(
        (baluster.span, baluster.mean_weight)
        for baluster in find_balusters(hardened, head)
        if baluster.mean_weight > 0.0
    )


def pool_phrases(per_head: Mapping[Head, HeadPhrases]) -> dict[Span, tuple[float, float]]:
    """Sum the phrase weights of the given heads and equalize per length.

    The phrase table maps each span, in ascending order, to its (raw,
    equalized) weight; an absent span weighs 0.  Heads are visited in
    sorted order so the floating-point sums do not depend on how the
    mapping was assembled.  No heads give an empty table.
    """
    raw: dict[Span, float] = {}
    for head in sorted(per_head):
        for span, weight in per_head[head]:
            raw[span] = raw.get(span, 0.0) + weight
    equalized = equalize(raw)
    return {span: (raw[span], equalized[span]) for span in sorted(raw)}


def build_phrase_table(dump: AttentionDump,
                       heads: Iterable[Head]) -> dict[Span, tuple[float, float]]:
    """Sum baluster weights over the given 1-based (layer, head) pairs and
    equalize per length."""
    per_head = {head: head_phrases(dump, head) for head in sorted(heads)}
    if not per_head:
        raise ValueError("empty head mask")
    return pool_phrases(per_head)
