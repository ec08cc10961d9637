"""Binary span trees: CKY extraction, balanced baselines, bracketed I/O,
and ``span_tree_arrays``, the array pass that reads many extracted lines.

The chart recursion scores a span (a, b) as the best split k of

    s[a,b] = max_k (s[a,k] + s[k+1,b] + w[a,k] + w[k+1,b]) / 4

with s[a,a] = 1 and w taken from the phrase table (0 for absent spans).
Averaging keeps subtree scores on one scale regardless of span size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .attn_io import AttentionDump, Head, Span
from .errors import TreeParseError
from .phrases import build_phrase_table
from .treebank import BracketArrays, bracket_tokens, pair_parens, repeated_keys, span_keys


@dataclass(frozen=True)
class SpanTree:
    """Strictly binary tree over 1-based inclusive subword spans.

    The tree is one tuple, ``preorder``: a node's span, then its left
    subtree, then its right subtree.  A left child (a, k) takes the next
    2(k - a + 1) - 1 entries and the right subtree the rest, so ``left``
    and ``right`` are slices.  Equality and hashing are the tuple's: the
    children partition their parent, so the spans fix the tree.  Only
    ``node`` checks its input: that its two children are adjacent.
    """

    preorder: tuple[Span, ...]

    @staticmethod
    def leaf(i: int) -> "SpanTree":
        return SpanTree(((i, i),))

    @staticmethod
    def node(left: "SpanTree", right: "SpanTree") -> "SpanTree":
        (a, k), (k1, b) = left.preorder[0], right.preorder[0]
        if k + 1 != k1:
            raise ValueError(f"children {(a, k)} + {(k1, b)} are not adjacent")
        return SpanTree(((a, b),) + left.preorder + right.preorder)

    @property
    def span(self) -> Span:
        return self.preorder[0]

    @property
    def left(self) -> "SpanTree | None":
        return None if self.is_leaf else SpanTree(self.preorder[1 : self._right_start])

    @property
    def right(self) -> "SpanTree | None":
        return None if self.is_leaf else SpanTree(self.preorder[self._right_start :])

    @property
    def _right_start(self) -> int:
        a, k = self.preorder[1]
        return 2 * (k - a + 1)

    @property
    def is_leaf(self) -> bool:
        return len(self.preorder) == 1

    @property
    def n(self) -> int:
        return self.span[1] - self.span[0] + 1

    def spans(self) -> frozenset[Span]:
        """Spans of all nodes, leaves included."""
        return frozenset(self.preorder)

    def to_bracketed(self, tokens: Sequence[str]) -> str:
        """Render with leaves replaced by tokens; parens inside tokens are
        escaped.  One pass over ``preorder``, so any depth is rendered."""
        if len(tokens) < self.span[1]:
            raise ValueError(
                f"need {self.span[1]} tokens to render span {self.span}, got {len(tokens)}"
            )
        parts: list[str] = []
        open_ends: list[int] = []  # ends of the nodes opened and not yet closed
        for a, b in self.preorder:
            if a < b:
                parts.append("(")
                open_ends.append(b)
                continue
            parts.append(_escape_token(tokens[a - 1]))
            # leaf a ends every open node that ends at a; the next entry
            # is the right child of the innermost node still open
            while open_ends and open_ends[-1] == a:
                open_ends.pop()
                parts.append(")")
            if open_ends:
                parts.append(" ")
        return "".join(parts)


def _escape_token(token: str) -> str:
    return token.replace("(", "-LRB-").replace(")", "-RRB-")


def _unescape_token(token: str) -> str:
    return token.replace("-LRB-", "(").replace("-RRB-", ")")


def parse_span_tree(line: str) -> tuple[SpanTree, tuple[str, ...]]:
    """Parse one bracketed, unlabeled, strictly binary tree line.

    Returns the tree over 1-based leaf positions plus the leaf tokens.
    A node's preorder slot is reserved at its ``(`` and filled at its
    ``)``; the parse keeps its own stack, so a tree of any depth is read.
    """
    tokens: list[str] = []
    items = bracket_tokens(line)
    if not items:
        raise TreeParseError("empty tree line")
    preorder: list[Span | None] = []
    # per open node, outermost first: [preorder slot, first leaf, children read]
    open_nodes: list[list[int]] = []
    done = False
    for pos, item in enumerate(items, start=1):
        if done:
            raise TreeParseError(f"trailing content after tree at item {pos}")
        if item == "(":
            open_nodes.append([len(preorder), len(tokens) + 1, 0])
            preorder.append(None)
            continue
        if item == ")":
            if not open_nodes:
                raise TreeParseError(f"unexpected ')' at item {pos}")
            slot, first, children = open_nodes.pop()
            if children != 2:
                raise TreeParseError(
                    f"extracted trees must be strictly binary, found a node "
                    f"with {children} children"
                )
            preorder[slot] = (first, len(tokens))
        else:
            tokens.append(item)
            preorder.append((len(tokens), len(tokens)))
        if open_nodes:
            open_nodes[-1][2] += 1
        else:
            done = True
    if not done:
        raise TreeParseError("unbalanced '(': end of line before ')'")
    if "-LRB-" in line or "-RRB-" in line:
        tokens = [_unescape_token(token) for token in tokens]
    return SpanTree(tuple(preorder)), tuple(tokens)


class SpanTreeArrays(NamedTuple):
    """The strictly binary trees of a run of extracted lines.

    ``ok`` holds for each line whether ``parse_span_tree`` reads it; the
    nodes mean something only where it holds.  The nodes are every tree's
    internal nodes, roots first, one per line in line order, as (line, a,
    b) with a and b counted from 1 in the line.
    """

    ok: np.ndarray
    n: np.ndarray  # per line: its leaves
    line: np.ndarray
    a: np.ndarray
    b: np.ndarray
    keys: np.ndarray  # the nodes' ``span_keys``


def span_tree_arrays(tokens: BracketArrays) -> SpanTreeArrays:
    """Read well-formed extracted lines: each phrase's leaves, and whether
    every phrase has exactly two children.

    A tree of n leaves is strictly binary exactly when it has n - 1
    phrases, each of two or more leaves, no two over the same leaves.  A
    phrase of one child spans what its child spans, so then every phrase
    has two or more children, and n - 1 phrases over n leaves leave none
    with more than two.
    """
    n_lines = len(tokens.first) - 1
    atoms_upto = np.cumsum(tokens.kind == 0)
    n = np.diff(np.concatenate(([0], atoms_upto))[tokens.first])
    offsets = np.cumsum(n) - n
    parens, _ = pair_parens(tokens)
    opens, closes = parens[0::2], parens[1::2]
    line = tokens.line_of(opens)
    a = atoms_upto[opens] - offsets[line] + 1
    b = atoms_upto[closes] - offsets[line]
    keys = span_keys(line, a, b, n)
    ok = np.bincount(line, minlength=n_lines) == n - 1
    ok &= np.bincount(line[b <= a], minlength=n_lines) == 0
    # a phrase with no leaves may have a = n + 1, which a key has no room
    # for, but its line is rejected already
    ok &= repeated_keys(keys[a < b], n) == 0
    return SpanTreeArrays(ok, n, line, a, b, keys)


def tree_from_splits(n: int, split_of: Callable[[int, int], int]) -> SpanTree:
    """The tree over 1..n in which each span (a, b) with a < b has the
    children (a, k) and (k+1, b), k = ``split_of(a, b)``, which must lie
    in a..b-1 (it is not checked).

    ``split_of`` is called in preorder, and the preorder is built with an
    explicit stack, so a tree of any depth is built.
    """
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    preorder: list[Span] = []
    todo = [(1, n)]
    while todo:
        a, b = span = todo.pop()
        preorder.append(span)
        if a < b:
            k = split_of(a, b)
            todo += ((k + 1, b), (a, k))
    return SpanTree(tuple(preorder))


# Charts up to this length keep their whole gather plan between calls:
# 2(n^3 - n)/3 + 3n(n - 1)/2 indices, 5.5 MB at n = 100.
_PLAN_CACHE_MAX_N = 100


class _Step(NamedTuple):
    """Read-only index arrays that fill the spans of one length of an
    n-subword chart.

    With starts a as rows and splits k from b - 1 down to a as columns,
    ``operands`` holds the flat indices of s[a,k], s[k+1,b], w[a,k] and
    w[k+1,b] in the [scores | weights] buffer of two (n+1) x (n+1)
    tables.  ``rows`` holds each row's flat start in the candidates,
    ``cells`` the flat index of [a, b] and ``last_split`` b - 1.
    """

    operands: np.ndarray
    rows: np.ndarray
    cells: np.ndarray
    last_split: np.ndarray


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _step(n: int, length: int) -> _Step:
    """The step of one span length."""
    count = n - length + 1
    offsets = np.arange(length - 2, -1, -1)  # k - a, largest split first
    operands = np.empty((4, count, length - 1), dtype=np.int64)
    left, right = operands[0], operands[1]
    starts = np.arange(n + 2, (n + 2) * (count + 1), n + 2)  # [a, a] for each a
    np.add(starts[:, None], offsets, out=left)
    np.add(left, offsets * n + (n + length), out=right)
    np.add(operands[:2], (n + 1) ** 2, out=operands[2:])  # the same cells of w
    rows = np.arange(0, left.size, length - 1)
    cells = starts + (length - 1)  # [a, b] for each a
    last_split = np.arange(length - 1, n)  # b - 1 for each a
    _read_only(operands, rows, cells, last_split)
    return _Step(operands, rows, cells, last_split)


def _steps(n: int) -> Iterator[_Step]:
    """The steps for span lengths 2..n in order, each built as it is asked for."""
    return (_step(n, length) for length in range(2, n + 1))


@lru_cache(maxsize=1)
def _cached_plan(n: int) -> tuple[_Step, ...]:
    return tuple(_steps(n))


def _gather_plan(n: int) -> Iterable[_Step]:
    """The chart's steps.  Up to ``_PLAN_CACHE_MAX_N`` all of them are
    kept for the most recent such n; a longer chart builds each length's
    step as the fill reaches it, so it holds O(n^2) indices at a time
    instead of O(n^3)."""
    return _cached_plan(n) if n <= _PLAN_CACHE_MAX_N else _steps(n)


def cky_chart(table: Mapping[Span, tuple[float, float]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill the chart bottom-up, one span length at a time.

    ``table`` maps spans to (raw, equalized) weights as ``pool_phrases``
    builds it; w is the equalized one.  Returns the read-only (n+1) x (n+1)
    arrays ``(scores, splits)``: scores[a, b] for a <= b, splits[a, b] for b > a.

    All spans of one length are filled in a single array step: for starts
    a, splits k and ends b = a + length - 1, each candidate is summed in
    exactly this order,

        ((s[a,k] + s[k+1,b]) + w[a,k]) + w[k+1,b]

    and the best candidate is divided by 4.0.  Ties between splits prefer
    the larger k (the larger left subtree), so a sentence with no phrase
    weights at all comes out as the left-branching chain.  Extracted trees
    depend on both: another order can change a score in its last bit, and
    with it a split.

    Scores and weights share one flat buffer, so one indexing gathers the
    four operands of every candidate of a length as four rows; ``take``
    would copy the read-only index arrays on every call.  The rows are
    added one at a time: ``np.add.reduce`` or ``sum`` over them would
    follow numpy's iteration order, which can add s0 + ((s1 + w0) + w1).

    The index arrays depend only on n.  They hold 2(n^3 - n)/3 gather
    indices plus three per span, 8 bytes each, so they grow with n^3:
    0.15 MB at n = 30, 1.4 MB at n = 64, 5.5 MB at n = 100, 9.2 GB at
    n = 1200.  Up to n = 100 they are built once and kept for the most
    recent length only.  Longer charts build each span length's arrays as
    the fill reaches it and keep none, so at most O(n^2) of them are alive
    at a time.  This is the one-chart path of ``extract``; a caller with
    many tables of one n fills them together with ``cky_splits``.
    """
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    size = (n + 1) ** 2
    buffer = np.zeros(2 * size)  # [scores | weights]
    weights = buffer[size:].reshape(n + 1, n + 1)
    for (a, b), (_, weight) in table.items():
        if not (1 <= a <= b <= n):
            raise ValueError(f"phrase span ({a},{b}) outside sentence 1..{n}")
        weights[a, b] = weight
    buffer[n + 2 : size : n + 2] = 1.0  # the leaves [i, i]
    splits = np.zeros(size, dtype=np.int64)
    for operands, rows, cells, last_split in _gather_plan(n):
        g = buffer[operands]
        candidates = g[0] + g[1]
        candidates += g[2]
        candidates += g[3]
        del g  # a chart past the cache limit builds its next step before the loop rebinds g
        # argmax returns the first maximum: the largest split
        won = candidates.argmax(axis=1)
        buffer[cells] = candidates.take(rows + won) / 4.0
        splits[cells] = last_split - won
    scores = buffer[:size].reshape(n + 1, n + 1).copy()
    _read_only(scores, splits)
    return scores, splits.reshape(n + 1, n + 1)  # a view of a read-only array is read-only


def cky_parse(table: Mapping[Span, tuple[float, float]], n: int) -> SpanTree:
    """The highest-scoring binary tree over 1..n for this phrase table."""
    _, splits = cky_chart(table, n)
    return tree_from_splits(n, splits.item)


def cky_splits(tables: Sequence[Mapping[Span, tuple[float, float]]], n: int) -> np.ndarray:
    """The splits of many charts of one n, filled together: a read-only
    (len(tables), n+1, n+1) array whose [i] is bitwise ``cky_chart(tables[i],
    n)``'s splits.

    The tables' [scores | weights] buffers are the columns of one array, so
    each of ``cky_chart``'s steps gathers the four operands of every
    candidate split of every table with one indexing, adds them in the same
    order and breaks ties the same way.  The steps' per-call overhead is
    then paid once per group instead of once per chart: about 0.06 ms per
    chart at n = 30 in groups of 46, against 0.18 ms for ``cky_chart``.
    A group of one costs about twice a ``cky_chart`` call, and a group
    much larger than the processor's cache gains nothing, so callers fill
    groups of a bounded size.
    """
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    plan = _gather_plan(n)  # a new n's plan is built before the buffers are taken
    size = (n + 1) ** 2
    count = len(tables)
    buffer = np.zeros((2 * size, count))  # [scores | weights], a column per table
    cells: list[int] = []
    columns: list[int] = []
    weights: list[float] = []
    for column, table in enumerate(tables):
        for (a, b), (_, weight) in table.items():
            if not (1 <= a <= b <= n):
                raise ValueError(f"phrase span ({a},{b}) outside sentence 1..{n}")
            cells.append(size + a * (n + 1) + b)
            columns.append(column)
            weights.append(weight)
    buffer[cells, columns] = weights
    buffer[n + 2 : size : n + 2] = 1.0  # the leaves [i, i]
    splits = np.zeros((count, size), dtype=np.int64)
    every = np.arange(count)
    for operands, rows, cells_of, last_split in plan:
        g = buffer[operands]  # (4, starts, splits, tables)
        candidates = g[0] + g[1]
        candidates += g[2]
        candidates += g[3]
        del g
        won = candidates.argmax(axis=1)  # the first maximum: the largest split
        best = candidates.reshape(-1)[(rows[:, None] + won) * count + every]
        buffer[cells_of] = best / 4.0
        splits[:, cells_of] = (last_split[:, None] - won).T
    _read_only(splits)
    return splits.reshape(count, n + 1, n + 1)


def _balanced_tree(n: int, odd_unit_first: bool) -> SpanTree:
    """Pair adjacent units each round until one is left.  With an odd
    number of units, the first or the last one waits for the next round.
    Each pairing records its split, and the tree is built once from them."""
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    units = [(i, i) for i in range(1, n + 1)]
    split: dict[Span, int] = {}
    while len(units) > 1:
        start = len(units) % 2 if odd_unit_first else 0
        stop = start + len(units) // 2 * 2
        pairs = []
        for (a, k), (_, b) in zip(units[start:stop:2], units[start + 1 : stop : 2]):
            split[a, b] = k
            pairs.append((a, b))
        units = units[:start] + pairs + units[stop:]
    return tree_from_splits(n, lambda a, b: split[a, b])


def lbal_tree(n: int) -> SpanTree:
    """Left-aligned balanced tree: adjacent units pair left to right each
    round; a trailing odd unit waits for the next round."""
    return _balanced_tree(n, odd_unit_first=False)


def rbal_tree(n: int) -> SpanTree:
    """Right-aligned balanced tree: adjacent units pair right to left each
    round; a leading odd unit waits for the next round."""
    return _balanced_tree(n, odd_unit_first=True)


def extract_tree(dump: AttentionDump, heads: Iterable[Head]) -> SpanTree:
    """End-to-end extraction for one sentence: phrase table, then CKY."""
    return cky_parse(build_phrase_table(dump, heads), dump.n)
