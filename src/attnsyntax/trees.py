"""Binary span trees: CKY extraction, balanced baselines, bracketed I/O.

The chart recursion scores a span (a, b) as the best split k of

    s[a,b] = max_k (s[a,k] + s[k+1,b] + w[a,k] + w[k+1,b]) / 4

with s[a,a] = 1 and w taken from the phrase table (0 for absent spans).
Averaging keeps subtree scores on one scale regardless of span size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attn_io import AttentionDump, Span
from .errors import TreeParseError
from .masks import HeadMask
from .phrases import PhraseTable, build_phrase_table


@dataclass(frozen=True)
class SpanTree:
    """Strictly binary tree over 1-based inclusive subword spans."""

    span: Span
    left: "SpanTree | None" = None
    right: "SpanTree | None" = None

    def __post_init__(self) -> None:
        a, b = self.span
        if (self.left is None) != (self.right is None):
            raise ValueError("a node needs either two children or none")
        if self.left is None:
            if a != b:
                raise ValueError(f"leaf span ({a},{b}) must be a single position")
        else:
            assert self.right is not None
            if (
                self.left.span[0] != a
                or self.right.span[1] != b
                or self.left.span[1] + 1 != self.right.span[0]
            ):
                raise ValueError(
                    f"children {self.left.span} + {self.right.span} "
                    f"do not partition ({a},{b})"
                )

    @staticmethod
    def leaf(i: int) -> "SpanTree":
        return SpanTree((i, i))

    @staticmethod
    def node(left: "SpanTree", right: "SpanTree") -> "SpanTree":
        return SpanTree((left.span[0], right.span[1]), left, right)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n(self) -> int:
        return self.span[1] - self.span[0] + 1

    def spans(self) -> frozenset[Span]:
        """Spans of all nodes, leaves included."""
        out: set[Span] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            out.add(node.span)
            if node.left is not None:
                stack.append(node.left)
                stack.append(node.right)
        return frozenset(out)

    def to_bracketed(self, tokens: Sequence[str]) -> str:
        """Render with leaves replaced by tokens; parens inside tokens are escaped.

        The walk keeps its own stack, so a tree of any depth is rendered.
        """
        if len(tokens) < self.span[1]:
            raise ValueError(
                f"need {self.span[1]} tokens to render span {self.span}, got {len(tokens)}"
            )
        parts: list[str] = []
        todo: list[SpanTree | str] = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                parts.append(node)
            elif node.left is None:
                parts.append(_escape_token(tokens[node.span[0] - 1]))
            else:
                parts.append("(")
                todo += (")", node.right, " ", node.left)
        return "".join(parts)


def _escape_token(token: str) -> str:
    return token.replace("(", "-LRB-").replace(")", "-RRB-")


def _unescape_token(token: str) -> str:
    return token.replace("-LRB-", "(").replace("-RRB-", ")")


def parse_span_tree(line: str) -> tuple[SpanTree, tuple[str, ...]]:
    """Parse one bracketed, unlabeled, strictly binary tree line.

    Returns the tree over 1-based leaf positions plus the leaf tokens.
    The parse keeps its own stack, so a tree of any depth is read.
    """
    tokens: list[str] = []
    items = line.replace("(", " ( ").replace(")", " ) ").split()
    if not items:
        raise TreeParseError("empty tree line")
    open_nodes: list[list[SpanTree]] = []  # children read so far, outermost first
    tree: SpanTree | None = None
    for pos, item in enumerate(items, start=1):
        if tree is not None:
            raise TreeParseError(f"trailing content after tree at item {pos}")
        if item == "(":
            open_nodes.append([])
            continue
        if item == ")":
            if not open_nodes:
                raise TreeParseError(f"unexpected ')' at item {pos}")
            children = open_nodes.pop()
            if len(children) != 2:
                raise TreeParseError(
                    f"extracted trees must be strictly binary, found a node "
                    f"with {len(children)} children"
                )
            node = SpanTree.node(children[0], children[1])
        else:
            tokens.append(_unescape_token(item))
            node = SpanTree.leaf(len(tokens))
        if open_nodes:
            open_nodes[-1].append(node)
        else:
            tree = node
    if tree is None:
        raise TreeParseError("unbalanced '(': end of line before ')'")
    return tree, tuple(tokens)


@dataclass(frozen=True)
class Chart:
    """Filled CKY tables: scores for all spans, best splits for b > a."""

    scores: np.ndarray  # (n+1, n+1); scores[a, b] valid for 1 <= a <= b <= n
    splits: np.ndarray  # (n+1, n+1) int64; splits[a, b] valid for b > a
    n: int

    def tree(self, a: int = 1, b: int | None = None) -> SpanTree:
        """The best tree over (a, b), read off the splits with an explicit
        stack, so a tree of any depth is built."""
        if b is None:
            b = self.n
        preorder: list[Span] = []
        todo = [(a, b)]
        while todo:
            a, b = span = todo.pop()
            preorder.append(span)
            if a < b:
                k = self.splits.item(a, b)
                todo += ((k + 1, b), (a, k))
        # in reverse preorder both subtrees are built before their parent,
        # the left one last
        built: list[SpanTree] = []
        for a, b in reversed(preorder):
            built.append(SpanTree.leaf(a) if a == b else SpanTree.node(built.pop(), built.pop()))
        return built[0]


def cky_chart(table: PhraseTable, n: int) -> Chart:
    """Fill the chart bottom-up, one span length at a time.

    All spans of one length are filled in a single array step: for starts
    a, splits k = a + j and ends b = a + length - 1 as index grids, each
    candidate is summed in exactly this order,

        ((s[a,k] + s[k+1,b]) + w[a,k]) + w[k+1,b]

    and the best candidate is divided by 4.0.  Ties between splits prefer
    the larger k (the larger left subtree), so a sentence with no phrase
    weights at all comes out as the left-branching chain.  Extracted trees
    depend on both: another order can change a score in its last bit, and
    with it a split.
    """
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    weights = np.zeros((n + 1, n + 1))
    for a, b in table.spans():
        if not (1 <= a <= b <= n):
            raise ValueError(f"phrase span ({a},{b}) outside sentence 1..{n}")
        weights[a, b] = table.weight(a, b)
    scores = np.zeros((n + 1, n + 1))
    splits = np.zeros((n + 1, n + 1), dtype=np.int64)
    leaves = np.arange(1, n + 1)
    scores[leaves, leaves] = 1.0
    for length in range(2, n + 1):
        starts = np.arange(1, n - length + 2)
        ends = starts + (length - 1)
        a, b = starts[:, None], ends[:, None]
        k = a + np.arange(length - 1)
        candidates = scores[a, k] + scores[k + 1, b] + weights[a, k] + weights[k + 1, b]
        # argmax returns the first maximum, so search the splits from the right
        best = (length - 2) - candidates[:, ::-1].argmax(axis=1)
        scores[starts, ends] = candidates[np.arange(starts.size), best] / 4.0
        splits[starts, ends] = starts + best
    scores.setflags(write=False)
    splits.setflags(write=False)
    return Chart(scores, splits, n)


def cky_parse(table: PhraseTable, n: int) -> SpanTree:
    """The highest-scoring binary tree over 1..n for this phrase table."""
    return cky_chart(table, n).tree()


def lbal_tree(n: int) -> SpanTree:
    """Left-aligned balanced tree: pair adjacent units left to right each
    round; a trailing odd unit survives to the next round."""
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    units = [SpanTree.leaf(i) for i in range(1, n + 1)]
    while len(units) > 1:
        merged = []
        i = 0
        while i + 1 < len(units):
            merged.append(SpanTree.node(units[i], units[i + 1]))
            i += 2
        if i < len(units):
            merged.append(units[i])
        units = merged
    return units[0]


def rbal_tree(n: int) -> SpanTree:
    """Right-aligned balanced tree: pair adjacent units right to left each
    round; a leading odd unit survives to the next round."""
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    units = [SpanTree.leaf(i) for i in range(1, n + 1)]
    while len(units) > 1:
        merged = []
        i = len(units)
        while i - 2 >= 0:
            merged.append(SpanTree.node(units[i - 2], units[i - 1]))
            i -= 2
        if i == 1:
            merged.append(units[0])
        units = merged[::-1]
    return units[0]


def extract_tree(dump: AttentionDump, mask: HeadMask) -> SpanTree:
    """End-to-end extraction for one sentence: phrase table, then CKY."""
    return cky_parse(build_phrase_table(dump, mask), dump.n)
