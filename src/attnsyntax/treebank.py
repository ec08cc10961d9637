"""Bracketed reference trees and their alignment to subword-level trees.

Reference parses arrive as one labeled bracketed tree per line, e.g.
``(S (VP vinegrowers suffer))``.  Before comparison against extracted
trees they are post-processed in four steps:

1. remove phrase labels,
2. wrap each word into a single-word phrase,
3. split words into subwords,
4. flatten phrases containing only one immediate subphrase or only one
   subword (applied bottom-up, to a fixpoint),

all in one loop over the tree; ``postprocess`` then attaches the EOS token
as an additional top-level child so both sides cover the same subword
positions.

Both kinds of tree are flat tuples in postorder, children before their
phrase: a ``RawTree`` holds words and ``(label, arity)`` phrases, a
``ConstituencyTree`` its phrase spans and leaf tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .attn_io import DEFAULT_EOS, Span
from .errors import AlignmentError, SegmentationError, TreeParseError

CONTINUATION = "@@"

# A labeled n-ary reference tree as read from a treebank line, one tuple in
# postorder: each phrase's children, then the phrase as ``(label, arity)``,
# label None when it has none; a word is its ``str``.
RawItem = Union[str, tuple[Union[str, None], int]]
RawTree = tuple[RawItem, ...]


# A reference tree's boundary arrays (``ConstituencyTree.boundaries``) fill
# O(n * depth) entries: on a chain of phrases they take 0.003 s at depth
# 500, 0.2 s at 5000 and 3 s at 20000 (2-core x86-64, Python 3.11.7).
# Limiting how deep a reference line may nest bounds what ``eval`` spends
# on one hostile line, and rejects a deeper line with a located error.
MAX_TREE_DEPTH = 500


def bracket_tokens(text: str) -> list[str]:
    """The one tokenizer of bracketed trees, reference and extracted alike:
    each parenthesis, and each run of anything else up to whitespace or a
    parenthesis.  ``str.split()`` splits on exactly the characters for
    which ``str.isspace()`` is true."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _offset(text: str, index: int) -> int:
    """Character offset of token ``index`` (0-based) of ``text``.

    Tokens hold no whitespace, so each one's first occurrence after the end
    of the previous one is where it starts.
    """
    end = 0
    for token in bracket_tokens(text)[: index + 1]:
        start = text.find(token, end)
        end = start + len(token)
    return start


def read_bracketed(text: str) -> RawTree:
    """Parse one bracketed tree; errors carry the character offset.

    One pass over the tokens appends each word, and each phrase at its
    ``)``, to the postorder.  Phrases may nest at most ``MAX_TREE_DEPTH``
    levels deep.
    """
    postorder: list[RawItem] = []
    # per open phrase, outermost first: its label and the children begun in it
    labels: list[str | None] = []
    arities: list[int] = []
    for i, token in enumerate(bracket_tokens(text)):
        if token == "(":
            if arities:
                if len(arities) == MAX_TREE_DEPTH:
                    raise TreeParseError(
                        f"phrases nested deeper than {MAX_TREE_DEPTH} levels "
                        f"at offset {_offset(text, i)}"
                    )
                arities[-1] += 1
            elif postorder:
                raise TreeParseError(f"trailing content at offset {_offset(text, i)}")
            labels.append(None)
            arities.append(0)
        elif not arities:  # before the tree or after it
            problem = "trailing content" if postorder else "expected '('"
            raise TreeParseError(f"{problem} at offset {_offset(text, i)}")
        elif token == ")":
            arity = arities.pop()
            if not arity:
                raise TreeParseError(f"empty phrase at offset {_offset(text, i)}")
            postorder.append((labels.pop(), arity))
        elif arities[-1] or labels[-1] is not None:
            arities[-1] += 1
            postorder.append(token)
        else:  # the first token after '(' is the label
            labels[-1] = token
    if arities:
        raise TreeParseError(f"unbalanced '(' at offset {len(text)}")
    if not postorder:
        raise TreeParseError("empty input at offset 0")
    return tuple(postorder)


@dataclass(frozen=True)
class ConstituencyTree:
    """Post-processed reference tree, viewed as a laminar span set.

    The tree is two tuples: ``postorder``, the 1-based inclusive span of
    every phrase with children before their phrase, and ``tokens``, its
    leaves.  The constructor does not check them.  ``boundaries`` needs
    the spans laminar, within 1..len(tokens) and in postorder, which for a
    laminar set is ascending end, then descending start.  ``postprocess``
    needs a tree of more than one token to end with its root
    (1, len(tokens)).  ``postprocess_steps`` builds trees that hold both.
    """

    postorder: tuple[Span, ...]
    tokens: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)

    def spans(self) -> frozenset[Span]:
        """1-based inclusive spans of every phrase node (leaf tokens excluded)."""
        return self._spans

    # Scoring asks a reference tree for its spans and its boundaries on
    # every evaluation, so both are computed once per instance; the caches
    # are not dataclass fields, so equality and hashing ignore them.
    @cached_property
    def _spans(self) -> frozenset[Span]:
        return frozenset(self.postorder)

    @cached_property
    def boundaries(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(first_end, last_start)``, indexed by positions 1..n.

        ``first_end[a]`` is the smallest end d of a phrase (c, d) with
        c < a <= d, and ``last_start[b]`` the largest start c of a phrase
        with c <= b < d; where there is none they hold n and 0.  A span
        (a, b) crosses no phrase exactly when ``first_end[a] >= b`` and
        ``last_start[b] <= a``.
        """
        n = len(self.tokens)
        first_end, last_start = [n] * (n + 1), [0] * (n + 1)
        # the phrases are laminar, so writing every phrase after the phrases
        # that contain it (reversed postorder: outer first, inner ones
        # overwrite) leaves the innermost phrase's bound at each position
        for c, d in reversed(self.postorder):
            first_end[c + 1 : d + 1] = [d] * (d - c)
            last_start[c:d] = [c] * (d - c)
        return tuple(first_end), tuple(last_start)

    def to_bracketed(self) -> str:
        # every paren is the same character, so only their counts matter:
        # a phrase (c, d) opens before token c and closes after token d
        opens, closes = [0] * (self.n + 1), [0] * (self.n + 1)
        for c, d in self.postorder:
            opens[c] += 1
            closes[d] += 1
        return " ".join("(" * opens[i] + token + ")" * closes[i]
                        for i, token in enumerate(self.tokens, start=1))


def postprocess_steps(
    raw: RawTree, segmentation: Sequence[Sequence[str]]
) -> ConstituencyTree:
    """Apply steps 1-4 (labels, wrapping, subword split, flattening) in one
    loop over the raw postorder.

    ``segmentation`` holds one subword list per leaf word, in leaf order.  A
    word of two or more subwords becomes a phrase, a phrase of two or more
    children keeps its span, and a phrase of one child is dropped, which is
    the flattening; the same loop counts the words.  EOS is not attached
    here; see :func:`postprocess`.
    """
    postorder: list[Span] = []
    tokens: list[str] = []
    starts: list[int] = []  # tokens before each subtree not yet joined to its phrase
    n_words = len(segmentation)
    words = 0
    for item in raw:
        if isinstance(item, str):
            starts.append(len(tokens))
            words += 1
            if words > n_words:
                continue  # counted only; the count check below rejects the tree
            subwords = segmentation[words - 1]
            if not subwords:
                raise AlignmentError(f"word {item!r} maps to no subwords")
            tokens += subwords
            if len(subwords) > 1:
                postorder.append((starts[-1] + 1, len(tokens)))
        elif item[1] > 1:  # the phrase starts where its first child does
            del starts[1 - item[1] :]
            postorder.append((starts[-1] + 1, len(tokens)))
    if words != n_words:
        raise AlignmentError(
            f"reference tree has {words} words but the subwords form {n_words}"
        )
    return ConstituencyTree(tuple(postorder), tuple(tokens))


def postprocess(
    raw: RawTree,
    segmentation: Sequence[Sequence[str]],
    eos: str = DEFAULT_EOS,
) -> ConstituencyTree:
    """Steps 1-4, then EOS as one more child of the root: the root's span
    (1, m), last in the postorder, widens to (1, m+1), and a lone leaf
    becomes the phrase (1, 2)."""
    tree = postprocess_steps(raw, segmentation)
    return ConstituencyTree(tree.postorder[:-1] + ((1, tree.n + 1),), tree.tokens + (eos,))


def gold_tree_for_dump(raw: RawTree, subwords: Sequence[str]) -> ConstituencyTree:
    """Post-process a reference tree onto a sentence's subwords.

    A subword ending in ``@@`` continues its word into the next one, and
    the final subword is the EOS token attached to the root; a marker on
    the subword before EOS raises SegmentationError.
    """
    segmentation: list[Sequence[str]] = []
    start = 0
    for end, token in enumerate(subwords[:-1], start=1):
        if not token.endswith(CONTINUATION):
            segmentation.append(subwords[start:end])
            start = end
    if start < len(subwords) - 1:
        raise SegmentationError(f"continuation marker on the last token before "
                                f"{subwords[-1]!r}: {subwords[-2]!r}")
    return postprocess(raw, segmentation, eos=subwords[-1])
