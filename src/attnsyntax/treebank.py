"""Bracketed reference trees and their alignment to subword-level trees.

Reference parses arrive as one labeled bracketed tree per line, e.g.
``(S (VP vinegrowers suffer))``.  Before comparison against extracted
trees they are post-processed in four steps:

1. remove phrase labels,
2. wrap each word into a single-word phrase,
3. split words into subwords,
4. flatten phrases containing only one immediate subphrase or only one
   subword (applied bottom-up, to a fixpoint),

all in one walk of the tree, after which the EOS token is attached as an
additional top-level child so both sides cover the same subword positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .attn_io import DEFAULT_EOS, Span, word_groups
from .errors import AlignmentError, TreeParseError


@dataclass
class RawTree:
    """Labeled n-ary node as read from a treebank line; leaves are words."""

    label: str | None
    children: list[Union["RawTree", str]]


# Post-processing and scoring walk a reference tree recursively, one frame
# per level, so deeper trees are rejected while parsing instead of
# overflowing Python's recursion limit (1000 frames by default) later.
MAX_TREE_DEPTH = 500


# The one tokenizer of bracketed trees, reference and extracted alike: a
# parenthesis, or a run of anything else up to whitespace or a parenthesis.
# For str patterns ``\s`` matches exactly the characters for which
# ``str.isspace()`` is true, the ones ``str.split()`` splits on.
BRACKET_TOKEN = re.compile(r"[()]|[^\s()]+")


def read_bracketed(text: str) -> RawTree:
    """Parse one bracketed tree; errors carry the character offset.

    Phrases may nest at most ``MAX_TREE_DEPTH`` levels deep.
    """
    open_phrases: list[RawTree] = []  # outermost first
    tree: RawTree | None = None
    for match in BRACKET_TOKEN.finditer(text):
        value = match.group()
        if not open_phrases:  # before the tree or after it
            if tree is not None:
                raise TreeParseError(f"trailing content at offset {match.start()}")
            if value != "(":
                raise TreeParseError(f"expected '(' at offset {match.start()}")
        if value == "(":
            if len(open_phrases) == MAX_TREE_DEPTH:
                raise TreeParseError(
                    f"phrases nested deeper than {MAX_TREE_DEPTH} levels "
                    f"at offset {match.start()}"
                )
            open_phrases.append(RawTree(None, []))
        elif value == ")":
            phrase = open_phrases.pop()
            if not phrase.children:
                raise TreeParseError(f"empty phrase at offset {match.start()}")
            if open_phrases:
                open_phrases[-1].children.append(phrase)
            else:
                tree = phrase
        else:
            phrase = open_phrases[-1]
            if phrase.label is None and not phrase.children:  # right after '('
                phrase.label = value
            else:
                phrase.children.append(value)
    if tree is None:
        if open_phrases:
            raise TreeParseError(f"unbalanced '(' at offset {len(text)}")
        raise TreeParseError("empty input at offset 0")
    return tree


@dataclass(frozen=True)
class Phrase:
    """Unlabeled n-ary phrase; children are phrases or subword leaves."""

    children: tuple[Union["Phrase", str], ...]


@dataclass(frozen=True)
class ConstituencyTree:
    """Post-processed reference tree, viewed as a laminar span set."""

    root: Phrase | str

    def leaves(self) -> tuple[str, ...]:
        out: list[str] = []

        def walk(node: Phrase | str) -> None:
            if isinstance(node, str):
                out.append(node)
            else:
                for child in node.children:
                    walk(child)

        walk(self.root)
        return tuple(out)

    @property
    def n(self) -> int:
        return self._walk[0]

    def spans(self) -> frozenset[Span]:
        """1-based inclusive spans of every phrase node (leaf tokens excluded)."""
        return self._walk[1]

    def boundaries(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(first_end, last_start)``, indexed by positions 1..n.

        ``first_end[a]`` is the smallest end d of a phrase (c, d) with
        c < a <= d, and ``last_start[b]`` the largest start c of a phrase
        with c <= b < d; where there is none they hold n and 0.  A span
        (a, b) crosses no phrase exactly when ``first_end[a] >= b`` and
        ``last_start[b] <= a``.
        """
        return self._walk[2], self._walk[3]

    # Scoring asks a reference tree for n, its spans and its boundaries on
    # every evaluation, so all come from one walk per instance; the cache is
    # not a dataclass field, so equality and hashing still see only ``root``.
    @cached_property
    def _walk(self) -> tuple[int, frozenset[Span], tuple[int, ...], tuple[int, ...]]:
        postorder: list[Span] = []

        def walk(node: Phrase | str, start: int) -> int:
            if isinstance(node, str):
                return start + 1
            pos = start
            for child in node.children:
                pos = walk(child, pos)
            postorder.append((start + 1, pos))
            return pos

        n = walk(self.root, 0)
        first_end, last_start = [n] * (n + 1), [0] * (n + 1)
        # the phrases are laminar, so writing every phrase after the phrases
        # that contain it (reversed postorder: outer first, inner ones
        # overwrite) leaves the innermost phrase's bound at each position
        for c, d in reversed(postorder):
            first_end[c + 1 : d + 1] = [d] * (d - c)
            last_start[c:d] = [c] * (d - c)
        return n, frozenset(postorder), tuple(first_end), tuple(last_start)

    def to_bracketed(self) -> str:
        def render(node: Phrase | str) -> str:
            if isinstance(node, str):
                return node
            return "(" + " ".join(map(render, node.children)) + ")"

        return render(self.root)


def postprocess_steps(
    raw: RawTree, segmentation: Sequence[Sequence[str]]
) -> ConstituencyTree:
    """Apply steps 1-4 (labels, wrapping, subword split, flattening) in one walk.

    ``segmentation`` holds one subword list per leaf word, in leaf order.  A
    word becomes its subwords, a phrase left with one child becomes that
    child, and the same walk counts the words.  EOS is not attached here;
    see :func:`postprocess`.
    """
    words = 0

    def convert(node: RawTree | str) -> Phrase | str:
        nonlocal words
        if isinstance(node, str):
            words += 1
            if words > len(segmentation):
                return node  # counted only; the count check below rejects the tree
            subwords = tuple(segmentation[words - 1])
            if not subwords:
                raise AlignmentError(f"word {node!r} maps to no subwords")
            return subwords[0] if len(subwords) == 1 else Phrase(subwords)
        children = tuple(map(convert, node.children))
        return children[0] if len(children) == 1 else Phrase(children)

    root = convert(raw)
    if words != len(segmentation):
        raise AlignmentError(
            f"reference tree has {words} words but the subwords form {len(segmentation)}"
        )
    return ConstituencyTree(root)


def attach_eos(tree: ConstituencyTree, eos: str = DEFAULT_EOS) -> ConstituencyTree:
    """Add EOS as one more child of the root, beside the existing phrases."""
    if isinstance(tree.root, str):
        return ConstituencyTree(Phrase((tree.root, eos)))
    return ConstituencyTree(Phrase(tree.root.children + (eos,)))


def postprocess(
    raw: RawTree,
    segmentation: Sequence[Sequence[str]],
    eos: str = DEFAULT_EOS,
) -> ConstituencyTree:
    """Steps 1-4 followed by EOS attachment."""
    return attach_eos(postprocess_steps(raw, segmentation), eos)


def gold_tree_for_dump(raw: RawTree, subwords: Sequence[str]) -> ConstituencyTree:
    """Post-process a reference tree onto a sentence's subwords.

    The words are the ``@@``-continuation groups of ``subwords`` and the
    final subword is the EOS token attached to the root.
    """
    segmentation = [subwords[a - 1 : b] for a, b in word_groups(subwords)]
    return postprocess(raw, segmentation, eos=subwords[-1])
