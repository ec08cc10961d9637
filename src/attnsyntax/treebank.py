"""Bracketed reference trees and their alignment to subword-level trees.

Reference parses arrive as one labeled bracketed tree per line, e.g.
``(S (VP vinegrowers suffer))``.  Before comparison against extracted
trees they are post-processed in four steps:

1. remove phrase labels,
2. wrap each word into a single-word phrase,
3. split words into subwords,
4. flatten phrases containing only one immediate subphrase or only one
   subword (applied bottom-up, to a fixpoint),

after which the EOS token is attached as an additional top-level child so
both sides cover the same subword positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

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


def read_bracketed(text: str) -> RawTree:
    """Parse one bracketed tree; errors carry the character offset.

    Phrases may nest at most ``MAX_TREE_DEPTH`` levels deep.
    """
    items = list(_lex(text))
    if not items:
        raise TreeParseError("empty input at offset 0")
    kind, _, offset = items[0]
    if kind != "open":
        raise TreeParseError(f"expected '(' at offset {offset}")
    open_phrases: list[RawTree] = []  # outermost first
    tree: RawTree | None = None
    for kind, value, offset in items:
        if tree is not None:
            raise TreeParseError(f"trailing content at offset {offset}")
        if kind == "open":
            if len(open_phrases) == MAX_TREE_DEPTH:
                raise TreeParseError(
                    f"phrases nested deeper than {MAX_TREE_DEPTH} levels at offset {offset}"
                )
            open_phrases.append(RawTree(None, []))
        elif kind == "atom":
            phrase = open_phrases[-1]
            if phrase.label is None and not phrase.children:  # right after '('
                phrase.label = value
            else:
                phrase.children.append(value)
        else:
            phrase = open_phrases.pop()
            if not phrase.children:
                raise TreeParseError(f"empty phrase at offset {offset}")
            if open_phrases:
                open_phrases[-1].children.append(phrase)
            else:
                tree = phrase
    if tree is None:
        raise TreeParseError(f"unbalanced '(' at offset {len(text)}")
    return tree


def _lex(text: str) -> Iterator[tuple[str, str, int]]:
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            yield ("open", ch, i)
            i += 1
        elif ch == ")":
            yield ("close", ch, i)
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
            yield ("atom", text[start:i], start)


def raw_leaves(tree: RawTree) -> list[str]:
    """Leaf words in left-to-right order."""
    out: list[str] = []
    for child in tree.children:
        if isinstance(child, str):
            out.append(child)
        else:
            out.extend(raw_leaves(child))
    return out


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

    @cached_property
    def n(self) -> int:
        return len(self.leaves())

    def spans(self) -> frozenset[Span]:
        """1-based inclusive spans of every phrase node (leaf tokens excluded)."""
        return self._spans

    # Scoring asks a reference tree for n and its spans on every evaluation,
    # so both are walked once per instance; the cache is not a dataclass
    # field, so equality and hashing still see only ``root``.
    @cached_property
    def _spans(self) -> frozenset[Span]:
        out: set[Span] = set()

        def walk(node: Phrase | str, start: int) -> int:
            if isinstance(node, str):
                return start + 1
            pos = start
            for child in node.children:
                pos = walk(child, pos)
            out.add((start + 1, pos))
            return pos

        walk(self.root, 0)
        return frozenset(out)

    def to_bracketed(self) -> str:
        def render(node: Phrase | str) -> str:
            if isinstance(node, str):
                return node
            return "(" + " ".join(map(render, node.children)) + ")"

        return render(self.root)


def postprocess_steps(
    raw: RawTree, segmentation: Sequence[Sequence[str]]
) -> ConstituencyTree:
    """Apply steps 1-4 (labels, wrapping, subword split, flattening).

    ``segmentation`` holds one subword list per leaf word, in leaf order.
    EOS is not attached here; see :func:`postprocess`.
    """
    words = raw_leaves(raw)
    if len(words) != len(segmentation):
        raise AlignmentError(
            f"tree has {len(words)} words but segmentation has "
            f"{len(segmentation)} entries"
        )
    for word, subwords in zip(words, segmentation):
        if not subwords:
            raise AlignmentError(f"word {word!r} maps to no subwords")
    parts = iter(segmentation)

    def strip_wrap_split(node: RawTree | str) -> Phrase:
        if isinstance(node, str):
            return Phrase(tuple(next(parts)))  # steps 2 + 3 on one word
        return Phrase(tuple(map(strip_wrap_split, node.children)))

    def flatten(node: Phrase | str) -> Phrase | str:
        if isinstance(node, str):
            return node
        children = tuple(map(flatten, node.children))
        if len(children) == 1:
            return children[0]
        return Phrase(children)

    return ConstituencyTree(flatten(strip_wrap_split(raw)))


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
    groups = word_groups(subwords)
    words = raw_leaves(raw)
    if len(words) != len(groups):
        raise AlignmentError(
            f"reference tree has {len(words)} words but the subwords form {len(groups)}"
        )
    segmentation = [list(subwords[a - 1 : b]) for a, b in groups]
    return postprocess(raw, segmentation, eos=subwords[-1])
