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

from .attn_io import DEFAULT_EOS, AttentionDump, Span, word_groups
from .errors import AlignmentError, TreeParseError


@dataclass
class RawTree:
    """Labeled n-ary node as read from a treebank line; leaves are words."""

    label: str | None
    children: list[Union["RawTree", str]]


def read_bracketed(text: str) -> RawTree:
    """Parse one bracketed tree; errors carry the character offset."""
    items = list(_lex(text))
    if not items:
        raise TreeParseError("empty input at offset 0")
    pos = 0

    def parse_node() -> RawTree:
        nonlocal pos
        # called with items[pos] just past a '('
        label: str | None = None
        if pos < len(items) and items[pos][0] == "atom":
            label = items[pos][1]
            pos += 1
        children: list[RawTree | str] = []
        while True:
            if pos >= len(items):
                raise TreeParseError(f"unbalanced '(' at offset {len(text)}")
            kind, value, offset = items[pos]
            if kind == "close":
                pos += 1
                if not children:
                    raise TreeParseError(f"empty phrase at offset {offset}")
                return RawTree(label, children)
            if kind == "open":
                pos += 1
                children.append(parse_node())
            else:
                pos += 1
                children.append(value)

    kind, _, offset = items[0]
    if kind != "open":
        raise TreeParseError(f"expected '(' at offset {offset}")
    pos = 1
    tree = parse_node()
    if pos != len(items):
        raise TreeParseError(f"trailing content at offset {items[pos][2]}")
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
            return "(" + " ".join(render(child) for child in node.children) + ")"

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
        return Phrase(tuple(strip_wrap_split(child) for child in node.children))

    def flatten(node: Phrase | str) -> Phrase | str:
        if isinstance(node, str):
            return node
        children = tuple(flatten(child) for child in node.children)
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


def gold_tree_for_dump(
    raw: RawTree, dump: AttentionDump, eos: str = DEFAULT_EOS
) -> ConstituencyTree:
    """Post-process a reference tree using the dump's own segmentation."""
    groups = word_groups(dump.subwords, eos=eos)
    words = raw_leaves(raw)
    if len(words) != len(groups):
        raise AlignmentError(
            f"sentence {dump.sentence_id!r}: reference tree has {len(words)} "
            f"words but the subwords form {len(groups)}"
        )
    segmentation = [list(dump.subwords[a - 1 : b]) for a, b in groups]
    return postprocess(raw, segmentation, eos=dump.subwords[-1])
