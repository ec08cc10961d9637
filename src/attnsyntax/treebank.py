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

``eval`` reads many lines at once instead, in numpy passes over their
code points (``bracket_arrays``, ``reference_arrays``) that accept
exactly the lines the per-line readers accept.  The passes only accept
or reject a run of lines; the per-line readers find the first bad line
of a rejected run and raise its located error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .attn_io import DEFAULT_EOS, Span
from .errors import AlignmentError, SegmentationError, TreeParseError

CONTINUATION = "@@"

# A labeled n-ary reference tree as read from a treebank line, one tuple in
# postorder: each phrase's children, then the phrase as ``(label, arity)``,
# label None when it has none; a word is its ``str``.
RawItem = Union[str, tuple[Union[str, None], int]]
RawTree = tuple[RawItem, ...]


# A reference tree built per line fills its boundary arrays
# (``ConstituencyTree.boundaries``) in O(n * depth): on a chain of phrases
# 0.003 s at depth 500, 0.2 s at 5000 and 3 s at 20000 (2-core x86-64,
# Python 3.11.7).  ``select-heads`` still builds its references that way,
# so the limit bounds what one hostile line costs it.  ``eval``'s array
# pass costs O(n log n) at any depth, but it accepts exactly the lines that
# the per-line readers accept, so the limit and its located error hold for
# both commands alike.
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


# --- array passes over many lines --------------------------------------------

# Code points for which ``str.isspace()`` is true, which are where
# ``str.split()``, and so ``bracket_tokens``, splits; a test checks the
# list against every code point.
_SPACES = (*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
           *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
# per code point: 0 for a space, 1 for a paren, 2 for a character of an
# atom; the last entry stands for every code point above it
_CHAR_CLASS = np.full(_SPACES[-1] + 2, 2, dtype=np.uint8)
_CHAR_CLASS[list(_SPACES)] = 0
_CHAR_CLASS[[ord("("), ord(")")]] = 1


class BracketArrays(NamedTuple):
    """The tokens of a run of lines, as ``bracket_tokens`` splits each
    line, in arrays over all tokens in order."""

    kind: np.ndarray  # int8 per token: 1 for '(', -1 for ')', 0 for an atom
    first: np.ndarray  # per line and one more: the index of its first token
    depth: np.ndarray  # per token: the phrases open after it, counted from the first line
    continues: np.ndarray  # per atom: it ends with CONTINUATION

    def line_of(self, tokens: np.ndarray) -> np.ndarray:
        """The line of each token index."""
        return np.searchsorted(self.first, tokens, side="right") - 1


def bracket_arrays(lines: Sequence[str]) -> BracketArrays:
    """Tokenize lines, each of which may end with LF.

    The pass reads the lines' code points: a token starts at each paren
    and at each character of an atom that follows no such character.
    """
    codes = np.frombuffer("".join(lines).encode("utf-32-le"), "<u4")
    char_class = _CHAR_CLASS[np.minimum(codes, len(_CHAR_CLASS) - 1)]
    atom = char_class == 2
    starts = char_class == 1
    starts[1:] |= atom[1:] > atom[:-1]
    starts[:1] |= atom[:1]
    last = atom.copy()  # the last character of each atom
    last[:-1] &= ~atom[1:]
    tokens, ends = np.flatnonzero(starts), np.flatnonzero(last)
    head = codes[tokens]
    kind = (head == ord("(")).view(np.int8) - (head == ord(")")).view(np.int8)
    # '@' is an atom character, so an '@' right before an atom's last
    # character belongs to the same atom
    at = ord("@")
    continues = (codes[ends] == at) & (codes[ends - 1] == at) & (ends > 0)
    line_starts = np.cumsum([0] + [len(line) for line in lines])[:-1]
    first = np.append(np.searchsorted(tokens, line_starts), len(tokens))
    return BracketArrays(kind, first, np.cumsum(kind, dtype=np.intp), continues)


def well_formed_lines(tokens: BracketArrays, max_depth: int | None = None) -> int:
    """How many lines, from the first, are each one bracketed tree nested
    at most ``max_depth`` phrases deep.

    Such a line opens with '(', and only its last token brings the depth
    back to 0, and none takes it below.  Each such line ends at the depth
    it started at, so up to the first line that is not one, the depth
    counted from the first line is the depth within each line.
    """
    n_lines = len(tokens.first) - 1
    first, last = tokens.first[:-1], tokens.first[1:] - 1
    ok = last >= first
    ok[ok] = (tokens.kind[first[ok]] == 1) & (tokens.depth[last[ok]] == 0)
    low = tokens.line_of(np.flatnonzero(tokens.depth <= 0))
    ok &= np.bincount(low, minlength=n_lines) == 1
    if max_depth is not None:
        ok &= np.bincount(tokens.line_of(np.flatnonzero(tokens.depth > max_depth)),
                          minlength=n_lines) == 0
    return len(ok) if ok.all() else int(ok.argmin())


def pair_parens(tokens: BracketArrays) -> tuple[np.ndarray, np.ndarray]:
    """The parens of well-formed lines in order of (depth, position): the
    token index of each, and its depth, that of the phrase it opens or
    closes.

    At one depth each phrase's ')' is the next paren after its '(', so
    even entries are the phrases' '(' and odd ones their ')'.  The
    phrases at depth 1 come first, one per line in line order: the roots.
    """
    parens = np.flatnonzero(tokens.kind)
    level = tokens.depth[parens] + (tokens.kind[parens] < 0)
    # a stable sort keeps each depth's parens in position order
    order = np.argsort(level, kind="stable")
    return parens[order], level[order]


def span_keys(line: np.ndarray, start: np.ndarray, end: np.ndarray,
              n: np.ndarray) -> np.ndarray:
    """One int64 per (line, start, end) that sorts as the triple does,
    for spans within lines of ``n`` tokens each: the fields are as wide as
    the longest line needs."""
    width = int(n.max(initial=0)) + 1
    if len(n) * width * width > np.iinfo(np.int64).max:
        raise ValueError(f"lines of up to {width - 1} tokens are too long to score together")
    return (line.astype(np.int64) * width + start) * width + end


def repeated_keys(keys: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per line of ``n``, how many of the ``span_keys`` occur twice."""
    keys = np.sort(keys)
    width = int(n.max(initial=0)) + 1
    return np.bincount(keys[1:][keys[1:] == keys[:-1]] // (width * width), minlength=len(n))


class ReferenceArrays(NamedTuple):
    """The post-processed reference trees of a run of lines.

    ``ok`` holds for each line whether ``gold_tree_for_dump`` returns for
    ``read_bracketed(line)`` and its subwords; the other fields hold only
    when it holds for every line, and are None otherwise.  ``line``,
    ``starts`` and ``ends`` are each tree's spans other than its root
    (1, n), in no particular order.  ``first_end`` and ``last_start`` are
    each tree's ``ConstituencyTree.boundaries``, one after the other: n + 1
    entries per line.
    """

    ok: np.ndarray
    n: np.ndarray  # per line: the subwords, EOS included
    line: np.ndarray | None = None
    starts: np.ndarray | None = None
    ends: np.ndarray | None = None
    first_end: np.ndarray | None = None
    last_start: np.ndarray | None = None


def reference_arrays(tokens: BracketArrays, n: np.ndarray,
                     continues: np.ndarray) -> ReferenceArrays:
    """Post-process well-formed reference lines onto their subwords.

    ``n`` holds each line's subword count, EOS included, and ``continues``
    whether each subword ends with CONTINUATION, all lines' subwords one
    after the other.  The atom right after a '(' is the phrase's label;
    every other atom is a word.  A line is rejected, as the per-line
    readers reject it, for an empty phrase, a continuation marker on the
    subword before EOS, or a word count that its subwords do not form.

    The post-processed spans are those of the words of two or more
    subwords and of the phrases of two or more children, which are the
    phrases that hold the boundary between two adjacent words and no
    smaller phrase does.  So one search per word boundary finds both the
    phrases that stay and the innermost span over that boundary; the
    innermost span over a boundary inside a word is the word.
    """
    n_lines = len(n)
    kind, depth = tokens.kind, tokens.depth
    word = kind == 0
    word[1:] &= kind[:-1] != 1  # the atom right after '(' is its label
    words_upto = np.cumsum(word)
    parens, level = pair_parens(tokens)
    opens, closes = parens[0::2], parens[1::2]
    word_tokens = np.flatnonzero(word)
    word_line = tokens.line_of(word_tokens)

    # the subwords' words: a word ends at a subword without the marker and at EOS
    offsets = np.cumsum(n) - n
    eos = offsets + n - 1
    sub_line = np.repeat(np.arange(n_lines), n)
    word_end = ~continues
    word_end[eos] = True
    before_eos = eos[n > 1] - 1
    ok = np.bincount(tokens.line_of(opens[words_upto[closes] == words_upto[opens]]),
                     minlength=n_lines) == 0  # no empty phrase
    ok[n > 1] &= ~continues[before_eos]
    ok &= np.bincount(word_line, minlength=n_lines) + 1 == np.bincount(
        sub_line[word_end], minlength=n_lines)
    if not ok.all():
        return ReferenceArrays(ok, n)

    # word k of the subwords spans first_sub[k]..last_sub[k], counted from
    # 1 in its line; with EOS a word of its own, reference word w of line
    # l is word w + l of the subwords
    last_sub = np.flatnonzero(word_end)
    sub_word_line = sub_line[last_sub]
    first_sub = np.concatenate(([0], last_sub[:-1] + 1)) - offsets[sub_word_line] + 1
    last_sub = last_sub - offsets[sub_word_line] + 1
    word_of_sub = np.cumsum(word_end) - word_end

    # each phrase's span, and the phrase over each boundary between
    # adjacent words of a line: the one open at the right word, at the
    # depth that the ')'s after the left word come down to
    open_line = tokens.line_of(opens)
    phrase_start = first_sub[words_upto[opens] + open_line]
    phrase_end = last_sub[words_upto[closes] - 1 + open_line]
    left = np.flatnonzero(word_line[:-1] == word_line[1:])
    left_tok, right_tok = word_tokens[left], word_tokens[left + 1]
    closes_upto = np.cumsum(kind == -1)
    lca_depth = depth[left_tok] - (closes_upto[right_tok] - closes_upto[left_tok])
    stride = len(kind) + 1
    lca = np.searchsorted(level[0::2] * stride + opens, lca_depth * stride + right_tok) - 1
    held = np.zeros(len(opens), dtype=bool)
    # a phrase of k children holds k - 1 boundaries, so ``lca`` repeats
    # indices; every write stores True, so which one lands is no matter
    held[lca] = True

    # the innermost span over the boundary after each subword: its word's,
    # the phrase's between two words, the root's before EOS; EOS widens
    # the root (1, n - 1) to (1, n)
    gap_start, gap_end = first_sub[word_of_sub], last_sub[word_of_sub]
    between = word_end.copy()
    between[eos] = between[before_eos] = False
    gap_start[between], gap_end[between] = phrase_start[lca], phrase_end[lca]
    gap_start[before_eos], gap_end[before_eos] = 1, n[n > 1]
    sub_n = n[sub_line]
    root = (gap_start == 1) & (gap_end == sub_n - 1)
    gap_end[root] = sub_n[root]

    # laid out as boundaries: entry x of line l at offsets[l] + l + x
    slot = np.arange(len(continues)) + sub_line + 1  # entry b = the boundary's left subword
    line_slot = offsets + np.arange(n_lines)
    first_end = np.empty(len(continues) + n_lines, dtype=np.intp)
    last_start = np.empty_like(first_end)
    last_start[slot] = gap_start
    not_eos = np.ones(len(continues), dtype=bool)
    not_eos[eos] = False
    first_end[slot[not_eos] + 1] = gap_end[not_eos]
    first_end[line_slot] = first_end[line_slot + 1] = n
    last_start[line_slot] = last_start[slot[eos]] = 0

    # the spans that stay: multi-subword words and phrases of two or more
    # children, less the root (1, n - 1) that EOS widened
    multi = first_sub < last_sub
    line = np.concatenate((sub_word_line[multi], open_line[held]))
    starts = np.concatenate((first_sub[multi], phrase_start[held]))
    ends = np.concatenate((last_sub[multi], phrase_end[held]))
    keep = (starts != 1) | (ends != n[line] - 1)
    return ReferenceArrays(ok, n, line[keep], starts[keep], ends[keep], first_end, last_start)
