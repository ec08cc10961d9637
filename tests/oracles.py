"""Independent oracles used by the tests.

These deliberately re-derive expected values by brute force (exhaustive
enumeration of binary trees, direct recursive scoring) rather than calling
the chart parser they are checking.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from hypothesis import strategies as st

from attnsyntax import (
    AlignmentError,
    ConstituencyTree,
    EvalReport,
    SpanTree,
    TreeParseError,
    score,
)
from attnsyntax.scoring import CountingPolicy
from attnsyntax import attn_io
from attnsyntax.cli import _score_line
from attnsyntax.attn_io import (
    AttentionDump,
    DumpParseError,
    Span,
    _dump_from_record,
)
from attnsyntax.phrases import (
    Baluster,
    equalize,
    find_balusters,
    harden,
    head_phrases,
    pool_phrases,
)
from attnsyntax.selection import SelectionStep, SelectionTrace
from attnsyntax.treebank import MAX_TREE_DEPTH, RawTree
from attnsyntax.trees import _unescape_token, cky_parse

# a phrase table as ``pool_phrases`` builds it: span -> (raw, equalized) weight
PhraseWeights = dict[Span, tuple[float, float]]


def all_binary_trees(n: int) -> tuple[SpanTree, ...]:
    """Every binary tree over leaves 1..n (Catalan(n-1) of them)."""

    @lru_cache(maxsize=None)
    def over(a: int, b: int) -> tuple[SpanTree, ...]:
        if a == b:
            return (SpanTree.leaf(a),)
        trees = []
        for k in range(a, b):
            for left in over(a, k):
                for right in over(k + 1, b):
                    trees.append(SpanTree.node(left, right))
        return tuple(trees)

    return over(1, n)


def recursion_score(tree: SpanTree, weight_of: Callable[[Span], float]) -> float:
    """Score a fixed tree by the averaged recursion, leaves scoring 1."""
    if tree.is_leaf:
        return 1.0
    left, right = tree.left, tree.right
    assert left is not None and right is not None
    return (
        recursion_score(left, weight_of)
        + recursion_score(right, weight_of)
        + weight_of(left.span)
        + weight_of(right.span)
    ) / 4.0


def best_tree_by_enumeration(
    table: PhraseWeights, n: int
) -> tuple[float, SpanTree]:
    weight_of = lambda span: equalized_weight(table, span)
    best_score, best = -1.0, None
    for tree in all_binary_trees(n):
        value = recursion_score(tree, weight_of)
        if value > best_score:
            best_score, best = value, tree
    assert best is not None
    return best_score, best


def phrase_table_one_pass(dump, heads) -> PhraseWeights:
    """Harden, scan and sum head by head in one loop, then equalize: the
    reference for pooling per-head phrases computed ahead of time."""
    raw: dict[Span, float] = {}
    for layer, head in sorted(heads):
        hardened = harden(dump.matrix(layer, head))
        for baluster in find_balusters(hardened, (layer, head)):
            if baluster.mean_weight > 0.0:
                raw[baluster.span] = raw.get(baluster.span, 0.0) + baluster.mean_weight
    equalized = equalize(raw)
    return {span: (raw[span], equalized[span]) for span in sorted(raw)}


def find_balusters_by_rows(hardened: tuple[np.ndarray, np.ndarray], head) -> list[Baluster]:
    """The row loop over numpy scalars that ``find_balusters``' scan over
    a list of ints replaced, kept as its reference: each maximal run of
    two or more rows with one argmax column, weighted by its mean."""
    cols, weight = hardened
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
                    target_col=int(cols[start]),
                    mean_weight=float(weight[start:i].mean()),
                )
            )
        start = i
    return out


def hardened_by_rows(matrix) -> np.ndarray:
    """Each row's leftmost maximum kept and every other weight zeroed, one
    row and one column at a time: the reference for the dense hardened
    matrix that ``render`` draws."""
    m = np.asarray(matrix, dtype=np.float64)
    out = np.zeros_like(m)
    for i, row in enumerate(m):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        out[i, best] = row[best]
    return out


def cky_chart_by_cells(table: PhraseWeights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The chart filled one (a, b) cell at a time, the reference for the
    vectorized ``cky_chart``: same addition order, ties to the larger k."""
    if n < 1:
        raise ValueError(f"sentence length must be >= 1, got {n}")
    weights = np.zeros((n + 1, n + 1))
    for a, b in sorted(table):
        if not (1 <= a <= b <= n):
            raise ValueError(f"phrase span ({a},{b}) outside sentence 1..{n}")
        weights[a, b] = table[a, b][1]
    scores = np.zeros((n + 1, n + 1))
    splits = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        scores[i, i] = 1.0
    for length in range(2, n + 1):
        for a in range(1, n - length + 2):
            b = a + length - 1
            ks = np.arange(a, b)
            candidates = scores[a, a:b] + scores[ks + 1, b] + weights[a, a:b] + weights[ks + 1, b]
            best = candidates.size - 1 - int(np.argmax(candidates[::-1]))
            scores[a, b] = candidates[best] / 4.0
            splits[a, b] = a + best
    scores.setflags(write=False)
    splits.setflags(write=False)
    return scores, splits


def greedy_by_candidates(strategy: str, dumps, golds, objective: str = "precision",
                         counting: CountingPolicy = CountingPolicy.NONTRIVIAL) -> SelectionTrace:
    """The greedy search scored candidate by candidate, each over the whole
    dev set: the reference for the sentence-by-sentence step of
    ``greedy_addition`` and ``greedy_ablation``."""
    layers, heads = dumps[0].layers, dumps[0].heads
    all_pairs = sorted((l, h) for l in range(1, layers + 1) for h in range(1, heads + 1))
    phrases = [{head: head_phrases(dump, head) for head in all_pairs} for dump in dumps]

    def dev_score(mask):
        reports = []
        for dump, gold, per_head in zip(dumps, golds, phrases):
            table = pool_phrases({head: per_head[head] for head in mask})
            reports.append(score(cky_parse(table, dump.n), gold, counting))
        total = EvalReport.aggregate(reports)
        return total.precision if objective == "precision" else total.f1

    adding = strategy == "addition"
    current = set() if adding else set(all_pairs)
    evaluations = 1
    initial_score = dev_score(frozenset(current))
    steps = []
    for step in range(1, (len(all_pairs) if adding else len(all_pairs) - 1) + 1):
        best = None
        for head in sorted(set(all_pairs) - current if adding else current):
            value = dev_score(frozenset(current | {head} if adding else current - {head}))
            evaluations += 1
            if best is None or value > best[0]:
                best = (value, head)
        value, head = best
        if adding:
            current.add(head)
        else:
            current.remove(head)
        steps.append(SelectionStep(step, head, len(current), value))
    return SelectionTrace(strategy, (layers, heads), objective,
                          0 if adding else len(all_pairs), initial_score,
                          tuple(steps), evaluations)


def tree_from_splits_recursive(splits: np.ndarray, a: int, b: int) -> SpanTree:
    """The recursive reader of a chart's splits that the explicit-stack
    ``tree_from_splits`` replaced: the tree over a..b."""
    if a == b:
        return SpanTree.leaf(a)
    k = int(splits[a, b])
    return SpanTree.node(tree_from_splits_recursive(splits, a, k),
                         tree_from_splits_recursive(splits, k + 1, b))


def lbal_tree_left_to_right(n: int) -> SpanTree:
    """The left-aligned balanced tree by its own pairing loop, kept as the
    reference for the shared builder behind ``lbal_tree``."""
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


def rbal_tree_right_to_left(n: int) -> SpanTree:
    """The right-aligned balanced tree by its own pairing loop, kept as the
    reference for the shared builder behind ``rbal_tree``."""
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


def crosses(e: Span, p: Span) -> bool:
    """True when the spans overlap without one containing the other."""
    (a1, b1), (a2, b2) = e, p
    overlap = a1 <= b2 and a2 <= b1
    nested = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
    return overlap and not nested


def score_spans_pairwise(extracted_spans, gold_spans, n: int,
                         counting: CountingPolicy) -> EvalReport:
    """Consistency counts by checking ``crosses`` pair by pair: the
    reference for both of ``score``'s O(1) rules, over any two span sets."""
    extracted, gold = set(extracted_spans), set(gold_spans)

    def counted(spans):
        if counting is CountingPolicy.ALL:
            return list(spans)
        return [s for s in spans if s[1] > s[0] and s != (1, n)]

    def consistent(e, others):
        return not any(crosses(e, p) for p in others)

    return EvalReport(
        extracted_phrases_total=len(counted(extracted)),
        extracted_consistent=sum(consistent(e, gold) for e in counted(extracted)),
        gold_phrases_total=len(counted(gold)),
        gold_consistent=sum(consistent(p, extracted) for p in counted(gold)),
    )


def random_phrase_table(
    rng: np.random.Generator, n: int, density: float = 0.35
) -> PhraseWeights:
    entries = {}
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            if rng.random() < density:
                w = float(rng.uniform(0.05, 3.0))
                entries[(a, b)] = (w, w)
    return entries


def all_spans_table(n: int, weight_of: Callable[[int, int], float]) -> PhraseWeights:
    """Every span of two or more subwords at ``weight_of(a, b)``, but for
    the spans it weighs 0."""
    entries = {}
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            w = float(weight_of(a, b))
            if w:
                entries[(a, b)] = (w, w)
    return entries


def table_kinds(rng: np.random.Generator, n: int, kinds) -> list[PhraseWeights]:
    """One table of each kind: 0 random, 1 tie-heavy, 2 empty, 3 all ones."""
    small = rng.integers(0, 3, size=(n + 1, n + 1))
    make = (
        lambda: random_phrase_table(rng, n, float(rng.choice([0.1, 0.35, 0.9]))),
        lambda: all_spans_table(n, lambda a, b: small[a, b]),
        lambda: {},
        lambda: all_spans_table(n, lambda a, b: 1.0),
    )
    return [make[kind]() for kind in kinds]


def split_blocks(tables: Sequence[PhraseWeights]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Phrase tables as ``cky_splits`` blocks: the first half as one block
    over every span any of them holds, 0.0 where a table holds no such
    span, and the rest as a block each."""
    half = len(tables) // 2
    spans = sorted({span for table in tables[:half] for span in table})
    blocks = [(np.array(spans, dtype=np.intp).reshape(-1, 2),
               np.array([[table.get(span, (0.0, 0.0))[1] for span in spans]
                         for table in tables[:half]]).reshape(half, len(spans)))]
    for table in tables[half:]:
        blocks.append((np.array(list(table), dtype=np.intp).reshape(-1, 2),
                       np.array([[weight for _, weight in table.values()]])))
    return blocks


def equalized_weight(table: PhraseWeights, span: Span) -> float:
    """A span's equalized weight in a phrase table, 0 when it is absent."""
    entry = table.get(span)
    return entry[1] if entry is not None else 0.0


def gold_from_spans(spans, n: int, tokens=None) -> ConstituencyTree:
    """The reference tree over n tokens whose phrases are the laminar span
    set ``spans``, single positions left out.  Sorting a laminar set by
    (end, -start) puts it in postorder."""
    phrases = sorted({(a, b) for a, b in spans if a < b}, key=lambda s: (s[1], -s[0]))
    if tokens is None:
        tokens = [f"t{i}" for i in range(1, n + 1)]
    return ConstituencyTree(tuple(phrases), tuple(tokens))


def gold_from_span_tree(tree: SpanTree, tokens=None) -> ConstituencyTree:
    """View a binary span tree as a reference tree (for self-comparisons)."""
    return gold_from_spans(tree.preorder, tree.n, tokens)


def load_dump_json(path) -> list[AttentionDump]:
    """The text-mode ``json.loads`` loader that orjson decoding replaced.

    Kept as the reference for ``load_dump`` on well-formed dumps; its record
    cap, ``attn_io.MAX_RECORD_BYTES`` read at each call, counts characters,
    not bytes, and it accepts NaN, Infinity, huge integers and lone
    surrogates that ``load_dump`` rejects.
    """
    max_record_bytes = attn_io.MAX_RECORD_BYTES
    dumps: list[AttentionDump] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if len(line) > max_record_bytes:
                raise DumpParseError(
                    f"line {lineno}: record exceeds {max_record_bytes} bytes"
                )
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DumpParseError(f"line {lineno}: {exc}") from exc
            dumps.append(_dump_from_record(record, lineno))
    return dumps


def dump_record_json(dump: AttentionDump) -> str:
    """The ``json.dumps`` writer that orjson's numpy serializer replaced,
    kept as the reference for ``dump_record``'s bytes."""
    payload = {
        "id": dump.sentence_id,
        "subwords": list(dump.subwords),
        "attn": dump.matrices.tolist(),
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


_TREE_LINES = st.recursive(
    st.sampled_from(["a", "bc", "-LRB-"]),
    lambda kids: st.tuples(st.sampled_from(["", "S ", "NP "]), st.lists(kids, min_size=1, max_size=3)).map(
        lambda t: "(" + t[0] + " ".join(t[1]) + ")"
    ),
    max_leaves=8,
)
# bracketed lines, well-formed or with one character replaced: input for
# comparing the tree parsers with their recursive references
BRACKET_LINES = st.tuples(
    _TREE_LINES, st.integers(0, 40), st.sampled_from(["", "(", ")", " x", "()", " "])
).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1 :])


# The token pattern that ``treebank.bracket_tokens`` replaced, kept as its
# reference: a parenthesis, or a run of anything else up to whitespace or a
# parenthesis.  For str patterns ``\s`` matches exactly the characters for
# which ``str.isspace()`` is true.
BRACKET_TOKEN = re.compile(r"[()]|[^\s()]+")


def lex_by_chars(text: str) -> Iterator[tuple[str, str, int]]:
    """The character loop that the token pattern ``BRACKET_TOKEN`` replaced,
    kept as its reference: ``(kind, value, offset)`` for each token."""
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


def raw_leaves(tree: "RawTree | RawNode") -> list[str]:
    """Leaf words of a raw tree in left-to-right order."""
    if isinstance(tree, tuple):
        tree = raw_node_of(tree)
    out: list[str] = []
    for child in tree.children:
        if isinstance(child, str):
            out.append(child)
        else:
            out.extend(raw_leaves(child))
    return out


def postprocess_steps_two_walks(
    raw: RawTree, segmentation: Sequence[Sequence[str]]
) -> "NestedConstituencyTree":
    """The post-processing that the one-walk ``postprocess_steps`` replaced:
    count the words, wrap and split every word into a phrase of its
    subwords, then flatten every phrase with one child in a second walk."""
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

    def strip_wrap_split(node: RawNode | str) -> Phrase:
        if isinstance(node, str):
            return Phrase(tuple(next(parts)))
        return Phrase(tuple(map(strip_wrap_split, node.children)))

    def flatten(node: Phrase | str) -> Phrase | str:
        if isinstance(node, str):
            return node
        children = tuple(map(flatten, node.children))
        if len(children) == 1:
            return children[0]
        return Phrase(children)

    return NestedConstituencyTree(flatten(strip_wrap_split(raw_node_of(raw))))


def read_bracketed_recursive(text: str) -> RawTree:
    """The recursive-descent ``read_bracketed`` that the stack parser replaced.

    Kept as the reference for results and error messages on trees shallow
    enough for Python's recursion limit.
    """
    items = list(lex_by_chars(text))
    if not items:
        raise TreeParseError("empty input at offset 0")
    pos = 0

    def parse_node() -> RawNode:
        nonlocal pos
        label = None
        if pos < len(items) and items[pos][0] == "atom":
            label = items[pos][1]
            pos += 1
        children: list = []
        while True:
            if pos >= len(items):
                raise TreeParseError(f"unbalanced '(' at offset {len(text)}")
            kind, value, offset = items[pos]
            pos += 1
            if kind == "close":
                if not children:
                    raise TreeParseError(f"empty phrase at offset {offset}")
                return RawNode(label, children)
            children.append(parse_node() if kind == "open" else value)

    kind, _, offset = items[0]
    if kind != "open":
        raise TreeParseError(f"expected '(' at offset {offset}")
    pos = 1
    tree = parse_node()
    if pos != len(items):
        raise TreeParseError(f"trailing content at offset {items[pos][2]}")
    return raw_tree_of(tree)


def parse_span_tree_recursive(line: str) -> tuple[SpanTree, tuple[str, ...]]:
    """The recursive-descent ``parse_span_tree`` that the stack parser replaced,
    kept as the reference in the same way as ``read_bracketed_recursive``."""
    tokens: list[str] = []
    items = line.replace("(", " ( ").replace(")", " ) ").split()
    if not items:
        raise TreeParseError("empty tree line")
    pos = 0

    def parse() -> SpanTree:
        nonlocal pos
        item = items[pos]
        if item == ")":
            raise TreeParseError(f"unexpected ')' at item {pos + 1}")
        pos += 1
        if item != "(":
            tokens.append(_unescape_token(item))
            return SpanTree.leaf(len(tokens))
        children = []
        while pos < len(items) and items[pos] != ")":
            children.append(parse())
        if pos >= len(items):
            raise TreeParseError("unbalanced '(': end of line before ')'")
        pos += 1
        if len(children) != 2:
            raise TreeParseError(
                f"extracted trees must be strictly binary, found a node "
                f"with {len(children)} children"
            )
        return SpanTree.node(children[0], children[1])

    tree = parse()
    if pos != len(items):
        raise TreeParseError(f"trailing content after tree at item {pos + 1}")
    return tree, tuple(tokens)


# --- reference trees as nested nodes --------------------------------------
# The node-per-phrase pipeline that the postorder tuples of ``RawTree`` and
# ``ConstituencyTree`` replaced: a stack reader building one ``RawNode`` per
# phrase, one recursive walk building ``Phrase`` nodes, and one recursive
# walk over those for n, the spans and the boundary arrays.


@dataclass(frozen=True)
class Phrase:
    """Unlabeled n-ary phrase; children are phrases or subword leaves."""

    children: tuple[Union["Phrase", str], ...]


@dataclass
class RawNode:
    """Labeled n-ary node as the nested reader builds it; leaves are words."""

    label: str | None
    children: list[Union["RawNode", str]]


def read_bracketed_nodes(text: str) -> RawNode:
    """The stack reader with one ``RawNode`` per phrase, kept as the
    reference for ``read_bracketed``'s results, messages and offsets."""
    open_phrases: list[RawNode] = []  # outermost first
    tree: RawNode | None = None
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
            open_phrases.append(RawNode(None, []))
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


def raw_tree_of(node: RawNode) -> RawTree:
    """The same tree as a ``RawTree`` postorder tuple, by one recursive walk."""
    postorder: list = []

    def walk(node: RawNode | str) -> None:
        if isinstance(node, str):
            postorder.append(node)
        else:
            for child in node.children:
                walk(child)
            postorder.append((node.label, len(node.children)))

    walk(node)
    return tuple(postorder)


def raw_node_of(tree: RawTree) -> RawNode:
    """A ``RawTree`` postorder tuple read back as nested nodes: a phrase
    ``(label, arity)`` takes the last ``arity`` subtrees before it."""
    subtrees: list[RawNode | str] = []
    for item in tree:
        if isinstance(item, str):
            subtrees.append(item)
        else:
            label, arity = item
            children = subtrees[len(subtrees) - arity :]
            del subtrees[len(subtrees) - arity :]
            subtrees.append(RawNode(label, children))
    (root,) = subtrees
    return root


@dataclass(frozen=True)
class NestedConstituencyTree:
    """A post-processed reference tree as nested ``Phrase`` nodes, its views
    computed by one recursive walk."""

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
        return self._walk[1]

    @property
    def boundaries(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self._walk[2], self._walk[3]

    def flat(self) -> ConstituencyTree:
        """The same tree as ``ConstituencyTree``'s two tuples."""
        return ConstituencyTree(self._walk[4], self.leaves())

    @cached_property
    def _walk(self) -> tuple[int, frozenset[Span], tuple[int, ...], tuple[int, ...],
                             tuple[Span, ...]]:
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
        for c, d in reversed(postorder):
            first_end[c + 1 : d + 1] = [d] * (d - c)
            last_start[c:d] = [c] * (d - c)
        return n, frozenset(postorder), tuple(first_end), tuple(last_start), tuple(postorder)

    def to_bracketed(self) -> str:
        def render(node: Phrase | str) -> str:
            if isinstance(node, str):
                return node
            return "(" + " ".join(map(render, node.children)) + ")"

        return render(self.root)


def postprocess_steps_walk(
    raw: RawNode, segmentation: Sequence[Sequence[str]]
) -> NestedConstituencyTree:
    """The one recursive walk that ``postprocess_steps``'s postorder loop
    replaced: a word becomes its subwords, a phrase left with one child
    becomes that child, and the walk counts the words."""
    words = 0

    def convert(node: RawNode | str) -> Phrase | str:
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
    return NestedConstituencyTree(root)


def attach_eos_nested(tree: NestedConstituencyTree, eos: str = "EOS") -> NestedConstituencyTree:
    """EOS as one more child of the root, a lone leaf becoming a phrase."""
    if isinstance(tree.root, str):
        return NestedConstituencyTree(Phrase((tree.root, eos)))
    return NestedConstituencyTree(Phrase(tree.root.children + (eos,)))


def postprocess_walk(
    raw: RawNode, segmentation: Sequence[Sequence[str]], eos: str = "EOS"
) -> NestedConstituencyTree:
    """``postprocess_steps_walk``, then EOS as one more child of the root."""
    return attach_eos_nested(postprocess_steps_walk(raw, segmentation), eos)



def evaluate_files_per_line(
    extracted_path, gold_path, counting: CountingPolicy = CountingPolicy.NONTRIVIAL
) -> tuple[EvalReport, list[EvalReport]]:
    """The per-line loop that ``cli.evaluate_files``' array passes
    replaced, kept as their reference: read both files whole, each line
    decoded alone (a line that is no UTF-8 is named by file and line),
    compare their line counts, then read and score each pair of lines
    with the per-line readers."""
    lines = []
    for path in (extracted_path, gold_path):
        with open(path, "rb") as fh:
            data = fh.read()
        *ended, last = data.split(b"\n")
        texts = []
        for lineno, line in enumerate([line + b"\n" for line in ended] + [last], start=1):
            try:
                texts.append(line.decode("utf-8").removesuffix("\n"))
            except UnicodeDecodeError as exc:
                raise TreeParseError(f"{path}: line {lineno}: {exc}") from None
        if not last:  # nothing after the final LF, or an empty file
            texts.pop()
        lines.append(texts)
    extracted_lines, gold_lines = lines
    if len(extracted_lines) != len(gold_lines):
        raise AlignmentError(
            f"{extracted_path} has {len(extracted_lines)} lines but "
            f"{gold_path} has {len(gold_lines)}"
        )
    reports = [
        _score_line(index, extracted, gold, counting)
        for index, (extracted, gold) in enumerate(zip(extracted_lines, gold_lines), start=1)
    ]
    return EvalReport.aggregate(reports), reports
