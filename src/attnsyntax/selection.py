"""Greedy search over head subsets maximizing extracted-tree precision.

Addition starts from the empty set and adds the head that maximizes the
dev-set objective at each step until every head is in; ablation starts
from the full set and removes heads one by one down to a single head.
The best mask is the highest-scoring step encountered, earliest on ties.
Candidate ties within a step go to the lowest (layer, head) pair, so a
trace is a pure function of its inputs.

The search reads each dev sentence as a ``DevSentence``: its size, head
universe and every head's candidate phrases, with no attention matrices,
so a dev set costs memory by its phrases, not by its weights.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np

from .attn_io import AttentionDump, Head, Span, all_heads
from .errors import AlignmentError
from .phrases import HeadPhrases, head_phrases
from .scoring import CountingPolicy, EvalReport, reference_masks, score_nodes
from .treebank import ConstituencyTree
from .trees import cky_chart, cky_splits, tree_nodes

log = logging.getLogger(__name__)

OBJECTIVES = ("precision", "f1")


@dataclass(frozen=True)
class SelectionStep:
    step: int
    head: Head  # the head toggled at this step
    mask_size: int
    score: float


@dataclass(frozen=True)
class SelectionTrace:
    strategy: str  # "addition" | "ablation"
    universe: tuple[int, int]
    objective: str
    initial_mask_size: int
    initial_score: float
    steps: tuple[SelectionStep, ...]
    evaluations: int  # dev-set evaluations performed, O((L*H)^2)

    def mask_at(self, step: int) -> frozenset[Head]:
        """The heads in effect after the given 1-based step (0 = initial)."""
        if not 0 <= step <= len(self.steps):
            raise ValueError(f"step {step} outside 0..{len(self.steps)}")
        toggled = frozenset(s.head for s in self.steps[:step])
        if self.strategy == "addition":
            return toggled
        return frozenset(all_heads(*self.universe)) - toggled

    @property
    def best_step(self) -> SelectionStep | None:
        best = None
        for step in self.steps:
            if best is None or step.score > best.score:
                best = step
        return best

    @property
    def best_score(self) -> float:
        best = self.best_step
        return self.initial_score if best is None else best.score

    @property
    def best_mask(self) -> frozenset[Head]:
        best = self.best_step
        return self.mask_at(0 if best is None else best.step)

    def to_text(self) -> str:
        sign = "+" if self.strategy == "addition" else "-"
        lines = [
            f"strategy: {self.strategy}",
            f"universe: layers={self.universe[0]} heads={self.universe[1]}",
            f"objective: {self.objective}",
            f"evaluations: {self.evaluations}",
            f"initial: size={self.initial_mask_size} {self.objective}={self.initial_score:.6f}",
        ]
        for step in self.steps:
            lines.append(
                f"step {step.step:03d}: {sign}{step.head[0]}:{step.head[1]} "
                f"size={step.mask_size} {self.objective}={step.score:.6f}"
            )
        lines.append(
            f"best: size={len(self.best_mask)} {self.objective}={self.best_score:.6f} "
            f"heads={heads_spec(self.best_mask, self.universe)}"
        )
        return "\n".join(lines) + "\n"


def heads_spec(heads: Collection[Head], universe: tuple[int, int]) -> str:
    """A head set in ``--heads`` syntax: ``all`` for the whole universe,
    else the sorted comma list of ``layer:head`` pairs."""
    if len(heads) == universe[0] * universe[1]:
        return "all"
    return ",".join(f"{layer}:{head}" for layer, head in sorted(heads))


@dataclass(frozen=True)
class DevSentence:
    """What the head search uses of one dump: every head's phrases, made
    once by ``dev_sentence``, in place of the matrices."""

    sentence_id: str
    n: int
    universe: tuple[int, int]  # (layers, heads)
    subwords: tuple[str, ...]
    phrases: Mapping[Head, HeadPhrases]  # every head of the universe


def dev_sentence(dump: AttentionDump) -> DevSentence:
    """Harden and scan every head of ``dump`` once; the search then only
    pools the phrases."""
    universe = (dump.layers, dump.heads)
    return DevSentence(dump.sentence_id, dump.n, universe, dump.subwords,
                       {head: head_phrases(dump, head) for head in all_heads(*universe)})


def _check_dev_set(
    sentences: Sequence[DevSentence],
    golds: Sequence[ConstituencyTree],
) -> tuple[int, int]:
    if not sentences:
        raise ValueError("empty dev set")
    if len(sentences) != len(golds):
        raise ValueError(f"{len(sentences)} dev sentences but {len(golds)} reference trees")
    universe = sentences[0].universe
    for sentence, gold in zip(sentences, golds):
        if sentence.universe != universe:
            raise ValueError(
                f"sentence {sentence.sentence_id!r} has universe "
                f"({sentence.universe[0]},{sentence.universe[1]}), expected {universe}"
            )
        if gold.n != sentence.n:
            raise AlignmentError(
                f"sentence {sentence.sentence_id!r} has {sentence.n} subwords "
                f"but its reference tree has {gold.n}"
            )
    return universe


# The tables waiting for a chart are all filled, each length's group with
# one ``cky_splits`` call, once their stacked [scores | weights] and splits
# buffers, 24 (n+1)^2 bytes per table, reach this many bytes in all: 46
# tables at n = 30, 11 at n = 64.  Per chart, groups of this size took
# 0.063 ms at n = 30 and 0.52 ms at n = 64, against 0.072 and 0.73 ms at
# half of it, 0.061 and 0.42 ms at twice it, and 0.19 and 0.71 ms for one
# ``cky_chart`` call (96 random tables, best of 5, medians of 3 such runs;
# shared 2-core x86-64, numpy 2.4).  Twice the budget gains little at the
# paper's n = 30 for twice the memory.  A fill step's largest temporary
# takes at most 8 (n/2)^2 bytes per table, so about _FILL_BYTES / 12 for a
# group (87 KB), which keeps it under the 128 KiB mmap threshold that
# ``cli`` pins: larger blocks are mapped afresh and page-faulted on every
# step.  The pooling arrays are held to the same size.  The waiting tables
# are what the search holds beyond its dev sentences, with their slots and
# masks, and the step it pools: at most the budget's worth of tables,
# whatever the dev set's size or lengths, each a row of 8 bytes per span
# that a head of its sentence holds.
_FILL_BYTES = 1 << 20

# A smaller group, such as one of a length that few dev sentences share,
# what is left at the end of a step, or every group past n = 78 (where the
# budget holds fewer tables), is filled chart by chart: a group costs about
# as much per chart as ``cky_chart`` at 4 tables at n = 30, and at 8 tables
# at n = 64 and 80.
_MIN_GROUP = 8


class _Pooling(NamedTuple):
    """One dev sentence as the search pools and scores it, built once per
    search by ``_pooling``.

    The slots are the spans that some head holds, by length, then start.
    Rank r holds for each slot the r-th head that holds it, in sorted head
    order, as its index in the universe, and that head's weight of it;
    past a slot's last head, the universe's size, which no trial holds,
    and 0.0.
    """

    n: int
    spans: np.ndarray  # (slots, 2)
    holders: np.ndarray  # (ranks, slots)
    weights: np.ndarray  # (ranks, slots)
    sort_key: np.ndarray  # (slots,) each slot's length, then start, as one number
    starts: np.ndarray  # the first slot of each span length
    length_of: np.ndarray  # (slots,) the index in ``starts`` of each slot's length
    masks: np.ndarray  # ``reference_masks`` of its reference tree, packed into bits


def _pooling(sentence: DevSentence, gold: ConstituencyTree, heads: Sequence[Head],
             counting: CountingPolicy) -> _Pooling:
    """``sentence``'s slots, ranks and reference masks over the universe's
    sorted ``heads``."""
    held: dict[Span, list[tuple[int, float]]] = {}
    for index, head in enumerate(heads):
        for span, weight in sentence.phrases[head]:
            held.setdefault(span, []).append((index, weight))
    spans = sorted(held, key=lambda span: (span[1] - span[0], span[0]))
    holders = np.full((max(map(len, held.values()), default=0), len(spans)), len(heads))
    weights = np.zeros(holders.shape)
    for slot, span in enumerate(spans):
        for rank, (index, weight) in enumerate(held[span]):
            holders[rank, slot] = index
            weights[rank, slot] = weight
    spans = np.array(spans, dtype=np.intp).reshape(-1, 2)
    lengths = spans[:, 1] - spans[:, 0]
    new_length = np.diff(lengths, prepend=-1) > 0
    n = sentence.n
    return _Pooling(n, spans, holders, weights,
                    lengths * (len(heads) + 1) * (n + 1) + spans[:, 0],
                    np.flatnonzero(new_length), np.cumsum(new_length) - 1,
                    np.packbits(reference_masks(gold, counting)))


def _tables(pooling: _Pooling, member: np.ndarray) -> np.ndarray:
    """Each trial's pooled table as a row over the sentence's slots: the
    equalized weight of each span it holds, bitwise ``pool_phrases``', and
    -1.0 for a span it does not hold.  ``member`` holds a row per trial of
    whether it holds each head of the universe, and one more column that
    no trial holds.

    Raw weights are summed over the ranks, that is in sorted head order,
    as ``pool_phrases`` sums them; a head the trial does not hold adds 0.0,
    which changes no sum.  ``equalize`` then sums each length's raw weights
    in the raw table's insertion order: by the first head of the trial
    that holds the span, then by the span's start, as a head's phrases
    come in row order.  So each row's slots are sorted by that key within
    each length, and each length's total is a left fold of them with
    ``np.add.accumulate``.  ``raw * count / total`` is then ``equalize``'s
    own arithmetic.
    """
    trials, slots = len(member), len(pooling.spans)
    never = member.shape[1] - 1
    raw = np.zeros((trials, slots))
    first = np.full((trials, slots), never)  # the trial's first head holding each slot
    for holder, weight in zip(pooling.holders, pooling.weights):
        held = member[:, holder]
        raw += held * weight
        np.minimum(first, np.where(held, holder, never), out=first)
    present = first < never
    ranked = np.take_along_axis(
        raw, np.argsort(pooling.sort_key + first * (pooling.n + 1), axis=1), axis=1)
    totals = np.empty((trials, len(pooling.starts)))
    for length, (start, stop) in enumerate(zip(pooling.starts, [*pooling.starts[1:], slots])):
        totals[:, length] = np.add.accumulate(ranked[:, start:stop], axis=1)[:, -1]
    counts = np.add.reduceat(present, pooling.starts, axis=1, dtype=np.int64)
    table = np.full((trials, slots), -1.0)
    at = pooling.length_of
    np.divide(raw * counts[:, at], totals[:, at], out=table, where=present)
    return table


class _Fills:
    """Distinct phrase tables waiting for a chart, grouped by n across dev
    sentences, and the per-trial totals their reports go to.

    A sentence's distinct tables wait as rows over its slots, with the
    index of each trial's table among them.  Once the waiting tables reach
    ``_FILL_BYTES`` in all, and at the end of a step, ``flush`` fills every
    group, each with one ``cky_splits`` call, or chart by chart if it holds
    fewer than ``_MIN_GROUP`` tables.  The group's trees are read off
    together by ``tree_nodes`` and scored by ``score_nodes`` against each
    sentence's masks, and each chart's counts go to the totals of every
    trial that pooled to its table.  Grouping across sentences pays where
    sentences of one length come within the budget of each other;
    otherwise a group holds about one sentence's tables.
    """

    def __init__(self, trials: int, counting: CountingPolicy) -> None:
        self.counting = counting
        self.totals = np.zeros((trials, 4), dtype=np.int64)  # EvalReport's fields
        self.waiting: dict[int, list[tuple[_Pooling, np.ndarray, np.ndarray]]] = {}
        self.bytes = 0
        self.filled = 0

    def add(self, pooling: _Pooling, tables: np.ndarray, ids: np.ndarray) -> None:
        """Queue ``tables``, rows over ``pooling``'s slots; trial i pooled
        to tables[ids[i]] if 0 <= ids[i] < len(tables).  The tables are
        split where the budget fills."""
        chart = 24 * (pooling.n + 1) ** 2
        while len(tables):
            take = -(-(_FILL_BYTES - self.bytes) // chart)  # the tables that reach the budget
            piece = tables[:take]
            self.waiting.setdefault(pooling.n, []).append((pooling, piece, ids))
            self.bytes += chart * len(piece)
            tables, ids = tables[take:], ids - take
            if self.bytes >= _FILL_BYTES:
                self.flush()

    def flush(self) -> None:
        for n, group in self.waiting.items():
            self._fill(n, group)
        self.waiting.clear()
        self.bytes = 0

    def _fill(self, n: int, group: list[tuple[_Pooling, np.ndarray, np.ndarray]]) -> None:
        count = sum(len(tables) for _, tables, _ in group)
        if count >= _MIN_GROUP:
            splits = cky_splits([(pooling.spans, tables) for pooling, tables, _ in group], n)
        else:
            splits = np.array([
                cky_chart(dict(zip(map(tuple, pooling.spans.tolist()), zip(row, row))), n)[1]
                for pooling, tables, _ in group for row in tables.tolist()])
        nodes = tree_nodes(splits)
        size = (n + 1) ** 2
        column = 0
        for pooling, tables, ids in group:
            masks = np.unpackbits(pooling.masks, count=2 * size).view(bool)
            counts = score_nodes(nodes[column : column + len(tables)],
                                 masks.reshape(2, n + 1, n + 1), self.counting)
            hit = (ids >= 0) & (ids < len(tables))
            self.totals[hit] += counts[ids[hit]]
            column += len(tables)
        self.filled += count


def _members(heads: Sequence[Head], trials: Sequence[frozenset[Head]]) -> np.ndarray:
    """Whether each trial holds each of the sorted ``heads``: a row per
    trial, and one more column that no trial holds."""
    index = {head: i for i, head in enumerate(heads)}
    member = np.zeros((len(trials), len(heads) + 1), dtype=bool)
    for i, trial in enumerate(trials):
        member[i, [index[head] for head in trial]] = True
    return member


def _dev_reports(
    poolings: Sequence[_Pooling],
    heads: Sequence[Head],
    trials: Sequence[frozenset[Head]],
    counting: CountingPolicy,
) -> tuple[list[EvalReport], int, int]:
    """Every trial head set's pooled report on the dev set, the number of
    distinct tables its sentences pooled to and the number of charts
    filled for them.

    A sentence's tree depends only on its length and its pooled table's
    equalized weights.  So per sentence every trial's table is pooled at
    once, as a row of ``_tables``, and the rows are told apart by their
    bytes.  A row's bytes are its key: equal weights are equal bytes, as
    no weight is NaN or -0.0, and a span held at a weight of 0.0 stays
    apart from a span not held.  Each distinct table waits in ``_Fills``
    for one chart, filled with others of its length from any dev sentence.
    Its counts count for every trial that pooled to it.  No heads give the
    all-weights-zero parse (left-branching by tie-break).  The counts are
    integers, so adding them up in fill order gives the same totals as
    trial by trial.  Trials are pooled in blocks whose arrays, of 8 bytes
    per trial and slot, hold at most about _FILL_BYTES / 12 bytes.
    """
    member = _members(heads, trials)
    fills = _Fills(len(trials), counting)
    distinct = 0
    for pooling in poolings:
        block = max(1, _FILL_BYTES // 12 // (8 * max(1, len(pooling.spans))))
        seen: dict[bytes, int] = {}
        ids = np.empty(len(trials), dtype=np.intp)
        new_tables = []
        for start in range(0, len(trials), block):
            tables = _tables(pooling, member[start : start + block])
            new = []
            for i, row in enumerate(tables):
                key = row.tobytes()
                if key not in seen:
                    seen[key] = len(seen)
                    new.append(i)
                ids[start + i] = seen[key]
            new_tables.append(np.maximum(tables[new], 0.0))  # a span not held weighs 0
        first = 0
        for tables in new_tables:
            fills.add(pooling, tables, ids - first)
            first += len(tables)
        distinct += len(seen)
    fills.flush()
    return [EvalReport(*counts) for counts in fills.totals.tolist()], distinct, fills.filled


def _greedy(
    strategy: str,
    sentences: Sequence[DevSentence],
    golds: Sequence[ConstituencyTree],
    objective: str,
    counting: CountingPolicy,
) -> SelectionTrace:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    universe = _check_dev_set(sentences, golds)
    all_pairs = all_heads(*universe)
    heads = sorted(all_pairs)
    poolings = [_pooling(sentence, gold, heads, counting)
                for sentence, gold in zip(sentences, golds)]

    def evaluated(step: int, trials: list[frozenset[Head]]) -> list[float]:
        totals, distinct, charts = _dev_reports(poolings, heads, trials, counting)
        pooled = len(trials) * len(sentences)
        log.debug("%s step %d: %d evaluations over %d sentences, %d tables pooled, "
                  "%d distinct, %d charts filled, %d reports reused", strategy, step,
                  len(trials), len(sentences), pooled, distinct, charts, pooled - charts)
        return [total.precision if objective == "precision" else total.f1 for total in totals]

    adding = strategy == "addition"
    current: set[Head] = set() if adding else set(all_pairs)
    evaluations = 1
    [initial_score] = evaluated(0, [frozenset(current)])
    n_steps = len(all_pairs) if adding else len(all_pairs) - 1

    steps: list[SelectionStep] = []
    for step in range(1, n_steps + 1):
        candidates = sorted(set(all_pairs) - current if adding else current)
        trials = [frozenset(current | {h} if adding else current - {h}) for h in candidates]
        values = evaluated(step, trials)
        evaluations += len(candidates)
        best: tuple[float, Head] | None = None
        for value, head in zip(values, candidates):
            if best is None or value > best[0]:  # ties keep the lowest pair
                best = (value, head)
        assert best is not None
        value, head = best
        if adding:
            current.add(head)
        else:
            current.remove(head)
        steps.append(SelectionStep(step, head, len(current), value))
        log.info("%s step %d: %s%s -> %s=%.6f", strategy, step,
                 "+" if adding else "-", head, objective, value)

    return SelectionTrace(
        strategy=strategy,
        universe=universe,
        objective=objective,
        initial_mask_size=0 if adding else len(all_pairs),
        initial_score=initial_score,
        steps=tuple(steps),
        evaluations=evaluations,
    )


def greedy_addition(
    sentences: Sequence[DevSentence],
    golds: Sequence[ConstituencyTree],
    objective: str = "precision",
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> SelectionTrace:
    """Empty mask to full mask, one precision-maximizing head at a time."""
    return _greedy("addition", sentences, golds, objective, counting)


def greedy_ablation(
    sentences: Sequence[DevSentence],
    golds: Sequence[ConstituencyTree],
    objective: str = "precision",
    counting: CountingPolicy = CountingPolicy.NONTRIVIAL,
) -> SelectionTrace:
    """Full mask down to a single head, removing the best head to drop."""
    return _greedy("ablation", sentences, golds, objective, counting)


def layer_distribution(heads: Collection[Head], layers: int) -> dict[int, float]:
    """Fraction of the given heads in each of layers 1..``layers``."""
    if not heads:
        raise ValueError("empty head mask")
    counts = Counter(layer for layer, _ in heads)
    return {layer: counts.get(layer, 0) / len(heads) for layer in range(1, layers + 1)}
