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
from typing import Collection, Mapping, Sequence

from .attn_io import AttentionDump, Head, Span, all_heads
from .errors import AlignmentError
from .phrases import HeadPhrases, head_phrases, pool_phrases
from .scoring import CountingPolicy, EvalReport, score
from .treebank import ConstituencyTree
from .trees import cky_chart, cky_splits, tree_from_splits

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
# paper's n = 30 for twice the memory.  The waiting tables are what the
# search holds beyond its dev sentences and the sentence it pools: at most
# the budget's worth of tables, whatever the dev set's size or lengths.  A
# table that holds every span takes about 4 times its buffers (93 KB at
# n = 30), so they hold at most about 4 MiB.
_FILL_BYTES = 1 << 20

# A smaller group, such as one of a length that few dev sentences share,
# what is left at the end of a step, or every group past n = 78 (where the
# budget holds fewer tables), is filled chart by chart: a group costs about
# as much per chart as ``cky_chart`` at 4 tables at n = 30, and at 8 tables
# at n = 64 and 80.
_MIN_GROUP = 8


class _Fills:
    """Distinct phrase tables waiting for a chart, grouped by n across dev
    sentences, and the totals their reports go to.

    Each table waits with its reference tree and the trials it stands for,
    and its report is added to each of those trials' totals.  Once the
    waiting tables reach ``_FILL_BYTES`` in all, and at the end of a step,
    ``flush`` fills every group, each with one ``cky_splits`` call, or
    chart by chart if it holds fewer than ``_MIN_GROUP`` tables.  Grouping
    across sentences pays where sentences of one length come within the
    budget of each other; otherwise a group holds about one sentence's
    tables.
    """

    def __init__(self, trials: int, counting: CountingPolicy) -> None:
        self.counting = counting
        self.totals = [EvalReport()] * trials
        self.waiting: dict[int, list[tuple[Mapping, ConstituencyTree, list[int]]]] = {}
        self.bytes = 0
        self.filled = 0

    def add(self, n: int, table: Mapping, gold: ConstituencyTree, trials: list[int]) -> None:
        self.waiting.setdefault(n, []).append((table, gold, trials))
        self.bytes += 24 * (n + 1) ** 2
        if self.bytes >= _FILL_BYTES:
            self.flush()

    def flush(self) -> None:
        for n, group in self.waiting.items():
            self._fill(n, group)
        self.waiting.clear()
        self.bytes = 0

    def _fill(self, n: int, group: list[tuple[Mapping, ConstituencyTree, list[int]]]) -> None:
        tables = [table for table, _, _ in group]
        if len(tables) >= _MIN_GROUP:
            charts = cky_splits(tables, n)
        else:
            charts = [cky_chart(table, n)[1] for table in tables]
        for (_, gold, trials), splits in zip(group, charts):
            report = score(tree_from_splits(n, splits.item), gold, self.counting)
            for i in trials:
                self.totals[i] = self.totals[i].merged(report)
        self.filled += len(group)


def _table_key(table: Mapping[Span, tuple[float, float]]) -> tuple:
    """What a sentence's chart depends on: each span's equalized weight."""
    return tuple((span, weight) for span, (_, weight) in table.items())


def _dev_reports(
    sentences: Sequence[DevSentence],
    golds: Sequence[ConstituencyTree],
    trials: Sequence[frozenset[Head]],
    counting: CountingPolicy,
) -> tuple[list[EvalReport], int]:
    """Every trial head set's pooled report on the dev set, and the number
    of charts filled for it.

    A sentence's tree depends only on its length and its pooled table's
    equalized weights.  So per sentence each trial's table is pooled and
    keyed by those weights, and each distinct table waits in ``_Fills``
    for one chart, filled with others of its length from any dev sentence
    by ``cky_splits``, whose splits are bitwise ``cky_chart``'s.  Its
    report counts for every trial that pooled to it.  No heads give the
    all-weights-zero parse (left-branching by tie-break).  The counts are
    integers, so adding them up in fill order gives the same totals as
    trial by trial.
    """
    fills = _Fills(len(trials), counting)
    for sentence, gold in zip(sentences, golds):
        per_head = sentence.phrases
        distinct: dict[tuple, tuple[Mapping, list[int]]] = {}
        for i, heads in enumerate(trials):
            table = pool_phrases({head: per_head[head] for head in heads})
            distinct.setdefault(_table_key(table), (table, []))[1].append(i)
        for table, same in distinct.values():
            fills.add(sentence.n, table, gold, same)
    fills.flush()
    return fills.totals, fills.filled


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

    def evaluated(step: int, trials: list[frozenset[Head]]) -> list[float]:
        totals, charts = _dev_reports(sentences, golds, trials, counting)
        runs = len(trials) * len(sentences)
        log.debug("%s step %d: %d evaluations over %d sentences, %d charts filled, "
                  "%d reports reused", strategy, step, len(trials), len(sentences),
                  charts, runs - charts)
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
