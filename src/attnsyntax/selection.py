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

from .attn_io import AttentionDump, Head, all_heads
from .errors import AlignmentError
from .phrases import HeadPhrases, head_phrases, pool_phrases
from .scoring import CountingPolicy, EvalReport, score
from .treebank import ConstituencyTree
from .trees import cky_parse

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


def _dev_scores(
    sentences: Sequence[DevSentence],
    golds: Sequence[ConstituencyTree],
    masks: Sequence[frozenset[Head]],
    objective: str,
    counting: CountingPolicy,
) -> list[float]:
    """The dev-set objective of each head set.

    Sentence by sentence, every head set's cached phrases are pooled,
    parsed and scored, so the charts of one sentence length are filled
    back to back (see ``cky_chart``).  No heads give the all-weights-zero
    parse (left-branching by tie-break).  The counts are integers, so
    pooling them in this order gives the same totals as mask by mask.
    """
    totals = [EvalReport()] * len(masks)
    for sentence, gold in zip(sentences, golds):
        per_head = sentence.phrases
        for i, heads in enumerate(masks):
            table = pool_phrases({head: per_head[head] for head in heads})
            totals[i] = totals[i].merged(score(cky_parse(table, sentence.n), gold, counting))
    return [total.precision if objective == "precision" else total.f1 for total in totals]


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

    adding = strategy == "addition"
    current: set[Head] = set() if adding else set(all_pairs)
    evaluations = 1
    [initial_score] = _dev_scores(sentences, golds, [frozenset(current)], objective, counting)
    n_steps = len(all_pairs) if adding else len(all_pairs) - 1

    steps: list[SelectionStep] = []
    for step in range(1, n_steps + 1):
        candidates = sorted(set(all_pairs) - current if adding else current)
        trials = [frozenset(current | {h} if adding else current - {h}) for h in candidates]
        values = _dev_scores(sentences, golds, trials, objective, counting)
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
