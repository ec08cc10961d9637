import argparse
import logging
import re

import numpy as np
import pytest

from attnsyntax import (
    AlignmentError,
    AttentionDump,
    EvalReport,
    extract_tree,
    random_binary_tree,
    score,
)
from attnsyntax.attn_io import all_heads
from attnsyntax.cli import _head_set
from attnsyntax.phrases import pool_phrases
from attnsyntax.scoring import CountingPolicy
from attnsyntax.selection import (
    dev_sentence,
    greedy_ablation,
    greedy_addition,
    heads_spec,
    layer_distribution,
)
from attnsyntax.synth import baluster_matrix
from attnsyntax import selection, trees
from oracles import gold_from_span_tree, greedy_by_candidates


def mixed_length_dev_set(seed, lengths, universe=(2, 3)):
    """Dumps whose heads each carry balusters on some disjoint spans of the
    sentence's random reference tree, or attend at random."""
    rng = np.random.default_rng(seed)
    dumps, golds = [], []
    for i, n in enumerate(lengths):
        tree = random_binary_tree(rng, n)
        internal = sorted(s for s in tree.spans() if s[1] > s[0])
        matrices = []
        for _ in range(universe[0] * universe[1]):
            if rng.random() < 0.25:
                matrices.append(rng.dirichlet(np.ones(n), size=n))
                continue
            chosen = []
            for index in rng.permutation(len(internal)):
                a, b = internal[index]
                if rng.random() < 0.5 and all(b < c or d < a for c, d in chosen):
                    chosen.append((a, b))
            matrices.append(baluster_matrix(n, chosen, weight=float(rng.uniform(0.5, 1.0))))
        subwords = tuple(f"w{j}" for j in range(1, n)) + ("EOS",)
        dumps.append(AttentionDump(f"s{i}", subwords, np.reshape(matrices, (*universe, n, n))))
        golds.append(gold_from_span_tree(tree, tokens=subwords))
    return dumps, golds


class TestGreedyAddition:
    def test_planted_head_selected_first(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold])
        assert trace.steps[0].head == (1, 1)
        assert trace.steps[0].score == 1.0
        assert trace.best_mask == frozenset({(1, 1)})
        assert trace.best_score == 1.0
        assert len(trace.steps) == 2  # layers * heads

    def test_initial_point_is_left_chain_parse(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold])
        assert trace.initial_mask_size == 0
        # left chain vs the flat reference: (1,3),(1,4),(1,5) countable,
        # (1,3) crosses (3,4) -> 3/4
        assert trace.initial_score == 0.75

    def test_final_step_equals_all_heads_eval(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold])
        heads = all_heads(dump.layers, dump.heads)
        tree = extract_tree(dump, heads)
        assert trace.steps[-1].score == score(tree, gold).precision
        assert trace.steps[-1].mask_size == len(heads)

    def test_best_score_bounds_all_steps(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold])
        assert all(trace.best_score >= s.score for s in trace.steps)

    def test_single_head_universe(self, identity_dump):
        from oracles import gold_from_span_tree
        from attnsyntax import lbal_tree

        gold = gold_from_span_tree(lbal_tree(3), tokens=identity_dump.subwords)
        trace = greedy_addition([dev_sentence(identity_dump)], [gold])
        assert len(trace.steps) == 1
        assert trace.steps[0].head == (1, 1)

    def test_deterministic_traces(self, two_head_fixture):
        dump, gold = two_head_fixture
        first = greedy_addition([dev_sentence(dump)], [gold]).to_text()
        second = greedy_addition([dev_sentence(dump)], [gold]).to_text()
        assert first == second

    def test_f1_objective(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold], objective="f1")
        assert trace.objective == "f1"
        assert trace.best_score == 1.0

    def test_rejects_unknown_objective(self, two_head_fixture):
        dump, gold = two_head_fixture
        with pytest.raises(ValueError, match="objective"):
            greedy_addition([dev_sentence(dump)], [gold], objective="recall")

    def test_evaluation_count(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold])
        total = dump.layers * dump.heads
        assert trace.evaluations == 1 + total * (total + 1) // 2


class TestGreedyAblation:
    def test_nonplanted_head_removed_first(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_ablation([dev_sentence(dump)], [gold])
        assert trace.steps[0].head == (1, 2)
        assert len(trace.steps) == 1  # layers * heads - 1
        assert trace.best_mask == frozenset({(1, 1)})

    def test_initial_is_full_mask(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_ablation([dev_sentence(dump)], [gold])
        assert trace.initial_mask_size == 2
        assert trace.initial_score == 1.0

    def test_single_head_universe_has_no_steps(self, identity_dump):
        from oracles import gold_from_span_tree
        from attnsyntax import lbal_tree

        gold = gold_from_span_tree(lbal_tree(3), tokens=identity_dump.subwords)
        trace = greedy_ablation([dev_sentence(identity_dump)], [gold])
        assert trace.steps == ()
        assert trace.best_mask == frozenset({(1, 1)})  # falls back to full

    def test_deterministic_traces(self, two_head_fixture):
        dump, gold = two_head_fixture
        sentence = dev_sentence(dump)
        assert greedy_ablation([sentence], [gold]).to_text() == greedy_ablation([sentence], [gold]).to_text()


class TestTraceMechanics:
    def test_mask_at_reconstruction(self, two_head_fixture):
        dump, gold = two_head_fixture
        trace = greedy_addition([dev_sentence(dump)], [gold])
        assert trace.mask_at(0) == frozenset()
        assert trace.mask_at(1) == {trace.steps[0].head}
        assert trace.mask_at(2) == {(1, 1), (1, 2)}
        assert all(isinstance(trace.mask_at(step), frozenset) for step in range(3))
        with pytest.raises(ValueError):
            trace.mask_at(3)

    def test_mismatched_inputs_rejected(self, two_head_fixture):
        dump, gold = two_head_fixture
        with pytest.raises(ValueError, match="reference trees"):
            greedy_addition([dev_sentence(dump)], [gold, gold])
        with pytest.raises(ValueError, match="empty"):
            greedy_addition([], [])

    def test_misaligned_dev_set_rejected_before_hardening(self, two_head_fixture, monkeypatch):
        dump, gold = two_head_fixture
        short = AttentionDump("short", dump.subwords[1:], np.full((1, 2, 5, 5), 0.2))
        _, short_gold = mixed_length_dev_set(0, [5])
        sentence, short = dev_sentence(dump), dev_sentence(short)
        monkeypatch.setattr(selection, "head_phrases", pytest.fail)
        with pytest.raises(AlignmentError, match=r"sentence 'fixture' has 6 subwords "
                           r"but its reference tree has 5"):
            greedy_addition([sentence, sentence], [gold, short_gold[0]])
        with pytest.raises(AlignmentError, match="sentence 'short'"):
            greedy_ablation([sentence, short], [gold, gold])

    def test_counting_policy_changes_values(self, two_head_fixture):
        dump, gold = two_head_fixture
        nontrivial = greedy_addition([dev_sentence(dump)], [gold])
        allspans = greedy_addition([dev_sentence(dump)], [gold], counting=CountingPolicy.ALL)
        assert allspans.initial_score > nontrivial.initial_score  # trivia inflate


def reusing_dev_set():
    """A dev set on which many trials of a step pool to one table.

    Head (1, 1) attends each subword to itself, so it has no balusters and
    adding or dropping it leaves the table of the heads it joins.  Head
    (2, 3) copies head (1, 2), so alone they pool to one table.  A sentence
    of 2 subwords has one span to weigh, which equalization weighs 1
    whatever the heads' weights, so most head sets give it one table.
    """
    dumps, golds = mixed_length_dev_set(3, [9, 3, 12, 2, 9, 4, 3])
    changed = []
    for dump in dumps:
        attn = np.array(dump.matrices)
        attn[0, 0] = np.eye(dump.n)
        attn[1, 2] = attn[0, 1]
        changed.append(AttentionDump(dump.sentence_id, dump.subwords, attn))
    return changed, golds


@pytest.mark.parametrize("strategy", ["addition", "ablation"])
@pytest.mark.parametrize("objective", ["precision", "f1"])
@pytest.mark.parametrize("counting", list(CountingPolicy))
def test_traces_match_candidate_by_candidate_search(strategy, objective, counting,
                                                    monkeypatch):
    """Sentence-by-sentence steps give the traces of scoring each
    candidate over the whole dev set, on sentences of mixed lengths."""
    search = greedy_addition if strategy == "addition" else greedy_ablation
    for seed, lengths in [(1, [7, 12, 7, 4, 12, 9]), (2, [16, 3, 11, 16, 5])]:
        dumps, golds = mixed_length_dev_set(seed, lengths)
        trace = search([dev_sentence(dump) for dump in dumps], golds,
                       objective=objective, counting=counting)
        expected = greedy_by_candidates(strategy, dumps, golds, objective, counting)
        assert trace.to_text() == expected.to_text()
        assert trace == expected

    # the waiting tables are filled once they hold the bytes of four n = 9
    # tables in all, so a step fills several groups, some of them from
    # several sentences; a table left alone takes the chart-by-chart path
    monkeypatch.setattr(selection, "_FILL_BYTES", 24 * 10**2 * 4)
    monkeypatch.setattr(selection, "_MIN_GROUP", 2)
    filled = []

    def cky_splits(tables, n):
        filled.append(len(tables))
        return trees.cky_splits(tables, n)

    monkeypatch.setattr(selection, "cky_splits", cky_splits)
    dumps, golds = reusing_dev_set()
    trace = search([dev_sentence(dump) for dump in dumps], golds,
                   objective=objective, counting=counting)
    expected = greedy_by_candidates(strategy, dumps, golds, objective, counting)
    assert trace.to_text() == expected.to_text()
    assert trace == expected
    assert len(filled) > 2 * (len(trace.steps) + 1)
    assert sum(filled) < trace.evaluations * len(dumps)


def test_debug_line_per_step_counts_charts_and_reused_reports(caplog):
    dumps, golds = reusing_dev_set()
    with caplog.at_level(logging.DEBUG, logger="attnsyntax.selection"):
        trace = greedy_addition([dev_sentence(dump) for dump in dumps], golds)
    lines = [record.getMessage() for record in caplog.records
             if record.levelno == logging.DEBUG]
    assert len(lines) == len(trace.steps) + 1  # the initial head set, then each step
    pattern = (r"addition step (\d+): (\d+) evaluations over 7 sentences, "
               r"(\d+) charts filled, (\d+) reports reused")
    counts = [tuple(map(int, re.fullmatch(pattern, line).groups())) for line in lines]
    assert [step for step, *_ in counts] == list(range(len(lines)))
    assert sum(evaluations for _, evaluations, _, _ in counts) == trace.evaluations
    assert all(filled + reused == evaluations * 7 for _, evaluations, filled, reused in counts)
    assert counts[0][2:] == (7, 0)  # one empty table per sentence
    assert sum(reused for *_, reused in counts) > trace.evaluations


def test_trials_that_pool_to_one_table_share_its_chart():
    """No heads and head (1, 1) alone pool to the empty table, and (1, 2)
    and (2, 3) alone to one table, empty too where (1, 2) has no phrases.
    Each trial's total equals that of parsing and scoring it directly."""
    dumps, golds = reusing_dev_set()
    sentences = [dev_sentence(dump) for dump in dumps]
    counting = CountingPolicy.NONTRIVIAL
    trials = [frozenset(), frozenset({(1, 1)}), frozenset({(1, 2)}), frozenset({(2, 3)})]
    totals, charts = selection._dev_reports(sentences, golds, trials, counting)
    assert charts == len(sentences) + sum(bool(s.phrases[1, 2]) for s in sentences) == 11
    for heads, total in zip(trials, totals):
        direct = EvalReport()
        for sentence, gold in zip(sentences, golds):
            table = pool_phrases({head: sentence.phrases[head] for head in heads})
            direct = direct.merged(score(trees.cky_parse(table, sentence.n), gold, counting))
        assert total == direct


def test_waiting_tables_stay_within_the_fill_budget(monkeypatch):
    """Across lengths, the tables left waiting after each one is added hold
    less than ``_FILL_BYTES`` of chart buffers."""
    monkeypatch.setattr(selection, "_FILL_BYTES", 24 * 13**2 * 5)
    waiting = []
    add = selection._Fills.add

    def checked_add(fills, n, *rest):
        add(fills, n, *rest)
        held = sum(len(group) * 24 * (m + 1) ** 2 for m, group in fills.waiting.items())
        assert held == fills.bytes < selection._FILL_BYTES
        waiting.append(len(fills.waiting))

    monkeypatch.setattr(selection._Fills, "add", checked_add)
    dumps, golds = mixed_length_dev_set(4, [12, 5, 9, 12, 7, 5, 9])
    trace = greedy_addition([dev_sentence(dump) for dump in dumps], golds)
    assert trace == greedy_by_candidates("addition", dumps, golds, "precision",
                                         CountingPolicy.NONTRIVIAL)
    assert max(waiting) >= 3  # groups of several lengths waited together


class TestLayerDistribution:
    def test_counting_example(self):
        dist = layer_distribution(frozenset({(1, 1), (1, 2), (6, 3)}), 6)
        assert dist[1] == pytest.approx(2 / 3)
        assert dist[6] == pytest.approx(1 / 3)
        assert all(dist[layer] == 0.0 for layer in (2, 3, 4, 5))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12

    def test_full_mask_uniform(self):
        dist = layer_distribution(all_heads(6, 16), 6)
        assert all(v == pytest.approx(1 / 6) for v in dist.values())
        assert abs(sum(dist.values()) - 1.0) <= 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            layer_distribution(frozenset(), 2)


class TestHeadMask:
    """A head set in ``--heads`` syntax: parsed by the CLI, formatted next
    to the trace, bounded by each sentence's universe."""

    def test_from_spec_all(self):
        assert _head_set(" all ") is None  # every head of each sentence

    def test_from_spec_list(self):
        heads = _head_set("2:3, 1:1,2:3")
        assert heads == ((1, 1), (2, 3))  # sorted, duplicates dropped
        assert heads_spec(heads, (2, 3)) == "1:1,2:3"

    def test_round_trip_full(self):
        assert heads_spec(all_heads(2, 3), (2, 3)) == "all"
        assert heads_spec(frozenset(all_heads(2, 3)) - {(1, 1)}, (2, 3)) == "1:2,1:3,2:1,2:2,2:3"

    def test_out_of_universe(self, two_head_fixture):
        dump, _ = two_head_fixture
        with pytest.raises(ValueError, match=r"^head \(3,1\) outside universe 1..1 x 1..2$"):
            extract_tree(dump, _head_set("1:1,3:1"))

    def test_bad_item(self):
        with pytest.raises(argparse.ArgumentTypeError, match="'11': expected layer:head"):
            _head_set("11")
