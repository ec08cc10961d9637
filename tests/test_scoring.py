import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsyntax import (
    AlignmentError,
    ConstituencyTree,
    EvalReport,
    SpanTree,
    random_binary_tree,
    score,
)
from attnsyntax.scoring import CountingPolicy, reference_masks, score_nodes
from attnsyntax.trees import cky_charts, tree_from_splits, tree_nodes
from oracles import (
    all_binary_trees,
    crosses,
    gold_from_span_tree,
    gold_from_spans,
    score_spans_pairwise,
    split_blocks,
    table_kinds,
)

NONTRIVIAL = CountingPolicy.NONTRIVIAL


def is_consistent(e, phrase_spans) -> bool:
    return not any(crosses(e, p) for p in phrase_spans)


def tree_of(shape) -> SpanTree:
    """Build a SpanTree from nested leaf indices, e.g. ((1, 2), 3)."""
    if isinstance(shape, int):
        return SpanTree.leaf(shape)
    left, right = shape
    return SpanTree.node(tree_of(left), tree_of(right))


class TestConsistency:
    """The crossing predicate of ``oracles``, the reference for ``score``."""

    def test_partial_overlap_crosses(self):
        assert not is_consistent((1, 2), {(2, 4)})

    def test_full_span_always_consistent(self):
        spans = {(1, 2), (2, 4), (3, 5)}
        assert is_consistent((1, 5), spans)

    def test_single_subword_always_consistent(self):
        spans = {(1, 2), (2, 4), (3, 5)}
        for i in range(1, 6):
            assert is_consistent((i, i), spans)

    def test_crosses_is_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = sorted(rng.integers(1, 10, size=2))
            c, d = sorted(rng.integers(1, 10, size=2))
            assert crosses((a, b), (c, d)) == crosses((c, d), (a, b))

    def test_nested_and_disjoint_do_not_cross(self):
        assert not crosses((2, 3), (1, 5))
        assert not crosses((1, 5), (2, 3))
        assert not crosses((1, 2), (4, 5))


class TestScore:
    def test_hand_derived_crossing_example(self):
        extracted = tree_of((((1, 2), 3), 4))
        gold = gold_from_span_tree(tree_of((1, (2, (3, 4)))))
        report = score(extracted, gold)
        assert report.extracted_consistent == 0
        assert report.extracted_phrases_total == 2
        assert report.gold_consistent == 0
        assert report.gold_phrases_total == 2
        assert report.f1 == 0.0

    def test_identical_two_leaf_trees_degenerate(self):
        extracted = tree_of((1, 2))
        gold = gold_from_span_tree(extracted)
        report = score(extracted, gold)
        assert report.extracted_phrases_total == 0
        assert report.gold_phrases_total == 0
        assert report.precision == 1.0 and report.recall == 1.0

    def test_leaf_sequence_mismatch(self):
        with pytest.raises(AlignmentError):
            score(tree_of((1, 2)), gold_from_span_tree(tree_of((1, (2, 3)))))

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_self_score_is_perfect(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_binary_tree(rng, int(rng.integers(2, 16)))
        gold = gold_from_span_tree(tree)
        for counting in CountingPolicy:
            report = score(tree, gold, counting)
            assert report.precision == 1.0
            assert report.recall == 1.0

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_binarizing_inside_gold_phrases_keeps_precision_one(self, seed):
        # left-binarize each n-ary gold phrase: no introduced span can cross
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 14))

        def random_nary_spans(a, b, out):
            out.add((a, b))
            if b - a + 1 < 2:
                return
            arity = min(int(rng.integers(2, 5)), b - a + 1)
            cuts = sorted(rng.choice(np.arange(a, b), size=arity - 1, replace=False))
            bounds = [a - 1] + [int(c) for c in cuts] + [b]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if rng.random() < 0.7:
                    random_nary_spans(lo + 1, hi, out)

        gold_spans: set = set()
        random_nary_spans(1, n, gold_spans)

        def binarize(a, b) -> SpanTree:
            if a == b:
                return SpanTree.leaf(a)
            # tile (a, b) with its outermost gold children plus singletons
            parts, cursor = [], a
            while cursor <= b:
                children = [
                    s for s in gold_spans
                    if s[0] == cursor and s[1] <= b and s != (a, b)
                ]
                if children:
                    widest = max(children, key=lambda s: s[1])
                    parts.append(widest)
                    cursor = widest[1] + 1
                else:
                    parts.append((cursor, cursor))
                    cursor += 1
            tree = binarize(*parts[0])
            for part in parts[1:]:
                tree = SpanTree.node(tree, binarize(*part))
            return tree

        extracted = binarize(1, n)
        report = score(extracted, gold_from_spans(gold_spans, n))
        assert report.precision == 1.0

    def test_symmetry_of_counts_for_binary_trees(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a, b = random_binary_tree(rng, n), random_binary_tree(rng, n)
            forward = score(a, gold_from_span_tree(b))
            backward = score(b, gold_from_span_tree(a))
            assert forward.extracted_consistent == backward.gold_consistent
            assert forward.extracted_phrases_total == backward.gold_phrases_total

    def test_noncrossing_gold_span_never_lowers_precision_counts(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(4, 12))
            extracted = random_binary_tree(rng, n)
            gold = set(random_binary_tree(rng, n).spans())
            a = int(rng.integers(1, n + 1))
            addition = (a, int(rng.integers(a, n + 1)))
            if not is_consistent(addition, extracted.spans()):
                continue  # the property conditions on a non-crossing addition
            # the extended span set need not be laminar, so no reference
            # tree holds it: the counts are the pairwise reference's
            base = score_spans_pairwise(extracted.spans(), gold, n, NONTRIVIAL)
            extended = score_spans_pairwise(extracted.spans(), gold | {addition}, n, NONTRIVIAL)
            assert extended.extracted_consistent == base.extracted_consistent
            checked += 1
        assert checked > 20

    def test_bounds_and_harmonic_mean(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            report = EvalReport(
                *(int(x) for x in rng.integers(0, 20, size=4))
            )
            report = EvalReport(
                report.extracted_phrases_total,
                min(report.extracted_consistent, report.extracted_phrases_total),
                report.gold_phrases_total,
                min(report.gold_consistent, report.gold_phrases_total),
            )
            p, r, f1 = report.precision, report.recall, report.f1
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
            if max(p, r) > 0:
                expected = 2 * min(p, r) / (1 + min(p, r) / max(p, r))
                assert f1 == pytest.approx(expected)


def _random_spans(rng, n, count):
    """Arbitrary spans over 1..n: generally non-laminar, with repeats."""
    starts = rng.integers(1, n + 1, size=count)
    return [(int(a), int(rng.integers(a, n + 1))) for a in starts]


def _laminar(spans):
    """Each span, in order, that crosses none of the spans kept before it."""
    kept = []
    for span in spans:
        if is_consistent(span, kept):
            kept.append(span)
    return kept


class TestScoreSpansMatchesPairwise:
    """``score`` counts exactly what ``crosses`` pair by pair does."""

    @pytest.mark.parametrize("counting", list(CountingPolicy))
    def test_random_span_sets(self, counting):
        # references that no post-processed tree gives: any laminar set of
        # arbitrary spans, with or without the root
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            extracted = random_binary_tree(rng, n)
            spans = _random_spans(rng, n, int(rng.integers(0, 2 * n + 1)))
            gold = gold_from_spans(_laminar(spans), n)
            assert score(extracted, gold, counting) == score_spans_pairwise(
                extracted.spans(), gold.spans(), n, counting
            )

    @pytest.mark.parametrize("counting", list(CountingPolicy))
    def test_random_trees(self, counting):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            a, b = random_binary_tree(rng, n), random_binary_tree(rng, n)
            gold = gold_from_span_tree(b)
            assert score(a, gold, counting) == score_spans_pairwise(
                a.spans(), gold.spans(), n, counting
            )

    def test_empty_sides(self):
        # a reference without phrases, and a one-subword sentence, whose
        # extracted tree has no span counted under NONTRIVIAL
        for counting in CountingPolicy:
            for n in (1, 2, 3):
                gold = gold_from_spans((), n)
                for extracted in all_binary_trees(n):
                    assert score(extracted, gold, counting) == score_spans_pairwise(
                        extracted.spans(), (), n, counting
                    )
            assert score(SpanTree.leaf(1), gold_from_spans((), 1)) == EvalReport(0, 0, 0, 0)


def _vary_reference(word_tree: SpanTree, rng, budget: int):
    """The phrases of a binary tree over words, with random words split
    into 2 or 3 subwords (at most ``budget`` added in all) and each phrase
    but the root removed with probability 0.3; and the subword count."""
    ends = []  # subword span of each word
    for _ in range(word_tree.n):
        start = ends[-1][1] + 1 if ends else 1
        extra = min(int(rng.integers(0, 3)), budget)
        budget -= extra
        ends.append((start, start + extra))
    phrases = {(ends[a - 1][0], ends[b - 1][1]) for a, b in word_tree.preorder}
    n = ends[-1][1]
    return [s for s in phrases if s[0] < s[1] and (s == (1, n) or rng.random() >= 0.3)], n


def _binarize(phrases, a, b, rng) -> SpanTree:
    """A random binary tree over a..b that keeps every phrase of the
    laminar set ``phrases`` inside (a, b): the widest phrases inside it and
    the positions outside those pair up in random adjacent order."""
    units = []
    i = a
    while i <= b:
        d = max((d for c, d in phrases if c == i and d <= b and (c, d) != (a, b)), default=i)
        units.append(_binarize(phrases, i, d, rng) if d > i else SpanTree.leaf(i))
        i = d + 1
    while len(units) > 1:
        j = int(rng.integers(0, len(units) - 1))
        units[j : j + 2] = [SpanTree.node(units[j], units[j + 1])]
    return units[0]


class TestScoreMatchesSpanSets:
    """``score``'s two O(1) rules count exactly what the pairwise span-set
    reference does."""

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(list(CountingPolicy)))
    @settings(max_examples=400, deadline=None)
    def test_random_trees_against_varied_references(self, words, seed, counting):
        rng = np.random.default_rng(seed)
        phrases, n = _vary_reference(random_binary_tree(rng, words), rng, 80 - words)
        gold = gold_from_spans(phrases, n)
        assert 1 <= n <= 80
        if rng.random() < 0.5:
            extracted = random_binary_tree(rng, n)
        else:  # consistent with every reference span
            extracted = _binarize(gold.spans(), 1, n, rng)
        expected = score_spans_pairwise(extracted.spans(), gold.spans(), n, counting)
        assert score(extracted, gold, counting) == expected

    @pytest.mark.parametrize("counting", list(CountingPolicy))
    def test_every_tree_against_every_reference(self, counting):
        for n in range(1, 7):
            trees = all_binary_trees(n)
            golds = [gold_from_span_tree(tree) for tree in trees]
            for extracted in trees:
                for gold in golds:
                    assert score(extracted, gold, counting) == score_spans_pairwise(
                        extracted.spans(), gold.spans(), n, counting
                    )

    def test_nested_span_sharing_an_end_is_consistent(self):
        # (2, 3) lies inside the reference phrase (1, 3), which ends where
        # it does; (1, 2) lies inside (1, 3) and starts where it does
        gold = ConstituencyTree(((1, 3), (1, 4)), ("a", "b", "c", "d"))
        for shape in ((1, (2, 3)), ((1, 2), 3)):
            report = score(tree_of((shape, 4)), gold)
            assert (report.extracted_consistent, report.extracted_phrases_total) == (2, 2)
            assert (report.gold_consistent, report.gold_phrases_total) == (1, 1)

    def test_boundaries_keep_the_innermost_phrase(self):
        # phrases (1, 6), (2, 5), (3, 4) nest; position 4 lies in all three
        gold = ConstituencyTree(((3, 4), (2, 5), (1, 6)), ("a", "b", "c", "d", "e", "f"))
        first_end, last_start = gold.boundaries
        assert first_end[1:] == (6, 6, 5, 4, 5, 6)
        assert last_start[1:] == (1, 2, 3, 2, 1, 0)


class TestAggregation:
    def test_micro_average_pools_counts(self):
        reports = [EvalReport(2, 1, 3, 2), EvalReport(2, 2, 1, 1)]
        total = EvalReport.aggregate(reports)
        assert total.extracted_consistent == 3
        assert total.extracted_phrases_total == 4
        assert total.precision == 0.75

    def test_micro_differs_from_macro(self):
        reports = [EvalReport(2, 1, 1, 1), EvalReport(6, 6, 1, 1)]
        total = EvalReport.aggregate(reports)
        assert total.precision == 7 / 8
        macro = (reports[0].precision + reports[1].precision) / 2
        assert total.precision != macro

    def test_zero_over_zero_convention(self):
        empty = EvalReport()
        assert empty.precision == 1.0
        assert empty.recall == 1.0
        assert empty.f1 == 1.0

    def test_f1_zero_when_both_zero(self):
        report = EvalReport(5, 0, 5, 0)
        assert report.f1 == 0.0


class TestCountingPolicy:
    def test_all_counts_everything(self):
        tree = tree_of(((1, 2), 3))
        gold = gold_from_span_tree(tree)
        report = score(tree, gold, CountingPolicy.ALL)
        assert report.extracted_phrases_total == 5  # 3 leaves + (1,2) + root
        assert report.gold_phrases_total == 2  # (1,2) + root


class TestScoreNodes:
    """A filled group scored as arrays, against each dev sentence's masks,
    reports what ``score`` reports of each chart's tree."""

    @given(st.sampled_from([*range(1, 65), 101]), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 3), min_size=1, max_size=6),
           st.sampled_from(list(CountingPolicy)))
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_score_of_each_tree(self, n, seed, kinds, counting):
        rng = np.random.default_rng(seed)
        _, splits = cky_charts(split_blocks(table_kinds(rng, n, kinds)), n)
        # a random binary tree with some phrases dropped: flat, laminar,
        # sometimes without its root
        kept = [span for span in random_binary_tree(rng, n).spans() if rng.random() < 0.6]
        gold = gold_from_spans(kept, n)
        counts = score_nodes(tree_nodes(splits), reference_masks(gold, counting), counting)
        assert counts.shape == (len(splits), 4)
        for row, chart in zip(counts.tolist(), splits):
            assert EvalReport(*row) == score(tree_from_splits(n, chart.item), gold, counting)

    def test_masks_mark_what_score_counts(self):
        # ((t1 t2) t3 t4): (1, 2) and the root (1, 4)
        gold = gold_from_spans([(1, 2), (1, 4)], 4)
        nontrivial = reference_masks(gold)
        assert {tuple(s) for s in np.argwhere(nontrivial[1])} == {(1, 2)}
        assert (2, 3) not in {tuple(s) for s in np.argwhere(nontrivial[0])}  # crosses (1, 2)
        assert (1, 4) not in {tuple(s) for s in np.argwhere(nontrivial[0])}  # the root
        every = reference_masks(gold, CountingPolicy.ALL)
        assert {tuple(s) for s in np.argwhere(every[1])} == {(1, 2), (1, 4)}
        assert every[0, 1, 4] and every[0, 3, 3]
