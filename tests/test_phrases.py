import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsyntax import (
    AttentionDump,
    planted_dump,
    random_attention_baseline,
    random_binary_tree,
)
from attnsyntax import phrases
from attnsyntax.attn_io import all_heads
from attnsyntax.synth import baluster_matrix
from attnsyntax.phrases import (
    build_phrase_table,
    equalize,
    find_balusters,
    harden,
    head_phrases,
    pool_phrases,
)
from attnsyntax.render import hardened_matrix
from oracles import equalized_weight, find_balusters_by_rows, phrase_table_one_pass


class TestHarden:
    def test_keeps_row_maximum(self):
        m = np.array([[0.1, 0.7, 0.2], [0.3, 0.3, 0.4], [1.0, 0.0, 0.0]])
        cols, weight = harden(m)
        assert list(cols) == [2, 3, 1]
        assert list(weight) == [0.7, 0.4, 1.0]

    def test_identity_keeps_diagonal(self):
        cols, weight = harden(np.eye(4))
        assert list(cols) == [1, 2, 3, 4]
        assert list(weight) == [1.0] * 4

    def test_tie_breaks_leftmost(self):
        cols, weight = harden(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]))
        assert list(cols) == [1, 2, 3]
        assert weight[0] == 0.5

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            harden(np.ones((2, 3)))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_idempotent_on_stochastic_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = rng.dirichlet(np.ones(n), size=n)
        once = harden(m)
        twice = harden(hardened_matrix(m))
        assert np.array_equal(once[0], twice[0])
        assert np.array_equal(once[1], twice[1])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_single_nonzero_per_row(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = rng.dirichlet(np.ones(n), size=n)
        dense = hardened_matrix(m)
        assert np.all((dense > 0).sum(axis=1) == 1)
        assert np.allclose(dense.max(axis=1), m.max(axis=1))


class TestFindBalusters:
    def test_two_runs(self):
        h = (np.array([2, 2, 2, 5, 5]), np.array([0.9, 0.8, 1.0, 0.6, 0.6]))
        balusters = find_balusters(h, (1, 1))
        assert [(b.span, b.target_col) for b in balusters] == [((1, 3), 2), ((4, 5), 5)]
        assert balusters[0].mean_weight == pytest.approx(0.9)
        assert balusters[1].mean_weight == pytest.approx(0.6)

    def test_diagonal_has_none(self):
        h = harden(np.eye(5))
        assert find_balusters(h, (1, 1)) == []

    def test_all_rows_one_column(self):
        n = 4
        m = np.zeros((n, n))
        m[:, n - 1] = 1.0
        (b,) = find_balusters(harden(m), (2, 3))
        assert b.span == (1, n)
        assert b.target_col == n
        assert b.head == (2, 3)

    def test_runs_are_disjoint_and_ordered(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            cols = rng.integers(1, n + 1, size=n)
            h = (cols, rng.uniform(0.2, 1.0, size=n))
            balusters = find_balusters(h, (1, 1))
            last_end = 0
            for b in balusters:
                assert b.span[0] > last_end
                assert b.span[1] >= b.span[0] + 1
                last_end = b.span[1]


# weights that tie, zero-weight rows and arbitrary fractions
_ROW_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0, 1 / 3]),
                         st.floats(0.0, 1.0, allow_subnormal=True))


# numpy sums runs of 9 rows or more pairwise, and past 128 rows recursively
_RUN_LENGTHS = st.one_of(st.integers(1, 6), st.integers(7, 140))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), _RUN_LENGTHS), min_size=1, max_size=12)
       .flatmap(lambda runs: st.tuples(
           st.just(np.repeat([col for col, _ in runs], [length for _, length in runs])),
           st.lists(_ROW_WEIGHTS, min_size=sum(length for _, length in runs),
                    max_size=sum(length for _, length in runs)))))
def test_find_balusters_matches_row_loop(hardened):
    """Runs of any length that touch either end or none, n = 1, ties and
    zero-weight rows: the same balusters with bitwise-equal weights."""
    cols, weights = hardened
    weight = np.array(weights, dtype=np.float64)
    ours = find_balusters((cols, weight), (2, 5))
    reference = find_balusters_by_rows((cols, weight), (2, 5))
    assert ours == reference
    assert [b.mean_weight.hex() for b in ours] == [b.mean_weight.hex() for b in reference]
    assert all(type(b.target_col) is int for b in ours)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_find_balusters_matches_row_loop_on_synth_heads(seed, n):
    dump = random_attention_baseline(seed, n, 1, 2, subwords=[f"w{i}" for i in range(n - 1)]
                                     + ["EOS"])
    for head in all_heads(1, 2):
        hardened = harden(dump.matrix(*head))
        assert find_balusters(hardened, head) == find_balusters_by_rows(hardened, head)


def _dump_from_heads(heads, subwords):
    n = len(subwords)
    matrices = np.stack(heads)[None]
    return AttentionDump("s", tuple(subwords), matrices)


class TestBuildPhraseTable:
    def test_same_span_weights_sum(self):
        dump = _dump_from_heads(
            [baluster_matrix(3, [(1, 2)], weight=0.8), baluster_matrix(3, [(1, 2)], weight=0.6)],
            ["a", "b", "EOS"],
        )
        table = build_phrase_table(dump, all_heads(1, 2))
        assert table[1, 2] == (pytest.approx(1.4), 1.0)  # only phrase of its length

    def test_equalization_two_lengths(self):
        # ( (1,2) with raw 0.5 ) and ( (3,4) with raw 0.7 + 0.8 = 1.5 )
        dump = _dump_from_heads(
            [
                baluster_matrix(5, [(1, 2)], weight=0.5),
                baluster_matrix(5, [(3, 4)], weight=0.7),
                baluster_matrix(5, [(3, 4)], weight=0.8),
            ],
            ["a", "b", "c", "d", "EOS"],
        )
        table = build_phrase_table(dump, all_heads(1, 3))
        assert list(table) == [(1, 2), (3, 4)]
        assert table[1, 2] == (pytest.approx(0.5), pytest.approx(0.5))
        assert table[3, 4] == (pytest.approx(1.5), pytest.approx(1.5))

    def test_single_phrase_equalizes_to_one(self):
        dump = _dump_from_heads(
            [baluster_matrix(4, [(2, 4)], weight=0.77)], ["a", "b", "c", "EOS"]
        )
        table = build_phrase_table(dump, all_heads(1, 1))
        assert table[2, 4][1] == 1.0

    def test_absent_span_weighs_zero(self):
        dump = _dump_from_heads([np.eye(3)], ["a", "b", "EOS"])
        table = build_phrase_table(dump, all_heads(1, 1))
        assert table == {}
        assert equalized_weight(table, (1, 2)) == 0.0

    def test_empty_mask_rejected(self, identity_dump):
        with pytest.raises(ValueError, match="empty"):
            build_phrase_table(identity_dump, ())

    def test_mask_outside_dump_rejected(self, identity_dump):
        with pytest.raises(ValueError, match=r"^head \(2,1\) outside universe 1..1 x 1..1$"):
            build_phrase_table(identity_dump, [(2, 1)])

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_per_length_mean_is_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        dump = random_attention_baseline(seed, n, layers=2, heads=3)
        table = build_phrase_table(dump, all_heads(2, 3))
        by_length = {}
        for (a, b), (_, weight) in table.items():
            by_length.setdefault(b - a + 1, []).append(weight)
        for weights in by_length.values():
            assert abs(np.mean(weights) - 1.0) <= 1e-9

    def test_removing_head_never_raises_raw_weight(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            dump = random_attention_baseline(seed, 10, layers=2, heads=2)
            full = build_phrase_table(dump, all_heads(2, 2))
            smaller = build_phrase_table(dump, [(1, 1), (2, 2)])
            for span, (raw, _) in smaller.items():
                assert raw <= full[span][0] + 1e-15

    def test_mask_order_does_not_matter(self):
        dump = random_attention_baseline(11, 12, layers=2, heads=3)
        t1 = build_phrase_table(dump, [(1, 1), (1, 3), (2, 2)])
        t2 = build_phrase_table(dump, frozenset([(2, 2), (1, 3), (1, 1)]))
        assert list(t1.items()) == list(t2.items())


class TestPooledHeadPhrases:
    """Pooling phrases cached per head equals building the table directly."""

    @staticmethod
    def dumps():
        rng = np.random.default_rng(31)
        for seed in range(12):
            yield random_attention_baseline(seed, int(rng.integers(2, 9)), layers=3, heads=4)
        for seed in range(6):
            tree = random_binary_tree(rng, int(rng.integers(2, 16)))
            yield planted_dump(tree, weight=float(rng.uniform(0.6, 1.0)))

    def test_random_masks_match_build_phrase_table(self):
        rng = np.random.default_rng(32)
        for dump in self.dumps():
            universe = all_heads(dump.layers, dump.heads)
            cached = {head: head_phrases(dump, head) for head in reversed(universe)}
            for _ in range(8):
                size = int(rng.integers(1, len(universe) + 1))
                picks = rng.permutation(len(universe))[:size]
                heads = [universe[i] for i in picks]
                pooled = pool_phrases({h: cached[h] for h in heads})
                for expected in (build_phrase_table(dump, heads),
                                 phrase_table_one_pass(dump, heads)):
                    assert list(pooled.items()) == list(expected.items())
                assert list(pooled) == sorted(pooled)

    def test_no_heads_pool_to_empty_table(self):
        assert pool_phrases({}) == {}

    def test_head_phrases_are_positive_balusters_in_row_order(self):
        dump = _dump_from_heads(
            [baluster_matrix(6, [(1, 2), (4, 6)], weight=0.9)], ["a", "b", "c", "d", "e", "EOS"]
        )
        assert head_phrases(dump, (1, 1)) == (((1, 2), 0.9), ((4, 6), 0.9))


class TestEqualize:
    def test_mean_one_per_length(self):
        raw = {(1, 2): 0.5, (3, 4): 1.5, (1, 3): 2.0}
        eq = equalize(raw)
        assert eq[(1, 2)] == pytest.approx(0.5)
        assert eq[(3, 4)] == pytest.approx(1.5)
        assert eq[(1, 3)] == 1.0

    def test_empty(self):
        assert equalize({}) == {}

    def test_totals_are_left_folds_under_a_compensated_sum(self, monkeypatch):
        """From Python 3.12 ``sum`` of floats compensates, so that
        1e16 + 1.0 + 1.0 sums to 1.0000000000000002e16 and not to 1e16;
        ``math.fsum`` patched in stands for it here.  The weights stay the
        left fold's."""
        monkeypatch.setattr(phrases, "sum", math.fsum, raising=False)
        raw = {(1, 2): 1e16, (2, 3): 1.0, (3, 4): 1.0, (1, 3): 1.0}
        total = 0.0
        for span in [(1, 2), (2, 3), (3, 4)]:
            total += raw[span]
        assert total != math.fsum([1e16, 1.0, 1.0])
        assert equalize(raw) == {(1, 2): 1e16 * 3 / total, (2, 3): 3 / total,
                                 (3, 4): 3 / total, (1, 3): 1.0}

    def test_zero_total_names_length_and_span(self):
        with pytest.raises(ValueError, match=r"length 2.*\(1, 2\)"):
            equalize({(1, 2): 0.0})
        with pytest.raises(ValueError, match="length 3"):
            equalize({(1, 2): 0.5, (1, 3): 0.0, (2, 4): 0.0})
