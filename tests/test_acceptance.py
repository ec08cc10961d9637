"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance and runtime bound is pinned here, not configurable.
"""

import filecmp
import time

import numpy as np

from attnsyntax import (
    EvalReport,
    SpanTree,
    extract_tree,
    lbal_tree,
    planted_dump,
    random_attention_baseline,
    random_binary_tree,
    rbal_tree,
    read_bracketed,
    score,
)
from attnsyntax.attn_io import all_heads
from attnsyntax.phrases import build_phrase_table, harden
from attnsyntax.render import hardened_matrix, pgm_bytes
from attnsyntax.scoring import CountingPolicy
from attnsyntax.selection import dev_sentence, greedy_ablation, greedy_addition
from attnsyntax.treebank import postprocess_steps
from attnsyntax.trees import cky_parse
from attnsyntax.cli import main

from oracles import (
    all_binary_trees,
    equalized_weight,
    gold_from_span_tree,
    gold_from_spans,
    random_phrase_table,
    recursion_score,
)


def _check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c01_cky_matches_exhaustive_oracle():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 9):
        trees = all_binary_trees(n)
        for trial in range(200):
            rng = np.random.default_rng(1000 * n + trial)
            table = random_phrase_table(rng, n)
            weight_of = lambda s: equalized_weight(table, s)
            returned = recursion_score(cky_parse(table, n), weight_of)
            best = max(recursion_score(t, weight_of) for t in trees)
            worst = max(worst, abs(returned - best))
    elapsed = time.monotonic() - start
    _check(
        "criterion 1: chart score equals exhaustive maximum, N 1..8 x 200 tables",
        worst <= 1e-12 and elapsed < 60.0,
        f"max deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_c02_planted_tree_recovery():
    start = time.monotonic()
    ok = True
    for i in range(100):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(5, 31))
        tree = random_binary_tree(rng, n)
        dump = planted_dump(tree, sentence_id=f"planted-{i}")
        parsed = extract_tree(dump, all_heads(dump.layers, dump.heads))
        gold = gold_from_span_tree(tree)
        for counting in CountingPolicy:
            report = score(parsed, gold, counting)
            ok = ok and report.precision == 1.0 and report.recall == 1.0
    elapsed = time.monotonic() - start
    _check(
        "criterion 2: planted trees recovered at precision=recall=1, both policies",
        ok and elapsed < 30.0,
        f"100 trees, {elapsed:.1f}s",
    )


def test_c03_balanced_baseline_fixed_points():
    expected_l = SpanTree.node(
        SpanTree.node(
            SpanTree.node(SpanTree.leaf(1), SpanTree.leaf(2)),
            SpanTree.node(SpanTree.leaf(3), SpanTree.leaf(4)),
        ),
        SpanTree.leaf(5),
    )
    expected_r = SpanTree.node(
        SpanTree.leaf(1),
        SpanTree.node(
            SpanTree.node(SpanTree.leaf(2), SpanTree.leaf(3)),
            SpanTree.node(SpanTree.leaf(4), SpanTree.leaf(5)),
        ),
    )
    _check(
        "criterion 3: lbal(5)=(((1 2)(3 4)) 5) and rbal(5)=(1 ((2 3)(4 5)))",
        lbal_tree(5) == expected_l and rbal_tree(5) == expected_r,
    )


def test_c04_postprocessing_fixed_point():
    raw = read_bracketed("(S (VP vinegrowers suffer))")
    tree = postprocess_steps(raw, [["vin-", "e-", "growers"], ["suffer"]])
    got = tree.to_bracketed()
    _check(
        "criterion 4: post-processing yields ((vin- e- growers) suffer)",
        got == "((vin- e- growers) suffer)",
        got,
    )


def test_c05_equalization_invariant():
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        dump = random_attention_baseline(seed, n, layers=2, heads=3)
        table = build_phrase_table(dump, all_heads(2, 3))
        by_length: dict[int, list[float]] = {}
        for (a, b), (_, weight) in table.items():
            by_length.setdefault(b - a + 1, []).append(weight)
        for weights in by_length.values():
            worst = max(worst, abs(float(np.mean(weights)) - 1.0))
    _check(
        "criterion 5: mean equalized weight per length = 1 on 1000 sentences",
        worst <= 1e-9,
        f"max deviation {worst:.3e}",
    )


def test_c06_hardening_invariant():
    ok = True
    for seed in range(1000):
        rng = np.random.default_rng(50_000 + seed)
        n = int(rng.integers(2, 21))
        matrix = rng.dirichlet(np.ones(n), size=n)
        hard = harden(matrix)
        dense = hardened_matrix(matrix)
        ok = ok and bool(np.all((dense > 0).sum(axis=1) == 1))
        ok = ok and bool(np.array_equal(dense.max(axis=1), matrix.max(axis=1)))
        again = harden(dense)
        ok = ok and bool(np.array_equal(again[0], hard[0]))
        ok = ok and bool(np.array_equal(again[1], hard[1]))
    _check(
        "criterion 6: hardening keeps one nonzero = row max and is idempotent",
        ok,
        "1000 matrices",
    )


def test_c07_metric_properties():
    ok = True
    for seed in range(500):
        rng = np.random.default_rng(90_000 + seed)
        tree = random_binary_tree(rng, int(rng.integers(2, 16)))
        report = score(tree, gold_from_span_tree(tree))
        ok = ok and report.precision == 1.0 and report.recall == 1.0

    extracted = SpanTree.node(
        SpanTree.node(
            SpanTree.node(SpanTree.leaf(1), SpanTree.leaf(2)), SpanTree.leaf(3)
        ),
        SpanTree.leaf(4),
    )
    crossing = score(extracted, gold_from_spans({(1, 4), (2, 4), (3, 4)}, 4))
    ok = ok and (crossing.extracted_consistent, crossing.extracted_phrases_total) == (0, 2)
    ok = ok and (crossing.gold_consistent, crossing.gold_phrases_total) == (0, 2)

    micro = EvalReport.aggregate([EvalReport(2, 1, 1, 1), EvalReport(2, 2, 1, 1)])
    ok = ok and micro.precision == 0.75

    _check(
        "criterion 7: self-score=1 on 500 trees; crossing example 0/2 & 0/2; micro 3/4",
        ok,
    )


def test_c08_head_selection_sanity(two_head_fixture):
    dump, gold = two_head_fixture
    addition_1 = greedy_addition([dev_sentence(dump)], [gold])
    addition_2 = greedy_addition([dev_sentence(dump)], [gold])
    ablation_1 = greedy_ablation([dev_sentence(dump)], [gold])
    ablation_2 = greedy_ablation([dev_sentence(dump)], [gold])
    ok = (
        addition_1.steps[0].head == (1, 1)
        and addition_1.best_mask == frozenset({(1, 1)})
        and addition_1.best_score == 1.0
        and ablation_1.steps[0].head == (1, 2)
        and addition_1.to_text() == addition_2.to_text()
        and ablation_1.to_text() == ablation_2.to_text()
    )
    _check(
        "criterion 8: addition picks planted head first at 1.0; ablation drops "
        "the diagonal first; traces byte-stable",
        ok,
    )


def test_c09_baseline_ordering_on_synthetic_corpus():
    start = time.monotonic()
    seed, n_sentences, layers, heads = 20250808, 120, 6, 16
    rng = np.random.default_rng(seed)
    pooled = {"planted": [], "rand": [], "lbal": [], "rbal": []}
    for i in range(n_sentences):
        n = int(rng.integers(5, 21))
        gold_tree = random_binary_tree(rng, n)
        gold = gold_from_span_tree(gold_tree)

        dump = planted_dump(gold_tree, sentence_id=f"bench-{i}")
        planted = extract_tree(dump, all_heads(dump.layers, dump.heads))
        pooled["planted"].append(score(planted, gold))

        random_dump = random_attention_baseline([seed, i], n, layers, heads)
        random_tree = extract_tree(random_dump, all_heads(layers, heads))
        pooled["rand"].append(score(random_tree, gold))

        pooled["lbal"].append(score(lbal_tree(n), gold))
        pooled["rbal"].append(score(rbal_tree(n), gold))

    f1 = {k: 100.0 * EvalReport.aggregate(v).f1 for k, v in pooled.items()}
    elapsed = time.monotonic() - start
    ok = (
        f1["planted"] > f1["rand"] > 0.0
        and abs(f1["rand"] - f1["lbal"]) <= 5.0
        and abs(f1["rand"] - f1["rbal"]) <= 5.0
        and elapsed < 300.0
    )
    _check(
        "criterion 9: planted F1 > rand.attn F1 > 0, rand within 5 points of lbal/rbal",
        ok,
        f"planted={f1['planted']:.1f} rand={f1['rand']:.1f} "
        f"lbal={f1['lbal']:.1f} rbal={f1['rbal']:.1f}, {elapsed:.1f}s",
    )


def test_c10_determinism_and_golden_files(
    tmp_path, toy_dump_path, toy_gold_path, golden_dir, capsys
):
    trees = {}
    for label, jobs in (("a", 1), ("b", 3)):
        out = tmp_path / f"trees-{label}.txt"
        code = main(
            ["extract", "--dump", str(toy_dump_path), "--jobs", str(jobs),
             "--out", str(out)]
        )
        assert code == 0
        trees[label] = out
    extract_ok = (
        trees["a"].read_bytes() == trees["b"].read_bytes()
        and trees["a"].read_bytes() == (golden_dir / "toy_trees.txt").read_bytes()
    )

    eval_outs = []
    for label, jobs in (("a", 1), ("b", 3)):
        eval_out = tmp_path / f"eval-{label}.txt"
        code = main(
            ["eval", "--extracted", str(trees["a"]), "--gold", str(toy_gold_path),
             "--per-sentence", "--jobs", str(jobs), "--out", str(eval_out)]
        )
        assert code == 0
        eval_outs.append(eval_out)
    eval_ok = (
        eval_outs[0].read_bytes() == eval_outs[1].read_bytes()
        and eval_outs[0].read_bytes() == (golden_dir / "toy_eval.txt").read_bytes()
    )

    render_dirs = []
    for label, jobs in (("r1", 1), ("r2", 2)):
        out_dir = tmp_path / label
        code = main(
            ["render", "--dump", str(toy_dump_path), "--sentence", "toy-01",
             "--all", "--jobs", str(jobs), "--out-dir", str(out_dir)]
        )
        assert code == 0
        render_dirs.append(out_dir)
    names = sorted(p.name for p in render_dirs[0].iterdir())
    render_ok = names == sorted(p.name for p in render_dirs[1].iterdir()) and all(
        filecmp.cmp(render_dirs[0] / name, render_dirs[1] / name, shallow=False)
        for name in names
    )

    identity_ok = pgm_bytes(np.eye(3)) == b"P5\n3 3\n255\n" + bytes(
        [255, 0, 0, 0, 255, 0, 0, 0, 255]
    )

    capsys.readouterr()  # drop any buffered CLI output before reporting
    _check(
        "criterion 10: extract/eval/render byte-stable across runs and --jobs; "
        "identity graymap exact",
        extract_ok and eval_ok and render_ok and identity_ok,
        f"extract={extract_ok} eval={eval_ok} render={render_ok} identity={identity_ok}",
    )
