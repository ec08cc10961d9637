import filecmp
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from attnsyntax import (
    AttentionDump,
    EvalReport,
    extract_tree,
    gold_tree_for_dump,
    read_bracketed,
    score,
    write_dump,
)
from attnsyntax.attn_io import all_heads
from attnsyntax import cli
from attnsyntax.cli import evaluate_files, main

from conftest import ROOT

# reference lines that eval and select-heads must reject, naming the line
BAD_REFERENCES = [
    pytest.param("(X " * 5000 + "a" + ")" * 5000,
                 "phrases nested deeper than 500 levels at offset 1500", id="too-deep"),
    pytest.param("(S (X a))", "reference tree has 1 words but the subwords form",
                 id="word-count"),
    pytest.param("(S (NP a) (VP b", "unbalanced '(' at offset 15", id="unbalanced"),
    # one word where the sentence has several: the parse error still wins
    pytest.param("(S (NP a)", "unbalanced '(' at offset 9", id="unbalanced-and-misaligned"),
]

# whitespace that ``str.splitlines()`` breaks lines at; inside a reference
# line it only separates labels and words
LINE_BREAKING_SPACES = ["\u2028", "\x0c", "\x85", "\x1e", "\r"]


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_line_replaced(path, index, text, out):
    """Copy a line file to ``out`` with its 1-based line ``index`` replaced."""
    lines = path.read_text().splitlines()
    lines[index - 1] = text
    out.write_text("".join(line + "\n" for line in lines))
    return out


class TestExtract:
    def test_matches_golden_file(self, toy_dump_path, golden_dir, capsys):
        code, out, err = run_cli(["extract", "--dump", toy_dump_path, "--heads", "all"], capsys)
        assert code == 0, err
        assert out == (golden_dir / "toy_trees.txt").read_text()

    def test_independent_of_jobs(self, toy_dump_path, tmp_path, capsys):
        paths = []
        for jobs in (1, 3):
            out_path = tmp_path / f"trees-{jobs}.txt"
            code, _, err = run_cli(
                ["extract", "--dump", toy_dump_path, "--jobs", jobs, "--out", out_path],
                capsys,
            )
            assert code == 0, err
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_explicit_head_mask(self, toy_dump_path, capsys):
        code, out, _ = run_cli(
            ["extract", "--dump", toy_dump_path, "--heads", "1:2,2:1,2:2"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_emit_phrases(self, toy_dump_path, tmp_path, capsys):
        import json

        phrases_path = tmp_path / "phrases.jsonl"
        code, _, _ = run_cli(
            ["extract", "--dump", toy_dump_path, "--out", tmp_path / "t.txt",
             "--emit-phrases", phrases_path],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in phrases_path.read_text().splitlines()]
        assert len(records) == 10
        assert records[0]["id"] == "toy-01"
        spans = [tuple(p["span"]) for p in records[0]["phrases"]]
        assert spans == sorted(spans)
        assert all(p["equalized"] >= 0 for r in records for p in r["phrases"])

    def test_empty_dump_is_empty_output(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run_cli(["extract", "--dump", empty], capsys)
        assert code == 0
        assert out == ""

    def test_missing_output_directory_names_the_output(self, toy_dump_path, tmp_path,
                                                        capsys):
        out = tmp_path / "no" / "t.txt"
        code, _, err = run_cli(["extract", "--dump", toy_dump_path, "--out", out], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_bad_head_spec(self, toy_dump_path, capsys):
        # a head outside a sentence's universe is that sentence's error
        code, _, err = run_cli(["extract", "--dump", toy_dump_path, "--heads", "9:9"], capsys)
        assert code == 1
        assert err == "error: sentence 'toy-01': head (9,9) outside universe 1..2 x 1..3\n"

    @pytest.mark.parametrize("spec, item", [
        ("1-1", "'1-1'"), ("", "''"), ("ALL", "'ALL'"), ("1:1,,2:2", "''"), ("1:x", "'1:x'"),
    ])
    def test_malformed_heads_exit_before_reading_the_dump(self, spec, item, toy_dump_path,
                                                          tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dump", pytest.fail)
        out_path, phrases_path = tmp_path / "trees.txt", tmp_path / "phrases.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--dump", str(toy_dump_path), "--heads", spec, "--keep-going",
                  "--out", str(out_path), "--emit-phrases", str(phrases_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --heads: bad head spec item {item}: expected layer:head" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, item", [
        ("0:1", "'0:1'"), ("1:0", "'1:0'"), ("1:1, -1:2", "'-1:2'"),
    ])
    def test_heads_below_one_exit_before_reading_the_dump(self, spec, item, toy_dump_path,
                                                          tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dump", pytest.fail)
        out_path = tmp_path / "trees.txt"
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--dump", str(toy_dump_path), "--heads", spec, "--keep-going",
                  "--out", str(out_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --heads: bad head spec item {item}: expected layer:head, each at least 1" in err
        assert not out_path.exists()

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["extract", "--dump", "/nonexistent"], capsys)
        assert code == 1

    def test_planted_head_mask_recovers_planted_spans(self, two_head_fixture,
                                                      tmp_path, capsys):
        from attnsyntax.trees import parse_span_tree

        dump, _ = two_head_fixture
        path = tmp_path / "planted.jsonl"
        write_dump([dump], path)
        code, out, err = run_cli(["extract", "--dump", path, "--heads", "1:1"], capsys)
        assert code == 0, err
        spans = parse_span_tree(out.strip())[0].spans()
        assert {(1, 2), (3, 4)} <= spans  # the planted balusters become nodes
        # the diagonal head alone carries no phrases: left-branching chain
        code, out, _ = run_cli(["extract", "--dump", path, "--heads", "1:2"], capsys)
        assert code == 0
        assert parse_span_tree(out.strip())[0].spans() == {
            (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        }


def _mixed_shape_dump(tmp_path):
    small = AttentionDump("small", ("a", "EOS"), np.eye(2)[None, None])
    wide = AttentionDump(
        "wide", ("a", "b", "EOS"), np.stack([np.eye(3), np.eye(3)])[None]
    )
    path = tmp_path / "mixed.jsonl"
    write_dump([small, wide], path)
    return path


class TestKeepGoing:
    def test_abort_leaves_no_output(self, tmp_path, capsys):
        path = _mixed_shape_dump(tmp_path)
        out_path = tmp_path / "trees.txt"
        code, _, err = run_cli(
            ["extract", "--dump", path, "--heads", "1:2", "--out", out_path], capsys
        )
        assert code == 1
        assert "small" in err
        assert not out_path.exists()

    def test_keep_going_pads_and_flags_failure(self, tmp_path, capsys):
        path = _mixed_shape_dump(tmp_path)
        out_path = tmp_path / "trees.txt"
        code, _, err = run_cli(
            ["extract", "--dump", path, "--heads", "1:2", "--out", out_path,
             "--keep-going"],
            capsys,
        )
        assert code == 1
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ""
        assert lines[1] != ""

    @staticmethod
    def _two_records_then_no_json(toy_dump_path, tmp_path):
        path = tmp_path / "faults.jsonl"
        lines = toy_dump_path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + b"{not json\n")
        return path

    def test_sentence_error_before_a_bad_line_comes_first(self, toy_dump_path, tmp_path,
                                                          capsys):
        # errors come in file order: the run stops at the failing sentence,
        # before the malformed line is read
        path = self._two_records_then_no_json(toy_dump_path, tmp_path)
        out_path = tmp_path / "trees.txt"
        code, _, err = run_cli(
            ["extract", "--dump", path, "--heads", "9:9", "--out", out_path], capsys
        )
        assert code == 1
        assert err == "error: sentence 'toy-01': head (9,9) outside universe 1..2 x 1..3\n"
        assert not out_path.exists()

    def test_keep_going_reports_sentences_then_the_bad_line(self, toy_dump_path, tmp_path,
                                                            capsys):
        path = self._two_records_then_no_json(toy_dump_path, tmp_path)
        out_path, phrases_path = tmp_path / "trees.txt", tmp_path / "phrases.jsonl"
        code, _, err = run_cli(
            ["extract", "--dump", path, "--heads", "9:9", "--keep-going", "--out", out_path,
             "--emit-phrases", phrases_path], capsys
        )
        assert code == 1
        lines = err.splitlines()
        assert lines[:2] == [
            f"error: sentence 'toy-0{i}': head (9,9) outside universe 1..2 x 1..3"
            for i in (1, 2)
        ]
        assert len(lines) == 3 and lines[2].startswith("error: line 3: ")
        assert not out_path.exists() and not phrases_path.exists()


class TestEval:
    def test_matches_golden_output(self, toy_dump_path, toy_gold_path, golden_dir,
                                    tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        assert run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)[0] == 0
        code, out, err = run_cli(
            ["eval", "--extracted", trees, "--gold", toy_gold_path, "--per-sentence"],
            capsys,
        )
        assert code == 0, err
        assert out == (golden_dir / "toy_eval.txt").read_text()

    def test_matches_library_end_to_end(self, toy_dumps, toy_dump_path, toy_gold_path,
                                         tmp_path, capsys):
        gold_lines = toy_gold_path.read_text().splitlines()
        expected = []
        for dump, line in zip(toy_dumps, gold_lines):
            tree = extract_tree(dump, all_heads(dump.layers, dump.heads))
            expected.append(score(tree, gold_tree_for_dump(read_bracketed(line), dump.subwords)))

        trees = tmp_path / "trees.txt"
        assert run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)[0] == 0
        total, per_sentence = evaluate_files(trees, toy_gold_path)
        assert per_sentence == expected
        assert total == EvalReport.aggregate(expected)

    def test_all_spans_policy_runs(self, toy_dump_path, toy_gold_path, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)
        code, out, _ = run_cli(
            ["eval", "--extracted", trees, "--gold", toy_gold_path, "--counting", "all"],
            capsys,
        )
        assert code == 0
        assert "counting: all" in out

    def test_missing_output_directory_names_the_output(self, golden_dir, toy_gold_path,
                                                        tmp_path, capsys):
        out = tmp_path / "no" / "eval.txt"
        code, _, err = run_cli(["eval", "--extracted", golden_dir / "toy_trees.txt",
                                "--gold", toy_gold_path, "--out", out], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_line_count_mismatch(self, toy_dump_path, toy_gold_path, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)
        short = tmp_path / "short.txt"
        short.write_text("".join(toy_gold_path.read_text().splitlines(True)[:5]))
        code, _, err = run_cli(["eval", "--extracted", trees, "--gold", short], capsys)
        assert code == 1
        assert "lines" in err

    @pytest.mark.parametrize("space", LINE_BREAKING_SPACES)
    def test_lines_split_at_newline_only(self, space, toy_dump_path, toy_gold_path,
                                         tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        assert run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)[0] == 0
        line = toy_gold_path.read_text().splitlines()[1].replace(" ", space)
        gold = with_line_replaced(toy_gold_path, 2, line, tmp_path / "gold.txt")
        expected = run_cli(
            ["eval", "--extracted", trees, "--gold", toy_gold_path, "--per-sentence"], capsys
        )
        assert expected[0] == 0, expected[2]
        assert run_cli(
            ["eval", "--extracted", trees, "--gold", gold, "--per-sentence"], capsys
        ) == expected

    @pytest.mark.parametrize("line, message", BAD_REFERENCES)
    def test_bad_reference_names_the_sentence(self, line, message, toy_dump_path,
                                              toy_gold_path, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        assert run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)[0] == 0
        gold = with_line_replaced(toy_gold_path, 2, line, tmp_path / "gold.txt")
        code, _, err = run_cli(["eval", "--extracted", trees, "--gold", gold], capsys)
        assert code == 1
        assert err.startswith(f"error: sentence 2: {message}")

    def test_extracted_tree_deeper_than_recursion_limit(self, tmp_path, capsys):
        words = [f"w{i}" for i in range(1, 5000)]
        extracted = tmp_path / "trees.txt"
        closing = " ".join(token + ")" for token in words[1:] + ["EOS"])
        extracted.write_text("(" * 4999 + "w1 " + closing + "\n")
        gold = tmp_path / "gold.txt"
        gold.write_text("(S " + " ".join(words) + ")\n")
        code, out, err = run_cli(
            ["eval", "--extracted", extracted, "--gold", gold, "--counting", "all"], capsys
        )
        assert code == 0, err
        assert "precision: 100.0% (9999/9999)" in out

    def test_paren_tokens_survive_the_pipeline(self, tmp_path, capsys):
        dump = AttentionDump("p", ("(", "b", "EOS"), np.eye(3)[None, None])
        dump_path = tmp_path / "d.jsonl"
        write_dump([dump], dump_path)
        gold_path = tmp_path / "g.txt"
        gold_path.write_text("(S (X -LRB-) (Y b))\n")
        trees = tmp_path / "t.txt"
        assert run_cli(["extract", "--dump", dump_path, "--out", trees], capsys)[0] == 0
        assert "-LRB-" in trees.read_text()
        code, out, err = run_cli(["eval", "--extracted", trees, "--gold", gold_path], capsys)
        assert code == 0, err


class TestBaseline:
    @pytest.mark.parametrize("kind", ["lbal", "rbal", "rand.attn"])
    def test_matches_golden_file(self, toy_dump_path, golden_dir, kind, capsys):
        # rand.attn seeds sentence i with [seed, i]; the golden pins that index
        code, out, err = run_cli(["baseline", "--dump", toy_dump_path, "--kind", kind], capsys)
        assert code == 0, err
        assert out == (golden_dir / f"toy_baseline_{kind}.txt").read_text()

    @pytest.mark.parametrize("kind", ["lbal", "rbal", "rand.attn"])
    def test_emits_one_tree_per_sentence(self, toy_dump_path, kind, capsys):
        code, out, err = run_cli(
            ["baseline", "--dump", toy_dump_path, "--kind", kind], capsys
        )
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(line.count("(") == line.count(")") for line in lines)

    @pytest.mark.parametrize("kind", ["lbal", "rand.attn"])
    def test_malformed_heads_rejected_for_every_kind(self, toy_dump_path, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--dump", str(toy_dump_path), "--kind", kind, "--heads", "1-1"])
        assert exc.value.code == 2
        assert "argument --heads: bad head spec item '1-1'" in capsys.readouterr().err

    def test_rand_attn_head_outside_the_universe_names_the_sentence(self, toy_dump_path,
                                                                     capsys):
        code, out, err = run_cli(["baseline", "--dump", toy_dump_path, "--kind", "rand.attn",
                                  "--heads", "7:1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: sentence 'toy-01': head (7,1) outside universe 1..2 x 1..3\n"

    def test_rand_attn_deterministic_by_seed(self, toy_dump_path, capsys):
        args = ["baseline", "--dump", toy_dump_path, "--kind", "rand.attn", "--seed", 9]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second
        _, other, _ = run_cli(args[:-1] + [10], capsys)
        assert first != other

    def test_baselines_preserve_leaves(self, toy_dumps, toy_dump_path, capsys):
        from attnsyntax.trees import parse_span_tree

        _, out, _ = run_cli(["baseline", "--dump", toy_dump_path, "--kind", "lbal"], capsys)
        for dump, line in zip(toy_dumps, out.splitlines()):
            _, tokens = parse_span_tree(line)
            assert tokens == dump.subwords


class TestSelectHeads:
    def test_outputs_trace_and_mask(self, toy_dump_path, toy_gold_path, capsys):
        code, out, err = run_cli(
            ["select-heads", "--dump", toy_dump_path, "--gold", toy_gold_path,
             "--strategy", "add", "--dev-size", "4"],
            capsys,
        )
        assert code == 0, err
        assert "strategy: addition" in out
        mask_line = [l for l in out.splitlines() if l.startswith("best-mask: ")][0]
        spec = mask_line.split(": ", 1)[1]
        code, out2, err2 = run_cli(
            ["extract", "--dump", toy_dump_path, "--heads", spec], capsys
        )
        assert code == 0, err2

    @pytest.mark.parametrize("strategy", ["add", "ablate"])
    def test_matches_golden_file(self, strategy, toy_dump_path, toy_gold_path, golden_dir,
                                 tmp_path, capsys):
        out_path = tmp_path / "select.txt"
        code, _, err = run_cli(
            ["select-heads", "--dump", toy_dump_path, "--gold", toy_gold_path,
             "--strategy", strategy, "--dev-size", "10", "--out", out_path],
            capsys,
        )
        assert code == 0, err
        assert out_path.read_bytes() == (golden_dir / f"toy_select_{strategy}.txt").read_bytes()

    def test_ablate_strategy(self, toy_dump_path, toy_gold_path, capsys):
        code, out, _ = run_cli(
            ["select-heads", "--dump", toy_dump_path, "--gold", toy_gold_path,
             "--strategy", "ablate", "--dev-size", "3"],
            capsys,
        )
        assert code == 0
        assert "strategy: ablation" in out

    def test_reports_layer_distribution_of_best_mask(self, toy_dump_path,
                                                     toy_gold_path, capsys):
        code, out, _ = run_cli(
            ["select-heads", "--dump", toy_dump_path, "--gold", toy_gold_path,
             "--strategy", "add", "--dev-size", "4"],
            capsys,
        )
        assert code == 0
        (line,) = [l for l in out.splitlines() if l.startswith("layer-distribution: ")]
        shares = line.split(": ", 1)[1].split()
        assert len(shares) == 2  # one entry per layer
        assert all(s.endswith("%") for s in shares)

    def test_dump_without_records_names_the_dump(self, toy_gold_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(["select-heads", "--dump", empty, "--gold", toy_gold_path,
                                "--strategy", "add"], capsys)
        assert code == 1
        assert err == f"error: {empty}: no records\n"

    def test_gold_shorter_than_dev(self, toy_dump_path, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("(S (X a))\n")
        code, _, err = run_cli(
            ["select-heads", "--dump", toy_dump_path, "--gold", short,
             "--strategy", "add"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("space", LINE_BREAKING_SPACES)
    def test_lines_split_at_newline_only(self, space, toy_dump_path, toy_gold_path,
                                         tmp_path, capsys):
        line = toy_gold_path.read_text().splitlines()[1].replace(" ", space)
        gold = with_line_replaced(toy_gold_path, 2, line, tmp_path / "gold.txt")
        outputs = [
            run_cli(["select-heads", "--dump", toy_dump_path, "--gold", path,
                     "--strategy", "add", "--dev-size", "3"], capsys)
            for path in (toy_gold_path, gold)
        ]
        assert outputs[0][0] == 0, outputs[0][2]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("line, message", BAD_REFERENCES)
    def test_bad_reference_names_the_sentence(self, line, message, toy_dump_path,
                                              toy_gold_path, tmp_path, capsys):
        gold = with_line_replaced(toy_gold_path, 2, line, tmp_path / "gold.txt")
        code, _, err = run_cli(
            ["select-heads", "--dump", toy_dump_path, "--gold", gold,
             "--strategy", "add", "--dev-size", "3"],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: sentence 2: {message}")


class TestCountFlags:
    """Counts below 1 and negative seeds are argparse errors that name the flag."""

    def test_dev_size_must_be_positive(self, toy_dump_path, toy_gold_path, capsys):
        for bad in ("-8", "0", "two"):
            with pytest.raises(SystemExit) as exc:
                main(["select-heads", "--dump", str(toy_dump_path), "--gold",
                      str(toy_gold_path), "--strategy", "add", "--dev-size", bad])
            assert exc.value.code == 2
            assert "--dev-size" in capsys.readouterr().err

    def test_baseline_seed_must_be_nonnegative(self, toy_dump_path, capsys):
        for bad in ("-1", "x", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main(["baseline", "--dump", str(toy_dump_path), "--kind", "rand.attn",
                      "--seed", bad])
            assert exc.value.code == 2
            assert "argument --seed: expected an integer >= 0" in capsys.readouterr().err
        code, out, err = run_cli(
            ["baseline", "--dump", toy_dump_path, "--kind", "rand.attn", "--seed", 0], capsys
        )
        assert code == 0, err
        assert len(out.splitlines()) == 10

    @pytest.mark.parametrize("command", [
        ["extract", "--dump", "d.jsonl"],
        ["eval", "--extracted", "e.txt", "--gold", "g.txt"],
        ["baseline", "--dump", "d.jsonl", "--kind", "lbal"],
        ["select-heads", "--dump", "d.jsonl", "--gold", "g.txt", "--strategy", "add"],
        ["render", "--dump", "d.jsonl", "--sentence", "s", "--all"],
    ])
    def test_jobs_must_be_positive(self, command, capsys):
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--jobs", bad])
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err


class TestRender:
    def test_all_heads_naming(self, toy_dump_path, tmp_path, capsys):
        code, _, err = run_cli(
            ["render", "--dump", toy_dump_path, "--sentence", "toy-04", "--all",
             "--out-dir", tmp_path],
            capsys,
        )
        assert code == 0, err
        pgms = sorted(p.name for p in tmp_path.glob("*.pgm"))
        assert pgms == [
            f"stoy-04_l{layer}_h{head}.pgm" for layer in (1, 2) for head in (1, 2, 3)
        ]
        assert len(list(tmp_path.glob("*.txt"))) == 6

    def test_single_head_and_sidecar(self, toy_dump_path, toy_dumps, tmp_path, capsys):
        code, _, _ = run_cli(
            ["render", "--dump", toy_dump_path, "--sentence", "toy-04",
             "--layer", 1, "--head", 1, "--out-dir", tmp_path],
            capsys,
        )
        assert code == 0
        sidecar = (tmp_path / "stoy-04_l1_h1.txt").read_text()
        assert sidecar == "hail\nfell\nEOS\n"
        data = (tmp_path / "stoy-04_l1_h1.pgm").read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")

    def test_unknown_sentence(self, toy_dump_path, tmp_path, capsys):
        code, _, err = run_cli(
            ["render", "--dump", toy_dump_path, "--sentence", "nope", "--all",
             "--out-dir", tmp_path],
            capsys,
        )
        assert code == 1
        assert "toy-01" in err  # lists known ids

    def test_last_record_with_the_id_wins(self, tmp_path, capsys):
        first = AttentionDump("s", ("a", "EOS"), np.eye(2)[None, None])
        last = AttentionDump("s", ("b", "c", "EOS"), np.eye(3)[None, None])
        path = tmp_path / "d.jsonl"
        write_dump([first, last, AttentionDump("t", ("d", "EOS"), np.eye(2)[None, None])], path)
        code, _, err = run_cli(["render", "--dump", path, "--sentence", "s", "--layer", 1,
                                "--head", 1, "--out-dir", tmp_path / "images"], capsys)
        assert code == 0, err
        assert (tmp_path / "images" / "ss_l1_h1.txt").read_text() == "b\nc\nEOS\n"

    def test_head_outside_the_universe_leaves_no_directory(self, toy_dump_path, tmp_path,
                                                           capsys):
        out_dir = tmp_path / "images"
        code, _, err = run_cli(["render", "--dump", toy_dump_path, "--sentence", "toy-04",
                                "--layer", 9, "--head", 1, "--out-dir", out_dir], capsys)
        assert code == 1
        assert err == "error: head (9,1) outside universe 1..2 x 1..3\n"
        assert not out_dir.exists()

    def test_requires_layer_and_head_or_all(self, toy_dump_path, tmp_path, capsys):
        code, _, err = run_cli(
            ["render", "--dump", toy_dump_path, "--sentence", "toy-04",
             "--layer", 1, "--out-dir", tmp_path],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("option", ["--layer", "--head"])
    def test_layer_and_head_count_from_one(self, option, toy_dump_path, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "load_dump", pytest.fail)
        args = {"--layer": "1", "--head": "1", option: "0"}
        with pytest.raises(SystemExit) as exc:
            main(["render", "--dump", str(toy_dump_path), "--sentence", "toy-04",
                  *(text for pair in args.items() for text in pair), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {option}: expected an integer >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, toy_dump_path, tmp_path, capsys,
                                         monkeypatch):
        def fail(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr("os.replace", fail)
        code, _, err = run_cli(
            ["render", "--dump", toy_dump_path, "--sentence", "toy-04",
             "--layer", 1, "--head", 1, "--out-dir", tmp_path],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: cannot replace")
        assert list(tmp_path.iterdir()) == []

    def test_hardened_flag(self, toy_dump_path, tmp_path, capsys):
        code, _, _ = run_cli(
            ["render", "--dump", toy_dump_path, "--sentence", "toy-04",
             "--layer", 1, "--head", 1, "--hardened", "--out-dir", tmp_path],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "stoy-04_l1_h1_hardened.pgm").exists()


def test_output_files_get_the_mode_open_gives(toy_dump_path, tmp_path, capsys):
    umask = os.umask(0)  # the mask it replaces; os.umask(os.umask(0)) is always 0
    os.umask(umask)
    trees = tmp_path / "trees.txt"
    assert run_cli(["extract", "--dump", toy_dump_path, "--out", trees], capsys)[0] == 0
    assert run_cli(["render", "--dump", toy_dump_path, "--sentence", "toy-04",
                    "--layer", 1, "--head", 1, "--out-dir", tmp_path], capsys)[0] == 0
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_log_env_var_controls_verbosity(toy_dump_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ATTNSYNTAX_LOG", "debug")
    code, _, _ = run_cli(
        ["extract", "--dump", toy_dump_path, "--out", tmp_path / "t.txt"], capsys
    )
    assert code == 0
    monkeypatch.setenv("ATTNSYNTAX_LOG", "not-a-level")  # falls back to warning
    code, _, _ = run_cli(
        ["extract", "--dump", toy_dump_path, "--out", tmp_path / "t2.txt"], capsys
    )
    assert code == 0
    assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "t2.txt").read_bytes()


def test_toy_corpus_regenerates_byte_identically(tmp_path):
    script = ROOT / "scripts" / "make_toy_corpus.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert filecmp.cmp(tmp_path / "toy.dump.jsonl", ROOT / "data" / "toy.dump.jsonl", shallow=False)
    assert filecmp.cmp(tmp_path / "toy.gold.txt", ROOT / "data" / "toy.gold.txt", shallow=False)


@pytest.mark.parametrize("args, message", [
    (["--length", "0"], "argument --length: expected an integer >= 1, got 0"),
    (["--min-length", "40", "--length", "30"], "argument --min-length: 40 exceeds --length 30"),
    (["--sentences", "0"], "argument --sentences: expected an integer >= 1, got 0"),
    (["--layers", "-1"], "argument --layers: expected an integer >= 1, got -1"),
    (["--heads", "0"], "argument --heads: expected an integer >= 1, got 0"),
    (["--min-length", "0"], "argument --min-length: expected an integer >= 1, got 0"),
    (["--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
])
def test_synthetic_benchmark_rejects_bad_arguments(args, message):
    script = ROOT / "scripts" / "run_synthetic_benchmark.py"
    result = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
