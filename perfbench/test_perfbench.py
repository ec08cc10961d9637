"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload to a few sentences; shapes stay as benchmarked.
    The digests recorded for the full-size outputs do not apply."""
    monkeypatch.setattr(workloads, "EXTRACT_SENTENCES", 4)
    monkeypatch.setattr(workloads, "HEADSEARCH_SENTENCES", 2)
    monkeypatch.setattr(workloads, "EVAL_PAIRS", 20)
    none_recorded = tmp_path / "no-digests.json"
    none_recorded.write_text("{}", encoding="utf-8")
    monkeypatch.setattr(workloads, "EXPECTED_PATH", none_recorded)


def _inputs(name: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].write_inputs(seed, directory)
    return {f: (directory / f).read_bytes() for f in WORKLOADS[name].inputs}


def _command(name: str, directory: Path, traced: bool):
    out = directory / "out.txt"
    cli_argv = WORKLOADS[name].argv(directory, out)
    if traced:
        argv = [str(HERE / "tracer.py"), str(directory / "spans.json"), *cli_argv]
    else:
        argv = ["-c", run.ENTRY, *cli_argv]
    return run.run_command(argv, out, directory / "log.txt", timeout_s=120)


def _traced_metrics(name: str, directory: Path) -> tuple[bytes, dict[str, float]]:
    result = _command(name, directory, traced=True)
    assert result.returncode == 0, result.log
    spans = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
    return result.output, tracer.summarize(spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_writes_identical_inputs(small, tmp_path, name):
    first = _inputs(name, 7, tmp_path / "a")
    assert _inputs(name, 7, tmp_path / "b") == first
    assert _inputs(name, 8, tmp_path / "c") != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_gives_the_untraced_output(small, tmp_path, name):
    _inputs(name, 3, tmp_path)
    plain = _command(name, tmp_path, traced=False)
    assert plain.returncode == 0, plain.log
    assert WORKLOADS[name].check_output(3, tmp_path, plain.output) is None
    traced_output, _ = _traced_metrics(name, tmp_path)
    assert workloads.digest(traced_output) == workloads.digest(plain.output)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(small, tmp_path, name):
    _inputs(name, 5, tmp_path)
    _, first = _traced_metrics(name, tmp_path)
    _, second = _traced_metrics(name, tmp_path)
    for metric in tracer.COUNT_METRICS:
        assert first[metric] == second[metric], metric


def test_counts_cover_calls_made_through_imported_names(small, tmp_path):
    # cli, trees and selection call build_phrase_table, cky_parse and score
    # through names they imported; every one of those calls must be seen
    _inputs("extract", 2, tmp_path)
    _, metrics = _traced_metrics("extract", tmp_path)
    layers, heads = workloads.EXTRACT_UNIVERSE
    assert metrics["phrases.build_phrase_table.calls"] == 4
    assert metrics["trees.cky_chart.calls"] == 4
    assert metrics["phrases.harden.calls"] == 4 * layers * heads
    assert metrics["phrases.harden_reuse"] == 1.0
    assert metrics["attn_io.records"] == 4

    _inputs("headsearch", 2, tmp_path)
    _, metrics = _traced_metrics("headsearch", tmp_path)
    evaluations = workloads.headsearch_evaluations()
    assert metrics["selection.evaluations"] == evaluations == 79
    assert metrics["scoring.score.calls"] == evaluations * 2
    assert metrics["trees.cky_chart.calls"] == evaluations * 2
    n = workloads.HEADSEARCH_LENGTH
    assert metrics["trees.chart_cells"] == evaluations * 2 * n * (n - 1) // 2
    assert metrics["phrases.harden_reuse"] < 1.0


def test_self_time_excludes_children():
    spans = [
        {"name": "cli.main", "start": 0, "end": 100, "parent": -1},
        {"name": "attn_io.load_dump", "start": 10, "end": 60, "parent": 0,
         "records": 2, "bytes": 5_000_000},
        {"name": "attn_io.validate", "start": 20, "end": 30, "parent": 1},
        {"name": "attn_io.validate", "start": 40, "end": 45, "parent": 1},
    ]
    metrics = tracer.summarize(spans)
    assert metrics["cli.self.s"] == 50e-9
    assert metrics["attn_io.decode.s"] == 35e-9
    assert metrics["attn_io.validate.s"] == 15e-9
    assert metrics["attn_io.mb_per_s"] == pytest.approx(5 / 50e-9)


def test_checks_reject_wrong_outputs(small, tmp_path):
    _inputs("extract", 1, tmp_path)
    good = _command("extract", tmp_path, traced=False).output
    lines = good.decode().splitlines()
    extract = WORKLOADS["extract"]
    assert extract.check_output(1, tmp_path, good) is None
    assert extract.check_output(1, tmp_path, "\n".join(lines[:-1]).encode() + b"\n")
    ternary = lines[0].replace("(", "(x ", 1)
    assert extract.check_output(1, tmp_path, "\n".join([ternary] + lines[1:]).encode())

    headsearch = WORKLOADS["headsearch"]
    text = "evaluations: 78\n"
    assert headsearch.check_output(1, tmp_path, text.encode())

    _inputs("eval", 1, tmp_path)
    good = _command("eval", tmp_path, traced=False).output
    assert WORKLOADS["eval"].check_output(1, tmp_path, good) is None
    bad = good.replace(b"sentences: 20", b"sentences: 19")
    assert WORKLOADS["eval"].check_output(1, tmp_path, bad)


def test_recorded_digest_is_enforced(small, tmp_path, monkeypatch):
    _inputs("eval", 1, tmp_path)
    good = _command("eval", tmp_path, traced=False).output
    recorded = tmp_path / "expected.json"
    recorded.write_text(json.dumps({"1": {"eval": "0" * 64}}), encoding="utf-8")
    monkeypatch.setattr(workloads, "EXPECTED_PATH", recorded)
    assert WORKLOADS["eval"].check_output(1, tmp_path, good)
    assert WORKLOADS["eval"].check_output(2, tmp_path, good) is None


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_reports_every_metric_of_its_kind(small, monkeypatch, capsys, trace):
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    code = run.main(["--workload", "eval", "--seed", "4", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert not run.WORK.exists()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
