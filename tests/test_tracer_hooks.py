"""The library names that the benchmark's tracer (``perfbench/tracer.py``)
wraps, checked here so that renaming or deleting one fails these tests and
not only a traced benchmark run.  The tracer is loaded from its file and
used as it is."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT

TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "entry", tracer.TRACED, ids=lambda e: ".".join(filter(None, (e[1], e[3], e[2])))
)
def test_traced_name_resolves(entry):
    _, module, attr, owner = entry
    home = importlib.import_module(f"attnsyntax.{module}")
    target = home if owner is None else getattr(home, owner)
    assert callable(getattr(target, attr, None))


def test_traced_extract_counts_every_stage(toy_dump_path, toy_dumps, golden_dir, tmp_path):
    """The tracer's counts read the arguments and results of the functions
    it wraps: ``build_phrase_table``'s sized table, ``find_balusters``'s
    list and ``cky_chart``'s n."""
    spans_path, out = tmp_path / "spans.json", tmp_path / "trees.txt"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(spans_path),
         "extract", "--dump", str(toy_dump_path), "--heads", "all", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text() == (golden_dir / "toy_trees.txt").read_text()
    metrics = tracer.summarize(json.loads(spans_path.read_text(encoding="utf-8")))
    sentences = len(toy_dumps)
    heads = toy_dumps[0].layers * toy_dumps[0].heads
    assert metrics["attn_io.records"] == sentences
    assert metrics["phrases.build_phrase_table.calls"] == sentences
    assert metrics["phrases.harden.calls"] == sentences * heads
    assert metrics["phrases.harden_reuse"] == 1.0
    assert metrics["phrases.balusters"] > 0
    assert metrics["phrases.spans_per_table"] > 0
    assert metrics["trees.cky_chart.calls"] == sentences
    assert metrics["trees.chart_cells"] == sum(d.n * (d.n - 1) // 2 for d in toy_dumps)
