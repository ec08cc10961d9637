"""Span recording around the public functions of each attnsyntax module.

Run as a script, it stands in for the ``attnsyntax`` console command::

    python3 perfbench/tracer.py SPANS.json extract --dump d.jsonl --out t.txt

It wraps the library's functions from outside, runs ``cli.main`` on the
remaining arguments, and at exit writes every span (name, start, end,
parent, plus a few counts derived from the call's arguments and result) as
JSON.  Spans stay in memory until then.  The counts are computed after
``main`` returns, so they add nothing to any span's time.

A wrapper is installed under every name that refers to the function in a
loaded ``attnsyntax`` module, because ``cli``, ``trees`` and ``selection``
import ``build_phrase_table``, ``cky_parse`` and ``score`` by name: patching
only the defining module would miss those calls.  ``summarize`` turns the
spans of one run into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter_ns
from typing import Callable

# (span name, module, attribute, class or None); methods are patched on the class
TRACED = (
    ("attn_io.load_dump", "attn_io", "load_dump", None),
    ("attn_io.validate", "attn_io", "validate", "AttentionDump"),
    ("phrases.build_phrase_table", "phrases", "build_phrase_table", None),
    ("phrases.harden", "phrases", "harden", None),
    ("phrases.find_balusters", "phrases", "find_balusters", None),
    ("phrases.equalize", "phrases", "equalize", None),
    ("trees.cky_chart", "trees", "cky_chart", None),
    ("trees.parse_span_tree", "trees", "parse_span_tree", None),
    ("trees.to_bracketed", "trees", "to_bracketed", "SpanTree"),
    ("treebank.read_bracketed", "treebank", "read_bracketed", None),
    ("treebank.postprocess", "treebank", "postprocess", None),
    ("treebank.gold_tree_for_dump", "treebank", "gold_tree_for_dump", None),
    ("scoring.score", "scoring", "score", None),
    ("selection.greedy", "selection", "greedy_addition", None),
    ("selection.greedy", "selection", "greedy_ablation", None),
    ("cli.main", "cli", "main", None),
)


def _counts(name: str, args: tuple, result, parent: tuple[str, tuple] | None) -> dict | None:
    """Work counts of one call, from its arguments, result and open parent
    span (name, arguments)."""
    if name == "attn_io.load_dump":
        return {"records": len(result), "bytes": os.path.getsize(args[0])}
    if name == "phrases.build_phrase_table":
        return {"spans": len(result)}
    if name == "phrases.find_balusters":
        in_table = parent is not None and parent[0] == "phrases.build_phrase_table"
        sentence = parent[1][0].sentence_id if in_table else ""
        return {"balusters": len(result), "pair": f"{sentence}|{args[1][0]}:{args[1][1]}"}
    if name == "trees.cky_chart":
        n = args[1]
        return {"cells": n * (n - 1) // 2}
    if name == "scoring.score":
        return {"crossing": 2 * len(args[0].spans()) * len(args[1].spans())}
    if name == "selection.greedy":
        return {"evaluations": result.evaluations}
    return None


class Recorder:
    """Keeps spans in memory as (name, start_ns, end_ns, parent index, counts).

    Counts are taken right after a call ends and recorded as a
    ``trace.counts`` span under the same parent, so that the time they take
    is charged to tracing rather than to the layer or its caller.  No
    argument or result outlives its call, so tracing keeps no extra objects
    alive for the garbage collector to scan.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[tuple[int, str, tuple]] = []  # (index, name, args) of open spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # a recursive method (to_bracketed) records only its outermost call
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name, args))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            count_start = perf_counter_ns()
            counts = _counts(name, args, result, stack[-1][1:] if stack else None)
            if counts is not None:
                spans[index] = (name, start, end, parent, counts)
                spans.append(("trace.counts", count_start, perf_counter_ns(), parent, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each traced function under every name it is bound to."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "attnsyntax" or key.startswith("attnsyntax.")]
        for name, module, attr, owner in TRACED:
            home = sys.modules[f"attnsyntax.{module}"]
            if owner is not None:
                cls = getattr(home, owner)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, **(counts or {})}
                for name, start, end, parent, counts in self.spans]


def _decile_ms(durations: list[int], q: int) -> float:
    """The q-th decile of the durations, in milliseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] / 1e6
    return statistics.quantiles(durations, n=10, method="inclusive")[q - 1] / 1e6


# metrics that count work; they must repeat exactly between runs of one input
COUNT_METRICS = (
    "attn_io.records",
    "phrases.build_phrase_table.calls",
    "phrases.harden.calls",
    "phrases.balusters",
    "phrases.spans_per_table",
    "phrases.harden_reuse",
    "trees.cky_chart.calls",
    "trees.chart_cells",
    "scoring.score.calls",
    "scoring.crossing_checks",
    "selection.evaluations",
    "trace.spans",
)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run: busy seconds, self seconds,
    call counts, per-call p50/p90 and work counts."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    pairs: set[str] = set()
    for span, children in zip(spans, child_ns):
        name, duration = span["name"], span["end"] - span["start"]
        total[name] = total.get(name, 0) + duration
        self_ns[name] = self_ns.get(name, 0) + duration - children
        durations.setdefault(name, []).append(duration)
        for key in ("records", "bytes", "spans", "balusters", "cells", "crossing", "evaluations"):
            if key in span:
                counts[key] = counts.get(key, 0) + span[key]
        if "pair" in span:
            pairs.add(span["pair"])

    def seconds(name: str) -> float:
        return total.get(name, 0) / 1e9

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    load_s = seconds("attn_io.load_dump")
    tables = calls("phrases.build_phrase_table")
    hardens = calls("phrases.harden")
    metrics = {
        "attn_io.load_dump.s": load_s,
        "attn_io.validate.s": seconds("attn_io.validate"),
        "attn_io.decode.s": self_ns.get("attn_io.load_dump", 0) / 1e9,
        "attn_io.records": counts.get("records", 0),
        "attn_io.mb_per_s": counts.get("bytes", 0) / 1e6 / load_s if load_s else 0.0,
        "phrases.build_phrase_table.s": seconds("phrases.build_phrase_table"),
        "phrases.build_phrase_table.calls": tables,
        "phrases.harden.s": seconds("phrases.harden"),
        "phrases.harden.calls": hardens,
        "phrases.find_balusters.s": seconds("phrases.find_balusters"),
        "phrases.balusters": counts.get("balusters", 0),
        "phrases.equalize.s": seconds("phrases.equalize"),
        "phrases.spans_per_table": counts.get("spans", 0) / tables if tables else 0.0,
        "phrases.harden_reuse": len(pairs) / hardens if hardens else 0.0,
        "trees.cky_chart.s": seconds("trees.cky_chart"),
        "trees.cky_chart.calls": calls("trees.cky_chart"),
        "trees.chart_cells": counts.get("cells", 0),
        "trees.parse_span_tree.s": seconds("trees.parse_span_tree"),
        "trees.to_bracketed.s": seconds("trees.to_bracketed"),
        "treebank.read_bracketed.s": seconds("treebank.read_bracketed"),
        "treebank.postprocess.s": seconds("treebank.postprocess"),
        "treebank.gold_tree_for_dump.s": seconds("treebank.gold_tree_for_dump"),
        "scoring.score.s": seconds("scoring.score"),
        "scoring.score.calls": calls("scoring.score"),
        "scoring.crossing_checks": counts.get("crossing", 0),
        "selection.greedy.s": seconds("selection.greedy"),
        "selection.evaluations": counts.get("evaluations", 0),
        "cli.main.s": seconds("cli.main"),
        "cli.self.s": self_ns.get("cli.main", 0) / 1e9,
        "trace.counts.s": seconds("trace.counts"),
        "trace.spans": len(spans),
    }
    for name in ("phrases.build_phrase_table", "trees.cky_chart", "scoring.score"):
        metrics[f"{name}.p50_ms"] = _decile_ms(durations.get(name, []), 5)
        metrics[f"{name}.p90_ms"] = _decile_ms(durations.get(name, []), 9)
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from attnsyntax import cli

    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.records(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
