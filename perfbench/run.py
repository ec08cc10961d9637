#!/usr/bin/env python3
"""Benchmark of the attnsyntax command line on seeded synthetic inputs.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 20 --trace 0

Run from the repository root (the library is imported from ``src/``).  One
run writes the workload's inputs from the seed (several times, to time the
set-up and to check that it is deterministic), then runs the workload's
``attnsyntax`` command again and again in a fresh process, one at a time
(a closed loop with one client), until ``--seconds`` have passed.  Every
command's exit code and output are checked.

With ``--trace 0`` it reports the end-to-end metrics, medians over the
commands of the run.  With ``--trace 1`` it alternates untraced commands
with commands run under ``perfbench/tracer.py`` and reports the per-layer
metrics of the traced ones, plus the tracing overhead as the difference of
the median wall times.  A summary goes to standard output; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# a command still running this long after the run started is killed and fails
RUN_LIMIT_S = 165
# what the ``attnsyntax`` console script runs
ENTRY = "import sys; from attnsyntax.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Command:
    """One finished command: wall time from spawn to exit, child's peak RSS."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    output: bytes
    log: str


def run_command(argv: list[str], out: Path, log: Path, timeout_s: float) -> Command:
    """Run one fresh interpreter to completion and collect its resource use."""
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ATTNSYNTAX_LOG", None)
    with open(log, "wb") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=log_fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        try:
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = out.read_bytes() if out.exists() else b""
    return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode, output,
                   log.read_text(encoding="utf-8", errors="replace"))


def _file_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Run:
    """State of one benchmark run: inputs, commands made and problems seen."""

    def __init__(self, workload, seed: int, directory: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._checked: dict[bytes, str | None] = {}
        self._kill_at = time.perf_counter() + RUN_LIMIT_S

    def set_up(self) -> tuple[float, int]:
        """Write the inputs repeatedly; median seconds and sentences."""
        times: list[float] = []
        digests = set()
        paths = [self.directory / name for name in self.workload.inputs]
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            start = time.perf_counter()
            sentences = self.workload.write_inputs(self.seed, self.directory)
            times.append(time.perf_counter() - start)
            digests.add(_file_digest(paths))
        if len(digests) != 1:
            self.problems.append("the same seed wrote different inputs")
        # flush the inputs now, so that writeback does not overlap the commands
        for path in paths:
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        return statistics.median(times), sentences

    def command(self, argv: list[str]) -> Command:
        """Run and check one command; count it as attempted, and as failed
        when it exits non-zero or its output does not pass the checks."""
        out = self.directory / "out.txt"
        timeout_s = max(1.0, self._kill_at - time.perf_counter())
        result = run_command(argv, out, self.directory / "log.txt", timeout_s)
        self.attempted += 1
        if result.returncode != 0:
            problem = f"exit code {result.returncode}: {result.log[-500:]}"
        else:
            key = hashlib.sha256(result.output).digest()
            if key not in self._checked:
                self._checked[key] = self.workload.check_output(
                    self.seed, self.directory, result.output)
            problem = self._checked[key]
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
        return result

    def cli_argv(self) -> list[str]:
        return self.workload.argv(self.directory, self.directory / "out.txt")


def _unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name in ("phrases.spans_per_table", "phrases.harden_reuse"):
        return "ratio"
    return "count"


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    setup_s, sentences = run.set_up()
    passes = sentences * run.workload.passes_per_sentence
    commands: list[Command] = []
    deadline = time.perf_counter() + seconds
    while not commands or time.perf_counter() < deadline:
        commands.append(run.command(["-c", ENTRY, *run.cli_argv()]))
    return {
        "setup_s": (setup_s, "s"),
        "sentences_per_s": (statistics.median(passes / c.wall_s for c in commands), "1/s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in commands), "MB"),
    }


def per_layer(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    import tracer

    run.set_up()
    spans_path = run.directory / "spans.json"
    untraced: list[Command] = []
    traced: list[Command] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run.command(["-c", ENTRY, *run.cli_argv()]))
        spans_path.unlink(missing_ok=True)
        traced.append(run.command([str(HERE / "tracer.py"), str(spans_path), *run.cli_argv()]))
        if traced[-1].output != untraced[-1].output:
            run.problems.append("tracing changed the command's output")
        if spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                layers.append(tracer.summarize(json.load(fh)))
    if not layers:
        run.problems.append("no traced command wrote its spans")
        layers.append(tracer.summarize([]))
    for name in tracer.COUNT_METRICS:
        if len({layer[name] for layer in layers}) != 1:
            run.problems.append(f"{name} differs between runs of one input")
    metrics = {name: (statistics.median(layer[name] for layer in layers), _unit(name))
               for name in layers[0]}
    untraced_s = statistics.median(c.wall_s for c in untraced)
    traced_s = statistics.median(c.wall_s for c in traced)
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the handlers that kill the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # measure this checkout's library, never an installed copy
    if not (SRC / "attnsyntax" / "cli.py").is_file():
        print(f"perfbench: no attnsyntax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    directory = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, directory)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} commands, {run.failed} failed")
    for problem in dict.fromkeys(run.problems):
        print(f"problem: {problem}")
    if not args.trace:
        print(f"error_rate: {run.failed / run.attempted} ratio (failed / attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
