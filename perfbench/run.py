#!/usr/bin/env python3
"""Benchmark of the twistorcheck command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload scan-nk-s6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Load comes from one closed-loop client in this process: it calls
``twistorcheck.cli.main(argv)`` with ``--out`` pointing at a scratch file and
starts the next invocation only after the previous one returned.  One
warm-up invocation runs untimed.  Every invocation's exit code and output
file pass the correctness gates in ``gates.py``; a failed gate counts the
invocation as failed.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, median wall time of one invocation, items per second and peak
resident memory.  ``--trace 1`` alternates untraced invocations with
invocations traced by ``spans.Recorder`` and reports per-layer self times and
call counts per item (a point, or one exact sample at one n).  End-to-end
numbers never come from traced invocations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable report with
each metric's median and quartiles over its repetitions goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates
import probe
import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Workload sizes: each invocation takes well under a second on a 2-core
# machine, so one run of 30 s holds dozens of repetitions.
SCAN_GRID = 2
GEOMETRY_POINTS = 4
GEOMETRY_ROTATIONS = 4
ALGEBRA_N_LIST = (2, 3)
ALGEBRA_SAMPLES = 200
SETUP_REPEATS = 21
MIN_REPEATS = 3

SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from twistorcheck import catalog, cli
cli.build_parser()
if sys.argv[2]:
    catalog.resolve(sys.argv[2])
print("ready", flush=True)
"""


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list]  # CLI arguments for a seed, without --out
    items: int  # points, or exact samples times len(n_list), per invocation
    gate: Callable[[bytes], float]  # raises GateError, returns ref_err
    manifold: str  # catalog entry resolved during set-up ("" for none)


WORKLOADS = {
    "scan-nk-s6": Workload(
        argv=lambda seed: ["scan", "--manifold", "nk-s6", "--grid", str(SCAN_GRID),
                           "--format", "csv", "--seed", str(seed)],
        items=SCAN_GRID**6,
        gate=lambda data: gates.check_scan(data, SCAN_GRID**6),
        manifold="nk-s6",
    ),
    "geometry-nk-s6": Workload(
        argv=lambda seed: ["verify-geometry", "--manifold", "nk-s6",
                           "--points", str(GEOMETRY_POINTS),
                           "--rotations", str(GEOMETRY_ROTATIONS), "--seed", str(seed)],
        items=GEOMETRY_POINTS,
        gate=lambda data: gates.check_geometry(data, GEOMETRY_POINTS),
        manifold="nk-s6",
    ),
    "algebra-sweep": Workload(
        argv=lambda seed: ["verify-algebra", "--n-list", ",".join(map(str, ALGEBRA_N_LIST)),
                           "--samples", str(ALGEBRA_SAMPLES), "--seed", str(seed)],
        items=ALGEBRA_SAMPLES * len(ALGEBRA_N_LIST),
        gate=lambda data: gates.check_algebra(data, ALGEBRA_N_LIST, ALGEBRA_SAMPLES),
        manifold="",
    ),
}


WORKLOAD_NAMES = tuple(WORKLOADS)


def cap_blas_threads() -> None:
    """Cap the BLAS/OpenMP pools at the number of usable cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def measure_setup(manifold: str) -> float:
    """Seconds from starting a fresh interpreter until the package is ready."""
    return probe.time_to_ready([sys.executable, "-c", SETUP_CHILD, str(SRC), manifold])


@dataclass
class Outcome:
    seconds: float
    code: object  # exit code, or None when cli.main raised
    log: str


class Client:
    """Closed-loop client: one invocation at a time, each one gated."""

    def __init__(self, cli, workload: Workload, seed: int, out_path: Path):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv(seed) + ["--out", str(out_path)]
        self.out_path = out_path
        self.reference: bytes | None = None
        self.ref_err: float | None = None
        self.attempted = 0
        self.errors: list = []

    def invoke(self) -> Outcome:
        self.out_path.unlink(missing_ok=True)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stderr(sink), redirect_stdout(sink):
                code = self.cli.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps going and counts the failure
            code = None
            sink.write(traceback.format_exc())
        return Outcome(time.perf_counter() - start, code, sink.getvalue())

    def judge(self, outcome: Outcome) -> None:
        self.attempted += 1
        try:
            if outcome.code != 0:
                last = outcome.log.strip().splitlines()[-1:] or [""]
                raise gates.GateError(f"exit code {outcome.code}: {last[0]}")
            try:
                data = self.out_path.read_bytes()
            except FileNotFoundError:
                raise gates.GateError("no output file") from None
            if self.reference is None:
                self.ref_err = self.workload.gate(data)
                self.reference = data
            elif data != self.reference:
                raise gates.GateError("output bytes differ from the run's first output")
        except gates.GateError as exc:
            self.errors.append(str(exc))

    def once(self) -> float:
        outcome = self.invoke()
        self.judge(outcome)
        return outcome.seconds

    @property
    def failed(self) -> int:
        return len(self.errors)


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report_line(name: str, unit: str, values) -> str:
    q1, med, q3 = quartiles(list(values))
    return f"  {name:<26} {unit:<10} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}"


def run_untraced(client: Client, workload: Workload, seconds: float, log) -> dict:
    measure_setup(workload.manifold)  # untimed: fills the bytecode cache
    client.once()  # untimed warm-up
    clock = probe.Clock()
    raw_walls: list = []
    walls: list = []
    setups: list = []
    start = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() < start + seconds:
        raw_walls.append(client.once())
        walls.append(clock.calibrate(raw_walls[-1]))
        # Set-ups are spread over the run so that they meet the same spells
        # of a shared machine as the invocations.
        if len(setups) < SETUP_REPEATS * min(1.0, (time.perf_counter() - start) / seconds):
            setups.append(probe.calibrate_startup(measure_setup(workload.manifold)))
    while len(setups) < SETUP_REPEATS:
        setups.append(probe.calibrate_startup(measure_setup(workload.manifold)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(report_line("setup_s", "s", setups))
    log(report_line("wall_s", "s", walls))
    log(report_line("items_per_s (per call)", "1/s", [workload.items / w for w in walls]))
    log(report_line("wall_s uncalibrated", "s", raw_walls))
    log(report_line("probe", "s", clock.probes))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (workload.items * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(client: Client, workload: Workload, seconds: float, log, spans_out: Path) -> dict:
    recorder = spans.Recorder()
    client.once()  # untimed warm-up
    clock = probe.Clock()
    untraced: list = []
    traced: list = []
    folds: list = []
    last_spans: list = []
    start = time.perf_counter()
    while len(traced) < MIN_REPEATS or time.perf_counter() < start + seconds:
        untraced.append(clock.calibrate(client.once()))
        with recorder.installed():
            outcome = client.invoke()
        traced.append(clock.calibrate(outcome.seconds))
        client.judge(outcome)
        last_spans = recorder.take()
        scale = traced[-1] / outcome.seconds
        layer = spans.fold(last_spans)
        for name in spans.TIME_METRICS:
            layer[name] *= scale
        spanned = sum(e - s for _, s, e, parent in last_spans if parent < 0)
        layer["trace.coverage"] = spanned / outcome.seconds
        folds.append(layer)
    leftovers = spans.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"wrappers left installed: {leftovers}")
    spans.Recorder.dump(last_spans, spans_out)

    metrics = {}
    for name in spans.TIME_METRICS:
        values = [f[name] / workload.items for f in folds]
        metrics[name] = (statistics.median(values), "ms/item")
        log(report_line(name, "ms/item", values))
    for name in spans.COUNT_METRICS:
        values = [f[name] / workload.items for f in folds]
        metrics[name] = (statistics.median(values), "count/item")
        log(report_line(name, "count/item", values))
    coverage = [f["trace.coverage"] for f in folds]
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    metrics["output.ref_err"] = (client.ref_err or 0.0, "ratio")
    log(report_line("trace.coverage", "ratio", coverage))
    log(report_line("wall_s untraced", "s", untraced))
    log(report_line("wall_s traced", "s", traced))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "twistorcheck" / "cli.py").is_file():
        print(f"error: no twistorcheck sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from twistorcheck import cli

    workload = WORKLOADS[name]
    cli_seed = seed % 2**32  # the CLI accepts non-negative seeds only

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    log(f"{name}: seed {seed}, {seconds:g} s, trace {int(trace)}, {workload.items} items per call")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        client = Client(cli, workload, cli_seed, Path(tmp) / "out")
        if trace:
            spans_out = BENCH_DIR / ".spans" / f"{name}.json"
            spans_out.parent.mkdir(exist_ok=True)
            measured = run_traced(client, workload, seconds, log, spans_out)
        else:
            measured = run_untraced(client, workload, seconds, log)
    log(f"  {'error_rate':<26} {'ratio':<10} {client.failed / client.attempted:.6g} "
        f"({client.failed} of {client.attempted} invocations)")
    if client.ref_err is not None:
        log(f"  {'ref_err':<26} {'ratio':<10} {client.ref_err:.6g}")
    for err in dict.fromkeys(client.errors):
        log(f"  failure: {err}")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    all_correct = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    print(f"{'workload':<16} {'metric':<26} {'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<26} {value:>14.6g}  {unit}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
