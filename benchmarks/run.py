"""Benchmark of the intent-graph library: seeded workloads, end-to-end metrics,
and a separate traced run for per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload train-recipe --seed 0 --seconds 25 --trace 0

One process, one thread, one closed-loop caller. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds and
reports per-layer span metrics, the tracing overhead, and writes every span
to ``.bench_out/trace/``. Lines starting with ``#`` are for people; the last
line of standard output is the JSON result. The exit code is 0 only when
every correctness gate held. See NOTES.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread and keep the library's thread fan-out (slower than
# serial) out of the numbers; both must happen before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("INTENT_GRAPH_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import KERNEL_REFERENCE_S, HostGauge  # noqa: E402
from tracing import SPANS, Tracer, instrumented  # noqa: E402
from workloads import LOSS_RTOL, WORKLOADS, Library, Unit, file_hashes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Fresh import + load + init/checkpoint, repeated; setup_s is the median.
SETUP_REPEATS = 5
PREPARE_TIMEOUT_S = 120


def input_dir(workload) -> Path:
    """One directory per workload, overwritten by every run, so disk use stays bounded."""
    return OUT / "inputs" / workload.name


def prepare_inputs(workload, index: int) -> Path:
    """Generate the inputs in a child process, so generation does not count in peak RSS."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare", "--workload", workload.name, "--index", str(index)]
    subprocess.run(cmd, check=True, timeout=PREPARE_TIMEOUT_S)
    return input_dir(workload)


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,  # None: the checkout is not a git repository
        "blas_threads": BLAS_THREADS,
        "intent_graph_threads": os.environ.get("INTENT_GRAPH_THREADS"),
    }


def percentile(values: list[float], pct: int) -> float:
    return statistics.median(values) if pct == 50 else statistics.quantiles(values, n=100)[pct - 1]


class Outcome:
    """attempted/failed counts and gate failures, shared by both modes."""

    def __init__(self, workload, reference: dict):
        self.workload, self.reference = workload, reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def run_unit(self, lib: Library, state: dict, workdir: Path, gauge: HostGauge) -> Unit | None:
        try:
            unit = self.workload.unit(lib, state, workdir, gauge)
        except Exception:  # a failing unit is a measured outcome; report it and stop
            traceback.print_exc()
            n = self.workload.nominal_attempts(state)
            self.attempted += n
            self.failed += n
            self.problems.append("a unit raised (traceback on stderr)")
            return None
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)
        self.digests.add(unit.digest())
        ref = self.reference
        if not abs(unit.loss - ref["loss"]) <= LOSS_RTOL * abs(ref["loss"]):
            self.problems.append(f"loss {unit.loss!r} differs from the reference {ref['loss']!r}")
        if unit.accuracy != ref["accuracy"]:
            self.problems.append(f"accuracy {unit.accuracy!r} differs from the reference {ref['accuracy']!r}")
        return unit

    def correct(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append("repeated units (traced or not) gave different outputs")
        if self.failed:
            self.problems.append(f"{self.failed} of {self.attempted} operations failed")
        return not self.problems


def run_untraced(workload, directory: Path, seconds: float, outcome: Outcome) -> dict:
    workdir = OUT / "work"
    units: list[Unit] = []
    with HostGauge() as gauge:
        for _ in range(SETUP_REPEATS):
            lib = state = None  # free the previous set-up before the next one loads
            start = gauge.now()
            lib = Library()
            state = workload.setup(lib, directory)
            gauge.record("setup", start)

        workload.warm_up(lib, state)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            unit = outcome.run_unit(lib, state, workdir, gauge)
            if unit is None:
                break
            units.append(unit)
    if not units:
        return {}

    rates = gauge.rates("throughput")
    predict_ms = [1e3 * s for s in gauge.durations("forward")]
    scales = statistics.quantiles(gauge.scales, n=4)
    print(f"# {len(units)} units; {len(rates)} throughput samples; {len(predict_ms)} predict samples (CPU time)")
    print(f"# host speed: {len(gauge.scales)} readings, median {gauge.median_scale():.3f}x (quartiles "
          f"{scales[0]:.3f}x, {scales[2]:.3f}x) the reference kernel time of {1e3 * KERNEL_REFERENCE_S:g} ms; "
          "timings below are scaled to 1.0x")
    return {
        "setup_s": (statistics.median(gauge.durations("setup")), "s"),
        "scenarios_per_s": (statistics.median(rates), "1/s"),
        "loss": (units[0].loss, "nats"),
        "predict_ms_p50": (percentile(predict_ms, 50), "ms"),
        "predict_ms_p90": (percentile(predict_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "tape_nodes": "count",
    "tape_nodes_per_scenario": "count",
    "tape_nodes_per_edge": "count",
    "epoch_eval_share": "ratio",
}


def _round_metrics(tracer: Tracer, unit: Unit) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in SPANS:
        calls, self_s, total_s, nodes = tracer.stats[name]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.total_s"] = total_s
        values[f"{name}.tape_nodes"] = nodes
    stats = tracer.stats
    losses = stats["training.scenario_loss_tensor"][0]
    all_nodes = sum(s[3] for s in stats.values()) + tracer.unspanned_nodes
    graph_nodes = sum(s[3] for name, s in stats.items() if name.startswith("graph."))
    edges = tracer.taped_edges()
    values["autodiff.tape_nodes_per_scenario"] = all_nodes / losses if losses else 0.0
    values["graph.tape_nodes_per_edge"] = graph_nodes / edges if edges else 0.0
    values["training.epoch_eval_share"] = stats["training.epoch_eval"][2] / unit.train_wall_s if unit.train_wall_s else 0.0
    return values


def run_traced(workload, directory: Path, seconds: float, outcome: Outcome, trace_path: Path) -> dict:
    """Alternate untraced and traced rounds (set-up without import + one unit)."""
    lib = Library()
    workdir = OUT / "work"
    workload.warm_up(lib, workload.setup(lib, directory))
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_round: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    gauge = HostGauge()  # never entered: no readings that spans would count
    start = time.perf_counter()
    index = 0
    while not (walls[False] and walls[True]) or time.perf_counter() - start < seconds:
        traced = index % 2 == 1
        tracer = Tracer(index) if traced else None
        with instrumented(lib.modules, tracer) if traced else contextlib.nullcontext():
            t = time.perf_counter()
            state = workload.setup(lib, directory)
            unit = outcome.run_unit(lib, state, workdir, gauge)
            wall = time.perf_counter() - t
        index += 1
        if unit is None:
            break
        walls[traced].append(wall)
        if traced:
            tracers.append(tracer)
            per_round.append(_round_metrics(tracer, unit))
            covered = sum(s[1] for s in tracer.stats.values())
            print(f"# traced round {tracer.round_index}: wall {wall:.4f} s, span self time {covered:.4f} s, "
                  f"unattributed {wall - covered:.4f} s ({(wall - covered) / wall:.1%})")
    if not per_round or not walls[False]:
        return {}

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": workload.name, "environment": environment(), "spans": list(SPANS)}) + "\n")
        for tracer in tracers:
            tracer.write_spans(handle)
    print(f"# {len(walls[False])} untraced and {len(per_round)} traced rounds; spans written to {trace_path.relative_to(ROOT)}")

    metrics = {name: (statistics.median(r[name] for r in per_round), _UNITS[name.rsplit(".", 1)[1]]) for name in per_round[0]}
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "intent_graph" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.prepare:
        directory = input_dir(workload)
        directory.mkdir(parents=True, exist_ok=True)
        workload.prepare(Library(), args.index, directory)
        return 0

    index = workload.input_index(args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload.name][str(index)]
    directory = prepare_inputs(workload, index)
    hashes = file_hashes(directory, workload.files)
    if hashes != reference["inputs"]:
        print(f"error: generated inputs differ from the recorded ones: {hashes} != {reference['inputs']}", file=sys.stderr)
        return 1
    (OUT / "work").mkdir(parents=True, exist_ok=True)

    env = environment()
    print(f"# environment {json.dumps(env)}")
    print(f"# workload {workload.name}, seed {args.seed} -> input set {index}, {args.seconds:g} s")
    outcome = Outcome(workload, reference)
    if args.trace:
        trace_path = OUT / "trace" / f"{workload.name}.jsonl"
        metrics = run_traced(workload, directory, args.seconds, outcome, trace_path)
    else:
        metrics = run_untraced(workload, directory, args.seconds, outcome)
    correct = outcome.correct() and bool(metrics)
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    for name, (value, unit_name) in metrics.items():
        print(f"# {name} = {value:.6g} {unit_name}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit_name} for name, (value, unit_name) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
