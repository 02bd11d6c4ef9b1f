"""patrolgame benchmark: one closed-loop client, in-process, one workload per run.

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `patrolgame` is imported from the
checkout's own `src/`.  The run repeats the workload's seeded pass of
operations for `--seconds` (whole passes only), checks every answer, and
prints an environment line, a detail line and, last, one JSON object:
`--trace 0` reports the end-to-end metrics, `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics.  Metric definitions are
in WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# End-to-end times are reported in reference seconds: each measured wall time
# is scaled by the reference loop's nominal time over the time it took next
# to the measurement, so that the shared host's changing speed cancels out
# (see WORKLOADS.md).  Per workload: the loop's small numpy products, and
# its nominal time in seconds.
REFERENCE_ITERATIONS = 10_000
REFERENCE = {"exact-large": (0, 0.75e-3), "oracle-search": (300, 2.0e-3),
             "verify-sweep": (300, 2.0e-3)}
# End-to-end times come from this many first passes of a run, whatever the
# run's length, so that a faster program does not also get more draws.
TIMED_PASSES = {"exact-large": 3, "oracle-search": 4, "verify-sweep": 5}
# Tail percentile over the timed passes' latencies: on every workload the
# highest with at least ten samples beyond it, and inside a group of
# same-kind operations (see WORKLOADS.md).
TAIL_PERCENTILE = 75.0
TAIL_MIN_BEYOND = 10

# Imported after sys.path points at the checkout's src/.
pg = workloads = tracing = None


def import_package() -> None:
    global pg, workloads, tracing
    if not (SRC / "patrolgame" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no patrolgame package under {SRC}")
    sys.path.insert(0, str(SRC))
    import patrolgame
    if Path(patrolgame.__file__).resolve().parent != SRC / "patrolgame":
        raise SystemExit(f"perfbench: imported patrolgame from {patrolgame.__file__}, not {SRC}")
    import tracing as tracing_module
    import workloads as workloads_module
    pg, workloads, tracing = patrolgame, workloads_module, tracing_module


def samples_beyond(samples: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile, ceil(p/100 * samples)."""
    return samples - math.ceil(p / 100.0 * samples)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


@dataclass
class OpResult:
    label: str
    latency_s: float
    failure: str | None
    evaluations: int
    output_bytes: int
    cache_hits: int
    cache_misses: int


def run_op(op, equalized, tracer=None) -> OpResult:
    """Run one operation and check it; an exception counts as a failure."""
    equalized.cache_clear()  # each CLI invocation starts with a cold cache
    root = tracer.begin("bench.op") if tracer is not None else None
    try:
        started = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            latency = time.perf_counter() - started
            return OpResult(op.label, latency, f"{type(exc).__name__}: {exc}", 0, 0, 0, 0)
        latency = time.perf_counter() - started
        try:
            failure = op.check(out)
            evaluations, output_bytes = op.evaluations(out), op.output_bytes(out)
        except Exception as exc:  # noqa: BLE001 - an unreadable answer is a failure
            failure, evaluations, output_bytes = f"{type(exc).__name__}: {exc}", 0, 0
    finally:
        if tracer is not None:
            tracer.finish(root)
    info = equalized.cache_info()
    return OpResult(op.label, latency, failure, evaluations, output_bytes,
                    info.hits, info.misses)


def reference_time(products: int) -> float:
    """The host's current speed: the mean time of three runs of a fixed loop
    of pure-Python arithmetic and, for workloads of small-n numpy work, small
    numpy products.  A mean, like an operation's own time, takes in the
    host's short stalls."""
    import numpy as np
    a = np.arange(25.0).reshape(5, 5) / 25.0
    started = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
        for _ in range(products):
            (a @ a) / 5.0
    return (time.perf_counter() - started) / 3


class Reference:
    """Scales wall seconds to reference seconds for one workload."""

    def __init__(self, workload: str):
        self.products, self.nominal_s = REFERENCE[workload]

    def time(self) -> float:
        return reference_time(self.products)

    def scale(self, before: float, after: float) -> float:
        """Factor for a measurement with these reference times on either side."""
        return 2.0 * self.nominal_s / (before + after)


def scaled_pass(ops, equalized, ref: Reference) -> tuple[list[OpResult], list[float]]:
    """An untraced pass with the reference loop timed before the first
    operation and after each one; returns the results and each one's scale."""
    times, results = [ref.time()], []
    for op in ops:
        results.append(run_op(op, equalized))
        times.append(ref.time())
    return results, [ref.scale(a, b) for a, b in zip(times, times[1:])]


def run_pass(ops, equalized, tracer=None) -> tuple[float, list[OpResult]]:
    started = time.perf_counter()
    results = [run_op(op, equalized, tracer) for op in ops]
    return time.perf_counter() - started, results


def next_fits(started: float, last_start: float, seconds: float) -> bool:
    """Whether a pass as long as the last one would end within `seconds`."""
    now = time.perf_counter()
    return 2 * now - last_start - started <= seconds


def fingerprint(results: list[OpResult]) -> list[tuple]:
    return [(r.label, r.failure is None, r.evaluations, r.output_bytes) for r in results]


def setup_seconds(workload: str, seed: int, ref: Reference) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports patrolgame and builds the
    inputs, and its scale to reference seconds."""
    before = ref.time()
    started = time.perf_counter()
    # no timeout: with one, Popen.wait polls and rounds up to 50 ms steps
    subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)], cwd=ROOT, check=True)
    wall = time.perf_counter() - started
    return wall, ref.scale(before, ref.time())


def git_commit() -> str | None:
    """HEAD's commit read from the checkout's own .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """Where the numbers come from: code identity, interpreter, numpy and BLAS."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "patrolgame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "patrolgame_file": pg.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, ops, seconds: float, seed: int, equalized):
    """End-to-end metrics from untraced passes, plus details, results and fingerprints."""
    warm = run_op(workloads.warmup(workload), equalized)
    timed_passes = TIMED_PASSES[workload]
    ref = Reference(workload)
    passes, setup = [], []
    started = last = time.perf_counter()
    while len(passes) < timed_passes or next_fits(started, last, seconds):
        # set-up probes are spread over the run, between passes
        due = 1 + int((time.perf_counter() - started) / seconds * SETUP_REPEATS)
        while len(setup) < min(due, SETUP_REPEATS):
            setup.append(setup_seconds(workload, seed, ref))
        last = time.perf_counter()
        passes.append(scaled_pass(ops, equalized, ref))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(workload, seed, ref))
    results = [r for pass_results, _ in passes for r in pass_results]

    def summary(samples: list[float], per_op: list[float], setup_s: list[float]) -> dict:
        # throughput from each operation's median over the timed passes;
        # percentiles over every timed repetition
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(ops) / sum(per_op),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_tail_ms": nearest_rank(samples, TAIL_PERCENTILE) * 1e3,
            "evals_per_s": sum(r.evaluations for r in passes[0][0]) / sum(per_op),
        }

    timed = passes[:timed_passes]
    wall = [[r.latency_s for r in pass_results] for pass_results, _ in timed]
    scaled = [[r.latency_s * k for r, k in zip(*timed_pass)] for timed_pass in timed]
    samples = [t for pass_times in scaled for t in pass_times]
    assert samples_beyond(len(samples), TAIL_PERCENTILE) >= TAIL_MIN_BEYOND, len(samples)
    figures = summary(samples, [statistics.median(t) for t in zip(*scaled)],
                      [w * k for w, k in setup])
    metrics = {name: metric(value, UNITS[name]) for name, value in figures.items()}
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    scales = [k for _, pass_scales in timed for k in pass_scales]
    detail = {
        "passes": len(passes),
        "timed_passes": timed_passes,
        "ops_per_pass": len(ops),
        "samples": len(samples),
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": samples_beyond(len(samples), TAIL_PERCENTILE),
        "wall_s": time.perf_counter() - started,
        "reference_ms_median": ref.nominal_s / statistics.median(scales) * 1e3,
        "scale_range": [min(scales), max(scales)],
        "unscaled": summary([t for pass_times in wall for t in pass_times],
                            [statistics.median(t) for t in zip(*wall)],
                            [w for w, _ in setup]),
        "setup_s_all": [w * k for w, k in setup],
        "median_ms_by_op": {op.label + f" #{i}": statistics.median(t) * 1e3
                            for i, (op, t) in enumerate(zip(ops, zip(*scaled)))},
        "warmup": {"label": warm.label, "failure": warm.failure},
    }
    return metrics, detail, [warm] + results, [fingerprint(r) for r, _ in passes]


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "evals_per_s": "1/s"}


def per_layer(workload: str, ops, seconds: float, equalized):
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    tracer = tracing.Tracer()
    warm = run_op(workloads.warmup(workload), equalized)
    untraced, traced = [], []
    started = last = time.perf_counter()
    while not traced or next_fits(started, last, seconds):
        last = time.perf_counter()
        untraced.append(run_pass(ops, equalized))
        tracer.counters.clear()
        first = len(tracer)
        tracer.install()
        try:
            wall, results = run_pass(ops, equalized, tracer)
        finally:
            tracer.uninstall()
        traced.append((wall, results, first, len(tracer), dict(tracer.counters)))

    # Times come from the fastest traced pass, the one the host's changing
    # speed disturbed least; counts must be the same in every traced pass.
    per_pass = [layer_metrics(tracer, *t) for t in traced]
    fastest = min(range(len(traced)), key=lambda i: traced[i][0])
    metrics = {name: metric(value, unit) for name, (value, unit) in per_pass[fastest].items()}
    untraced_wall = min(w for w, _ in untraced)
    metrics["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced[fastest][0] - untraced_wall, "s")
    counts = [{k: v[0] for k, v in m.items() if v[1] in COUNT_UNITS} for m in per_pass]
    detail = {"untraced_passes": len(untraced), "traced_passes": len(traced),
              "counts_repeat": all(c == counts[0] for c in counts)}
    results = [warm] + [r for _, rs in untraced for r in rs] + [r for t in traced for r in t[1]]
    prints = [fingerprint(rs) for _, rs in untraced] + [fingerprint(t[1]) for t in traced]
    return metrics, detail, results, prints


COUNT_UNITS = ("count", "bytes", "bytes-computed", "flops-computed", "steps-computed")
# The package's modules that do work; `errors` does none.
PROGRAM_LAYERS = ("graphs", "markov", "synthesis", "allocation", "oracles", "cli")
LAYERS = ("graphs", "markov", "synthesis", "allocation", "oracles", "bench", "trace")
SELF_TIMES = (
    "graphs.eccentricities", "graphs.is_strongly_connected", "markov.capture_probability",
    "markov.stationary_distribution", "markov.simulate_capture",
    "synthesis.solve_equalized_value", "allocation.co_optimize_bipartite",
    "oracles.local_search_strategy", "oracles.exhaustive_allocation", "cli.main",
)
CALLS = ("graphs.validate_attack_durations", "markov.capture_probability",
         "markov.stationary_distribution", "synthesis.solve_equalized_value")


def layer_metrics(tracer, wall, results, first, last, counters) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    spans = tracing.summarize(tracer, first, last)

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {f"{name}.self_s": (get(name, "self_s"), "s") for name in SELF_TIMES}
    out.update({f"{name}.calls": (get(name, "calls"), "count") for name in CALLS})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in spans.items()
                                      if k.split(".")[0] == layer), "s")
    evals = spans.get(tracing.EVALUATE, {"calls": 0, "total_s": 0.0})
    search_s = get("oracles.local_search_strategy", "total_s")
    in_search = tracing.child_time(tracer, first, last, tracing.EVALUATE,
                                   "oracles.local_search_strategy")
    hits = sum(r.cache_hits for r in results)
    lookups = hits + sum(r.cache_misses for r in results)
    out.update({
        "markov.capture_probability.tensor_bytes": (
            counters.get("markov.capture_probability.tensor_bytes", 0), "bytes-computed"),
        "markov.kernel.flops": (counters.get("markov.kernel.flops", 0), "flops-computed"),
        "markov.stationary_distribution.residual_max": (
            counters.get("markov.stationary_distribution.residual_max", 0.0), "prob"),
        "markov.min_capture_evaluator.evaluations": (evals["calls"], "count"),
        "markov.min_capture_evaluator.us_per_eval": (
            evals["total_s"] / evals["calls"] * 1e6 if evals["calls"] else 0.0, "us"),
        "markov.min_capture_evaluator.local_search_share": (
            in_search / search_s if search_s else 0.0, "frac"),
        "markov.simulate_capture.walk_steps": (
            counters.get("markov.simulate_capture.walk_steps", 0), "steps-computed"),
        "synthesis.solve_equalized_value.cache_hit_ratio": (
            hits / lookups if lookups else 0.0, "frac"),
        "oracles.exhaustive_allocation.candidates": (
            counters.get("oracles.exhaustive_allocation.candidates", 0), "count"),
        "cli.output_bytes": (sum(r.output_bytes for r in results), "bytes"),
        "trace.spans": (last - first, "count"),
        "trace.wall_s": (wall, "s"),
        "trace.accounted_frac": (
            sum(v["self_s"] for k, v in spans.items()
                if k.split(".")[0] in PROGRAM_LAYERS) / wall, "frac"),
    })
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-large", "oracle-search", "verify-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the package and build the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    ops = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        return 0
    env = environment()
    print("perfbench env " + json.dumps(env), flush=True)
    equalized = pg.synthesis.solve_equalized_value
    if args.trace:
        metrics, detail, results, prints = per_layer(args.workload, ops, args.seconds, equalized)
    else:
        metrics, detail, results, prints = end_to_end(args.workload, ops, args.seconds,
                                                      args.seed, equalized)
    repeatable = all(p == prints[0] for p in prints)
    failures = [r for r in results if r.failure]
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes_repeat": repeatable,
        "failed_frac": len(failures) / len(results),
        "failures": sorted({f"{r.label}: {r.failure}" for r in failures}),
    })
    print("perfbench detail " + json.dumps(detail), flush=True)
    print(json.dumps({
        "correct": repeatable and detail.get("counts_repeat", True),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
