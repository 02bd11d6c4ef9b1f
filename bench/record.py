"""Record a checkout's end-to-end benchmark metrics in one BENCH file.

    python bench/record.py [CHECKOUT]

Runs CHECKOUT's own `perfbench/run.py --trace 0` (CHECKOUT defaults to this
repository) in a subprocess for every workload and every seed in SEEDS, one
run at a time, each for SECONDS.  It then writes BENCH_<commit>.json at
CHECKOUT's root, where <commit> is `git describe --always --dirty` there, so
uncommitted changes on top of commit abc1234 record as abc1234-dirty.  Per
workload the file holds each metric's unit, median, quartiles and per-run
values; each run's verdict (correct, attempted, failed); and each run's
`perfbench env` line, whose `src_sha256` identifies the source measured.
It then runs each of CLI_COMMANDS, CLI_REPEATS times, as `python -m
patrolgame.cli` from CHECKOUT's src, each run in a process of its own, and
records the median and quartiles of its wall seconds and of its peak RSS,
read from the child's own rusage.  Last it runs the Tier-1 suite once, as CI
runs it, and records its wall time and its passed, failed and error counts,
and the line count of each `src/patrolgame/*.py` file and their total.
The recorder exits 1, after writing the file, when a run is not correct or
failed an operation, when a CLI command exits nonzero, or when a Tier-1 test
fails or errors.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("exact-large", "oracle-search", "verify-sweep")
SEEDS = (31, 32, 33)
SECONDS = 8
ENV_PREFIX = "perfbench env "
# fixed CLI commands: the two simulate walks the CI pins by digest, the Monte
# Carlo and bound suites, an n = 200 complete solve with its CDF, a 200 + 200
# bipartite tau sweep, an n = 1000 complete allocation, verify-sweep's
# bipartite budget and complete tau sweep shapes, whose stdout the CI pins by
# digest, and the allocation oracle at nmax 5 (111 single-budget allocations)
CLI_COMMANDS = {
    "simulate complete n=4": ["simulate", "--family", "complete", "--n", "4", "--tau", "2,3,3,4",
                              "--trials", "100000", "--seed", "3"],
    "simulate bipartite 3+2": ["simulate", "--family", "bipartite", "--np", "3", "--nq", "2",
                               "--tau", "6,4,4,4,2", "--trials", "100000", "--seed", "3"],
    "verify montecarlo": ["verify", "--suite", "montecarlo", "--seed", "7"],
    "solve complete n=200 --emit-cdf": ["solve", "--family", "complete", "--n", "200", "--tau",
                                        ",".join(str(2 + i % 7) for i in range(200)),
                                        "--emit-cdf"],
    "verify bounds": ["verify", "--suite", "bounds", "--seed", "7"],
    "sweep bipartite 200+200 tau": ["sweep", "--family", "bipartite", "--np", "200", "--nq", "200",
                                    "--tau", "2..100"],
    "allocate complete n=1000": ["allocate", "--family", "complete", "--n", "1000", "--B", "5000"],
    "sweep bipartite 6..11 x 6..11 B": ["sweep", "--family", "bipartite", "--np", "6..11",
                                        "--nq", "6..11", "--B",
                                        ",".join(str(B) for B in range(60, 84, 2))],
    "sweep complete 10..29 x tau 7..31": ["sweep", "--family", "complete", "--n", "10..29",
                                          "--tau", "7..31"],
    "verify alloc-oracle nmax=5": ["verify", "--suite", "alloc-oracle", "--nmax", "5"],
}
CLI_REPEATS = 3
# the Tier-1 command of .github/workflows/tier1.yml, run with src on PYTHONPATH
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", "-W", "error::FutureWarning")


def parse_run(stdout: str, checkout: Path) -> tuple[dict, dict]:
    """(env, verdict) from one run's stdout: its `perfbench env` line, with
    the package path made relative to the checkout, and its last line."""
    lines = stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith(ENV_PREFIX))
                     [len(ENV_PREFIX):])
    package = Path(env["patrolgame_file"])
    if package.is_relative_to(checkout):
        env["patrolgame_file"] = str(package.relative_to(checkout))
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def parse_tier1(stdout: str) -> dict:
    """The passed, failed and error counts on the last line of `pytest -q`,
    such as "1 failed, 716 passed, 2 errors in 20.10s"; 0 for a count it
    does not print."""
    last = (stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(count)
              for count, word in re.findall(r"(\d+) (passed|failed|error)s?\b", last)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0)}


def _src_env() -> dict:
    """This process's environment with a checkout's src first on PYTHONPATH."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))}


def record_tier1(checkout: Path) -> dict:
    """One Tier-1 run in `checkout`: its wall seconds and its counts."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, env=_src_env())
    return {"wall_s": time.perf_counter() - start, **parse_tier1(proc.stdout)}


def parse_child(status: int, maxrss_kb: int, wall_s: float) -> dict:
    """One child's record from its wait status, its ru_maxrss (kilobytes,
    as Linux reports it) and its wall seconds."""
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall_s,
            "peak_rss_mb": maxrss_kb / 1024}


def run_child(argv: list[str], cwd: Path) -> dict:
    """Run `argv` in `cwd`, output discarded, and record it.  `os.wait4` reads
    this child's own peak RSS; RUSAGE_CHILDREN would give the largest peak
    of every child waited for so far.  A child's peak starts at this
    process's (exec keeps the larger), so the recorder itself stays small."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_src_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return parse_child(status, usage.ru_maxrss, wall_s)


def record_cli(checkout: Path) -> dict:
    """Every CLI command's exit codes, wall seconds and peak RSS over its runs."""
    out = {}
    for name, argv in CLI_COMMANDS.items():
        runs = [run_child([sys.executable, "-m", "patrolgame.cli", *argv], checkout)
                for _ in range(CLI_REPEATS)]
        out[name] = {"argv": argv, "exit": [run["exit"] for run in runs],
                     "wall_s": {"unit": "s", **summarize([run["wall_s"] for run in runs])},
                     "peak_rss_mb": {"unit": "MB",
                                     **summarize([run["peak_rss_mb"] for run in runs])}}
    return out


def record(checkout: Path, workload: str) -> dict:
    """Every seed's run of `workload`, summarized metric by metric."""
    envs, verdicts = [], []
    for seed in SEEDS:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
        env, verdict = parse_run(proc.stdout, checkout)
        envs.append(env)
        verdicts.append(verdict)
    metrics = {name: {"unit": verdicts[0]["metrics"][name]["unit"],
                      **summarize([v["metrics"][name]["value"] for v in verdicts])}
               for name in verdicts[0]["metrics"]}
    runs = [{"seed": seed, **{k: v[k] for k in ("correct", "attempted", "failed")}}
            for seed, v in zip(SEEDS, verdicts)]
    return {"metrics": metrics, "runs": runs, "env": envs}


def count_src_lines(checkout: Path) -> dict:
    """Each `src/patrolgame/*.py` file's line count, as `wc -l` counts it,
    keyed by file name, and their total."""
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((checkout / "src" / "patrolgame").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                            capture_output=True, text=True, check=True).stdout.strip()
    workloads = {workload: record(checkout, workload) for workload in WORKLOADS}
    cli = record_cli(checkout)
    tier1 = record_tier1(checkout)
    report = {"commit": commit, "seeds": list(SEEDS), "seconds": SECONDS,
              "workloads": workloads, "cli": cli, "tier1": tier1,
              "src_lines": count_src_lines(checkout)}
    out = checkout / f"BENCH_{commit}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(out)
    ok = all(run["correct"] and not run["failed"]
             for data in workloads.values() for run in data["runs"])
    ok = ok and not any(code for data in cli.values() for code in data["exit"])
    ok = ok and tier1["passed"] > 0 and not tier1["failed"] and not tier1["errors"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
