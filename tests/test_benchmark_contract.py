"""What the benchmark under `perfbench/` needs from the package.

The tracer looks up every name in `tracing.TARGETS`, and each workload runs
its operations through the public API and the CLI.  A removal or rename that
would break `perfbench/run.py --trace 1` or a workload fails here.  The
tests only read `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()  # resolves every TARGETS name in the package
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_traced_name_resolves():
    for target in tracing.TARGETS:
        module, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), name))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_operation_passes_its_check_traced(tracer, workload):
    op = workloads.warmup(workload)
    assert op.check(op.run()) is None
    assert len(tracer) > 0


def test_evaluate_operation_passes_its_check_traced(tracer):
    rng = np.random.default_rng(0)
    op = workloads.evaluate_op("dirichlet", workloads.dirichlet_strategy(rng, 5),
                               workloads._seeded_tau(rng, 5, 1, 3))
    assert op.check(op.run()) is None
    assert tracer.counters["markov.kernel.flops"] > 0


def test_equalized_value_cache_can_be_cleared_and_read():
    # run.py::run_op clears this cache before every operation and reads its
    # hits and misses after it; without either, every benchmark op fails
    from patrolgame.synthesis import solve_equalized_value

    solve_equalized_value.cache_clear()
    solve_equalized_value((2, 3))
    solve_equalized_value((2, 3))
    info = solve_equalized_value.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    solve_equalized_value.cache_clear()
    assert solve_equalized_value.cache_info()[:] == (0, 0, None, 0)


class _Admitted(Exception):
    """Raised in place of building the graph: the request passed every guard."""


def _admit(descriptor):
    raise _Admitted


def _cli_requests(monkeypatch, workload: str, commands: tuple[str, ...]) -> list[list[str]]:
    """The argv of every CLI request that `workload`'s passes and warmup make
    through `commands`, over four seeds; nothing is run."""
    requests = []
    monkeypatch.setattr(workloads, "call_cli", requests.append)
    for seed in (0, 1, 30, 57):
        for op in [*workloads.build(workload, seed), workloads.warmup(workload)]:
            if op.label.startswith(commands):
                op.run()
    monkeypatch.undo()
    return requests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_solve_and_simulate_request_is_under_the_recursion_limit(monkeypatch, workload):
    from patrolgame import cli

    requests = _cli_requests(monkeypatch, workload, ("solve", "simulate"))
    monkeypatch.setattr(cli, "build_graph", _admit)
    for argv in requests:
        with pytest.raises(_Admitted):
            cli.main(argv)
    # exact-large solves up to n = 200 at tau_max = 200; verify-sweep simulates,
    # so its requests also pass the walk limit, which simulate checks next;
    # the graph limit (n = 200 here) is checked last, just before the build
    expected = {"exact-large": {"solve"}, "oracle-search": set(), "verify-sweep": {"simulate"}}
    assert {argv[0] for argv in requests} == expected[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_sweep_cell_is_under_the_graph_limit(monkeypatch, workload):
    from patrolgame import cli

    built = []

    def record(descriptor):
        built.append(sum(descriptor[key] for key in ("n", "n_p", "n_q") if key in descriptor))

    requests = _cli_requests(monkeypatch, workload, ("sweep",))
    monkeypatch.setattr(cli, "build_graph", record)
    monkeypatch.setattr(cli, "_sweep_cell", lambda graph, budgets, taus, sides: [])
    for argv in requests:
        assert cli.main(argv) == 0
    # every cell is checked before it is built; the largest is n = 29
    largest = {"exact-large": 0, "oracle-search": 0, "verify-sweep": 29}
    assert max(built, default=0) == largest[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_monte_carlo_suite_request_is_under_the_walk_limit(monkeypatch, workload):
    from patrolgame import cli
    from patrolgame.oracles import monte_carlo_suite_work

    requests = []
    monkeypatch.setattr(workloads.pg, "monte_carlo_suite",
                        lambda trials, seed, instances: requests.append((trials, instances)))
    for seed in (0, 1, 30, 57):
        for op in [*workloads.build(workload, seed), workloads.warmup(workload)]:
            if op.label == "suite montecarlo":
                op.run()
    for trials, instances in requests:
        assert monte_carlo_suite_work(trials, instances) <= cli.WALK_WORK_LIMIT
    assert bool(requests) == (workload == "verify-sweep")
