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
