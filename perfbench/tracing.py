"""In-memory span tracer that times patrolgame's layers from outside the package.

`Tracer.install` replaces public functions of `patrolgame` with timing wrappers.
`cli` and `oracles` import names directly, so every module binding that holds
a traced function is swapped, not only the defining one.  Each span records
its name, start, end and parent; spans stay in flat arrays until the run
ends.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _bound(fn, args, kwargs):
    arguments = inspect.signature(fn).bind(*args, **kwargs)
    arguments.apply_defaults()
    return arguments.arguments


def _capture_probability(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = len(a["P"])
    tau_max = max(int(t) for t in a["tau"])
    counters["markov.capture_probability.tensor_bytes"] = max(
        counters["markov.capture_probability.tensor_bytes"], tau_max * n * n * 8)
    counters["markov.kernel.flops"] += 2 * n ** 3 * (tau_max - 1)
    return result


def _stationary_distribution(counters, fn, args, kwargs, result):
    P = np.asarray(_bound(fn, args, kwargs)["P"], dtype=float)
    residual = float(np.abs(result @ P - result).max())
    key = "markov.stationary_distribution.residual_max"
    counters[key] = max(counters[key], residual)
    return result


def _simulate_capture(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = len(a["P"])
    counters["markov.simulate_capture.walk_steps"] += (
        int(a["trials"]) * n * sum(int(t) for t in a["tau"]))
    return result


def _exhaustive_allocation(counters, fn, args, kwargs, result):
    counters["oracles.exhaustive_allocation.candidates"] += result.candidates_examined
    return result


PACKAGE = "patrolgame"
EVALUATE = "markov.min_capture_evaluator.evaluate"

# Functions that get a span, by "module.name".  Helpers that only their own
# module calls (capture_cdf, hitting_time_probabilities,
# solve_monotone_increasing, ...) stay inside their caller's span, so that
# e.g. capture_probability's self time is the whole hitting-time recursion.
TARGETS = {
    "graphs.build_complete": None,
    "graphs.build_bipartite": None,
    "graphs.build_star": None,
    "graphs.build_general": None,
    "graphs.eccentricities": None,
    "graphs.is_strongly_connected": None,
    "graphs.validate_attack_durations": None,
    "markov.capture_probability": _capture_probability,
    "markov.stationary_distribution": _stationary_distribution,
    "markov.min_capture_evaluator": "evaluator",
    "markov.simulate_capture": _simulate_capture,
    "synthesis.solve_equalized_value": None,
    "synthesis.synthesize_complete": None,
    "synthesis.synthesize_bipartite": None,
    "synthesis.synthesize_star": None,
    "synthesis.uniform_bipartite_baseline": None,
    "synthesis.capture_upper_bound": None,
    "synthesis.generic_capture_bound": None,
    "allocation.allocate_complete": None,
    "allocation.allocate_bipartite_side": None,
    "allocation.co_optimize_bipartite": None,
    "allocation.complete_allocation_value": None,
    "allocation.bipartite_side_value": None,
    "oracles.exhaustive_allocation": _exhaustive_allocation,
    "oracles.exhaustive_side_allocation": None,
    "oracles.local_search_strategy": None,
    "oracles.bound_suite": None,
    "oracles.allocation_agreement_suite": None,
    "oracles.monte_carlo_suite": None,
    "cli.main": None,
}


class Tracer:
    """Records nested timing spans and named counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._swapped: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None, tally=None):
        """Return `fn` wrapped in a span named `name`.

        `observe(counters, fn, args, kwargs, result)` runs after the span in
        a span of its own ("trace.observe") so that its cost is not charged
        to the caller; it returns the result handed back to the caller.
        `tally` is a (counter, amount) pair added on every call.
        """
        nid = self._intern(name)
        start, end, parent, name_id, stack = (
            self.start, self.end, self.parent, self.name_id, self._stack)
        counters, clock = self.counters, self.clock

        def traced(*args, **kwargs):
            # begin() and finish() inlined: this runs ~1e5 times per pass
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tally is not None:
                counters[tally[0]] += tally[1]
            if observe is not None:
                obs = self.begin("trace.observe")
                try:
                    result = observe(counters, fn, args, kwargs, result)
                finally:
                    self.finish(obs)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _evaluator(self, counters, fn, args, kwargs, result):
        # one hitting-time recursion per evaluation: k_max - 1 products of n x n
        tau = [int(t) for t in _bound(fn, args, kwargs)["tau"]]
        n = len(tau)
        return self.wrap(EVALUATE, result,
                         tally=("markov.kernel.flops", 2 * n ** 3 * (max(tau) - 1)))

    def install(self) -> None:
        """Swap every binding of every TARGETS function for a traced wrapper."""
        if self._swapped:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for target, observe in TARGETS.items():
            module_name, attr = target.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            if observe == "evaluator":
                observe = self._evaluator
            wrapper = self.wrap(target, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._swapped.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._swapped):
            setattr(module, key, original)
        self._swapped.clear()

    def __len__(self) -> int:
        return len(self.start)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged where
    they overlap, so overlapping or overhanging children are not counted
    twice.
    """
    children: list[list[int]] = [[] for _ in range(len(start))]
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = []
    for idx, kids in enumerate(children):
        lo_bound, hi_bound = start[idx], end[idx]
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted((max(start[k], lo_bound), min(end[k], hi_bound)) for k in kids):
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi_bound - lo_bound - covered)
    return out


def summarize(tracer: Tracer, first: int, last: int) -> dict:
    """Per-name self time, total time and call count for spans [first, last)."""
    selfs = self_times(tracer.start[first:last], tracer.end[first:last],
                       [p - first if p >= 0 else -1 for p in tracer.parent[first:last]])
    out: dict[str, dict] = {}
    for offset, self_s in enumerate(selfs):
        idx = first + offset
        name = tracer.names[tracer.name_id[idx]]
        entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["total_s"] += tracer.end[idx] - tracer.start[idx]
        entry["calls"] += 1
    return out


def child_time(tracer: Tracer, first: int, last: int, child: str, parent: str) -> float:
    """Summed duration of `child` spans whose direct parent is a `parent` span."""
    names, ids = tracer.names, tracer.name_id
    total = 0.0
    for idx in range(first, last):
        par = tracer.parent[idx]
        if par >= 0 and names[ids[idx]] == child and names[ids[par]] == parent:
            total += tracer.end[idx] - tracer.start[idx]
    return total
