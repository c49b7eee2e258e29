"""Disabled-mode overhead of the observability layer.

The instrumentation contract is that when no trace is active, every
``span(...)`` call site costs one function call (kwargs build, one
global read, a no-op context manager) — nothing else.  A naive A/B
macro-benchmark (workload as shipped vs. workload with ``span``
monkeypatched out) cannot verify a 2% budget here: the engine workload
itself varies ±5% run to run, an order of magnitude above the signal.

Instead the overhead is measured as a deterministic model:

    overhead = per_call_cost × span_calls / workload_wall_time

* ``span_calls`` is exact — the workload is deterministic, and a
  counting stub patched into every instrumented module tallies each
  call site hit.
* ``per_call_cost`` is a tight-loop microbenchmark of a disabled
  ``span(...)`` call with representative kwargs.  Loop overhead is NOT
  subtracted, so the figure is a strict upper bound on what a call
  site adds over never having been instrumented.
* ``workload_wall_time`` is the best of several timed runs (minima
  under-state the denominator, again conservative).

The file is wired into ``scripts/check_bdd_engine_regression.py`` so a
creeping disabled-mode cost — a new span inside a hot loop, a guard
that starts allocating — fails CI like any other engine regression.

Run:  pytest benchmarks/bench_obs_overhead.py --benchmark-only -q
"""

import importlib
import time

from _harness import TableCollector
from repro.circuits import mcnc_suite
from repro.core.required_time import analyze_required_times
from repro.obs.trace import _NOOP, span as disabled_span

OVERHEAD_BUDGET = 0.02  # the PR's acceptance ceiling: <2% when disabled
MICRO_CALLS = 200_000
MICRO_REPS = 5
WORKLOAD_REPS = 3

#: every module holding a direct ``span`` binding (import-time copies:
#: patching ``repro.obs.trace.span`` alone would not reach them)
INSTRUMENTED_MODULES = (
    "repro.bdd.manager",
    "repro.bdd.reorder",
    "repro.core.approx1",
    "repro.core.approx2",
    "repro.core.exact",
    "repro.core.required_time",
    "repro.fuzz.checks",
    "repro.fuzz.runner",
    "repro.timing.chi",
    "repro.timing.functional",
    "repro.timing.topological",
)

TABLE = TableCollector(
    "Observability disabled-mode overhead",
    ["quantity", "value", "budget", "verdict"],
)


_M3 = None


def workload():
    """The m3 SAT lattice climb: the chattiest span-per-second mix among
    the table circuits (~800 chi.* span call sites on a ~0.4 s run)."""
    global _M3
    if _M3 is None:
        _M3 = {spec.name: spec for spec in mcnc_suite()}["m3"].network
    return analyze_required_times(
        _M3.copy(), "approx2", output_required=0.0, engine="sat"
    )


def _count_span_calls(monkeypatch) -> int:
    """Run the workload once with a counting stub at every call site."""
    calls = [0]

    def counting_span(name, **attrs):
        calls[0] += 1
        return _NOOP

    for modname in INSTRUMENTED_MODULES:
        mod = importlib.import_module(modname)
        assert hasattr(mod, "span"), f"{modname} no longer imports span"
        monkeypatch.setattr(mod, "span", counting_span)
    try:
        workload()
    finally:
        monkeypatch.undo()
    return calls[0]


def _per_call_cost() -> float:
    """Best-of-N per-call cost of a disabled span with typical kwargs."""
    best = float("inf")
    for _ in range(MICRO_REPS):
        t0 = time.perf_counter()
        for _ in range(MICRO_CALLS):
            disabled_span("chi.stability_check", output="o", t=1.0, engine="sat")
        best = min(best, time.perf_counter() - t0)
    return best / MICRO_CALLS


def test_disabled_overhead(benchmark, monkeypatch):
    from repro.obs.trace import is_tracing

    assert not is_tracing(), "a leaked trace would bill span bodies here"

    span_calls = _count_span_calls(monkeypatch)
    assert span_calls > 0, "workload no longer crosses any span call site"

    per_call = _per_call_cost()
    wall = float("inf")
    for _ in range(WORKLOAD_REPS):
        t0 = time.perf_counter()
        workload()
        wall = min(wall, time.perf_counter() - t0)

    overhead = per_call * span_calls / wall
    verdict = "ok" if overhead <= OVERHEAD_BUDGET else "FAIL"
    TABLE.add("span call sites hit", span_calls, "-", "-")
    TABLE.add("disabled span cost (ns/call)", per_call * 1e9, "-", "-")
    TABLE.add("workload wall time (s)", wall, "-", "-")
    TABLE.add(
        "modeled overhead", f"{overhead:.4%}", f"< {OVERHEAD_BUDGET:.0%}", verdict
    )

    benchmark.extra_info["span_calls"] = span_calls
    benchmark.extra_info["per_call_ns"] = round(per_call * 1e9, 1)
    benchmark.extra_info["overhead_ratio"] = round(1.0 + overhead, 6)
    benchmark.pedantic(workload, rounds=1, iterations=1)

    assert overhead <= OVERHEAD_BUDGET, (
        f"disabled-mode span overhead {overhead:.2%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget "
        f"({span_calls} calls × {per_call * 1e9:.0f} ns over {wall:.3f} s)"
    )


def test_zzz_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    TABLE.print_once()
