"""Shared measurement machinery: the host probe, the op loop, aggregation.

Every batch workload is a list of :class:`Op` objects.  One *pass* runs
each op once, in a seed-determined order; a run repeats whole passes
while the time budget lasts (at least one).  Each op is timed on the
main thread with the program otherwise idle, and a fixed pure-Python
probe is timed right before and right after it.  An op's cost is its
wall time divided by the geometric mean of those two probes (unit
``ref``), so a host that runs everything 20% slower for a while leaves
the ratio unchanged.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from probe import PROBE_NOMINAL_MS, probe_ms


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value) -> str:
    """SHA-256 of a value's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


@dataclass
class Op:
    """One unit of measured work.

    ``run`` does the work and returns whatever ``check`` needs; only
    ``run`` is inside the timed region.  ``check(result, counters)``
    returns ``(row, problems, fingerprint_counts)``: the canonical row
    compared against the expected-rows file, a list of correctness
    problems (empty when the op is right), and counts that must repeat
    exactly on every run.  ``units(result)``, when given, returns the
    seconds of the op's own units of work (fuzz cases), which the
    latency percentiles use in place of the op's wall time.
    """

    op_id: str
    run: Callable[[], object]
    check: Callable[[object, dict], tuple[object, list[str], dict]]
    units: Callable[[object], list[float]] | None = None


@dataclass
class OpSample:
    op_id: str
    wall_s: float
    probe_before_ms: float
    probe_after_ms: float
    problems: list[str] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return self.wall_s * 1e3 / math.sqrt(self.probe_before_ms * self.probe_after_ms)


@dataclass
class PassResult:
    samples: list[OpSample]
    rows: dict[str, object]
    #: fingerprint counts summed over ops
    counts: dict[str, float]
    #: every registry delta summed over ops, and the largest live-node peak
    registry: dict[str, float]
    peak_live: float

    def fingerprint(self) -> dict:
        return {"rows": digest(self.rows), **dict(sorted(self.counts.items()))}


def run_pass(ops: list[Op], order_seed: str, tracer=None) -> PassResult:
    """Run every op once in a seeded order, probing around each."""
    from repro.obs.metrics import REGISTRY

    order = list(ops)
    random.Random(order_seed).shuffle(order)
    samples: list[OpSample] = []
    rows: dict[str, object] = {}
    counts: dict[str, float] = {}
    registry: dict[str, float] = {}
    peak_live = 0.0
    gc.collect()
    probe = probe_ms()
    for op in order:
        before = REGISTRY.snapshot()
        if tracer is not None:
            tracer.begin_op(op.op_id)
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        after = REGISTRY.snapshot()
        counters = after.diff(before)
        peak_live = max(peak_live, after.get("bdd.peak_live"))
        for name, value in counters.items():
            registry[name] = registry.get(name, 0.0) + value
        units: list[float] = []
        if error is None:
            row, problems, op_counts = op.check(result, counters)
            if op.units is not None:
                units = op.units(result)
        else:
            row, problems, op_counts = None, [error], {}
        del result
        gc.collect()
        probe_after = probe_ms()
        samples.append(OpSample(op.op_id, wall, probe, probe_after, problems, units))
        rows[op.op_id] = row
        for name, value in op_counts.items():
            counts[name] = counts.get(name, 0) + value
        probe = probe_after
    return PassResult(samples, rows, counts, registry, peak_live)


def run_passes(ops, workload, seed, seconds, tracer=None, first_pass=0):
    """Whole passes until ``seconds`` have gone by."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        index = first_pass + len(passes)
        passes.append(run_pass(ops, f"perfbench:{workload}:{seed}:{index}", tracer))
    return passes


def batch_summary(passes: list[PassResult]) -> dict:
    """End-to-end figures of a batch run (median per op over passes)."""
    by_op: dict[str, list[OpSample]] = {}
    for p in passes:
        for s in p.samples:
            by_op.setdefault(s.op_id, []).append(s)
    ratios = {op: statistics.median(s.ratio for s in ss) for op, ss in by_op.items()}
    walls = {op: statistics.median(s.wall_s for s in ss) for op, ss in by_op.items()}
    probes = [s.probe_before_ms for p in passes for s in p.samples]
    # latency percentiles: over every unit of work when ops report units
    # (fuzz cases), else over each op's median, so a single sample caught
    # by a host stall cannot become the p99 of a 20-50 sample run
    units = [
        u * s.ratio / s.wall_s
        for p in passes for s in p.samples for u in s.unit_s
    ]
    at_nominal = [r * PROBE_NOMINAL_MS for r in units or ratios.values()]
    return {
        "work_ref": sum(ratios.values()),
        "op_gmean_ref": gmean(list(ratios.values())),
        "lat_p50_ms": percentile(at_nominal, 50),
        "lat_p99_ms": percentile(at_nominal, 99),
        "per_op_ref": ratios,
        "wall_s": sum(walls.values()),
        "op_gmean_ms": gmean(list(walls.values())) * 1e3,
        "host_ref_ms": statistics.median(probes),
        "host_ref_ms_range": [min(probes), max(probes)],
        "passes": len(passes),
        "samples": [
            [i, s.op_id, s.wall_s, s.probe_before_ms, s.probe_after_ms]
            for i, p in enumerate(passes)
            for s in p.samples
        ],
    }
