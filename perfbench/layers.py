"""The traced run: spans around each layer's public entry points.

Wrappers replace the binding a caller looks up (a module attribute or a
class attribute) and are removed when the run ends; timed runs never
install them.  Spans stay in memory as ``(name, start, end, parent, op,
thread)`` and are written out as JSON lines when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

#: (module[:class], attribute, span name); the span's layer is the part
#: of its name before the first dot
WRAPS = [
    ("repro.bdd.native_backend:NativeBddManager", "garbage_collect", "bdd.gc"),
    ("repro.core.exact", "create_manager", "bdd.manager_init"),
    ("repro.core.approx1", "create_manager", "bdd.manager_init"),
    ("repro.timing.chi", "create_manager", "bdd.manager_init"),
    # chi construction: a chi network for the SAT engine, chi BDDs for the BDD one
    ("repro.timing.functional", "build_chi_network", "timing.chi_build"),
    ("repro.timing.chi:ChiEngine", "__init__", "timing.chi_build"),
    ("repro.timing.chi:ChiEngine", "is_stable_by", "timing.chi_build"),
    ("repro.timing.functional:FunctionalTiming", "output_stable_by", "timing.stability_check"),
    ("repro.core.exact", "enumerate_leaf_times", "timing.leaves"),
    ("repro.core.approx1", "enumerate_leaf_times", "timing.leaves"),
    ("repro.core.approx2", "enumerate_leaf_times", "timing.leaves"),
    ("repro.fuzz.checks", "stabilization_times", "timing.ternary"),
    ("repro.sat.encode:CircuitEncoder", "encode", "sat.encode"),
    ("repro.sat.solver:Solver", "__init__", "sat.init"),
    ("repro.sat.solver:Solver", "solve", "sat.solve"),
    ("repro.core.required_time", "analyze_required_times", "core.analyze"),
    ("repro.core.exact:ExactAnalysis", "relation", "core.exact"),
    ("repro.core.approx1:Approx1Analysis", "run", "core.approx1"),
    ("repro.core.approx2:Approx2Analysis", "run", "core.approx2"),
    ("repro.network", "parse_blif", "network.parse"),
    ("repro.serve.registry", "parse_blif", "network.parse"),
    ("repro.cache.store:ResultCache", "get", "cache.get"),
    ("repro.cache.store:ResultCache", "put", "cache.put"),
    ("repro.eco.session:NetworkSession", "apply_edit", "eco.apply_edit"),
    ("repro.fuzz.runner:FuzzRunner", "run", "fuzz.run"),
    ("repro.fuzz.runner", "generate_case", "fuzz.gen"),
]

#: per-layer metric -> span names whose summed self time it reports
SELF_TIME_METRICS = {
    "bdd.gc_s": ("bdd.gc",),
    "bdd.manager_init_s": ("bdd.manager_init",),
    "timing.chi_build_s": ("timing.chi_build",),
    "timing.leaves_s": ("timing.leaves",),
    "timing.ternary_s": ("timing.ternary",),
    "sat.encode_s": ("sat.encode",),
    "sat.init_s": ("sat.init",),
    "sat.solve_s": ("sat.solve",),
    "core.self_s": ("core.analyze", "core.exact", "core.approx1", "core.approx2"),
    "network.parse_s": ("network.parse",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "eco.apply_edit_s": ("eco.apply_edit",),
    "fuzz.gen_s": ("fuzz.gen",),
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: str | None = None
        self.tallies: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------
    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        index = len(self.spans)
        parent = stack[-1] if stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.op_id, threading.get_ident()]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self._op_span = self._open("bench.op")

    def end_op(self) -> None:
        self._close(self._op_span)
        self.op_id = None

    # -- wrappers -------------------------------------------------------
    def _wrapper(self, original, name: str):
        tracer = self
        tally = _TALLIES.get(name)

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if tally is not None:
                tally(tracer.tallies, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for target, attr, name in WRAPS:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries ----------------------------------------------------------
    def self_times(self) -> list[tuple[str, str | None, float, float]]:
        """``(name, op, duration, self time)`` for every closed span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if end is not None and parent is not None:
                child_time[parent] += end - start
        return [
            (name, op, end - start, end - start - child_time[i])
            for i, (name, start, end, parent, op, _) in enumerate(self.spans)
            if end is not None
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Summed self time per metric, plus span counts and tallies."""
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for name, _, _, own in self.self_times():
            totals[name] += own
            counts[name] += 1
        out = {
            metric: sum(totals[n] for n in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        out["bdd.gc_runs"] = counts["bdd.gc"]
        out["timing.stability_checks"] = counts["timing.stability_check"]
        t = self.tallies
        out["core.approx2_accept_ratio"] = _share(t["approx2.accepted"], t["approx2.checks"])
        out["eco.dirty_share"] = _share(t["eco.dirty"], t["eco.candidates"])
        return out

    def op_table(self) -> dict[str, dict[str, float]]:
        """Per-op self time by per-layer metric; ``other`` is op time no
        metric claims (benchmark glue, unnamed wrapper bodies)."""
        metric_of = {n: m for m, names in SELF_TIME_METRICS.items() for n in names}
        table: dict[str, dict[str, float]] = {}
        for name, op, duration, own in self.self_times():
            if op is None:
                continue
            row = table.setdefault(op, defaultdict(float))
            row[metric_of.get(name, "other")] += own
            if name == "bench.op":
                row["wall"] += duration
        return table

    def coverage(self) -> float:
        """Share of op wall attributed to a per-layer metric."""
        table = self.op_table()
        wall = sum(row["wall"] for row in table.values())
        other = sum(row["other"] for row in table.values())
        return _share(wall - other, wall)

    def top_level_time(self) -> float:
        """Time inside outermost wrapped calls made outside any op (the
        serve workload's server threads)."""
        return sum(
            end - start
            for _, start, end, parent, op, _ in self.spans
            if parent is None and op is None and end is not None
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "thread": thread}
                    )
                    + "\n"
                )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _tally_approx2(tallies, result) -> None:
    tallies["approx2.accepted"] += result.trace.num_accepted
    tallies["approx2.checks"] += result.checks


def _tally_eco(tallies, result) -> None:
    tallies["eco.dirty"] += len(result.dirty)
    tallies["eco.candidates"] += len(result.candidates)


_TALLIES = {"core.approx2": _tally_approx2, "eco.apply_edit": _tally_eco}


def format_op_table(tracer: Tracer) -> str:
    """Per-op self time (seconds) in every per-layer metric the run hit."""
    table = tracer.op_table()
    used = [m for m in SELF_TIME_METRICS if any(row[m] for row in table.values())]
    columns = ["wall", *used, "other"]
    width = max(len(c) for c in columns) + 1
    lines = ["op".ljust(16) + "".join(c.rjust(width) for c in columns) + "  coverage"]
    for op in sorted(table):
        row = table[op]
        lines.append(
            op.ljust(16)
            + "".join(f"{row[c]:{width}.3f}" for c in columns)
            + f"  {_share(row['wall'] - row['other'], row['wall']):8.3f}"
        )
    return "\n".join(lines)
