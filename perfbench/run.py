#!/usr/bin/env python3
"""The repository benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bdd-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-expected     # refresh expected_rows.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md for every metric and workload).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when every op's answer was right.  The full run record (raw
wall times, host probe, fingerprints, per-op figures) goes to
``--record`` or ``.bench_build/records/``; traced runs also write their
spans to ``.bench_build/trace/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("bdd-grid", "sat-climb", "serve-mix", "fuzz-small")
#: set-up samples taken before and after the measured phase, per mode;
#: a serve sample costs about three lib samples, and its median is
#: steadier per sample
SETUP_SAMPLES = {"lib": (13, 12), "serve": (8, 7)}

END_TO_END = {
    "setup_s": "s",
    "work_ref": "ref",
    "op_gmean_ref": "ref",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "bdd.gc_s": "s",
    "bdd.gc_runs": "count",
    "bdd.nodes_created": "count",
    "bdd.cache_hit_ratio": "ratio",
    "bdd.peak_live_nodes": "count",
    "bdd.manager_init_s": "s",
    "timing.chi_build_s": "s",
    "timing.stability_checks": "count",
    "timing.leaves_s": "s",
    "timing.ternary_s": "s",
    "sat.encode_s": "s",
    "sat.init_s": "s",
    "sat.solve_s": "s",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "core.self_s": "s",
    "core.approx2_checks": "count",
    "core.approx2_accept_ratio": "ratio",
    "network.parse_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "eco.apply_edit_s": "s",
    "eco.dirty_share": "ratio",
    "serve.hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.queue_depth_max": "count",
    "serve.gen_lag_ms": "ms",
    "fuzz.gen_s": "s",
    "trace.coverage": "ratio",
    "obs.overhead_ratio": "ratio",
}


def prepare_environment() -> None:
    """Pin every knob that changes the work, compile the program's
    bytecode, then build the kernel."""
    for name in ("REPRO_CACHE_DIR", "REPRO_BDD_BACKEND"):
        os.environ.pop(name, None)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    # the fuzz cache-parity check writes a throwaway cache under TMPDIR
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    # set-up is timed with the bytecode cache an installed package has,
    # also where PYTHONDONTWRITEBYTECODE stops imports from writing it
    # (every import would compile from source: about 1.8x the set-up time)
    if not compileall.compile_dir(str(SRC / "repro"), quiet=1):
        raise RuntimeError("cannot compile the program's sources")
    from repro.bdd._native import build

    artifact, reason = build.build_kernel()
    if artifact is None:
        raise RuntimeError(f"cannot build the native BDD kernel: {reason}")


def setup_sample(mode: str, netlists_path: Path) -> dict:
    """One set-up sample from a fresh interpreter: the raw seconds, and
    the seconds at the probe's reference speed."""
    from probe import PROBE_NOMINAL_MS

    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), mode, str(netlists_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or "setup_raw_s" not in result:
        raise RuntimeError(f"set-up sample failed: {result or proc.stderr.strip()}")
    before, after = result["probe_ms"]
    result["setup_s"] = result["setup_raw_s"] * PROBE_NOMINAL_MS / math.sqrt(before * after)
    return result


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def registry_layers(registry: dict, peak_live: float) -> dict:
    """Per-layer counts the program's own metrics registry provides."""
    hits, misses = registry.get("bdd.cache_hits", 0), registry.get("bdd.cache_misses", 0)
    c_hits, c_misses = registry.get("cache.hits", 0), registry.get("cache.misses", 0)
    return {
        "bdd.nodes_created": registry.get("bdd.nodes_created", 0),
        "bdd.cache_hit_ratio": share(hits, hits + misses),
        "bdd.peak_live_nodes": peak_live,
        "sat.conflicts": registry.get("sat.conflicts", 0),
        "sat.propagations": registry.get("sat.propagations", 0),
        "core.approx2_checks": registry.get("approx2.checks", 0),
        "cache.hit_ratio": share(c_hits, c_hits + c_misses),
    }


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def run_batch(workload: str, netlists: dict, seed, seconds: float, trace: bool) -> dict:
    from harness import batch_summary, run_pass, run_passes
    from workloads import BATCH, expected_problems, hierarchy_problems, load_expected

    ops = BATCH[workload](netlists)
    expected = load_expected()
    budget = seconds / 2 if trace else seconds
    if trace:
        # a discarded first pass, so untraced and traced passes both start
        # warm and obs.overhead_ratio compares like with like
        run_pass(ops, f"perfbench:{workload}:{seed}:warm-up")
    passes = run_passes(ops, workload, seed, budget)
    traced = []
    if trace:
        from layers import Tracer, format_op_table

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, workload, seed, budget, tracer, first_pass=len(passes))
        finally:
            tracer.remove()
    all_passes = passes + traced
    problems: list[str] = []
    for p in all_passes:
        found = hierarchy_problems(p.rows)
        for op_id, extra in expected_problems(workload, p.rows, expected).items():
            found.setdefault(op_id, []).extend(extra)
        for sample in p.samples:
            sample.problems += found.get(sample.op_id, [])
            problems += [f"{sample.op_id}: {x}" for x in sample.problems]
    fingerprints = [p.fingerprint() for p in all_passes]
    if any(f != fingerprints[0] for f in fingerprints):
        problems.append("work fingerprint changed between passes")
    record = batch_summary(passes)
    record["fingerprint"] = fingerprints[0]
    record["attempted"] = sum(len(p.samples) for p in all_passes)
    record["failed"] = sum(1 for p in all_passes for s in p.samples if s.problems)
    record["problems"] = problems
    if trace:
        registry: dict = {}
        for p in traced:
            for name, value in p.registry.items():
                registry[name] = registry.get(name, 0.0) + value
        layers = tracer.layer_metrics()
        layers.update(registry_layers(registry, max(p.peak_live for p in traced)))
        layers.update({
            "serve.hit_ratio": 0.0, "serve.coalesced": 0, "serve.rejected": 0,
            "serve.queue_depth_max": 0, "serve.gen_lag_ms": 0.0,
            "trace.coverage": tracer.coverage(),
            "obs.overhead_ratio": batch_summary(traced)["work_ref"] / record["work_ref"],
        })
        record["layers"] = layers
        record["op_table"] = format_op_table(tracer)
        record["tracer"] = tracer
    return record


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def run_serve(netlists: dict, seed, seconds: float, trace: bool) -> dict:
    from repro.obs.metrics import REGISTRY

    import serve_mix

    refs = serve_mix.reference_rows(netlists)
    budget = seconds / 2 if trace else seconds
    record = serve_mix.evaluate(serve_mix.run_load(netlists, seed, budget), refs)
    record["problems"] = list(record["problems"])
    if trace:
        from layers import Tracer

        tracer = Tracer()
        before = REGISTRY.snapshot()
        tracer.install()
        try:
            load = serve_mix.run_load(netlists, seed, budget, poll_metrics=True)
        finally:
            tracer.remove()
        registry = REGISTRY.snapshot().diff(before)
        traced = serve_mix.evaluate(load, refs)
        record["problems"] += traced["problems"]
        if traced["fingerprint"] != record["fingerprint"]:
            record["problems"].append("work fingerprint changed between phases")
        record["attempted"] += traced["attempted"]
        latency_s = sum(r["latency_s"] for r in load["results"] if "latency_s" in r)
        layers = tracer.layer_metrics()
        layers.update(registry_layers(registry, load["peak_live"]))
        layers.update(traced["serve"])
        layers["serve.gen_lag_ms"] = traced["gen_lag_p99_ms"]
        layers["trace.coverage"] = share(tracer.top_level_time(), latency_s)
        layers["obs.overhead_ratio"] = traced["work_ref"] / record["work_ref"]
        record["layers"] = layers
        record["tracer"] = tracer
    record["failed"] = len(record["problems"])
    return record


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="where to write the run record")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="recompute expected_rows.json, checking it against references",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_expected:
        parser.error("--workload is required")
    BUILD.mkdir(exist_ok=True)
    prepare_environment()
    import workloads

    if args.write_expected:
        workloads.write_expected()
        print(f"wrote {workloads.EXPECTED_PATH}")
        return 0

    from harness import peak_rss_mb

    netlists = workloads.table1_netlists()
    netlists_path = BUILD / f"netlists-{os.getpid()}.json"
    mode = "serve" if args.workload == "serve-mix" else "lib"
    if mode == "serve":
        import serve_mix

        netlists_path.write_text(json.dumps({c: netlists[c] for c in serve_mix.CIRCUITS}))
    else:
        netlists_path.write_text("{}")
    try:
        setup = [setup_sample(mode, netlists_path) for _ in range(SETUP_SAMPLES[mode][0])]
        trace = bool(args.trace)
        if args.workload == "serve-mix":
            record = run_serve(netlists, args.seed, args.seconds, trace)
        else:
            record = run_batch(args.workload, netlists, args.seed, args.seconds, trace)
        setup += [setup_sample(mode, netlists_path) for _ in range(SETUP_SAMPLES[mode][1])]
    finally:
        netlists_path.unlink()

    tracer = record.pop("tracer", None)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_s=statistics.median(x["setup_s"] for x in setup),
        setup_raw_s=statistics.median(x["setup_raw_s"] for x in setup),
        setup_samples=setup,
        peak_rss_mb=peak_rss_mb(), fail_share=record["failed"] / record["attempted"],
        python=platform.python_version(), cores=os.cpu_count(),
    )
    if trace:
        names, source = PER_LAYER, record["layers"]
        (BUILD / "trace").mkdir(exist_ok=True)
        tracer.write(BUILD / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        if "op_table" in record:
            print(record["op_table"])
    else:
        names, source = END_TO_END, record
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in names.items()}
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:>14.6g} {m['unit']}")
    for problem in record["problems"][:20]:
        print(f"WRONG: {problem}")
    path = args.record or BUILD / "records" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    correct = record["failed"] == 0 and not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
