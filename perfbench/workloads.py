"""The three batch workloads: bdd-grid, sat-climb and fuzz-small.

Every workload runs the same ops on every seed; the seed only orders
them (see README.md, "Seeds").  Rows are checked three ways: against
``expected_rows.json``, against cheap engine-free invariants in every
run, and - once, when the expected file is written - against
independent references (see ``write_expected``).
"""

from __future__ import annotations

import json
from pathlib import Path

from harness import Op, digest

EXPECTED_PATH = Path(__file__).with_name("expected_rows.json")
EPS = 1e-9

#: Table-1 budgets (benchmarks/bench_table1.py): the m2 exact and the
#: m4 / m10 approx-1 rows end in the paper's "memory out"
EXACT = {"m1": 500_000, "m2": 120_000, "m3": 2_000_000}
APPROX1 = {
    "m1": None, "m2": 400_000, "m3": None, "m4": 400_000, "m5": None,
    "m6": None, "m7": None, "m8": 800_000, "m9": None, "m10": 150_000,
}
#: a check budget, never a clock: every row finishes below it, so the
#: work of a climb is the same on every host
MAX_CHECKS = 400
APPROX2_BDD = ("m5", "m6", "m7")
APPROX2_SAT = ("m3", "m5", "m6", "m7", "m8", "m9")
#: fuzz-small: FUZZ_OPS runner calls of FUZZ_CASES tiny-profile cases
FUZZ_OPS = 10
FUZZ_CASES = 6

#: registry counters that must repeat exactly from run to run
FINGERPRINT_COUNTERS = (
    "approx2.checks",
    "bdd.gc_runs",
    "bdd.nodes_created",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
)


def table1_netlists() -> dict[str, str]:
    """BLIF text of the Table-1 suite (input generation, never timed)."""
    from repro.circuits import mcnc_suite
    from repro.network import write_blif

    return {spec.name: write_blif(spec.network) for spec in mcnc_suite()}


def fingerprint_counts(counters: dict) -> dict:
    return {name: counters.get(name, 0.0) for name in FINGERPRINT_COUNTERS}


# ----------------------------------------------------------------------
# required-time ops (bdd-grid, sat-climb)
# ----------------------------------------------------------------------
def required_op(circuit: str, blif: str, method: str, options: dict) -> Op:
    """Parse a netlist and run one analysis, as ``repro required`` does."""
    import repro.core.required_time as required_time
    import repro.network as network

    def run():
        net = network.parse_blif(blif)
        return net, required_time.analyze_required_times(
            net, method, output_required=0.0, **options
        )

    def check(result, counters):
        net, report = result
        row = canonical_row(net, report)
        problems = row_problems(row) + backend_problems(report, counters)
        return row, problems, fingerprint_counts(counters)

    label = method + (f"-{options['engine']}" if "engine" in options else "")
    return Op(f"{circuit}/{label}", run, check)


def canonical_row(net, report) -> dict:
    """The time-free row the cache and parity gates compare."""
    from repro.cache.results import CachedRequiredResult
    from repro.core.required_time import topological_input_required_times

    baseline = topological_input_required_times(net, None, 0.0)
    return CachedRequiredResult.from_report(report, baseline).row()


def row_problems(row: dict) -> list[str]:
    """Engine-free invariants: no requirement is tighter than r_⊥.

    Inputs with r_⊥ = inf reach no output; approx-2 reports 0 for them
    (its lattice axis for an input with no leaf times is ``[0.0]``), a
    safe answer outside what ``Approx2Analysis.r_bottom`` promises, so
    the check covers the inputs the χ recursion reaches.
    """
    base = {x: t for x, t in row["baseline"].items() if t != float("inf")}
    problems = [
        f"input_times[{x}]={t} < r_bottom {base[x]}"
        for x, t in (row["input_times"] or {}).items()
        if x in base and t < base[x] - EPS
    ]
    dig = row["digest"]
    for name in ("best", "r_bottom"):
        problems += [
            f"approx2 {name}[{x}]={t} < r_bottom {base[x]}"
            for x, t in dig.get(name, {}).items()
            if x in base and t < base[x] - EPS
        ]
    for profile in dig.get("profiles", []):
        problems += [
            f"approx1 profile {x}={times} < r_bottom {base[x]}"
            for x, times in profile
            if x in base and min(times) < base[x] - EPS
        ]
    return problems


def backend_problems(report, counters: dict) -> list[str]:
    """BDD rows must have run on the native kernel, with no fallback."""
    problems = []
    if counters.get("bdd.native.fallback"):
        problems.append("native kernel fell back to the array kernel")
    stamp = report.stats.get("bdd_backend")
    if stamp is not None:
        kernel = stamp.get("effective", stamp.get("resolved"))
        if kernel != "native" or stamp.get("fallback_reason"):
            problems.append(f"BDD kernel {stamp}")
    return problems


def hierarchy_problems(rows: dict) -> dict[str, list[str]]:
    """approx-1 is no looser than exact: where both complete, a
    non-trivial approx-1 row needs a non-trivial exact row."""
    problems: dict[str, list[str]] = {}
    for op_id, row in rows.items():
        circuit, method = op_id.split("/")
        exact = rows.get(f"{circuit}/exact")
        if method != "approx1" or not row or not exact:
            continue
        if row["status"] == exact["status"] == "ok":
            if row["nontrivial"] and not exact["nontrivial"]:
                problems[op_id] = ["approx1 non-trivial but exact trivial"]
    return problems


# ----------------------------------------------------------------------
# fuzz ops
# ----------------------------------------------------------------------
def fuzz_op(index: int) -> Op:
    import repro.fuzz.runner as runner

    seed = f"perfbench-fuzz:{index}"

    def run():
        return runner.FuzzRunner(
            seed=seed, budget=FUZZ_CASES, profile="tiny", shrink=False
        ).run()

    def check(report, counters):
        row = [[v.case_id, v.ok, sorted(v.failed_checks)] for v in report.verdicts]
        problems = [
            f"{v.case_id}: divergence {v.failed_checks}"
            for v in report.verdicts
            if not v.ok
        ]
        if len(report.verdicts) != FUZZ_CASES:
            problems.append(f"{len(report.verdicts)} cases, expected {FUZZ_CASES}")
        if counters.get("bdd.native.fallback"):
            problems.append("native kernel fell back to the array kernel")
        return row, problems, fingerprint_counts(counters)

    def units(report):
        return [v.elapsed for v in report.verdicts]

    return Op(f"fuzz/{index:02d}", run, check, units)


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
def bdd_grid_ops(netlists: dict[str, str]) -> list[Op]:
    ops = [
        required_op(c, netlists[c], "exact", {"max_nodes": n})
        for c, n in EXACT.items()
    ]
    ops += [
        required_op(c, netlists[c], "approx1", {"max_nodes": n} if n else {})
        for c, n in APPROX1.items()
    ]
    ops += [
        required_op(
            c, netlists[c], "approx2", {"engine": "bdd", "max_checks": MAX_CHECKS}
        )
        for c in APPROX2_BDD
    ]
    return ops


def sat_climb_ops(netlists: dict[str, str]) -> list[Op]:
    return [
        required_op(
            c, netlists[c], "approx2", {"engine": "sat", "max_checks": MAX_CHECKS}
        )
        for c in APPROX2_SAT
    ]


def fuzz_small_ops(netlists: dict[str, str]) -> list[Op]:
    return [fuzz_op(i) for i in range(FUZZ_OPS)]


BATCH = {
    "bdd-grid": bdd_grid_ops,
    "sat-climb": sat_climb_ops,
    "fuzz-small": fuzz_small_ops,
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def expected_problems(workload: str, rows: dict, expected: dict) -> dict[str, list[str]]:
    """Rows that differ from the expected-rows file."""
    want = expected.get(workload, {})
    return {
        op_id: [f"row differs from expected_rows.json ({digest(row)[:12]})"]
        for op_id, row in rows.items()
        if row is not None and want.get(op_id) != digest(row)
    }


def write_expected() -> dict:
    """Run every batch op once, check each row against references that
    share no engine with it, and store the row digests.

    References: each approx-2 SAT row must equal the BDD-engine climb of
    the same row; the engine-free invariants of :func:`row_problems` and
    :func:`hierarchy_problems` must hold; fuzz-small must show zero
    divergences.  Raises ``SystemExit`` on any mismatch.
    """
    netlists = table1_netlists()
    out: dict[str, dict[str, str]] = {}
    failures: list[str] = []
    for workload, make_ops in BATCH.items():
        rows = {}
        for op in make_ops(netlists):
            result = op.run()
            row, problems, _ = op.check(result, {})
            failures += [f"{workload}/{op.op_id}: {p}" for p in problems]
            rows[op.op_id] = row
        for op_id, problems in hierarchy_problems(rows).items():
            failures += [f"{workload}/{op_id}: {p}" for p in problems]
        out[workload] = {op_id: digest(row) for op_id, row in sorted(rows.items())}
        if workload == "sat-climb":
            for circuit in APPROX2_SAT:
                ref = required_op(
                    circuit, netlists[circuit], "approx2",
                    {"engine": "bdd", "max_checks": MAX_CHECKS},
                )
                ref_row = canonical_row(*ref.run())
                if ref_row != rows[f"{circuit}/approx2-sat"]:
                    failures.append(f"{circuit}: SAT climb differs from BDD climb")
    if failures:
        raise SystemExit("expected rows rejected:\n  " + "\n  ".join(failures))
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return out
