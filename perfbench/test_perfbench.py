"""Tests of the benchmark itself (about four minutes on 2 cores).

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, tmp_path, root=ROOT, seconds="1"):
    """One timed run; returns (exit code, result line or None, record)."""
    record = tmp_path / f"{workload}-{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0",
         "--record", str(record)],
        capture_output=True, text=True, cwd=root, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    rec = json.loads(record.read_text()) if record.exists() else None
    return proc.returncode, result, rec


@pytest.mark.parametrize("workload", ["bdd-grid", "sat-climb", "serve-mix", "fuzz-small"])
def test_two_runs_do_the_same_work(workload, tmp_path):
    """Equal work fingerprints (rows digest and engine counts) across runs.

    Batch seeds only order the ops, so two seeds must agree.  A
    serve-mix seed also orders the ECO edits, which changes the dirty
    cones and so the engine counts; two runs of one seed must agree."""
    code1, result1, rec1 = run(workload, 1, tmp_path)
    code2, result2, rec2 = run(workload, 1 if workload == "serve-mix" else 2, tmp_path)
    assert code1 == code2 == 0, (rec1 or {}).get("problems")
    assert result1["correct"] and result2["correct"]
    assert rec1["fingerprint"] == rec2["fingerprint"]
    counts = {k: v for k, v in rec1["fingerprint"].items() if k not in ("rows", "requests")}
    assert set(counts) >= {"approx2.checks", "bdd.nodes_created", "bdd.gc_runs"}
    assert any(counts.values())
    assert set(result1["metrics"]) == {
        "setup_s", "work_ref", "op_gmean_ref", "lat_p50_ms", "lat_p99_ms", "peak_rss_mb"
    }


def test_serve_mix_keeps_up_with_its_schedule(tmp_path):
    """At the chosen rate the backlog stays flat: no request waits
    behind more than a few others when a probe begins."""
    code, result, rec = run("serve-mix", 2, tmp_path)
    assert code == 0 and result["correct"]
    assert rec["backlog"]["in_flight_max"] < 10


def _checkout_copy(tmp_path) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_wrong_row_fails_the_run(tmp_path):
    root = _checkout_copy(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    expected_path = root / "perfbench" / "expected_rows.json"
    expected = json.loads(expected_path.read_text())
    expected["sat-climb"]["m9/approx2-sat"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    code, result, rec = run("sat-climb", 1, tmp_path, root=root)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any("m9/approx2-sat" in p for p in rec["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    root = _checkout_copy(tmp_path)
    code, result, _ = run("sat-climb", 1, tmp_path, root=root)
    assert code != 0
    assert result is None
