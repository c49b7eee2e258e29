"""serve-mix: an in-process ``ReproServer`` under a seeded open-loop load.

The load is one continuous open-loop schedule: every request has a due
time fixed before the load starts, two client connections send them at
those times no matter how fast the server answers, and a request's
latency runs from its due time, so a stall also delays the requests
queued behind it and a server slower than the offered rate builds a
backlog that grows for the rest of the run.  Requests come in blocks of
``BLOCK``; each block starts with a hole of ``HOLE`` request slots in
which no request is due, and the driver thread times the host probes in
that hole (nothing waits for in-flight requests; a backlog simply
overlaps the probe).  Each latency is divided by the probes on either
side of its block.  The mix:

* ``warm``: repeats of ``POST /required`` on keys computed before the
  load starts - registry and cache reads;
* ``cold``: ``POST /required`` with an option combination seen for the
  first time (approx-1 on m1 with a fresh ``max_nodes`` budget that is
  never reached, so every cold request does the same work) - a compute
  and a cache write;
* ``edit``: ``POST /sessions/<id>/edits`` with a ``set_delay`` edit on
  an approx-1 session of m9 - dirty-cone invalidation, then recompute.

The shares (80% warm, 12% cold, 8% edit) are a chosen mix of reads and
writes, not a measured trace.  The rate is about a third of the
measured saturation rate of this mix (``saturation.py``; README.md).

Responses are parsed and checked after the load, so the client spends
as little of the shared interpreter as it can while the server works.

Why two probes here: a request's latency is interpreter work plus
thread wake-ups and socket system calls, and on a shared VM the cost of
the wake-ups moves with the neighbours' load more than the
interpreter's speed does.  Over six runs, latency divided by the compute
loop alone varied by 9% (median) and 14% (p99) run to run, and divided
by the round trip alone by 4% and 8%; but when the host later slowed
down, the round trip grew 2-5x while latency grew about 2x.  The
normaliser is the geometric mean of the two.
"""

from __future__ import annotations

import collections
import http.client
import json
import math
import random
import socket
import statistics
import threading
import time

from harness import digest, gmean, percentile
from probe import PROBE_NOMINAL_MS, probe_ms

#: mean thread-to-thread socket round trip on a 2-core x86-64 KVM guest
RTT_NOMINAL_MS = 0.015
#: the normaliser at reference speed; converts ``ref`` into milliseconds
NOMINAL_MS = math.sqrt(RTT_NOMINAL_MS * PROBE_NOMINAL_MS)
RTT_ROUNDS = 200

#: offered requests per second at the probe's reference speed, averaged
#: over a block
RATE = 75.0
MIN_REQUESTS = 1000
CONNECTIONS = 2
#: kinds by position in each block of 25 requests: 80% warm, 12% cold,
#: 8% edit, with the slow kinds spaced apart so no two computes queue
#: behind each other by chance; the block ends with seven warm requests,
#: so the server is idle when the probe hole after it begins
PATTERN = tuple(
    "cold" if i in (0, 8, 17) else "edit" if i in (4, 13) else "warm" for i in range(25)
)
BLOCK = len(PATTERN)
#: request slots left free at the start of every block for the probes
HOLE = 3
#: compute probes whose median sets the pace of the next block
SPEED_WINDOW = 5
CIRCUITS = ("m1", "m3", "m8", "m9")
WARM = (
    ("m1", "topological", {}),
    ("m1", "approx1", {}),
    ("m3", "approx1", {}),
    ("m9", "approx1", {}),
    ("m8", "approx2", {"engine": "sat", "max_checks": 400}),
    ("m9", "approx2", {"engine": "sat", "max_checks": 400}),
)
COLD = ("m1", "approx1")
COLD_BUDGET = 1_000_000
SESSION = ("m9", "approx1")
EDIT_DELAYS = (1, 2, 3)
TIMEOUT_S = 30.0


def _ok(status: int, raw: bytes, what: str) -> dict:
    body = json.loads(raw)
    if status != 200:
        raise RuntimeError(f"{what} failed: HTTP {status} {body}")
    return body


class Client:
    """One keep-alive connection; returns ``(status, raw body)``."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)

    def call(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        data = None if body is None else json.dumps(body)
        self.conn.request(method, path, body=data)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def rtt_probe_ms() -> float:
    """Mean round trip of a 32-byte message to an echo thread and back
    over a socket pair: the wake-up and system-call path every request
    takes."""
    ours, theirs = socket.socketpair()

    def echo() -> None:
        for _ in range(RTT_ROUNDS):
            theirs.sendall(theirs.recv(64))

    thread = threading.Thread(target=echo)
    thread.start()
    try:
        t0 = time.perf_counter()
        for _ in range(RTT_ROUNDS):
            ours.sendall(b"x" * 32)
            ours.recv(64)
        return (time.perf_counter() - t0) * 1e3 / RTT_ROUNDS
    finally:
        thread.join()
        ours.close()
        theirs.close()


def host_probe() -> dict:
    """Both probes, and the normaliser: their geometric mean."""
    rtt, cpu = rtt_probe_ms(), probe_ms()
    return {"rtt_ms": rtt, "cpu_ms": cpu, "ref_ms": math.sqrt(rtt * cpu)}


def _balanced(rng: random.Random, items, count: int) -> list:
    """``count`` draws that use every item equally often, in seeded order."""
    out = list(items) * (count // len(items) + 1)
    rng.shuffle(out)
    return out[:count]


def schedule(seed, count: int, gates: list[str]) -> list[tuple[str, dict]]:
    """``(kind, request)`` for every request of one run, in send order.

    The kinds follow ``PATTERN``; the seed orders the warm keys, the
    edited gates, their delays and the cold budgets.  Every key, gate
    and delay occurs equally often.
    """
    rng = random.Random(f"perfbench:serve-mix:{seed}")
    kinds = [PATTERN[i % BLOCK] for i in range(count)]
    warm = iter(_balanced(rng, WARM, kinds.count("warm")))
    edits = iter(zip(
        _balanced(rng, gates, kinds.count("edit")),
        _balanced(rng, EDIT_DELAYS, kinds.count("edit")),
    ))
    budgets = iter(rng.sample(range(COLD_BUDGET, COLD_BUDGET + 100_000), count))
    out = []
    for kind in kinds:
        if kind == "warm":
            circuit, method, options = next(warm)
            req = {"circuit": circuit, "method": method, "options": options}
        elif kind == "cold":
            req = {"circuit": COLD[0], "method": COLD[1], "options": {"max_nodes": next(budgets)}}
        else:
            gate, delay = next(edits)
            req = {"edit": {"kind": "set_delay", "name": gate, "delay": delay}}
        out.append((kind, req))
    return out


def request_count(seconds: float, rate: float = RATE) -> int:
    """Whole blocks covering ``seconds`` of load, at least MIN_REQUESTS."""
    wanted = max(MIN_REQUESTS, int(rate * seconds))
    return BLOCK * math.ceil(wanted / BLOCK)


def reference_rows(netlists: dict[str, str]) -> dict:
    """In-process ``cached_analyze_required_times`` rows per request spec."""
    from repro.cache import ResultCache, cached_analyze_required_times
    from repro.network import parse_blif

    refs = {}
    specs = list(WARM) + [(COLD[0], COLD[1], {"max_nodes": COLD_BUDGET - 1})]
    for circuit, method, options in specs:
        result, _ = cached_analyze_required_times(
            parse_blif(netlists[circuit]), method, ResultCache(None),
            output_required=0.0, options=options,
        )
        refs[(circuit, method)] = digest(result.row())
    return refs


def run_load(netlists: dict[str, str], seed, seconds: float, poll_metrics=False,
             rate: float = RATE) -> dict:
    """One server, one warm-up, one timed open-loop load, one check."""
    from repro.network import parse_blif
    from repro.obs.metrics import REGISTRY
    from repro.serve.app import ReproServer, ServerConfig
    from workloads import fingerprint_counts

    server = ReproServer(ServerConfig(jobs=0)).start()
    clients = [Client(server.port) for _ in range(CONNECTIONS)]
    try:
        digests = {}
        for circuit in CIRCUITS:
            body = _ok(*clients[0].call(
                "POST", "/circuits", {"netlist": netlists[circuit], "format": "blif"}
            ), "registration")
            digests[circuit] = body["circuit"]["digest"]
        for circuit, method, options in WARM:
            _ok(*clients[0].call(
                "POST", "/required",
                {"circuit": digests[circuit], "method": method, "options": options},
            ), "warm-up")
        body = _ok(*clients[0].call(
            "POST", "/sessions", {"circuit": digests[SESSION[0]], "method": SESSION[1]}
        ), "session creation")
        session = body["session"]["id"]
        net = parse_blif(netlists[SESSION[0]])
        gates = sorted(n for n in net.nodes if not net.nodes[n].is_input)
        plan = schedule(seed, request_count(seconds, rate), gates)
        before = REGISTRY.snapshot()
        results, probes = _drive(clients, plan, digests, session, poll_metrics, rate)
        counters = REGISTRY.snapshot().diff(before)
        verified = json.loads(clients[0].call("POST", f"/sessions/{session}/verify")[1])
    finally:
        for client in clients:
            client.close()
        server.stop()
    for i, res in enumerate(results):
        block = i // BLOCK
        res["probe_ms"] = math.sqrt(probes[block]["ref_ms"] * probes[block + 1]["ref_ms"])
    return {"plan": plan, "results": results, "probes": probes,
            "counters": fingerprint_counts(counters),
            "verified": verified.get("ok") is True,
            "peak_live": max((r.get("peak_live", 0.0) for r in results), default=0.0)}


def _drive(clients, plan, digests, session, poll_metrics, rate):
    """Send every planned request at its due time over the connections,
    and time the host probes in the hole at the start of every block.

    ``rate`` holds at the probe's reference speed: each block's slots
    are stretched by the host's slowdown (median of the last
    ``SPEED_WINDOW`` compute probes against ``PROBE_NOMINAL_MS``), so
    the server runs at the same share of its capacity on a slow host as
    on a fast one.  A block's due times are fixed before its probe runs
    and never depend on how fast the server answers.
    """
    results: list[dict] = [{} for _ in plan]
    dues: list[float | None] = [None] * len(plan)
    published = threading.Condition()
    cursor = [0]
    speeds = collections.deque(
        (host_probe()["cpu_ms"] for _ in range(SPEED_WINDOW)), maxlen=SPEED_WINDOW
    )

    def worker(client: Client) -> None:
        while True:
            with published:
                i = cursor[0]
                cursor[0] += 1
                if i >= len(plan):
                    return
                while dues[i] is None:
                    published.wait()
                due = dues[i]
            kind, req = plan[i]
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            try:
                if kind == "edit":
                    status, raw = client.call("POST", f"/sessions/{session}/edits", req)
                else:
                    status, raw = client.call(
                        "POST", "/required", {**req, "circuit": digests[req["circuit"]]}
                    )
                error = None
            except (OSError, http.client.HTTPException) as exc:
                status, raw, error = 0, b"{}", f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            results[i] = {"latency_s": done - due, "lag_s": sent - due,
                          "due_s": due - t0, "done_s": done - t0,
                          "status": status, "raw": raw, "error": error}
            if poll_metrics and i % BLOCK == 0:
                metrics = json.loads(client.call("GET", "/metrics")[1])
                results[i]["queue_depth"] = metrics["server"]["queue_depth"]
                results[i]["peak_live"] = metrics["metrics"].get("bdd.peak_live", 0.0)

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    probes = []
    t0 = start = time.perf_counter() + 0.01
    for block in range(len(plan) // BLOCK + 1):
        slowdown = statistics.median(speeds) / PROBE_NOMINAL_MS
        slot = BLOCK / (rate * (BLOCK + HOLE)) * slowdown
        first = block * BLOCK
        with published:
            for pos in range(min(BLOCK, len(plan) - first)):
                dues[first + pos] = start + (HOLE + pos) * slot
            published.notify_all()
        pause = start - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        began = time.perf_counter()
        probe = host_probe()
        speeds.append(probe["cpu_ms"])
        probes.append({**probe, "at_s": began - t0, "late_ms": (began - start) * 1e3,
                       "slowdown": slowdown})
        start += (BLOCK + HOLE) * slot
    for thread in threads:
        thread.join(TIMEOUT_S * (len(plan) + 1))
    return results, probes


def backlog(results: list[dict], probes: list[dict]) -> dict:
    """How far the load fell behind its schedule over the run: requests
    due but unanswered when each probe began, and the median latency
    of each third of the run."""
    done = [r for r in results if "latency_s" in r]
    in_flight = [
        sum(1 for r in done if r["due_s"] <= p["at_s"] < r["done_s"]) for p in probes
    ]
    third = max(1, len(done) // 3)
    thirds = [done[:third], done[third:-third], done[-third:]]
    return {
        "in_flight_at_probes": in_flight,
        "in_flight_max": max(in_flight, default=0),
        "lat_p50_by_third_ms": [
            percentile([r["latency_s"] * 1e3 for r in part], 50) for part in thirds if part
        ],
        "completed_per_s": len(done) / max(r["done_s"] for r in done) if done else 0.0,
        "slowdown": statistics.median(p["slowdown"] for p in probes),
    }


def evaluate(load: dict, refs: dict) -> dict:
    """Correctness per request, fingerprint, and the latency figures."""
    plan, results = load["plan"], load["results"]
    problems: list[str] = []
    trail = []
    tags = {"hit": 0, "coalesced": 0, "required": 0, "rejected": 0}
    for i, ((kind, req), res) in enumerate(zip(plan, results)):
        status = res.get("status")
        try:
            body = json.loads(res.get("raw") or b"{}")
        except ValueError:
            body = {}
        bad = None
        if res.get("error") or status != 200:
            bad = res.get("error") or f"HTTP {status} {body.get('error')}"
            tags["rejected"] += status in (429, 503)
        elif kind == "edit":
            failed = [e for e in body["edits"] if e.get("failed")]
            bad = f"edit failed cones {failed}" if failed else None
            trail.append([kind, [e["recomputed"] for e in body["edits"]]])
        else:
            tags["required"] += 1
            tags["hit"] += body["cache"] == "hit"
            tags["coalesced"] += body["cache"] == "coalesced"
            want = "hit" if kind == "warm" else "miss"
            if digest(body["row"]) != refs[(req["circuit"], req["method"])]:
                bad = f"{req['circuit']}/{req['method']} row differs from in-process row"
            elif body["cache"] != want:
                bad = f"{kind} request answered as cache {body['cache']}"
            trail.append([kind, body["cache"], digest(body["row"])])
        if bad:
            problems.append(f"request {i} ({kind}): {bad}")
    if not load["verified"]:
        problems.append("session differs from a full recompute")
    done = [r for r in results if "latency_s" in r]
    if len(done) != len(plan):
        problems.append(f"{len(plan) - len(done)} requests never completed")
    lat_ms = [r["latency_s"] * 1e3 for r in done]
    ratios = [r["latency_s"] * 1e3 / r["probe_ms"] for r in done]
    depths = [r["queue_depth"] for r in done if "queue_depth" in r]
    host_refs = [p["ref_ms"] for p in load["probes"]]
    return {
        "attempted": len(plan),
        "problems": problems,
        "fingerprint": {"rows": digest(trail), "requests": len(plan), **load["counters"]},
        "work_ref": sum(ratios),
        "op_gmean_ref": gmean(ratios),
        "lat_p50_ms": percentile(ratios, 50) * NOMINAL_MS,
        "lat_p99_ms": percentile(ratios, 99) * NOMINAL_MS,
        "raw_lat_p50_ms": percentile(lat_ms, 50),
        "raw_lat_p99_ms": percentile(lat_ms, 99),
        "wall_s": sum(lat_ms) / 1e3,
        "op_gmean_ms": gmean(lat_ms),
        "host_ref_ms": statistics.median(host_refs),
        "host_ref_ms_range": [min(host_refs), max(host_refs)],
        "probes": load["probes"],
        "gen_lag_p99_ms": percentile([r["lag_s"] * 1e3 for r in done], 99),
        "backlog": backlog(results, load["probes"]),
        "serve": {
            "serve.hit_ratio": tags["hit"] / tags["required"] if tags["required"] else 0.0,
            "serve.coalesced": tags["coalesced"],
            "serve.rejected": tags["rejected"],
            "serve.queue_depth_max": max(depths, default=0),
        },
    }
