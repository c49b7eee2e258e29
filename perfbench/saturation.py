#!/usr/bin/env python3
"""Where the serve-mix load saturates the server.

Runs the serve-mix schedule at several offered rates, each on a fresh
server, and prints per rate the completed requests per second, the
median latency of each third of the run (flat when the server keeps up,
rising when a backlog builds), the most requests left in flight when a
probe began, and the p99 of how late requests were sent.  Usage, from
the root of a checkout:

    python3 perfbench/saturation.py --rates 50,75,100,150,200 --seconds 10
"""

from __future__ import annotations

import argparse
import json

import run
import serve_mix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="50,75,100,150,200")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", default="1")
    args = parser.parse_args(argv)
    run.BUILD.mkdir(exist_ok=True)
    run.prepare_environment()
    import workloads

    netlists = workloads.table1_netlists()
    refs = serve_mix.reference_rows(netlists)
    print(f"{'offered/s':>9} {'done/s':>7} {'p50 by third (ms)':>24} "
          f"{'in flight max':>13} {'send lag p99 ms':>15} wrong")
    rows = []
    for rate in (float(r) for r in args.rates.split(",")):
        load = serve_mix.run_load(netlists, args.seed, args.seconds, rate=rate)
        record = serve_mix.evaluate(load, refs)
        b = record["backlog"]
        thirds = " ".join(f"{x:7.1f}" for x in b["lat_p50_by_third_ms"])
        print(f"{rate:9.0f} {b['completed_per_s']:7.1f} {thirds:>24} "
              f"{b['in_flight_max']:13d} {record['gen_lag_p99_ms']:15.1f} "
              f"{len(record['problems'])}", flush=True)
        rows.append({"rate": rate, **b, "gen_lag_p99_ms": record["gen_lag_p99_ms"],
                     "problems": len(record["problems"])})
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
