"""One set-up sample, in a fresh interpreter.

Times what a user pays once per process before the first analysis:
importing ``repro`` and loading the prebuilt native BDD kernel, and with
``serve`` also starting an in-process daemon and registering circuits
over HTTP.  Interpreter start-up and reading the input file are outside
the timed window.

The host probe is timed in the same interpreter right before and right
after the set-up window, so the parent can divide host drift out of the
sample.  Prints ``{"setup_raw_s": ..., "probe_ms": [before, after]}``.

Usage: python setup_child.py lib|serve [NETLISTS_JSON]
"""

import json
import sys
import time

from probe import probe_ms

MODE = sys.argv[1]
NETLISTS = json.loads(open(sys.argv[2]).read()) if MODE == "serve" else {}


def register(port: int, netlists: dict) -> None:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for text in netlists.values():
            body = json.dumps({"netlist": text, "format": "blif"})
            conn.request("POST", "/circuits", body=body)
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise SystemExit(f"registration failed: HTTP {response.status}")
    finally:
        conn.close()


def main() -> int:
    probe_before = probe_ms()
    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is what is being timed
    from repro.bdd._native.build import load_kernel

    lib, reason = load_kernel()
    if lib is None:
        print(json.dumps({"error": f"native kernel unavailable: {reason}"}))
        return 1
    if MODE == "serve":
        from repro.serve.app import ReproServer, ServerConfig

        server = ReproServer(ServerConfig(jobs=0)).start()
        try:
            register(server.port, NETLISTS)
            elapsed = time.perf_counter() - t0
        finally:
            server.stop()
    else:
        elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_raw_s": elapsed, "probe_ms": [probe_before, probe_ms()]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
