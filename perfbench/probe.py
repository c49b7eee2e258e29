"""The host probe: a fixed pure-Python loop, timed next to the program.

Kept apart from the rest of the benchmark and importing only ``time``,
so a fresh interpreter can time it before ``repro`` is imported without
loading modules the program would otherwise load itself.
"""

import time

#: iterations of the probe loop; about 3.5 ms per call on a 2-core x86-64 VM
PROBE_ITERS = 20_000
#: probe calls averaged per probe.  The mean, not the best: an op runs
#: through the host's slow moments too, and on that VM the mean of 5
#: tracked op time better than the best of 3 (run-to-run spread of the
#: normalised sum 5.7% against 7.8%).
PROBE_REPEATS = 5
#: probe time on that VM under Python 3.11; converts ``ref``
#: into "ms at reference speed" for the batch workloads' latency metrics
PROBE_NOMINAL_MS = 3.5


def _probe_loop() -> int:
    """A fixed mix of the interpreter work the program does most:
    integer arithmetic, dict stores and lookups, and branches."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
        if table.get(i & 1023, -1) > acc:
            acc += 1
    return acc


def probe_ms(repeats: int = PROBE_REPEATS) -> float:
    """Mean of ``repeats`` probe-loop timings, in milliseconds."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _probe_loop()
    return (time.perf_counter() - t0) * 1e3 / repeats
