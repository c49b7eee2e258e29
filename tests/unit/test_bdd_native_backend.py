"""Unit tests for the native C BDD kernel and its backend plumbing.

Cross-kernel *semantic* parity is enforced by the golden suites (run
under ``REPRO_BDD_BACKEND=native`` in CI) and the fuzzer's three-way
``bdd-backend-parity`` check; this file targets the machinery specific
to the native backend: the lazy build/loader (content-addressed
artifacts, compiler-missing fallback, stale-artifact rebuild), the
bit-identity contract at its sharpest points (node-id traces,
budget-abort timing), garbage collection and level swaps inside the
kernel (parity with the array kernel, and no Python-side unique tables
or store re-uploads), and the uniform backend-resolution precedence
every entry point shares.

Tests that need the compiled kernel skip on environments without one —
the fallback path itself is tested compiler-or-not.
"""

import ctypes
import json
import os

import pytest

from repro.bdd import BACKENDS, BddManager, backend_of, create_manager
from repro.bdd._native import build as native_build
from repro.bdd.api import BACKEND_ENV, backend_resolution
from repro.bdd.array_backend import ArrayBddManager, _UniqueTable
from repro.bdd.native_backend import create_native_manager, native_status
from repro.bdd.reorder import sift
from repro.errors import BddError, ResourceLimitError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import tracing

HAVE_KERNEL = native_status()[0]

needs_kernel = pytest.mark.skipif(
    not HAVE_KERNEL, reason="native kernel unavailable (no C compiler?)"
)


def _fresh_load():
    """Reset the loader memo so the next load_kernel() really retries."""
    native_build._LOADED = None


@pytest.fixture
def isolated_loader(tmp_path, monkeypatch):
    """A private artifact cache + un-memoized loader for build tests."""
    monkeypatch.setenv(native_build.CACHE_ENV, str(tmp_path))
    _fresh_load()
    yield tmp_path
    _fresh_load()


# ----------------------------------------------------------------------
# build / loader
# ----------------------------------------------------------------------
class TestBuild:
    @needs_kernel
    def test_artifact_is_content_addressed(self, isolated_loader):
        path, reason = native_build.build_kernel()
        assert reason is None
        assert path.parent == isolated_loader
        assert native_build.source_digest()[:16] in path.name

    @needs_kernel
    def test_source_hash_change_triggers_rebuild(self, isolated_loader, tmp_path):
        first, _ = native_build.build_kernel()
        # an edited copy of the source must map to a *different* artifact
        edited = tmp_path / "edited.c"
        edited.write_text(
            native_build.KERNEL_SOURCE.read_text() + "\n/* edited */\n"
        )
        second, reason = native_build.build_kernel(source=edited)
        assert reason is None
        assert second != first
        assert second.exists() and first.exists()

    @needs_kernel
    def test_corrupt_artifact_rebuilds_once(self, isolated_loader):
        path, _ = native_build.build_kernel()
        path.write_bytes(b"not a shared object")
        lib, reason = native_build.load_kernel()
        assert reason is None
        assert lib.nat_abi_version() == native_build.ABI_VERSION

    def test_compiler_missing_falls_back(self, isolated_loader, monkeypatch, caplog):
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        counter = REGISTRY.counter("bdd.native.fallback")
        before = counter.value
        import logging

        import repro.bdd.native_backend as nb

        monkeypatch.setattr(nb, "_WARNED", set())
        with caplog.at_level(logging.WARNING, logger="repro.bdd.native"):
            manager = create_native_manager()
        assert type(manager) is ArrayBddManager
        assert counter.value == before + 1
        assert any(
            "native BDD kernel unavailable" in rec.message for rec in caplog.records
        )
        # exit code 0 semantics: analyses still run on the fallback kernel
        a, b = manager.add_var("a"), manager.add_var("b")
        assert (a & b).id == manager._and(a.id, b.id)

    def test_sanitizer_build_is_addressed_separately(self, monkeypatch):
        monkeypatch.delenv(native_build.SANITIZE_ENV, raising=False)
        plain_path = native_build.artifact_path()
        plain_digest = native_build.source_digest()
        monkeypatch.setenv(native_build.SANITIZE_ENV, "1")
        flags = native_build.build_flags()
        assert "-fsanitize=address,undefined" in flags
        assert "-fno-omit-frame-pointer" in flags
        # the flags are hashed: neither build can shadow the other
        assert native_build.source_digest() != plain_digest
        assert native_build.artifact_path() != plain_path
        assert native_build.artifact_path().name.startswith("libreprobdd-san-")

    def test_compiler_env_override_is_surfaced(self, isolated_loader, monkeypatch):
        monkeypatch.setenv(native_build.CC_ENV, "/no/such/compiler")
        path, reason = native_build.build_kernel(force=True)
        assert path is None
        assert reason is not None

    @needs_kernel
    def test_build_script_reports_ok(self, isolated_loader, capsys):
        import importlib.util
        import pathlib

        script = (
            pathlib.Path(native_build.KERNEL_SOURCE).parents[3].parent
            / "scripts"
            / "build_native.py"
        )
        spec = importlib.util.spec_from_file_location("build_native", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main([]) == 0
        out = capsys.readouterr().out
        assert "build     : ok" in out


# ----------------------------------------------------------------------
# registry / factory / precedence
# ----------------------------------------------------------------------
class TestResolution:
    def test_registry_contains_native(self):
        assert BACKENDS == ("object", "array", "native")

    def test_env_selects_native(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        manager = create_manager()
        assert backend_of(manager) in ("native", "array")  # array = fallback
        if HAVE_KERNEL:
            assert backend_of(manager) == "native"

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert backend_of(create_manager("object")) == "object"

    def test_unknown_name_error_is_uniform(self, monkeypatch):
        # the one canonical message, from every entry point
        from repro.bdd.api import resolve_backend
        from repro.core.exact import ExactOptions

        with pytest.raises(BddError, match="unknown BDD backend 'cudd'") as api_err:
            resolve_backend("cudd")
        with pytest.raises(BddError, match="unknown BDD backend 'cudd'") as opt_err:
            ExactOptions(backend="cudd")
        assert str(api_err.value) == str(opt_err.value)
        monkeypatch.setenv(BACKEND_ENV, "cudd")
        with pytest.raises(BddError, match="unknown BDD backend 'cudd'"):
            create_manager()

    def test_cli_required_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        code = main(["required", "does-not-matter", "--method", "exact",
                     "--backend", "cudd"])
        assert code == 2
        assert "unknown BDD backend 'cudd'" in capsys.readouterr().err

    def test_cli_eco_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        code = main(["eco", "x", "y", "--method", "exact", "--backend", "cudd"])
        assert code == 2
        assert "unknown BDD backend 'cudd'" in capsys.readouterr().err

    def test_cli_serve_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        code = main(["serve", "--backend", "cudd"])
        assert code == 2
        assert "unknown BDD backend 'cudd'" in capsys.readouterr().err

    def test_backend_resolution_reports_fallback(self, monkeypatch):
        info = backend_resolution("array")
        assert info == {
            "requested": "array",
            "resolved": "array",
            "effective": "array",
            "fallback_reason": None,
        }
        native = backend_resolution("native")
        assert native["resolved"] == "native"
        if HAVE_KERNEL:
            assert native["effective"] == "native"
            assert native["fallback_reason"] is None
        else:
            assert native["effective"] == "array"
            assert native["fallback_reason"]


# ----------------------------------------------------------------------
# bit-identity: node traces and budget aborts
# ----------------------------------------------------------------------
def _managers():
    return [BddManager(), ArrayBddManager(), create_native_manager()]


@needs_kernel
class TestBitIdentity:
    def test_node_id_traces_match(self):
        import random

        traces = []
        for m in _managers():
            random.seed(11)
            vs = [m.add_var(f"x{i}") for i in range(10)]
            pool = [v.id for v in vs]
            trace = []
            for _ in range(200):
                op = random.choice(
                    ["not", "and", "or", "xor", "exists", "andex", "andall"]
                )
                f, g = random.choice(pool), random.choice(pool)
                lv = tuple(sorted(random.sample(range(10), 2)))
                if op == "not":
                    r = m._not(f)
                elif op == "and":
                    r = m._and(f, g)
                elif op == "or":
                    r = m._or(f, g)
                elif op == "xor":
                    r = m._xor(f, g)
                elif op == "exists":
                    r = m._exists(f, lv)
                elif op == "andex":
                    r = m._and_exists(f, g, lv)
                else:
                    r = m._and_forall(f, g, lv)
                pool.append(r)
                trace.append(r)
            traces.append((trace, len(m._var)))
        assert traces[0] == traces[1] == traces[2]

    def test_budget_abort_at_same_visit(self):
        """max_nodes must trip at the same op index and node count in
        all three kernels — the abort point is part of the result."""
        import random

        outcomes = []
        for cls in (
            lambda: BddManager(max_nodes=120),
            lambda: ArrayBddManager(max_nodes=120),
            lambda: create_native_manager(max_nodes=120),
        ):
            random.seed(3)
            m = cls()
            vs = [m.add_var(f"x{i}") for i in range(12)]
            pool = [v.id for v in vs]
            outcome = None
            for step in range(600):
                f, g = random.choice(pool), random.choice(pool)
                try:
                    pool.append(m._xor(f, g))
                except ResourceLimitError as exc:
                    outcome = (step, len(m._var), str(exc))
                    break
            outcomes.append(outcome)
        assert outcomes[0] is not None
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ----------------------------------------------------------------------
# maintenance parity (GC / swaps / level sizes)
# ----------------------------------------------------------------------
@needs_kernel
class TestMaintenanceParity:
    def test_gc_swap_interleaving_matches_array(self):
        import random

        results = []
        for make in (ArrayBddManager, create_native_manager):
            random.seed(5)
            m = make()
            vs = [m.add_var(f"x{i}") for i in range(8)]
            keep = []
            trace = []
            for _ in range(250):
                op = random.choice(["and", "or", "xor", "gc", "swap", "sizes"])
                if op == "gc":
                    trace.append(("gc", m.garbage_collect()))
                    continue
                if op == "swap":
                    lv = random.randrange(7)
                    m.swap_levels(lv)
                    trace.append(("swap", lv))
                    continue
                if op == "sizes":
                    trace.append(tuple(m.level_sizes()))
                    continue
                f = (
                    random.choice(keep).id
                    if keep and random.random() < 0.7
                    else random.choice(vs).id
                )
                g = (
                    random.choice(keep).id
                    if keep and random.random() < 0.7
                    else random.choice(vs).id
                )
                r = getattr(m, f"_{op}")(f, g)
                h = m._wrap(r)
                if random.random() < 0.5:
                    keep.append(h)
                    if len(keep) > 15:
                        keep.pop(0)
                trace.append(r)
            results.append((trace, [m.sat_count(h) for h in keep]))
        assert results[0] == results[1]

    def test_large_store_gc_swap_parity(self, monkeypatch):
        """Array vs native on a store big enough for the array kernel's
        vectorized mark, sweep and rehash paths (> 4096 rows, a unique
        table of 8192 slots): a sweep-only collection, a budget abort at
        the post-sweep cap ``max_nodes + dead_rows``, a compacting
        collection, swaps and level sizes — node ids, row counts and
        bookkeeping equal step for step."""
        runs = []
        for make in (ArrayBddManager, create_native_manager):
            m = make(max_nodes=12_300)
            if make is ArrayBddManager:
                runs.append(_large_store_script(m))
                assert max(t.mask for t in m._unique) >= 2048
                continue
            reads = _forbid_python_authority(monkeypatch, m)
            runs.append(_large_store_script(m, reads))
            # the kernel owns the unique tables: Python never built one
            assert m._unique == []
            with pytest.raises(AttributeError):
                m._kernel.lib.nat_load
        assert runs[0] == runs[1]
        events = [e for e in runs[0] if isinstance(e, tuple)]
        rows = events[0][1]
        assert rows > 4096
        sweep, abort, compaction = [e for e in events if e[0] in ("gc", "abort")][:3]
        # a sweep leaves its dead rows in place ...
        assert sweep[2] == rows and sweep[3] == sweep[1] > 0
        # ... and the abort waits for the cap the sweep raised
        assert abort[0] == "abort" and abort[2] == 12_300 + sweep[3] + 1
        assert compaction[3] == 0 and compaction[2] < abort[2]

    @pytest.mark.parametrize("max_nodes", [5700, 6150, 6420, 6690])
    def test_collection_after_aborted_swap_matches_array(self, max_nodes):
        """A swap that trips the budget leaves rows in no unique table;
        the collections after it must still match the array kernel's."""
        runs = []
        for make in (ArrayBddManager, create_native_manager):
            m = make(max_nodes=max_nodes)
            xs = [m.add_var(f"x{i}") for i in range(9)]
            ys = [m.add_var(f"y{i}") for i in range(9)]
            eq = m.true
            for x, y in zip(xs, ys):
                eq = eq & ~(x ^ y)
            # garbage in the swapped levels: unreachable rows the aborted
            # swap takes out of their table and never puts back
            junk = [eq ^ x for x in xs]
            del junk
            events = []
            with pytest.raises(ResourceLimitError):
                for level in (8, 9, 7, 10, 6, 11, 5):
                    m.swap_levels(level)
                    events.append(tuple(m.level_sizes()))
            for _ in range(2):
                events.append((m.garbage_collect(), tuple(m.level_sizes())))
            events.append((tuple(m._var), tuple(m._low), tuple(m._high)))
            runs.append(events)
        assert runs[0] == runs[1]

    def test_sift_parity(self):
        results = []
        for m in _managers():
            n = 6
            xs = [m.add_var(f"x{i}") for i in range(n)]
            ys = [m.add_var(f"y{i}") for i in range(n)]
            eq = m.true
            for x, y in zip(xs, ys):
                eq = eq & ~(x ^ y)
            g = (xs[0] & ys[5]) | (xs[3] ^ ys[1])
            live = sift(m)
            results.append(
                (
                    live,
                    m.current_order(),
                    m.level_sizes(),
                    m.sat_count(eq),
                    m.sat_count(g),
                    m.statistics()["nodes_created"],
                    m.statistics()["level_swaps"],
                )
            )
        assert results[0] == results[1] == results[2]
        # the separated order x0..x5 y0..y5 must have been interleaved
        assert results[0][1][:2] == ["x0", "y0"]

    def test_statistics_shape_matches_other_kernels(self):
        obj, nat = BddManager(), create_native_manager()
        for m in (obj, nat):
            a, b = m.add_var("a"), m.add_var("b")
            _ = (a & b) | ~a
        assert set(obj.statistics()) == set(nat.statistics())
        assert set(obj.statistics()["caches"]) == set(nat.statistics()["caches"])

    def test_reset_statistics_zeroes_kernel_counters(self):
        m = create_native_manager()
        a, b = m.add_var("a"), m.add_var("b")
        _ = a & b
        _ = a & b  # cache hit inside the C kernel
        stats = m.statistics()
        assert stats["cache_misses"] > 0
        m.reset_statistics()
        stats = m.statistics()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0


def _large_store_script(m, reads=None):
    """The maintenance script of the large-store parity test."""
    events = []

    def gc():
        if reads is not None:
            reads.clear()
        events.append(
            ("gc", m.garbage_collect(), len(m._var), m._dead_rows, m._node_cap)
        )
        if reads is not None:
            # one bulk read of the whole store refreshes the mirror
            assert reads == [(0, len(m._var))]

    n = 11
    xs = [m.add_var(f"x{i}") for i in range(n)]
    ys = [m.add_var(f"y{i}") for i in range(n)]
    # x0..x10 above y0..y10: the equality has 2^11 nodes at level 11
    eq = m.true
    for x, y in zip(xs, ys):
        eq = eq & ~(x ^ y)
    events.append(("rows", len(m._var), max(m.level_sizes())))
    gc()  # the chain's intermediate products: sweep only
    try:
        for k in range(n):
            f = m.false
            for x, y in zip(xs, ys):
                f = f | (x & ~y) ^ xs[k]
                events.append(f.id)
    except ResourceLimitError as exc:
        events.append(("abort", k, len(m._var), str(exc)))
    del f
    gc()  # compacting: the dead rows now outnumber the live ones
    for level in (10, 11, 9, 3, 20):
        rows = len(m._var)
        if reads is not None:
            reads.clear()
        m.swap_levels(level)
        if reads is not None:
            # a swap reads back its new rows only, never the whole store
            assert all(start >= rows for start, _ in reads)
        events.append(("sizes", tuple(m.level_sizes()), len(m._var)))
    # the swaps created their nodes in the same order: equal rows, ids
    events.append(("store", tuple(m._var), tuple(m._low), tuple(m._high)))
    gc()
    events.append(("sizes", tuple(m.level_sizes())))
    stats = m.statistics()
    events.append(
        (
            "final",
            stats["nodes_created"],
            stats["peak_live_nodes"],
            stats["live_nodes"],
            stats["gc_runs"],
            stats["gc_reclaimed"],
            stats["level_swaps"],
            m.sat_count(eq),
        )
    )
    return events


def _forbid_python_authority(monkeypatch, m):
    """Make any array-kernel maintenance path or Python unique-table use
    fail, and record the row reads ``m`` makes across the FFI."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("Python-authority round trip")

    for name in ("garbage_collect", "swap_levels", "level_sizes", "_mk"):
        monkeypatch.setattr(ArrayBddManager, name, forbidden)
    for name in ("insert", "reset", "grow", "rebuild"):
        monkeypatch.setattr(_UniqueTable, name, forbidden)
    lib = m._kernel.lib
    read_rows = lib.nat_read_rows
    reads = []

    def recording(mgr, start, count, *bufs):
        reads.append((start, count))
        return read_rows(mgr, start, count, *bufs)

    monkeypatch.setattr(lib, "nat_read_rows", recording)
    return reads


# ----------------------------------------------------------------------
# trace spans: collection and sifting show as layers of their own
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_gc_and_sift_emit_spans(backend):
    if backend == "native" and not HAVE_KERNEL:
        pytest.skip("native kernel unavailable (no C compiler?)")
    m = create_manager(backend)
    xs = [m.add_var(f"x{i}") for i in range(4)]
    f = xs[0] & xs[3]
    junk = [(xs[1] ^ xs[2]) | (xs[0] ^ xs[3]), xs[1] & ~xs[2] ^ xs[3]]
    del junk
    rows = len(m._var)
    with tracing() as trace:
        reclaimed = m.garbage_collect()
        sift(m)
    spans = [sp for sp, _depth in trace.walk()]
    gc = next(sp for sp in spans if sp.name == "bdd.gc")
    assert gc.attrs == {
        "rows": rows,
        "reclaimed": reclaimed,
        "compacted": backend != "object",  # half the rows died here
    }
    assert reclaimed > 0
    swaps = [sp for sp in spans if sp.name == "bdd.swap"]
    assert len(swaps) == 4
    assert {sp.attrs["var"] for sp in swaps} == {"x0", "x1", "x2", "x3"}
    assert sum(sp.attrs["swaps"] for sp in swaps) == m.statistics()["level_swaps"]


# ----------------------------------------------------------------------
# cache keys: native shares array's effective value
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_native_keys_like_array(self, monkeypatch):
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        net = parity_tree(3)
        arr = required_key(net, "exact", options={"backend": "array"})
        nat = required_key(net, "exact", options={"backend": "native"})
        obj = required_key(net, "exact", options={"backend": "object"})
        assert nat.digest == arr.digest
        assert nat.digest != obj.digest

    def test_env_native_keys_like_array(self, monkeypatch):
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree

        net = parity_tree(3)
        monkeypatch.setenv(BACKEND_ENV, "native")
        via_env = required_key(net, "exact", options={})
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        explicit_array = required_key(net, "exact", options={"backend": "array"})
        assert via_env.digest == explicit_array.digest

    def test_baseline_is_anchored_not_default(self):
        # flipping DEFAULT_BACKEND must never re-key the cache: the
        # drop-if-baseline rule is anchored to the literal historical
        # baseline, not to whatever the runtime default happens to be
        from repro.cache.keys import _CACHE_BASELINE_BACKEND

        assert _CACHE_BASELINE_BACKEND == "object"
