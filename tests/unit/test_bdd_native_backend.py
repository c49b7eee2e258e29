"""Unit tests for the native C BDD kernel and its backend plumbing.

Cross-kernel *semantic* parity is enforced by the golden suites (run
under ``REPRO_BDD_BACKEND=object`` in CI) and the fuzzer's
``bdd-backend-parity`` check; this file targets the machinery specific
to the native backend: the lazy build/loader (content-addressed
artifacts, compiler-missing fallback to the object kernel,
stale-artifact rebuild), the bit-identity contract with the object
kernel at its sharpest points (node-id traces and budget-abort timing
up to the first collection), garbage collection and level swaps inside
the kernel (after them ids differ from the object kernel's, so the
tests compare functions, node counts and level sizes; and no
Python-side unique tables or store re-uploads), and the uniform
backend-resolution precedence every entry point shares.

Tests that need the compiled kernel skip on environments without one —
the fallback path itself is tested compiler-or-not.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BACKENDS, BddManager, backend_of, create_manager
from repro.bdd._native import build as native_build
from repro.bdd.api import BACKEND_ENV, backend_resolution
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
        assert type(manager) is BddManager
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
        assert BACKENDS == ("object", "native")

    def test_default_is_native(self, monkeypatch):
        from repro.bdd.api import resolve_backend

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "native"
        # without a C toolchain the factory yields the object kernel
        expected = "native" if HAVE_KERNEL else "object"
        assert backend_of(create_manager()) == expected

    def test_env_selects_native(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        manager = create_manager()
        assert backend_of(manager) in ("native", "object")  # object = fallback
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

    def test_array_is_an_unknown_name(self, monkeypatch, capsys):
        # "array" names no kernel: it takes the uniform unknown-backend
        # path at every entry point
        from repro.bdd.api import resolve_backend
        from repro.cli import main

        with pytest.raises(BddError, match="unknown BDD backend 'array'"):
            resolve_backend("array")
        for argv in (
            ["required", "x", "--method", "exact", "--backend", "array"],
            ["eco", "x", "y", "--method", "exact", "--backend", "array"],
            ["serve", "--backend", "array"],
        ):
            assert main(argv) == 2
            assert "unknown BDD backend 'array'" in capsys.readouterr().err
        monkeypatch.setenv(BACKEND_ENV, "array")
        with pytest.raises(BddError, match="unknown BDD backend 'array'"):
            create_manager()

    def test_backend_resolution_reports_fallback(self, monkeypatch):
        info = backend_resolution("object")
        assert info == {
            "requested": "object",
            "resolved": "object",
            "effective": "object",
            "fallback_reason": None,
        }
        native = backend_resolution("native")
        assert native["resolved"] == "native"
        if HAVE_KERNEL:
            assert native["effective"] == "native"
            assert native["fallback_reason"] is None
        # without a compiler the effective kernel is the object kernel
        import repro.bdd.native_backend as nb

        monkeypatch.setattr(nb, "load_kernel", lambda: (None, "no C compiler"))
        native = backend_resolution("native")
        assert native["resolved"] == "native"
        assert native["effective"] == "object"
        assert native["fallback_reason"]


# ----------------------------------------------------------------------
# bit-identity: node traces and budget aborts
# ----------------------------------------------------------------------
def _managers():
    return [BddManager(), create_native_manager()]


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
        assert traces[0] == traces[1]

    def test_budget_abort_at_same_visit(self):
        """max_nodes must trip at the same op index and node count in
        both kernels — the abort point is part of the result."""
        import random

        outcomes = []
        for cls in (
            lambda: BddManager(max_nodes=120),
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
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# maintenance parity (GC / swaps / level sizes)
# ----------------------------------------------------------------------
def _truth_table(m, f):
    """The function of node ``f`` as an int of ``2 ** num_vars`` bits:
    bit ``k`` is its value when variable ``i`` takes bit ``i`` of ``k``.
    Follows each node's own variable, so any node order works and the
    result compares across kernels whose node ids differ."""
    size = 1 << m.num_vars
    full = (1 << size) - 1
    pats = []
    for i in range(m.num_vars):
        # the bits k with bit i set: 2**i zeros then 2**i ones, repeated
        half = 1 << i
        pat, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            pat |= pat << width
            width *= 2
        pats.append(pat)
    memo = {0: 0, 1: full}

    def tt(u):
        r = memo.get(u)
        if r is None:
            x = pats[m._var[u]]
            r = (tt(m._high[u]) & x) | (tt(m._low[u]) & (full ^ x))
            memo[u] = r
        return r

    return tt(f)


def _shape(m, f):
    """The DAG under ``f`` renumbered in depth-first order.  Under one
    variable order an ROBDD is canonical, so equal shapes are equal
    functions."""
    ids = {0: 0, 1: 1}
    rows = []

    def visit(u):
        if u not in ids:
            low, high = visit(m._low[u]), visit(m._high[u])
            ids[u] = len(ids)
            rows.append((m._names[m._var[u]], low, high))
        return ids[u]

    visit(f)
    return rows


@needs_kernel
class TestMaintenanceParity:
    def test_gc_swap_interleaving_matches_object(self):
        import random

        results = []
        for make in (BddManager, create_native_manager):
            random.seed(5)
            m = make()
            vs = [m.add_var(f"x{i}") for i in range(8)]
            keep = []
            trace = []
            for _ in range(250):
                op = random.choice(["and", "or", "xor", "gc", "swap", "sizes"])
                if op == "gc":
                    trace.append(("gc", m.garbage_collect(), m.num_nodes))
                    continue
                if op == "swap":
                    lv = random.randrange(7)
                    m.swap_levels(lv)
                    trace.append(("swap", lv, m.num_nodes))
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
                trace.append(_truth_table(m, r))
            results.append(
                (
                    trace,
                    [m.sat_count(h) for h in keep],
                    [_truth_table(m, h.id) for h in keep],
                )
            )
        assert results[0] == results[1]

    def test_large_store_gc_swap_parity(self, monkeypatch):
        """Object vs native on a store of more than 4096 rows: a
        sweep-only collection, a budget abort, a compacting collection,
        swaps and level sizes — node counts, level sizes and functions
        equal step for step.  Native only: the abort waits for the
        post-sweep cap ``max_nodes + dead rows``, and Python never takes
        authority over the store (one bulk read per collection, swaps
        read only their new rows, no unique tables)."""
        obj = _large_store_script(BddManager(max_nodes=12_300))
        m = create_native_manager(max_nodes=12_300)
        reads = _forbid_python_authority(monkeypatch, m)
        nat = _large_store_script(m, reads)
        # the kernel owns the unique tables: Python never built one
        assert m._unique == []
        with pytest.raises(AttributeError):
            m._kernel.lib.nat_load
        # every event ends with the row count, which only the native
        # kernel's compaction shrinks; the rest must match the object kernel
        assert [e[:-1] for e in nat] == [e[:-1] for e in obj]
        rows = nat[0][-1]
        assert rows > 4096
        sweep, abort, compaction = [e for e in nat if e[0] in ("gc", "abort")][:3]
        # a sweep leaves its dead rows in place ...
        assert sweep[-1] == rows and sweep[1] > 0
        # ... and the abort waits for the cap the sweep raised
        assert abort[0] == "abort" and abort[-1] == 12_300 + sweep[1] + 1
        # a compaction leaves exactly the live rows
        assert compaction[-1] < abort[-1] and compaction[-1] == compaction[2]

    @pytest.mark.parametrize("max_nodes", [5700, 6150, 6420, 6690])
    def test_collection_after_aborted_swap_matches_object(self, max_nodes):
        """A swap that trips the budget leaves rows in no unique table.
        Which rows depends on the order the swap walks its table, so the
        kernels' stores part ways there; but every live handle keeps its
        function through the collections after it, and a follow-up
        operation computes the object kernel's function."""
        runs = []
        for make in (BddManager, create_native_manager):
            m = make(max_nodes=max_nodes)
            xs = [m.add_var(f"x{i}") for i in range(9)]
            ys = [m.add_var(f"y{i}") for i in range(9)]
            eq = m.true
            for x, y in zip(xs, ys):
                eq = eq & ~(x ^ y)
            live = xs + ys + [eq]
            before = [_truth_table(m, h.id) for h in live]
            # garbage in the swapped levels: unreachable rows the aborted
            # swap takes out of their table and never puts back
            junk = [eq ^ x for x in xs]
            del junk
            with pytest.raises(ResourceLimitError):
                for level in (8, 9, 7, 10, 6, 11, 5):
                    m.swap_levels(level)
            for _ in range(2):
                m.garbage_collect()
                assert [_truth_table(m, h.id) for h in live] == before
                # the live count stays the number of unique-table residents
                assert m.num_nodes == 2 + sum(m.level_sizes())
            follow = eq & (xs[4] | ys[4])
            runs.append(_truth_table(m, follow.id))
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
        assert results[0] == results[1]
        # the separated order x0..x5 y0..y5 must have been interleaved
        assert results[0][1][:2] == ["x0", "y0"]

    def test_statistics_shape_matches_other_kernels(self):
        obj, nat = BddManager(), create_native_manager()
        for m in (obj, nat):
            a, b = m.add_var("a"), m.add_var("b")
            _ = (a & b) | ~a
        assert set(obj.statistics()) == set(nat.statistics())
        assert set(obj.statistics()["caches"]) == set(nat.statistics()["caches"])
        assert all(
            set(c) == {"hits", "misses", "evictions", "entries"}
            for c in nat.statistics()["caches"].values()
        )

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
    """The maintenance script of the large-store parity test.  Every
    event is a tuple whose last element is the row count."""
    events = []

    def gc():
        if reads is not None:
            reads.clear()
        events.append(("gc", m.garbage_collect(), m.num_nodes, len(m._var)))
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
    events.append(("rows", max(m.level_sizes()), len(m._var)))
    gc()  # the chain's intermediate products: sweep only
    try:
        for k in range(n):
            f = m.false
            for x, y in zip(xs, ys):
                f = f | (x & ~y) ^ xs[k]
                events.append(("f", m.num_nodes, len(m._var)))
    except ResourceLimitError as exc:
        events.append(("abort", k, m.num_nodes, str(exc), len(m._var)))
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
    events.append(("eq", _shape(m, eq.id), len(m._var)))
    gc()
    events.append(("sizes", tuple(m.level_sizes()), len(m._var)))
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
            len(m._var),
        )
    )
    return events


def _forbid_python_authority(monkeypatch, m):
    """Make any object-kernel maintenance path or Python unique-table use
    fail, and record the row reads ``m`` makes across the FFI."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("Python-authority round trip")

    for name in ("garbage_collect", "swap_levels", "level_sizes", "_mk"):
        monkeypatch.setattr(BddManager, name, forbidden)
    lib = m._kernel.lib
    read_rows = lib.nat_read_rows
    reads = []

    def recording(mgr, start, count, *bufs):
        reads.append((start, count))
        return read_rows(mgr, start, count, *bufs)

    monkeypatch.setattr(lib, "nat_read_rows", recording)
    return reads


# ----------------------------------------------------------------------
# collection in the native manager: sweeps, compaction, handle remapping
# ----------------------------------------------------------------------
def _build_funcs(m, nvars=10, cubes=120, seed=11):
    import random

    rng = random.Random(seed)
    vs = [m.add_var(f"x{i}") for i in range(nvars)]
    funcs = []
    for _ in range(6):
        f = m.false
        for _ in range(cubes):
            cube = m.true
            for v in rng.sample(vs, 6):
                cube &= v if rng.random() < 0.5 else ~v
            f |= cube
        funcs.append(f)
    return funcs


@needs_kernel
class TestCollection:
    def test_sweep_without_compaction_keeps_ids_stable(self):
        m = create_native_manager()
        funcs = _build_funcs(m)
        m.garbage_collect()  # flush construction temporaries first
        keep = funcs[:5]  # most remaining nodes stay live -> no compaction
        sizes = [m.size(f) for f in keep]
        ids = [f.id for f in keep]
        rows = len(m._var)
        del funcs
        reclaimed = m.garbage_collect()
        assert reclaimed > 0
        assert len(m._var) == rows  # swept in place, not compacted
        assert [f.id for f in keep] == ids
        assert [m.size(f) for f in keep] == sizes

    def test_compaction_remaps_live_handles(self):
        m = create_native_manager()
        funcs = _build_funcs(m)
        keep = funcs[0]
        alias = m._wrap(keep.id)  # a second handle object on the same id
        table = _truth_table(m, keep.id)
        size = m.size(keep)
        rows_before = len(m._var)
        del funcs  # drop everything but ``keep`` -> compaction fires
        reclaimed = m.garbage_collect()
        assert reclaimed > 0
        assert len(m._var) < rows_before  # the store actually shrank
        # both handles were remapped and the function survived
        assert alias.id == keep.id
        assert m.size(keep) == size
        assert _truth_table(m, keep.id) == table
        # post-compaction every row is reachable (incl. the 2 terminals)
        assert m.live_node_count() == len(m._var)

    def test_gc_then_rebuild_reuses_reclaimed_budget(self):
        # the node budget counts *live* rows: after a sweep the dead rows
        # must not count against max_nodes (the object kernel's freelist
        # reuse gives the same accounting)
        import random

        for make in (BddManager, create_native_manager):
            m = make(max_nodes=4000)
            funcs = _build_funcs(m, nvars=8, cubes=40)
            del funcs
            m.garbage_collect()
            vs = [m.var(f"x{i}") for i in range(8)]
            f = m.false  # rebuilding similar structure must fit the budget
            rng = random.Random(5)
            try:
                for _ in range(40):
                    cube = m.true
                    for v in rng.sample(vs, 6):
                        cube &= v if rng.random() < 0.5 else ~v
                    f |= cube
            except ResourceLimitError:
                pytest.fail(f"{type(m).__name__}: reclaimed budget not reusable")

    def test_gc_statistics(self):
        m = create_native_manager()
        funcs = _build_funcs(m)
        del funcs[1:]
        reclaimed = m.garbage_collect()
        st = m.statistics()
        assert st["gc_runs"] == 1
        assert st["gc_reclaimed"] == reclaimed
        assert st["live_nodes"] == m.live_node_count()


# ----------------------------------------------------------------------
# fused quantification == unfused composition (property)
# ----------------------------------------------------------------------
def _random_func(m, vs, rng, cubes=8):
    f = m.false
    for _ in range(cubes):
        cube = m.true
        for v in rng.sample(vs, rng.randint(2, 4)):
            cube &= v if rng.random() < 0.5 else ~v
        f |= cube
    return f


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), nq=st.integers(1, 4))
def test_fused_quantify_matches_unfused(seed, nq):
    import random

    rng = random.Random(seed)
    m = create_native_manager()
    vs = [m.add_var(f"x{i}") for i in range(6)]
    names = [f"x{i}" for i in rng.sample(range(6), nq)]
    f = _random_func(m, vs, rng)
    g = _random_func(m, vs, rng)
    assert m.and_exists(names, f, g) == m.exists(names, f & g)
    assert m.and_forall(names, f, g) == m.forall(names, f & g)
    assert m.forall_implied(names, f, g) == m.forall(names, ~f | g)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_fused_quantify_on_network_functions(data):
    """The same law over global functions of random networks."""
    from tests.strategies import small_networks

    from repro.network.verify import global_functions

    net = data.draw(small_networks(n_inputs=4, max_gates=6))
    m = create_native_manager()
    funcs = global_functions(net, m)
    f = funcs[net.outputs[0]]
    g = ~funcs[net.inputs[0]]
    names = list(net.inputs[:2])
    assert m.and_exists(names, f, g) == m.exists(names, f & g)
    assert m.and_forall(names, f, g) == m.forall(names, f & g)


# ----------------------------------------------------------------------
# canonical-row parity on the paper's example circuits
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "circuit", ["c17", "carry_skip_block", "figure4", "figure6", "figure6_extended"]
)
@pytest.mark.parametrize("method", ["exact", "approx1"])
def test_example_circuit_rows_bit_identical(circuit, method):
    """Both kernels must produce byte-identical canonical rows."""
    from repro import circuits
    from repro.cache.results import CachedRequiredResult
    from repro.core.required_time import (
        analyze_required_times,
        topological_input_required_times,
    )

    net = getattr(circuits, circuit)()
    baseline = topological_input_required_times(net, None, 0.0)
    rows = {}
    for backend in BACKENDS:
        report = analyze_required_times(
            net.copy(), method, output_required=0.0, backend=backend
        )
        rows[backend] = json.dumps(
            CachedRequiredResult.from_report(report, baseline).row(),
            sort_keys=True,
        )
    assert rows["object"] == rows["native"]


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
        "compacted": backend == "native",  # half the rows died here
    }
    assert reclaimed > 0
    swaps = [sp for sp in spans if sp.name == "bdd.swap"]
    assert len(swaps) == 4
    assert {sp.attrs["var"] for sp in swaps} == {"x0", "x1", "x2", "x3"}
    assert sum(sp.attrs["swaps"] for sp in swaps) == m.statistics()["level_swaps"]


# ----------------------------------------------------------------------
# cache keys: the kernel is not part of a result's identity
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_native_keys_like_object(self, monkeypatch):
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        net = parity_tree(3)
        nat = required_key(net, "exact", options={"backend": "native"})
        obj = required_key(net, "exact", options={"backend": "object"})
        default = required_key(net, "exact", options={})
        assert nat.digest == obj.digest == default.digest

    def test_env_native_keys_like_object(self, monkeypatch):
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree

        net = parity_tree(3)
        digests = set()
        for env in ("native", "object"):
            monkeypatch.setenv(BACKEND_ENV, env)
            digests.add(required_key(net, "exact", options={}).digest)
        assert len(digests) == 1

    def test_baseline_is_anchored_not_default(self, monkeypatch):
        # flipping the default kernel must never re-key the cache: the
        # digest of a run is the committed no-backend digest whatever
        # DEFAULT_BACKEND happens to be
        import repro.bdd.api as api
        from repro.cache.keys import required_key
        from tests.unit.test_cache_keys import PINNED_EXACT_DIGEST, pinned_network

        for default in ("native", "object"):
            monkeypatch.setattr(api, "DEFAULT_BACKEND", default)
            key = required_key(pinned_network(), "exact")
            assert key.digest == PINNED_EXACT_DIGEST
