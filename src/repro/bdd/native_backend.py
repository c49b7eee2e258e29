"""The native-kernel BDD manager (backend name ``"native"``).

:class:`NativeBddManager` subclasses the object kernel's
:class:`~repro.bdd.manager.BddManager` and runs every operation that
creates, frees or moves nodes in the C kernel in ``_native/kernel.c``
(built lazily by :mod:`repro.bdd._native.build`): the
apply/quantify/restrict loops, ``_mk``, garbage collection (``nat_gc``)
and adjacent level swaps (``nat_swap_levels``).  Up to the first
collection the C loops create the object kernel's nodes in the object
kernel's order and hit a node budget at the same visit, so node ids
match; after collections and swaps the ids differ but every function,
node count and level size still does.  The inherited cold operations
(``ite``, ``compose``), enumeration helpers, :mod:`repro.bdd.minimal`
and the reorderer run unchanged on top.

The C kernel is the single authority over the node store.  Python keeps
a read-only mirror of the rows in ``_var``/``_low``/``_high`` for its
readers (enumeration, ``live_node_count``, ``minimal.py``).  The mirror
is three ``array('i')`` buffers rather than lists, so a bulk read is a
copy of C memory with no Python int per row to create or free.  It
follows the kernel at three points:

* after an operation, the rows it created are appended to the mirror;
* after a collection, the mirror is replaced by one bulk read, and on
  compaction the externally referenced ids (``_extref`` and the live
  :class:`BddNode` handles) are remapped through the new ids the kernel
  wrote over the root array;
* after a level swap, the new rows are appended and the rewritten rows
  are read back.

Python never builds unique tables and never re-uploads the store.

Statistics stay truthful: the eight hot computed tables live in C, and
a :class:`_KernelCacheView` stands in for each of them in ``_tables``,
so ``statistics()``, the ``bdd.*`` telemetry collector, and
``reset_statistics()`` need no special cases.
"""

from __future__ import annotations

import ctypes
import logging
import threading
import weakref
from array import array

from repro.bdd._native.build import load_kernel
from repro.bdd.manager import (
    DEFAULT_CACHE_BOUND,
    FALSE,
    TRUE,
    BddManager,
    BddNode,
    traced_gc,
)
from repro.errors import BddError, ResourceLimitError
from repro.obs.metrics import REGISTRY

log = logging.getLogger("repro.bdd.native")

_I32P = ctypes.POINTER(ctypes.c_int32)

#: one zero row: ``array("i", _ZERO) * n`` allocates an n-row buffer
_ZERO = (0,)
assert array("i").itemsize == 4, "the row mirror needs a 32-bit array('i')"

#: fallback reasons already warned about (one line per reason per process)
_WARNED: set[str] = set()


def native_status() -> tuple[bool, str | None]:
    """``(available, fallback_reason)`` of the native kernel."""
    lib, reason = load_kernel()
    return lib is not None, reason


def _note_fallback(reason: str) -> None:
    REGISTRY.counter("bdd.native.fallback").inc()
    if reason not in _WARNED:
        _WARNED.add(reason)
        log.warning("native BDD kernel unavailable (%s); using object kernel", reason)


def create_native_manager(**kwargs):
    """A :class:`NativeBddManager`, or the object-kernel fallback when
    the kernel cannot be built/loaded (missing compiler, failed compile)."""
    lib, reason = load_kernel()
    if lib is None:
        _note_fallback(reason or "unknown")
        return BddManager(**kwargs)
    return NativeBddManager(_lib=lib, **kwargs)


class _KernelHandle:
    """Shared ownership of one C manager: pointer, liveness, stats cache.

    The telemetry collector may read counters from another thread while
    (or after) the owning manager is garbage-collected, so every C access
    goes through this handle: reads return the last snapshot once
    ``close()`` has run, and ``close()`` folds the final counter values
    into that snapshot before freeing the C manager.
    """

    __slots__ = ("lib", "mgr", "alive", "dirty", "_snap", "_buf", "_lock")

    def __init__(self, lib, mgr):
        self.lib = lib
        self.mgr = mgr
        self.alive = True
        self.dirty = True
        self._buf = (ctypes.c_int64 * 32)()
        self._snap = [0] * 32
        self._lock = threading.Lock()

    def read(self) -> list[int]:
        if self.dirty:
            with self._lock:
                if self.alive:
                    self.lib.nat_read_stats(self.mgr, self._buf)
                    self._snap = list(self._buf)
                self.dirty = False
        return self._snap

    def invalidate_caches(self) -> None:
        with self._lock:
            if self.alive:
                self.lib.nat_invalidate_caches(self.mgr)
        self.dirty = True

    def reset_stats(self) -> None:
        with self._lock:
            if self.alive:
                self.lib.nat_reset_stats(self.mgr)
        self.dirty = True

    def close(self) -> None:
        with self._lock:
            if not self.alive:
                return
            self.lib.nat_read_stats(self.mgr, self._buf)
            self._snap = list(self._buf)
            self.alive = False
            self.lib.nat_free(self.mgr)
        self.dirty = False


class _KernelCacheView:
    """The statistics face of one of the C kernel's computed tables.

    ``hits``/``misses``/``evictions`` and the ``entries`` of :meth:`stats`
    read the kernel's counters, so ``statistics()`` and the ``bdd.*``
    telemetry extractor need no special cases.  The table itself lives in
    C: :meth:`clear` and :meth:`reset_counters` are no-ops because the
    kernel drops its tables on collections and swaps, and
    ``nat_reset_stats`` zeroes its counters.
    """

    __slots__ = ("name", "_handle", "_base")

    def __init__(self, name: str, handle: _KernelHandle, index: int):
        self.name = name
        self._handle = handle
        self._base = index * 4

    @property
    def hits(self) -> int:
        return self._handle.read()[self._base]

    @property
    def misses(self) -> int:
        return self._handle.read()[self._base + 1]

    @property
    def evictions(self) -> int:
        return self._handle.read()[self._base + 2]

    def clear(self) -> None:
        pass

    def reset_counters(self) -> None:
        pass

    def stats(self) -> dict[str, int]:
        base = self._base
        hits, misses, evictions, entries = self._handle.read()[base : base + 4]
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": entries,
        }


class NativeBddManager(BddManager):
    """The C-kernel BDD manager; see the module docstring."""

    def __init__(
        self,
        auto_reorder: bool = False,
        reorder_threshold: int = 50_000,
        max_nodes: int | None = None,
        cache_bound: int = DEFAULT_CACHE_BOUND,
        _lib=None,
    ):
        if _lib is None:
            _lib, reason = load_kernel()
            if _lib is None:
                raise BddError(f"native BDD kernel unavailable: {reason}")
        super().__init__(auto_reorder, reorder_threshold, max_nodes, cache_bound)
        self._var = array("i", self._var)
        self._low = array("i", self._low)
        self._high = array("i", self._high)
        mgr = _lib.nat_new(-1 if max_nodes is None else max_nodes, cache_bound)
        if not mgr:
            raise BddError("native BDD kernel allocation failed")
        handle = _KernelHandle(_lib, mgr)
        self._kernel = handle
        self._finalizer = weakref.finalize(self, handle.close)
        # hot entry points bound once (the per-op fast path is one
        # attribute load + one FFI call)
        self._c_mgr = mgr
        self._c_mk_ = _lib.nat_mk
        self._c_not = _lib.nat_not
        self._c_and = _lib.nat_and
        self._c_or = _lib.nat_or
        self._c_xor = _lib.nat_xor
        self._c_exists = _lib.nat_exists
        self._c_andex = _lib.nat_and_exists
        self._c_andall = _lib.nat_and_forall
        self._c_restrict = _lib.nat_restrict
        self._c_num_nodes = _lib.nat_num_nodes
        self._swap_info = (ctypes.c_int64 * 2)()
        # per-levels-tuple and per-assignment ctypes arrays, each interned
        # with a small nonzero id that stands for the whole tuple in the
        # C cache keys
        self._levels_c_arrays: dict[tuple[int, ...], tuple] = {}
        self._pairs_c_arrays: dict[tuple[tuple[int, int], ...], tuple] = {}
        # One weakref per live handle, so a compacting collection can
        # remap their ids.  A WeakSet would be wrong here: BddNode
        # compares (and hashes) by node id, so distinct handle objects
        # sharing an id would be deduplicated and all but one would miss
        # the remap.
        self._handles: list["weakref.ref[BddNode]"] = []
        self._handles_purge_at = 1024
        # persistent row-readback buffers (grown on demand) and byte
        # views of them, so mirroring the common few new rows costs no
        # allocation beyond the appended bytes
        self._grow_pull_bufs(256)
        # the hot computed tables live in C; these views report them
        self._not_tab = _KernelCacheView("not", handle, 0)
        self._and_tab = _KernelCacheView("and", handle, 1)
        self._or_tab = _KernelCacheView("or", handle, 2)
        self._xor_tab = _KernelCacheView("xor", handle, 3)
        self._exists_tab = _KernelCacheView("exists", handle, 4)
        self._andex_tab = _KernelCacheView("and_exists", handle, 5)
        self._andall_tab = _KernelCacheView("and_forall", handle, 6)
        self._restrict_tab = _KernelCacheView("restrict", handle, 7)
        self._tables = (
            self._not_tab,
            self._and_tab,
            self._or_tab,
            self._xor_tab,
            self._ite_tab,
            self._exists_tab,
            self._andex_tab,
            self._andall_tab,
            self._restrict_tab,
            self._compose_tab,
        )

    def _wrap(self, node_id: int) -> BddNode:
        node = super()._wrap(node_id)
        handles = self._handles
        handles.append(weakref.ref(node))
        if len(handles) > self._handles_purge_at:
            # amortized purge of dead references (no per-ref callbacks)
            self._handles = handles = [r for r in handles if r() is not None]
            self._handles_purge_at = max(1024, 2 * len(handles))
        return node

    # ------------------------------------------------------------------
    # the read-only row mirror
    # ------------------------------------------------------------------
    def _grow_pull_bufs(self, cap: int) -> None:
        self._pull_cap = cap
        self._pull_bufs = tuple((ctypes.c_int32 * cap)() for _ in range(3))
        self._pull_views = tuple(memoryview(b).cast("B") for b in self._pull_bufs)

    def _pull_rows(self, n: int) -> None:
        """Mirror rows ``[len(self._var), n)`` from the C kernel."""
        start = len(self._var)
        count = n - start
        if count > self._pull_cap:
            self._grow_pull_bufs(max(count, self._pull_cap * 2))
        vb, lb, hb = self._pull_bufs
        self._kernel.lib.nat_read_rows(self._c_mgr, start, count, vb, lb, hb)
        nbytes = 4 * count
        vv, lv, hv = self._pull_views
        self._var.frombytes(vv[:nbytes])
        self._low.frombytes(lv[:nbytes])
        self._high.frombytes(hv[:nbytes])
        self._nodes_created += count
        live = self._nodes_live + count
        self._nodes_live = live
        if live > self._peak_live:
            self._peak_live = live

    def _refresh_mirror(self) -> None:
        """Replace the row mirror with one bulk read of the C store."""
        n = self._c_num_nodes(self._c_mgr)
        rows = [array("i", _ZERO) * n for _ in range(3)]
        self._kernel.lib.nat_read_rows(
            self._c_mgr,
            0,
            n,
            *(ctypes.cast(r.buffer_info()[0], _I32P) for r in rows),
        )
        self._var, self._low, self._high = rows

    def _finish(self, ret: int) -> int:
        """Decode a packed op result; mirror new rows; raise on abort."""
        kernel = self._kernel
        kernel.dirty = True
        if ret < 0:
            n = self._c_num_nodes(self._c_mgr)
            if n > len(self._var):
                self._pull_rows(n)
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        n = ret >> 32
        if n > len(self._var):
            self._pull_rows(n)
        return ret & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(self, name: str):
        """Declare a new variable at the bottom of the current order."""
        if name in self._name2var:
            raise BddError(f"variable {name!r} already declared")
        self._kernel.lib.nat_add_var(self._c_mgr)
        var = len(self._names)
        self._names.append(name)
        self._name2var[name] = var
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        return self._wrap(self._mk(var, FALSE, TRUE))

    # ------------------------------------------------------------------
    # node construction / apply operations
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        # unlike the apply loops, a _mk can create at most one row and
        # its contents are exactly the arguments — mirror it directly
        # instead of reading it back across the FFI (the structured-key
        # operations inherited from the object kernel call _mk per
        # recursion step, so this path is hot)
        ret = self._c_mk_(self._c_mgr, var, low, high)
        kernel = self._kernel
        kernel.dirty = True
        if ret < 0:
            n = self._c_num_nodes(self._c_mgr)
            if n > len(self._var):
                self._pull_rows(n)
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        if (ret >> 32) > len(self._var):
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._nodes_created += 1
            live = self._nodes_live + 1
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live
        return ret & 0xFFFFFFFF

    def _not(self, f: int) -> int:
        return self._finish(self._c_not(self._c_mgr, f))

    def _and(self, f: int, g: int) -> int:
        return self._finish(self._c_and(self._c_mgr, f, g))

    def _or(self, f: int, g: int) -> int:
        return self._finish(self._c_or(self._c_mgr, f, g))

    def _xor(self, f: int, g: int) -> int:
        return self._finish(self._c_xor(self._c_mgr, f, g))

    def _levels_c(self, levels: tuple[int, ...]):
        entry = self._levels_c_arrays.get(levels)
        if entry is None:
            arr = (ctypes.c_int32 * len(levels))(*levels)
            entry = (arr, len(self._levels_c_arrays) + 1)
            self._levels_c_arrays[levels] = entry
        return entry

    def _exists(self, f: int, levels: tuple[int, ...]) -> int:
        if f <= TRUE or not levels:
            return f
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_exists(self._c_mgr, f, arr, len(levels), lid)
        )

    def _and_exists(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_andex(self._c_mgr, f, g, arr, len(levels), lid)
        )

    def _and_forall(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_andall(self._c_mgr, f, g, arr, len(levels), lid)
        )

    def _pairs_c(self, pairs: tuple[tuple[int, int], ...]):
        entry = self._pairs_c_arrays.get(pairs)
        if entry is None:
            flat = [x for pair in pairs for x in pair]
            arr = (ctypes.c_int32 * len(flat))(*flat)
            entry = (arr, len(self._pairs_c_arrays) + 1)
            self._pairs_c_arrays[pairs] = entry
        return entry

    def _restrict(
        self, f: int, pairs: tuple[tuple[int, int], ...], start: int
    ) -> int:
        if f <= TRUE or start >= len(pairs):
            return f
        arr, pid = self._pairs_c(pairs)
        return self._finish(
            self._c_restrict(self._c_mgr, f, arr, len(pairs), start, pid)
        )

    # ------------------------------------------------------------------
    # maintenance: collection and level swaps run in the C kernel
    # ------------------------------------------------------------------
    @traced_gc
    def garbage_collect(self) -> int:
        """Collect in the C kernel, then refresh the mirror.

        ``nat_gc`` marks from the externally referenced roots, sweeps, and
        compacts once dead rows reach half the store, dropping the C
        caches.  Python then refreshes the row mirror and, on compaction,
        remaps ``_extref`` and every live handle through the new ids
        written over the root array.  Returns the number of nodes
        reclaimed.
        """
        roots = [f for f, c in self._extref.items() if c > 0]
        ids = (ctypes.c_int32 * len(roots))(*roots)
        ret = self._kernel.lib.nat_gc(self._c_mgr, ids, len(roots))
        reclaimed = ret >> 1
        self._refresh_mirror()
        if ret & 1:
            # pin the live handles first: none may be collected (and drop
            # a refcount against a stale id) halfway through the remap
            handles = [h for h in (r() for r in self._handles) if h is not None]
            self._handles = [weakref.ref(h) for h in handles]
            self._handles_purge_at = max(1024, 2 * len(handles))
            remap = dict(zip(roots, ids))
            self._extref = {
                remap[f]: c for f, c in self._extref.items() if c > 0
            }
            for handle in handles:
                handle.id = remap[handle.id]
            # a compacted store holds exactly the live rows, all of them
            # in the unique tables again, including any that a swap
            # aborted on the budget had left out of them
            self._nodes_live = len(self._var) - 2
        else:
            self._nodes_live -= reclaimed
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        # the kernel dropped its own caches
        BddManager._invalidate_caches(self)
        self._kernel.dirty = True
        return reclaimed

    def swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in the C kernel.

        Same contract as :meth:`BddManager.swap_levels` (ids preserved,
        budget checked at every new node); the mirror takes the new rows
        and re-reads only the rewritten ones.
        """
        if not 0 <= level < len(self._level2var) - 1:
            raise BddError(f"cannot swap level {level}")
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        info = self._swap_info
        lib = self._kernel.lib
        status = lib.nat_swap_levels(self._c_mgr, level, upper, lower, info)
        self._kernel.dirty = True
        planned, done = info[0], info[1]
        self._nodes_live -= planned
        self._level2var[level], self._level2var[level + 1] = lower, upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level
        n = self._c_num_nodes(self._c_mgr)
        if n > len(self._var):
            self._pull_rows(n)
        if done:
            ids, lows, highs = ((ctypes.c_int32 * done)() for _ in range(3))
            lib.nat_read_swapped(self._c_mgr, done, ids, lows, highs)
            var_ = self._var
            low_ = self._low
            high_ = self._high
            for nid, lo, hi in zip(ids, lows, highs):
                var_[nid] = lower
                low_[nid] = lo
                high_[nid] = hi
            live = self._nodes_live + done
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live
        if status == -1:
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        if status == -2:
            raise BddError("unique-table collision during swap; manager corrupted")
        self._level_swaps += 1
        # the kernel dropped its own caches
        BddManager._invalidate_caches(self)

    def level_sizes(self) -> list[int]:
        """Unique-table size per level, read from the C kernel."""
        out = (ctypes.c_int64 * len(self._level2var))()
        self._kernel.lib.nat_level_sizes(self._c_mgr, out)
        return list(out)

    def _invalidate_caches(self) -> None:
        self._kernel.invalidate_caches()
        super()._invalidate_caches()

    def reset_statistics(self) -> None:
        self._kernel.reset_stats()
        super().reset_statistics()


__all__ = [
    "NativeBddManager",
    "create_native_manager",
    "native_status",
]
