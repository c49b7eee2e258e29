"""The array BDD kernel: flat node storage, iterative apply, compacting GC.

This is the ``array`` backend behind :func:`repro.bdd.create_manager`.
It keeps the full public surface (and the id-level conventions) of
:class:`repro.bdd.manager.BddManager` — same operation semantics, same
short-circuits, same ``statistics()`` shape, same ``bdd.*`` telemetry —
while replacing every hot data structure and recursion:

* **Node storage** stays the three parallel lists ``_var``/``_low``/
  ``_high`` but is kept *dense*: there is no free list, and garbage
  collection compacts the arrays in place (see below).  CPython list
  indexing of small ints is the fastest random-access store available
  without native code; :meth:`ArrayBddManager.to_arrays` exports the
  same data as numpy ``int32`` arrays for vectorized passes.
* **Unique tables** are per-variable open-addressed hash tables
  (:class:`_UniqueTable`): parallel ``keys``/``vals`` slot lists, the
  key packed as ``(low << 32) | high`` (never 0, since ``low == high``
  nodes are reduced away before insertion — so 0 doubles as the empty
  sentinel), Fibonacci-style slot hash ``((low * 0x9E3779B1) ^ high)``,
  linear probing, growth at 2/3 load.
* **Computed tables** for the hot operations are direct-mapped
  open-addressed caches (:class:`_DirectCache`): fixed-power-of-two
  slot arrays with a *generation* tag per slot, so invalidation is an
  O(1) generation bump instead of an O(n) clear, and an overwrite of a
  live entry is the (counted) eviction policy.  The cold operations
  (``ite``/``restrict``/``compose``, whose keys are structured tuples)
  keep the parent's bounded-dict tables.
* **Apply loops** are iterative with an explicit frame stack and a
  result stack — no Python call per recursion step, and the per-call
  attribute hoists of the recursive kernel are paid once per top-level
  operation instead of once per node visited.  The short-circuit
  structure of the recursive kernel is preserved *exactly* (a TRUE low
  cofactor under an ∃-quantified level never expands the high branch,
  dually for ∀), so both backends create identical node sequences and
  hit resource budgets at identical points.
* **Garbage collection** is tombstone-first mark/sweep with deferred
  compaction: every collection marks from the external roots and
  tombstones dead unique-table entries in place — O(dead), ids
  untouched — leaving zeroed dead rows in the node arrays.  Only once
  the accumulated dead rows outnumber the live ones does the
  mark-and-compact pass run: build an old→new remap, rewrite the
  arrays densely, rebuild the unique tables sized to their survivors,
  and remap every external id — the refcount table and all live
  :class:`BddNode` handles, which the manager tracks as a periodically
  purged list of weak references (a ``WeakSet`` would dedup handles
  that hash equal while owning distinct ``id`` fields).  Node *ids*
  are therefore stable across sweeps but not across compactions;
  everything observable at the function level is unchanged.

See docs/BDD_BACKENDS.md for the full layout and the measured
crossover between the backends.
"""

from __future__ import annotations

import weakref

import numpy as _np

from repro.bdd.manager import (
    _TERMINAL_VAR,
    DEFAULT_CACHE_BOUND,
    FALSE,
    TRUE,
    BddManager,
    BddNode,
    traced_gc,
)
from repro.errors import BddError, ResourceLimitError

#: Knuth multiplicative hash constants for slot indexing.
_H1 = 0x9E3779B1
_H2 = 0x85EBCA77

#: hard ceiling on computed-cache slots per operation (2^18 slots);
#: beyond this the direct-mapped overwrite policy is the eviction story.
_MAX_CACHE_SLOTS = 1 << 18

#: frame tags of the iterative apply loops
_EXPAND = 0


def _pow2(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


def _rehash(old_keys: list[int], old_vals: list[int], slots: int):
    """Rehash the resident entries of an open-addressed table.

    Returns fresh ``(keys, vals)`` slot lists of ``slots`` slots with
    tombstones dropped.  The home slot of every resident is computed
    vectorized (the hash only depends on the low bits of the product,
    so 64-bit wraparound is exact); only collision probing runs in the
    interpreter, and at the post-grow load factor most entries place on
    their home slot.
    """
    mask = slots - 1
    keys = [0] * slots
    vals = [0] * slots
    if len(old_keys) < 4096:
        # below numpy's conversion break-even, rehash in plain Python
        for idx, packed in enumerate(old_keys):
            if packed > 0:
                j = (((packed >> 32) * _H1) ^ (packed & 0xFFFFFFFF)) & mask
                while keys[j]:
                    j = (j + 1) & mask
                keys[j] = packed
                vals[j] = old_vals[idx]
        return keys, vals
    kn = _np.array(old_keys, dtype=_np.int64)
    live = _np.nonzero(kn > 0)[0]
    if live.size:
        packed = kn[live].astype(_np.uint64)
        home = (
            ((packed >> _np.uint64(32)) * _np.uint64(_H1))
            ^ (packed & _np.uint64(0xFFFFFFFF))
        ) & _np.uint64(mask)
        vn = _np.array(old_vals, dtype=_np.int64)[live]
        for p, j, v in zip(kn[live].tolist(), home.tolist(), vn.tolist()):
            while keys[j]:
                j = (j + 1) & mask
            keys[j] = p
            vals[j] = v
    return keys, vals


class _UniqueTable:
    """One variable's open-addressed unique table.

    ``keys[j]`` holds the packed ``(low << 32) | high`` of the node in
    slot ``j``, ``vals[j]`` its id.  Slot states: ``0`` = never used
    (probe stop), ``-1`` = tombstone of a swept node (probes continue
    straight past it, so the hot inline probes need no tombstone
    awareness at all), ``> 0`` = resident.  The GC sweep tombstones
    dead entries in place — O(dead), ids untouched — and a table whose
    tombstones exceed a quarter of its slots is rehashed at the same
    capacity (:meth:`rebuild`) so probe chains stay short and the
    load-factor triggers stay honest.
    """

    __slots__ = ("keys", "vals", "size", "tombs", "mask")

    def __init__(self, capacity: int = 8):
        slots = _pow2(max(8, capacity))
        self.keys: list[int] = [0] * slots
        self.vals: list[int] = [0] * slots
        self.size = 0
        self.tombs = 0
        self.mask = slots - 1

    def reset(self, capacity: int) -> None:
        """Empty the table, pre-sized for ``capacity`` entries.

        Never shrinks: a GC rebuild sized exactly to its survivors
        would re-grow step by step as the table refills (measured as the
        dominant cost of GC-heavy runs), so a table keeps its peak slot
        count for the life of the manager.
        """
        slots = max(_pow2(max(8, capacity * 2)), self.mask + 1)
        self.keys = [0] * slots
        self.vals = [0] * slots
        self.size = 0
        self.tombs = 0
        self.mask = slots - 1

    def lookup(self, low: int, high: int) -> int | None:
        key = (low << 32) | high
        keys = self.keys
        mask = self.mask
        j = ((low * _H1) ^ high) & mask
        while True:
            slot = keys[j]
            if slot == key:
                return self.vals[j]
            if slot == 0:
                return None
            j = (j + 1) & mask

    def insert(self, low: int, high: int, node_id: int) -> None:
        """Insert a (low, high) -> id entry assumed not present."""
        keys = self.keys
        mask = self.mask
        j = ((low * _H1) ^ high) & mask
        while keys[j] > 0:
            j = (j + 1) & mask
        if keys[j] < 0:
            self.tombs -= 1
        keys[j] = (low << 32) | high
        self.vals[j] = node_id
        self.size += 1
        if (self.size + self.tombs) * 3 >= (mask + 1) * 2:
            self.grow()

    def grow(self) -> None:
        """Grow the slot count and rehash every resident entry.

        Mid-size tables quadruple — repeated rehashing while a table
        climbs is a measured hot spot on node-heavy runs, and the
        geometric sum of rehash work drops from 2× to 1.33× the final
        size — while large tables double to bound slot memory.
        """
        slots = self.mask + 1
        slots <<= 1 if slots >= (1 << 16) else 2
        self.keys, self.vals = _rehash(self.keys, self.vals, slots)
        self.tombs = 0
        self.mask = slots - 1

    def rebuild(self) -> None:
        """Rehash at the same capacity, dropping tombstones."""
        self.keys, self.vals = _rehash(self.keys, self.vals, self.mask + 1)
        self.tombs = 0

    def node_ids(self) -> list[int]:
        """The ids of every resident node (unordered)."""
        keys = self.keys
        vals = self.vals
        return [vals[j] for j in range(len(keys)) if keys[j] > 0]


class _DirectCache:
    """A direct-mapped computed table with generation-tag invalidation.

    Three parallel slot lists: packed integer ``keys``, result ``vals``
    and the ``gens`` tag a slot was last written under.  A slot is live
    iff its tag equals the table's current generation, so
    :meth:`clear` — the invalidation entry point shared with the dict
    tables — is a single generation bump.  Collisions overwrite (the
    classical direct-mapped cache policy) and count as evictions.

    The table starts small and grows only *between* top-level apply
    calls (:meth:`maybe_grow`): the apply loops hoist the slot lists
    into locals, so in-flight growth would strand their writes.
    """

    __slots__ = (
        "name",
        "keys",
        "vals",
        "gens",
        "gen",
        "mask",
        "max_slots",
        "count",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, name: str, bound: int, initial: int = 1024):
        self.name = name
        self.max_slots = _pow2(max(16, min(bound, _MAX_CACHE_SLOTS)))
        slots = min(_pow2(max(16, initial)), self.max_slots)
        self.keys: list[int] = [0] * slots
        self.vals: list[int] = [0] * slots
        self.gens: list[int] = [0] * slots
        self.gen = 1
        self.mask = slots - 1
        self.count = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def maybe_grow(self) -> None:
        """Quadruple the slot count when half full (called between ops).

        Growth discards the resident entries (their slots are derived
        from the un-packed key parts, which differ per operation); the
        transient misses are far cheaper than rehash plumbing, and each
        table grows at most four times in its life.
        """
        slots = self.mask + 1
        if self.count * 4 >= slots and slots < self.max_slots:  # 25% load
            slots = min(slots << 2, self.max_slots)
            self.keys = [0] * slots
            self.vals = [0] * slots
            self.gens = [0] * slots
            self.gen = 1
            self.mask = slots - 1
            self.count = 0

    def clear(self) -> None:
        self.gen += 1
        self.count = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.count,
        }


class ArrayBddManager(BddManager):
    """The array-kernel BDD manager (backend name ``"array"``).

    Drop-in replacement for :class:`BddManager`; see the module
    docstring for what is different under the hood.  The enumeration,
    statistics, and handle machinery are inherited unchanged.
    """

    def __init__(
        self,
        auto_reorder: bool = False,
        reorder_threshold: int = 50_000,
        max_nodes: int | None = None,
        cache_bound: int = DEFAULT_CACHE_BOUND,
    ):
        super().__init__(auto_reorder, reorder_threshold, max_nodes, cache_bound)
        # replace the hot computed tables with direct-mapped caches; the
        # structured-key cold tables (ite/restrict/compose) stay dicts
        self._not_tab = _DirectCache("not", cache_bound)
        self._and_tab = _DirectCache("and", cache_bound)
        self._or_tab = _DirectCache("or", cache_bound)
        self._xor_tab = _DirectCache("xor", cache_bound)
        self._exists_tab = _DirectCache("exists", cache_bound)
        self._andex_tab = _DirectCache("and_exists", cache_bound)
        self._andall_tab = _DirectCache("and_forall", cache_bound)
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
        # open-addressed unique tables (parent initialized dicts, but no
        # variable exists yet at this point)
        self._unique: list[_UniqueTable] = []
        # quantified level-tuples interned to small ints for key packing
        self._levels_intern: dict[tuple[int, ...], int] = {}
        # One weakref per live handle, so compacting GC can remap their
        # ids.  A WeakSet would be wrong here: BddNode compares (and
        # hashes) by node id, so distinct handle objects sharing an id
        # would be deduplicated and all but one would miss the remap.
        self._handles: list["weakref.ref[BddNode]"] = []
        self._handles_purge_at = 1024
        # Rows of swept-but-not-yet-compacted nodes still occupying the
        # node arrays.  ``len(self._var) - self._dead_rows`` is exactly
        # the object kernel's ``len(self._var) - len(self._free)``, so
        # the budget cap below keeps ResourceLimitError timing
        # bit-identical across backends.
        self._dead_rows = 0
        self._node_cap = max_nodes

    # ------------------------------------------------------------------
    # wrapping / variables
    # ------------------------------------------------------------------
    def _wrap(self, node_id: int) -> BddNode:
        node = super()._wrap(node_id)
        handles = self._handles
        handles.append(weakref.ref(node))
        if len(handles) > self._handles_purge_at:
            # amortized purge of dead references (no per-ref callbacks)
            self._handles = handles = [r for r in handles if r() is not None]
            self._handles_purge_at = max(1024, 2 * len(handles))
        return node

    def add_var(self, name: str) -> BddNode:
        """Declare a new variable at the bottom of the current order."""
        if name in self._name2var:
            raise BddError(f"variable {name!r} already declared")
        var = len(self._names)
        self._names.append(name)
        self._name2var[name] = var
        self._unique.append(_UniqueTable())
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        return self._wrap(self._mk(var, FALSE, TRUE))

    def _levels_id(self, levels: tuple[int, ...]) -> int:
        """A small interned int standing for a quantified-levels tuple."""
        intern = self._levels_intern
        lid = intern.get(levels)
        if lid is None:
            lid = len(intern) + 1
            intern[levels] = lid
        return lid

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        # The out-of-line version, for the inherited recursions
        # (ite/restrict/compose), level swaps, and helper modules; the
        # apply loops below inline the same probe.
        if low == high:
            return low
        ut = self._unique[var]
        keys = ut.keys
        mask = ut.mask
        key = (low << 32) | high
        j = ((low * _H1) ^ high) & mask
        while True:
            slot = keys[j]
            if slot == key:
                return ut.vals[j]
            if slot == 0:
                break
            j = (j + 1) & mask
        var_ = self._var
        if self._node_cap is not None and len(var_) > self._node_cap:
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        node_id = len(var_)
        var_.append(var)
        self._low.append(low)
        self._high.append(high)
        keys[j] = key
        ut.vals[j] = node_id
        size = ut.size + 1
        ut.size = size
        if size * 3 >= (mask + 1) * 2:
            ut.grow()
        self._nodes_created += 1
        live = self._nodes_live + 1
        self._nodes_live = live
        if live > self._peak_live:
            self._peak_live = live
        return node_id

    # ------------------------------------------------------------------
    # iterative apply loops
    # ------------------------------------------------------------------
    # The machine keeps one *current* sub-problem in locals — already
    # normalized, non-terminal, and counted as a cache miss — and chains
    # the low cofactor directly into the next iteration (the "left
    # spine" never touches the frame stack).  Both cofactors are first
    # resolved inline: terminal rules always, plus a computed-cache
    # probe for the low child (which runs at exactly the same sequence
    # point as the recursive kernel's probe would).  The high child's
    # probe is deferred to a frame popped *after* the low subtree
    # completes, because the low subtree may populate the cache entry in
    # between — probing early would diverge from the recursive kernel's
    # node-creation order.  Frame tags:
    #
    #   1 — combine: pop the low result from ``rs``; ``r`` is high
    #   2 — high expand: normalized + non-terminal, probe pending
    #   3 — combine with an inline-resolved high result
    #   4 — deferred full ladder (XOR's TRUE cofactor → NOT call)
    #
    # Counter deltas live in locals and are flushed in ``finally`` —
    # additive, so nested operation calls (e.g. the OR inside an ∃
    # combine) compose correctly even when a resource budget aborts the
    # loop midway.

    def _not(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        tab = self._not_tab
        tab.maybe_grow()
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        i = (f * _H1) & cmask
        if cgens[i] == cgen and ckeys[i] == f:
            tab.hits += 1
            return cvals[i]
        var_ = self._var
        low_ = self._low
        high_ = self._high
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        hits = 0
        misses = 1
        evictions = created = 0
        rs: list[int] = []
        stack: list[tuple] = []
        pop = stack.pop
        push = stack.append
        rpush = rs.append
        rpop = rs.pop
        try:
            while True:
                # -- expand the current miss (f, i) ----------------
                var = var_[f]
                a = low_[f]
                c = high_[f]
                # low cofactor: terminal rules, then the cache
                if a == FALSE:
                    r0 = TRUE
                elif a == TRUE:
                    r0 = FALSE
                else:
                    i0 = (a * _H1) & cmask
                    if cgens[i0] == cgen and ckeys[i0] == a:
                        hits += 1
                        r0 = cvals[i0]
                    else:
                        misses += 1
                        r0 = -1
                # high cofactor: terminal rules only (probe deferred)
                if c == FALSE:
                    r1 = TRUE
                elif c == TRUE:
                    r1 = FALSE
                else:
                    r1 = -1
                if r0 < 0:
                    if r1 < 0:
                        push((1, var, f, i, 0))
                        push((2, c, 0, 0, 0))
                    else:
                        push((3, var, f, i, r1))
                    f = a
                    i = i0
                    continue
                if r1 < 0:
                    # low resolved; probe the high child now — the same
                    # sequence point as the recursive kernel.
                    i1 = (c * _H1) & cmask
                    if cgens[i1] == cgen and ckeys[i1] == c:
                        hits += 1
                        r1 = cvals[i1]
                    else:
                        misses += 1
                        rpush(r0)
                        push((1, var, f, i, 0))
                        f = c
                        i = i1
                        continue
                low = r0
                high = r1
                k = f
                # -- make + store + propagate ----------------------
                while True:
                    if low == high:
                        r = low
                    else:
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                    if not stack:
                        return r
                    t, ta, tb, tc, td = pop()
                    if t == 2:
                        # ``r`` is the finished low result; the high
                        # child gets its (deferred) probe now.
                        c = ta
                        i1 = (c * _H1) & cmask
                        if cgens[i1] == cgen and ckeys[i1] == c:
                            # hit: the matching combine frame is
                            # directly underneath — consume it here,
                            # bypassing ``rs`` entirely.
                            hits += 1
                            low = r
                            high = cvals[i1]
                            t, ta, tb, tc, td = pop()
                            var = ta
                            k = tb
                            i = tc
                            continue
                        misses += 1
                        rpush(r)
                        f = c
                        i = i1
                        break
                    if t == 1:
                        low = rpop()
                        high = r
                    else:
                        low = r
                        high = td
                    var = ta
                    k = tb
                    i = tc
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + created
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live

    def _and(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f == FALSE:
            return FALSE
        if f == TRUE:
            return g
        tab = self._and_tab
        tab.maybe_grow()
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        k = (f << 32) | g
        i = ((f * _H1) ^ g) & cmask
        if cgens[i] == cgen and ckeys[i] == k:
            tab.hits += 1
            return cvals[i]
        var_ = self._var
        low_ = self._low
        high_ = self._high
        v2l = self._var2level
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        hits = 0
        misses = 1
        evictions = created = 0
        rs: list[int] = []
        stack: list[tuple] = []
        pop = stack.pop
        push = stack.append
        rpush = rs.append
        rpop = rs.pop
        try:
            while True:
                # -- expand the current miss (f, g, k, i) ----------
                vf = var_[f]
                vg = var_[g]
                lf = v2l[vf]
                lg = v2l[vg]
                if lf <= lg:
                    var = vf
                    f0 = low_[f]
                    f1 = high_[f]
                else:
                    var = vg
                    f0 = f1 = f
                if lg <= lf:
                    g0 = low_[g]
                    g1 = high_[g]
                else:
                    g0 = g1 = g
                # low cofactor: terminal rules, then the cache
                a = f0
                b = g0
                if a == b:
                    r0 = a
                else:
                    if a > b:
                        a, b = b, a
                    if a == FALSE:
                        r0 = FALSE
                    elif a == TRUE:
                        r0 = b
                    else:
                        k0 = (a << 32) | b
                        i0 = ((a * _H1) ^ b) & cmask
                        if cgens[i0] == cgen and ckeys[i0] == k0:
                            hits += 1
                            r0 = cvals[i0]
                        else:
                            misses += 1
                            r0 = -1
                # high cofactor: terminal rules only (probe deferred)
                c = f1
                d = g1
                if c == d:
                    r1 = c
                else:
                    if c > d:
                        c, d = d, c
                    if c == FALSE:
                        r1 = FALSE
                    elif c == TRUE:
                        r1 = d
                    else:
                        r1 = -1
                if r0 < 0:
                    if r1 < 0:
                        push((1, var, k, i, 0))
                        push((2, c, d, 0, 0))
                    else:
                        push((3, var, k, i, r1))
                    f = a
                    g = b
                    k = k0
                    i = i0
                    continue
                if r1 < 0:
                    # low resolved; probe the high child now — the same
                    # sequence point as the recursive kernel.
                    k1 = (c << 32) | d
                    i1 = ((c * _H1) ^ d) & cmask
                    if cgens[i1] == cgen and ckeys[i1] == k1:
                        hits += 1
                        r1 = cvals[i1]
                    else:
                        misses += 1
                        rpush(r0)
                        push((1, var, k, i, 0))
                        f = c
                        g = d
                        k = k1
                        i = i1
                        continue
                low = r0
                high = r1
                # -- make + store + propagate ----------------------
                while True:
                    if low == high:
                        r = low
                    else:
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                    if not stack:
                        return r
                    t, ta, tb, tc, td = pop()
                    if t == 2:
                        # ``r`` is the finished low result; the high
                        # child gets its (deferred) probe now.
                        c = ta
                        d = tb
                        k1 = (c << 32) | d
                        i1 = ((c * _H1) ^ d) & cmask
                        if cgens[i1] == cgen and ckeys[i1] == k1:
                            # hit: the matching combine frame is
                            # directly underneath — consume it here,
                            # bypassing ``rs`` entirely.
                            hits += 1
                            low = r
                            high = cvals[i1]
                            t, ta, tb, tc, td = pop()
                            var = ta
                            k = tb
                            i = tc
                            continue
                        misses += 1
                        rpush(r)
                        f = c
                        g = d
                        k = k1
                        i = i1
                        break
                    if t == 1:
                        low = rpop()
                        high = r
                    else:
                        low = r
                        high = td
                    var = ta
                    k = tb
                    i = tc
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + created
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live

    def _or(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f == FALSE:
            return g
        if f == TRUE:
            return TRUE
        tab = self._or_tab
        tab.maybe_grow()
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        k = (f << 32) | g
        i = ((f * _H1) ^ g) & cmask
        if cgens[i] == cgen and ckeys[i] == k:
            tab.hits += 1
            return cvals[i]
        var_ = self._var
        low_ = self._low
        high_ = self._high
        v2l = self._var2level
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        hits = 0
        misses = 1
        evictions = created = 0
        rs: list[int] = []
        stack: list[tuple] = []
        pop = stack.pop
        push = stack.append
        rpush = rs.append
        rpop = rs.pop
        try:
            while True:
                # -- expand the current miss (f, g, k, i) ----------
                vf = var_[f]
                vg = var_[g]
                lf = v2l[vf]
                lg = v2l[vg]
                if lf <= lg:
                    var = vf
                    f0 = low_[f]
                    f1 = high_[f]
                else:
                    var = vg
                    f0 = f1 = f
                if lg <= lf:
                    g0 = low_[g]
                    g1 = high_[g]
                else:
                    g0 = g1 = g
                # low cofactor: terminal rules, then the cache
                a = f0
                b = g0
                if a == b:
                    r0 = a
                else:
                    if a > b:
                        a, b = b, a
                    if a == FALSE:
                        r0 = b
                    elif a == TRUE:
                        r0 = TRUE
                    else:
                        k0 = (a << 32) | b
                        i0 = ((a * _H1) ^ b) & cmask
                        if cgens[i0] == cgen and ckeys[i0] == k0:
                            hits += 1
                            r0 = cvals[i0]
                        else:
                            misses += 1
                            r0 = -1
                # high cofactor: terminal rules only (probe deferred)
                c = f1
                d = g1
                if c == d:
                    r1 = c
                else:
                    if c > d:
                        c, d = d, c
                    if c == FALSE:
                        r1 = d
                    elif c == TRUE:
                        r1 = TRUE
                    else:
                        r1 = -1
                if r0 < 0:
                    if r1 < 0:
                        push((1, var, k, i, 0))
                        push((2, c, d, 0, 0))
                    else:
                        push((3, var, k, i, r1))
                    f = a
                    g = b
                    k = k0
                    i = i0
                    continue
                if r1 < 0:
                    # low resolved; probe the high child now — the same
                    # sequence point as the recursive kernel.
                    k1 = (c << 32) | d
                    i1 = ((c * _H1) ^ d) & cmask
                    if cgens[i1] == cgen and ckeys[i1] == k1:
                        hits += 1
                        r1 = cvals[i1]
                    else:
                        misses += 1
                        rpush(r0)
                        push((1, var, k, i, 0))
                        f = c
                        g = d
                        k = k1
                        i = i1
                        continue
                low = r0
                high = r1
                # -- make + store + propagate ----------------------
                while True:
                    if low == high:
                        r = low
                    else:
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                    if not stack:
                        return r
                    t, ta, tb, tc, td = pop()
                    if t == 2:
                        # ``r`` is the finished low result; the high
                        # child gets its (deferred) probe now.
                        c = ta
                        d = tb
                        k1 = (c << 32) | d
                        i1 = ((c * _H1) ^ d) & cmask
                        if cgens[i1] == cgen and ckeys[i1] == k1:
                            # hit: consume the combine frame directly
                            # underneath, bypassing ``rs`` entirely.
                            hits += 1
                            low = r
                            high = cvals[i1]
                            t, ta, tb, tc, td = pop()
                            var = ta
                            k = tb
                            i = tc
                            continue
                        misses += 1
                        rpush(r)
                        f = c
                        g = d
                        k = k1
                        i = i1
                        break
                    if t == 1:
                        low = rpop()
                        high = r
                    else:
                        low = r
                        high = td
                    var = ta
                    k = tb
                    i = tc
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + created
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return FALSE
        if f > g:
            f, g = g, f
        if f == FALSE:
            return g
        if f == TRUE:
            return self._not(g)
        tab = self._xor_tab
        tab.maybe_grow()
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        k = (f << 32) | g
        i = ((f * _H1) ^ g) & cmask
        if cgens[i] == cgen and ckeys[i] == k:
            tab.hits += 1
            return cvals[i]
        var_ = self._var
        low_ = self._low
        high_ = self._high
        v2l = self._var2level
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        hits = 0
        misses = 1
        evictions = created = 0
        rs: list[int] = []
        stack: list[tuple] = []
        pop = stack.pop
        push = stack.append
        rpush = rs.append
        rpop = rs.pop
        try:
            while True:
                # -- expand the current miss (f, g, k, i) ----------
                vf = var_[f]
                vg = var_[g]
                lf = v2l[vf]
                lg = v2l[vg]
                if lf <= lg:
                    var = vf
                    f0 = low_[f]
                    f1 = high_[f]
                else:
                    var = vg
                    f0 = f1 = f
                if lg <= lf:
                    g0 = low_[g]
                    g1 = high_[g]
                else:
                    g0 = g1 = g
                # low cofactor: terminal rules, then the cache.  A TRUE
                # operand means NOT of the other — the recursive kernel
                # calls it at this very point, so inlining is exact.
                a = f0
                b = g0
                if a == b:
                    r0 = FALSE
                else:
                    if a > b:
                        a, b = b, a
                    if a == FALSE:
                        r0 = b
                    elif a == TRUE:
                        r0 = self._not(b)
                    else:
                        k0 = (a << 32) | b
                        i0 = ((a * _H1) ^ b) & cmask
                        if cgens[i0] == cgen and ckeys[i0] == k0:
                            hits += 1
                            r0 = cvals[i0]
                        else:
                            misses += 1
                            r0 = -1
                # high cofactor: terminal rules only; its NOT call (and
                # probe) must wait until the low subtree is done, or
                # node-creation order would diverge from the recursive
                # kernel (-2 marks the deferred NOT).
                c = f1
                d = g1
                if c == d:
                    r1 = FALSE
                else:
                    if c > d:
                        c, d = d, c
                    if c == FALSE:
                        r1 = d
                    elif c == TRUE:
                        r1 = -2
                    else:
                        r1 = -1
                if r0 < 0:
                    if r1 == -1:
                        push((1, var, k, i, 0))
                        push((2, c, d, 0, 0))
                    elif r1 == -2:
                        push((1, var, k, i, 0))
                        push((4, 0, 0, 0, d))
                    else:
                        push((3, var, k, i, r1))
                    f = a
                    g = b
                    k = k0
                    i = i0
                    continue
                if r1 == -2:
                    r1 = self._not(d)
                elif r1 == -1:
                    # low resolved; probe the high child now — the same
                    # sequence point as the recursive kernel.
                    k1 = (c << 32) | d
                    i1 = ((c * _H1) ^ d) & cmask
                    if cgens[i1] == cgen and ckeys[i1] == k1:
                        hits += 1
                        r1 = cvals[i1]
                    else:
                        misses += 1
                        rpush(r0)
                        push((1, var, k, i, 0))
                        f = c
                        g = d
                        k = k1
                        i = i1
                        continue
                low = r0
                high = r1
                # -- make + store + propagate ----------------------
                while True:
                    if low == high:
                        r = low
                    else:
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                    if not stack:
                        return r
                    t, ta, tb, tc, td = pop()
                    while t == 4:
                        # the deferred NOT of the high cofactor — ``r``
                        # (the low result) parks on ``rs`` meanwhile.
                        rpush(r)
                        r = self._not(td)
                        t, ta, tb, tc, td = pop()
                    if t == 2:
                        # ``r`` is the finished low result; the high
                        # child gets its (deferred) probe now.
                        c = ta
                        d = tb
                        k1 = (c << 32) | d
                        i1 = ((c * _H1) ^ d) & cmask
                        if cgens[i1] == cgen and ckeys[i1] == k1:
                            # hit: consume the combine frame directly
                            # underneath, bypassing ``rs`` entirely.
                            hits += 1
                            low = r
                            high = cvals[i1]
                            t, ta, tb, tc, td = pop()
                            var = ta
                            k = tb
                            i = tc
                            continue
                        misses += 1
                        rpush(r)
                        f = c
                        g = d
                        k = k1
                        i = i1
                        break
                    if t == 1:
                        low = rpop()
                        high = r
                    else:
                        low = r
                        high = td
                    var = ta
                    k = tb
                    i = tc
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + created
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live

    # ------------------------------------------------------------------
    # iterative quantification
    # ------------------------------------------------------------------
    # Three-phase frames preserve the recursive kernel's short-circuits
    # exactly: the low branch is fully evaluated first, and at an
    # ∃-quantified (resp. ∀-quantified) level a TRUE (resp. FALSE) low
    # result answers the sub-problem without ever expanding the high
    # branch — which keeps node creation, and therefore resource-budget
    # behavior, identical across backends.

    def _exists(self, f: int, levels: tuple[int, ...]) -> int:
        if f <= TRUE or not levels:
            return f
        tab = self._exists_tab
        tab.maybe_grow()
        lid = self._levels_id(levels)
        max_level = levels[-1]
        level_set = set(levels)
        var_ = self._var
        low_ = self._low
        high_ = self._high
        v2l = self._var2level
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        hits = misses = evictions = created = dlive = 0
        rs: list[int] = []
        # frames: (_EXPAND, f) | (1, f, k, i) quantified after-low |
        # (2, f, k, i) unquantified after-low | (3, k, i) quantified
        # combine | (4, var, k, i) unquantified combine
        stack: list[tuple] = [(_EXPAND, f)]
        pop = stack.pop
        push = stack.append
        rpush = rs.append
        try:
            while stack:
                frame = pop()
                ph = frame[0]
                if ph == _EXPAND:
                    f = frame[1]
                    if f <= TRUE:
                        rpush(f)
                        continue
                    flevel = v2l[var_[f]]
                    if flevel > max_level:
                        rpush(f)
                        continue
                    i = ((f * _H1) ^ lid) & cmask
                    k = (f << 32) | lid
                    if cgens[i] == cgen and ckeys[i] == k:
                        hits += 1
                        rpush(cvals[i])
                        continue
                    misses += 1
                    if flevel in level_set:
                        push((1, f, k, i))
                    else:
                        push((2, f, k, i))
                    push((_EXPAND, low_[f]))
                elif ph == 1:
                    # ∃-quantified level, low known: TRUE short-circuits
                    low = rs[-1]
                    k = frame[2]
                    i = frame[3]
                    if low == TRUE:
                        if cgens[i] == cgen:
                            if ckeys[i] != k:
                                evictions += 1
                        else:
                            cgens[i] = cgen
                            tab.count += 1
                        ckeys[i] = k
                        cvals[i] = TRUE
                        continue
                    push((3, k, i))
                    push((_EXPAND, high_[frame[1]]))
                elif ph == 2:
                    push((4, var_[frame[1]], frame[2], frame[3]))
                    push((_EXPAND, high_[frame[1]]))
                elif ph == 3:
                    high = rs.pop()
                    low = rs[-1]
                    r = self._or(low, high)
                    rs[-1] = r
                    k = frame[1]
                    i = frame[2]
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                else:
                    high = rs.pop()
                    low = rs[-1]
                    if low == high:
                        r = low
                    else:
                        var = frame[1]
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                dlive += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    rs[-1] = r
                    k = frame[2]
                    i = frame[3]
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + dlive
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live
        return rs[0]

    def _and_exists(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        tab = self._andex_tab
        tab.maybe_grow()
        lid = self._levels_id(levels)
        max_level = levels[-1]
        level_set = set(levels)
        var_ = self._var
        low_ = self._low
        high_ = self._high
        v2l = self._var2level
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        hits = misses = evictions = created = dlive = 0
        rs: list[int] = []
        # frames: (_EXPAND, f, g) | (1, f1, g1, k, i) quantified
        # after-low | (2, var, f1, g1, k, i) unquantified after-low |
        # (3, k, i) quantified combine | (4, var, k, i) combine
        stack: list[tuple] = [(_EXPAND, f, g)]
        pop = stack.pop
        push = stack.append
        rpush = rs.append
        try:
            while stack:
                frame = pop()
                ph = frame[0]
                if ph == _EXPAND:
                    f = frame[1]
                    g = frame[2]
                    if f == FALSE or g == FALSE:
                        rpush(FALSE)
                        continue
                    if f == TRUE:
                        rpush(self._exists(g, levels))
                        continue
                    if g == TRUE or f == g:
                        rpush(self._exists(f, levels))
                        continue
                    if f > g:
                        f, g = g, f
                    lf = v2l[var_[f]]
                    lg = v2l[var_[g]]
                    top = lf if lf <= lg else lg
                    if top > max_level:
                        rpush(self._and(f, g))
                        continue
                    i = ((f * _H1) ^ (g * _H2) ^ lid) & cmask
                    k = (((f << 32) | g) << 32) | lid
                    if cgens[i] == cgen and ckeys[i] == k:
                        hits += 1
                        rpush(cvals[i])
                        continue
                    misses += 1
                    if lf <= lg:
                        var = var_[f]
                        f0 = low_[f]
                        f1 = high_[f]
                    else:
                        var = var_[g]
                        f0 = f1 = f
                    if lg <= lf:
                        g0 = low_[g]
                        g1 = high_[g]
                    else:
                        g0 = g1 = g
                    if top in level_set:
                        push((1, f1, g1, k, i))
                    else:
                        push((2, var, f1, g1, k, i))
                    push((_EXPAND, f0, g0))
                elif ph == 1:
                    low = rs[-1]
                    k = frame[3]
                    i = frame[4]
                    if low == TRUE:
                        if cgens[i] == cgen:
                            if ckeys[i] != k:
                                evictions += 1
                        else:
                            cgens[i] = cgen
                            tab.count += 1
                        ckeys[i] = k
                        cvals[i] = TRUE
                        continue
                    push((3, k, i))
                    push((_EXPAND, frame[1], frame[2]))
                elif ph == 2:
                    push((4, frame[1], frame[4], frame[5]))
                    push((_EXPAND, frame[2], frame[3]))
                elif ph == 3:
                    high = rs.pop()
                    low = rs[-1]
                    r = self._or(low, high)
                    rs[-1] = r
                    k = frame[1]
                    i = frame[2]
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                else:
                    high = rs.pop()
                    low = rs[-1]
                    if low == high:
                        r = low
                    else:
                        var = frame[1]
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                dlive += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    rs[-1] = r
                    k = frame[2]
                    i = frame[3]
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + dlive
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live
        return rs[0]

    def _and_forall(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        tab = self._andall_tab
        tab.maybe_grow()
        lid = self._levels_id(levels)
        max_level = levels[-1]
        level_set = set(levels)
        var_ = self._var
        low_ = self._low
        high_ = self._high
        v2l = self._var2level
        unique = self._unique
        max_nodes = self.max_nodes
        node_cap = self._node_cap
        if node_cap is None:
            node_cap = 1 << 62
        ckeys = tab.keys
        cvals = tab.vals
        cgens = tab.gens
        cgen = tab.gen
        cmask = tab.mask
        hits = misses = evictions = created = dlive = 0
        rs: list[int] = []
        stack: list[tuple] = [(_EXPAND, f, g)]
        pop = stack.pop
        push = stack.append
        rpush = rs.append

        def forall_one(x: int) -> int:
            return self._not(self._exists(self._not(x), levels))

        try:
            while stack:
                frame = pop()
                ph = frame[0]
                if ph == _EXPAND:
                    f = frame[1]
                    g = frame[2]
                    if f == FALSE or g == FALSE:
                        rpush(FALSE)
                        continue
                    if f == TRUE:
                        rpush(forall_one(g))
                        continue
                    if g == TRUE or f == g:
                        rpush(forall_one(f))
                        continue
                    if f > g:
                        f, g = g, f
                    lf = v2l[var_[f]]
                    lg = v2l[var_[g]]
                    top = lf if lf <= lg else lg
                    if top > max_level:
                        rpush(self._and(f, g))
                        continue
                    i = ((f * _H1) ^ (g * _H2) ^ lid) & cmask
                    k = (((f << 32) | g) << 32) | lid
                    if cgens[i] == cgen and ckeys[i] == k:
                        hits += 1
                        rpush(cvals[i])
                        continue
                    misses += 1
                    if lf <= lg:
                        var = var_[f]
                        f0 = low_[f]
                        f1 = high_[f]
                    else:
                        var = var_[g]
                        f0 = f1 = f
                    if lg <= lf:
                        g0 = low_[g]
                        g1 = high_[g]
                    else:
                        g0 = g1 = g
                    if top in level_set:
                        push((1, f1, g1, k, i))
                    else:
                        push((2, var, f1, g1, k, i))
                    push((_EXPAND, f0, g0))
                elif ph == 1:
                    # ∀-quantified level, low known: FALSE short-circuits
                    low = rs[-1]
                    k = frame[3]
                    i = frame[4]
                    if low == FALSE:
                        if cgens[i] == cgen:
                            if ckeys[i] != k:
                                evictions += 1
                        else:
                            cgens[i] = cgen
                            tab.count += 1
                        ckeys[i] = k
                        cvals[i] = FALSE
                        continue
                    push((3, k, i))
                    push((_EXPAND, frame[1], frame[2]))
                elif ph == 2:
                    push((4, frame[1], frame[4], frame[5]))
                    push((_EXPAND, frame[2], frame[3]))
                elif ph == 3:
                    high = rs.pop()
                    low = rs[-1]
                    r = self._and(low, high)
                    rs[-1] = r
                    k = frame[1]
                    i = frame[2]
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
                else:
                    high = rs.pop()
                    low = rs[-1]
                    if low == high:
                        r = low
                    else:
                        var = frame[1]
                        ut = unique[var]
                        ukeys = ut.keys
                        uvals = ut.vals
                        umask = ut.mask
                        ukey = (low << 32) | high
                        j = ((low * _H1) ^ high) & umask
                        while True:
                            slot = ukeys[j]
                            if slot == ukey:
                                r = uvals[j]
                                break
                            if slot == 0:
                                if len(var_) > node_cap:
                                    raise ResourceLimitError(
                                        f"BDD node budget exceeded ({max_nodes} nodes)"
                                    )
                                r = len(var_)
                                var_.append(var)
                                low_.append(low)
                                high_.append(high)
                                ukeys[j] = ukey
                                uvals[j] = r
                                size = ut.size + 1
                                ut.size = size
                                created += 1
                                dlive += 1
                                if size * 3 >= (umask + 1) * 2:
                                    ut.grow()
                                break
                            j = (j + 1) & umask
                    rs[-1] = r
                    k = frame[2]
                    i = frame[3]
                    if cgens[i] == cgen:
                        if ckeys[i] != k:
                            evictions += 1
                    else:
                        cgens[i] = cgen
                        tab.count += 1
                    ckeys[i] = k
                    cvals[i] = r
        finally:
            tab.hits += hits
            tab.misses += misses
            tab.evictions += evictions
            self._nodes_created += created
            live = self._nodes_live + dlive
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live
        return rs[0]

    # ------------------------------------------------------------------
    # garbage collection: tombstone sweep + mark-and-compact
    # ------------------------------------------------------------------
    @traced_gc
    def garbage_collect(self) -> int:
        """Sweep dead nodes; compact the arrays once dead rows dominate.

        Every collection marks from the externally referenced roots and
        *tombstones* dead unique-table entries in place — O(dead) per
        table plus a slot scan, node ids untouched, dead rows zeroed
        but left in the arrays (mirroring the object kernel's freed
        rows).  Only when the accumulated dead rows outnumber the live
        ones does the mark-and-compact pass run: build an old→new id
        remap (terminals stay put), rewrite the arrays densely, rebuild
        the unique tables sized to their survivors, and remap every
        external id — the refcount table and the ids inside all live
        :class:`BddNode` handles.  This keeps the per-collection cost
        proportional to garbage (like the object kernel's dict sweeps)
        while bounding array memory at twice the live size.  All
        operation caches are dropped (generation bump).  Returns the
        number of nodes reclaimed this call.
        """
        var_ = self._var
        low_ = self._low
        high_ = self._high
        n = len(var_)
        marked = bytearray(n)
        marked[FALSE] = 1
        marked[TRUE] = 1
        marked_np = _np.frombuffer(marked, dtype=_np.uint8)
        low_np = high_np = None
        roots = [f for f, c in self._extref.items() if c > 0]
        if n < 4096:
            # small store: a plain DFS beats the numpy conversion cost
            stack = roots
            while stack:
                f = stack.pop()
                if marked[f]:
                    continue
                marked[f] = 1
                if var_[f] != _TERMINAL_VAR:
                    stack.append(low_[f])
                    stack.append(high_[f])
        elif roots:
            # vectorized breadth-first mark: gather both children of
            # the whole frontier at once; terminals and dead rows have
            # zeroed children, which are marked from the start, so the
            # filter needs no special cases.  Total gather work is
            # bounded by the edge count.
            low_np = _np.array(low_, dtype=_np.int64)
            high_np = _np.array(high_, dtype=_np.int64)
            frontier = _np.unique(_np.array(roots, dtype=_np.int64))
            frontier = frontier[marked_np[frontier] == 0]
            marked_np[frontier] = 1
            while frontier.size:
                children = _np.concatenate(
                    (low_np[frontier], high_np[frontier])
                )
                children = _np.unique(children)
                children = children[marked_np[children] == 0]
                marked_np[children] = 1
                frontier = children
        # -- tombstone sweep: drop dead entries table by table ---------
        # The dead-slot scan is vectorized: stale ``vals`` under empty
        # or tombstoned slots are masked out by ``keys > 0`` (and are
        # always valid indices — ids only grow between compactions, and
        # compaction rebuilds every table fresh).
        reclaimed = 0
        for ut in self._unique:
            if not ut.size:
                continue
            keys = ut.keys
            vals = ut.vals
            if ut.mask < 2048:
                dead = 0
                for j, packed in enumerate(keys):
                    if packed > 0:
                        nid = vals[j]
                        if not marked[nid]:
                            keys[j] = -1
                            var_[nid] = _TERMINAL_VAR
                            low_[nid] = FALSE
                            high_[nid] = FALSE
                            dead += 1
            else:
                kn = _np.array(keys, dtype=_np.int64)
                vn = _np.array(vals, dtype=_np.int64)
                dead_slots = _np.nonzero((kn > 0) & (marked_np[vn] == 0))[0]
                dead = int(dead_slots.size)
                for j in dead_slots.tolist():
                    nid = vals[j]
                    keys[j] = -1
                    var_[nid] = _TERMINAL_VAR
                    low_[nid] = FALSE
                    high_[nid] = FALSE
            if dead:
                ut.size -= dead
                ut.tombs += dead
                reclaimed += dead
                if ut.tombs * 4 > ut.mask + 1:
                    ut.rebuild()
        dead_rows = self._dead_rows + reclaimed
        if dead_rows * 2 >= n:
            # -- mark-and-compact: rewrite the arrays densely ----------
            # Snapshot the live handles *before* mutating anything:
            # holding strong references pins them so no handle can be
            # collected (and drop a refcount against a stale id)
            # halfway through the remap.
            handles = [h for h in (r() for r in self._handles) if h is not None]
            self._handles = [weakref.ref(h) for h in handles]
            self._handles_purge_at = max(1024, 2 * len(handles))
            # The remap and the dense rewrite are pure gathers, so both
            # run vectorized; only hash-slot placement (collision
            # probing) stays in the interpreter, one step per survivor.
            remap_np = _np.cumsum(marked_np, dtype=_np.int64) - 1
            live_idx = _np.nonzero(marked_np)[0]
            new_id = int(live_idx.size)
            # the mark-phase conversions (when present) predate the
            # sweep, but the sweep only zeroes *dead* rows and only
            # live rows are gathered here
            if low_np is None:
                low_np = _np.array(low_, dtype=_np.int64)
                high_np = _np.array(high_, dtype=_np.int64)
            var_np = _np.array(var_, dtype=_np.int64)[live_idx]
            low_np = remap_np[low_np[live_idx]]
            high_np = remap_np[high_np[live_idx]]
            self._var = var_np.tolist()
            self._low = low_np.tolist()
            self._high = high_np.tolist()
            unique = self._unique
            nvars = len(unique)
            counts = _np.bincount(var_np[2:], minlength=nvars)
            hash_np = (
                low_np.astype(_np.uint64) * _np.uint64(_H1)
            ) ^ high_np.astype(_np.uint64)
            packed_np = (low_np << 32) | high_np
            order = _np.argsort(var_np[2:], kind="stable") + 2
            start = 0
            for var, ut in enumerate(unique):
                count = int(counts[var])
                ut.reset(count)
                if not count:
                    continue
                grp = order[start : start + count]
                start += count
                mask = ut.mask
                keys = ut.keys
                vals = ut.vals
                homes = (hash_np[grp] & _np.uint64(mask)).tolist()
                for p, j, nid in zip(
                    packed_np[grp].tolist(), homes, grp.tolist()
                ):
                    while keys[j]:
                        j = (j + 1) & mask
                    keys[j] = p
                    vals[j] = nid
                ut.size = count
            self._extref = {
                int(remap_np[f]): c for f, c in self._extref.items() if c > 0
            }
            for handle in handles:
                handle.id = int(remap_np[handle.id])
            dead_rows = 0
        self._dead_rows = dead_rows
        if self.max_nodes is not None:
            self._node_cap = self.max_nodes + dead_rows
        self._nodes_live -= reclaimed
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        self._invalidate_caches()
        return reclaimed

    # ------------------------------------------------------------------
    # reordering plumbing
    # ------------------------------------------------------------------
    def swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Same contract as the object kernel: node ids are preserved, only
        upper-level nodes that reference the lower variable are
        rewritten, and all operation caches are invalidated.
        """
        if not 0 <= level < len(self._level2var) - 1:
            raise BddError(f"cannot swap level {level}")
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        var_ = self._var
        low_ = self._low
        high_ = self._high
        upper_table = self._unique[upper]
        lower_table = self._unique[lower]

        residents = upper_table.node_ids()
        interacting = [
            nid
            for nid in residents
            if var_[low_[nid]] == lower or var_[high_[nid]] == lower
        ]
        if interacting:
            upper_table.reset(len(residents) - len(interacting))
            skip = set(interacting)
            for nid in residents:
                if nid not in skip:
                    upper_table.insert(low_[nid], high_[nid], nid)
        self._nodes_live -= len(interacting)

        # Commit the level exchange before creating new upper-var nodes
        # so that _mk built levels are consistent.
        self._level2var[level], self._level2var[level + 1] = lower, upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level

        for nid in interacting:
            f0, f1 = low_[nid], high_[nid]
            if var_[f0] == lower:
                f00, f01 = low_[f0], high_[f0]
            else:
                f00 = f01 = f0
            if var_[f1] == lower:
                f10, f11 = low_[f1], high_[f1]
            else:
                f10 = f11 = f1
            new_low = self._mk(upper, f00, f10)
            new_high = self._mk(upper, f01, f11)
            var_[nid] = lower
            low_[nid] = new_low
            high_[nid] = new_high
            existing = lower_table.lookup(new_low, new_high)
            if existing is not None and existing != nid:
                raise BddError(
                    "unique-table collision during swap; manager corrupted"
                )
            if existing is None:
                lower_table.insert(new_low, new_high, nid)
            self._nodes_live += 1
            if self._nodes_live > self._peak_live:
                self._peak_live = self._nodes_live

        self._level_swaps += 1
        self._invalidate_caches()

    def level_sizes(self) -> list[int]:
        """Unique-table size per level (after GC this is the live profile)."""
        return [
            self._unique[self._level2var[lv]].size
            for lv in range(len(self._level2var))
        ]

    # ------------------------------------------------------------------
    # vectorized export
    # ------------------------------------------------------------------
    def to_arrays(self):
        """The node store as numpy ``int32`` arrays ``(var, low, high)``.

        A snapshot, not a view — the hot path stays on CPython lists
        (faster for the scalar random access the apply loops do), and
        this export is the bridge for numpy-vectorized whole-level
        passes over the DAG.
        """
        import numpy as np

        return (
            np.array(self._var, dtype=np.int32),
            np.array(self._low, dtype=np.int32),
            np.array(self._high, dtype=np.int32),
        )


__all__ = ["ArrayBddManager"]
