"""Randomized operation traces checked against a shadow model.

The machine drives a heap with a seeded stream of operations while holding a
plain dict of what every object must contain. After every step it re-derives
the heap's invariants from scratch:

* the dirty total is 4 bytes per word that the next persist writes, plus 3
  words of header room, with that cost derived from the objects and the raw
  tables (:func:`persist_cost`), not from the heap's counter,
* the dirty total never exceeds the configured limit, and the cost never
  exceeds ``persist_bound``; each persist writes exactly that cost,
* modified and pinned objects are resident,
* resident cache blocks never overlap and stay inside the cache,
* object content matches the shadow,
* the heap's modified index, arrival stamps, cache tiers, address maps and
  on-demand resident and pinned totals agree with the per-object state.
"""

import random
import struct
import sys

from vnvheap import (
    CachePressureUnresolvableError,
    DirtyBudgetUnsatisfiableError,
    GuardActiveError,
    HEADER_CHARGE_BYTES,
    META_CHARGE_BYTES,
    OutOfNvmError,
    PreconditionError,
    SimulatedNvm,
    StillPinnedError,
    VnvHeap,
    WriteGuardActiveError,
    persist,
    persist_bound,
    restore,
    words_for,
)
from vnvheap.freelist import align_up
from vnvheap.layout import ENTRY_WORDS
from vnvheap.storage import WORD_BYTES

EXPECTED_PRESSURE_ERRORS = (
    CachePressureUnresolvableError,
    DirtyBudgetUnsatisfiableError,
    OutOfNvmError,
)


def check_indexes(heap):
    """``_modified`` holds exactly the modified residents; arrival stamps
    strictly increase along the residents' (cache-arrival) order; the cache
    tiers partition the residents, each in tier ``hits.bit_length()``; and
    the two address maps name each resident by its block's start and end."""
    metas = heap._metas
    residents = heap._residents
    assert heap._modified.keys() == {h for h, m in residents.items() if m.modified}
    assert all(m is metas[h] for h, m in heap._modified.items())
    stamps = [m.arrival for m in residents.values()]
    assert all(a < b for a, b in zip(stamps, stamps[1:])), "arrival stamps out of order"

    tiered = [(t, h, m) for t, tier in enumerate(heap._tiers) for h, m in tier.items()]
    assert len(tiered) == len(residents), "a resident is in no tier or in two"
    for t, h, m in tiered:
        assert residents.get(h) is m, f"tier {t} holds object {h}, which is not resident"
        assert t == m.hits.bit_length(), f"object {h} with {m.hits} hits is in tier {t}"
    by_offset, by_end = heap._by_offset, heap._by_end
    assert len(by_offset) == len(by_end) == len(residents)
    for m in residents.values():
        assert by_offset.get(m.cache_offset) is m, f"object {m.handle_id}'s start is unmapped"
        assert by_end.get(m.cache_offset + m.block_bytes) is m, f"object {m.handle_id}'s end is unmapped"


def persist_cost(heap):
    """Words the next ``persist(heap)`` writes, as a dry run: the payload
    words of every modified object, the commit word, and one clear for each
    dead entry of the table that is not staging (the commit clears them
    once it has flipped the roles). Derived from ``object_info`` and the
    raw table mirror alone."""
    live = heap.live_handle_ids()
    infos = (heap.object_info(heap.handle(hid)) for hid in live)
    payload = sum(words_for(info.size_bytes) for info in infos if info.modified)
    return payload + 1 + len(dead_entries(heap, 1 - heap.tables.staging))


def dead_entries(heap, table):
    """Slots of ``table`` whose raw id word names no live object."""
    raw = heap.tables._mirror[table]
    ids = struct.unpack(f"<{len(raw) // WORD_BYTES}I", raw)[::ENTRY_WORDS]
    live = set(heap.live_handle_ids())
    return [slot for slot, hid in enumerate(ids) if hid and hid not in live]


def log_writes(dev):
    """Record every public write of ``dev`` as (offset, bytes)."""
    log = []
    write = dev.write

    def logged(offset, data):
        log.append((offset, bytes(data)))
        return write(offset, data)

    dev.write = logged
    return log


def count_bytecodes(fn, *args):
    """Run ``fn(*args)`` and return the number of bytecodes it executed, over
    every Python frame it entered. Unlike a timer, the count is exact and
    repeatable, so a test can assert that a cost does not grow."""
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        frame.f_trace_opcodes = True
        if event == "opcode":
            executed += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return executed


class TraceMachine:
    def __init__(self, seed, cache=1024, dirty=512, max_objects=32,
                 capacity=64 * 1024):
        self.rng = random.Random(seed)
        self.cache = cache
        self.dirty = dirty
        self.dev = SimulatedNvm(capacity)
        self.heap = VnvHeap(self.dev, cache_size_bytes=cache,
                            max_modified_state_bytes=dirty,
                            max_objects=max_objects)
        self.shadow = {}        # handle id -> bytearray
        self.handles = {}       # handle id -> ObjectHandle
        self.guards = []        # (handle id, guard, writable)

    # -- invariants ----------------------------------------------------------

    def check(self):
        heap = self.heap
        assert set(heap.live_handle_ids()) == set(self.shadow)
        infos = {hid: heap.object_info(self.handles[hid]) for hid in self.shadow}

        blocks = []
        for hid, info in infos.items():
            if info.modified:
                assert info.resident, f"object {hid} modified but not resident"
            if info.pinned:
                assert info.resident, f"object {hid} pinned but not resident"
            if info.resident:
                assert 0 <= info.cache_offset
                assert info.cache_offset + info.size_bytes <= self.cache
                blocks.append((info.cache_offset,
                               align_up(info.size_bytes + META_CHARGE_BYTES)))
        cost = persist_cost(heap)
        assert heap.dirty_bytes == WORD_BYTES * (cost + 3) <= self.dirty
        assert cost <= persist_bound(heap.config)

        blocks.sort()
        for (o1, n1), (o2, _) in zip(blocks, blocks[1:]):
            assert o1 + n1 <= o2, "resident cache blocks overlap"

        stats = heap.stats()
        assert stats.resident_count == sum(i.resident for i in infos.values())
        assert stats.pinned_count == sum(i.pinned for i in infos.values())
        assert stats.resident_bytes == sum(i.size_bytes for i in infos.values() if i.resident)
        check_indexes(heap)

    def verify_content(self, hid):
        guard = self.heap.get_ref(self.handles[hid])
        try:
            assert guard.read() == bytes(self.shadow[hid])
        finally:
            guard.release()

    # -- operations ------------------------------------------------------------

    def op_alloc(self):
        size = self.rng.randint(1, self.dirty - HEADER_CHARGE_BYTES)
        payload = bytes(self.rng.randrange(256) for _ in range(size))
        try:
            h = self.heap.alloc(payload)
        except EXPECTED_PRESSURE_ERRORS:
            return
        self.shadow[h.id] = bytearray(payload)
        self.handles[h.id] = h

    def op_dealloc(self):
        hid = self.pick()
        if hid is None:
            return
        try:
            self.heap.dealloc(self.handles[hid])
        except StillPinnedError:
            assert any(g[0] == hid for g in self.guards)
            return
        except DirtyBudgetUnsatisfiableError:
            # No room for the clear of a clean object's entry.
            assert not self.heap.object_info(self.handles[hid]).modified
            return
        del self.shadow[hid], self.handles[hid]

    def op_read(self):
        hid = self.pick()
        if hid is None:
            return
        try:
            self.verify_content(hid)
        except EXPECTED_PRESSURE_ERRORS:
            pass
        except WriteGuardActiveError:
            assert any(g[0] == hid and g[2] for g in self.guards)

    def op_write(self):
        hid = self.pick()
        if hid is None or any(g[0] == hid for g in self.guards):
            return
        size = len(self.shadow[hid])
        at = self.rng.randrange(size)
        data = bytes(self.rng.randrange(256) for _ in range(self.rng.randint(1, size - at)))
        try:
            with self.heap.get_mut(self.handles[hid]) as w:
                w.write(data, at)
        except EXPECTED_PRESSURE_ERRORS:
            return
        self.shadow[hid][at : at + len(data)] = data

    def op_hold_guard(self):
        if len(self.guards) >= 4:
            return
        hid = self.pick()
        if hid is None or any(g[0] == hid for g in self.guards):
            return
        writable = self.rng.random() < 0.4
        try:
            g = (self.heap.get_mut if writable else self.heap.get_ref)(self.handles[hid])
        except EXPECTED_PRESSURE_ERRORS:
            return
        self.guards.append((hid, g, writable))

    def op_release_guard(self):
        if not self.guards:
            return
        hid, g, writable = self.guards.pop(self.rng.randrange(len(self.guards)))
        if writable:
            # make held-guard writes visible to the shadow before releasing
            data = bytes(self.rng.randrange(256) for _ in range(1))
            g.write(data, 0)
            self.shadow[hid][0:1] = data
        g.release()

    def op_sync(self):
        hid = self.pick()
        if hid is None:
            return
        try:
            self.heap.sync_object(self.handles[hid])
        except (PreconditionError, GuardActiveError):
            pass

    def op_unload(self):
        hid = self.pick()
        if hid is None:
            return
        try:
            self.heap.unload(self.handles[hid])
        except (PreconditionError, StillPinnedError):
            pass

    def op_persist(self):
        expected = persist_cost(self.heap)
        assert persist(self.heap).words_transferred == expected

    def pick(self):
        return self.rng.choice(sorted(self.shadow)) if self.shadow else None

    # -- driving -----------------------------------------------------------------

    OPS = [
        ("op_alloc", 5),
        ("op_dealloc", 2),
        ("op_read", 6),
        ("op_write", 5),
        ("op_hold_guard", 2),
        ("op_release_guard", 2),
        ("op_sync", 1),
        ("op_unload", 1),
        ("op_persist", 1),
    ]

    def run(self, steps):
        names = [n for n, w in self.OPS for _ in range(w)]
        for _ in range(steps):
            getattr(self, self.rng.choice(names))()
            self.check()
        for _, g, _ in self.guards:
            g.release()
        self.guards.clear()

    def power_cycle(self):
        """Persist, reboot, restore, and verify every byte survived."""
        persist(self.heap)
        self.dev = self.dev.reopen()
        self.heap, self.handles = restore(
            self.dev, cache_size_bytes=self.cache,
            max_modified_state_bytes=self.dirty)
        assert set(self.handles) == set(self.shadow)
        self.check()
        for hid in self.shadow:
            self.verify_content(hid)
            self.check()
