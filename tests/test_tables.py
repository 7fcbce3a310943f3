"""Checkpoint tables: the table writes of persist and restore against an
O(live) reference.

The reference flush is the original algorithm: compare every live entry with
a table word by word, then clear every other occupied slot. At a persist the
table being committed must already match it (it holds no dead entry) and
the clears after the commit word must equal it for the table that stops
being committed; the restore flush must issue exactly its writes. After
every persist, dealloc burst and restore, both tables, their volatile mirrors,
the pending clears and the free slots must agree with a fresh recomputation
from the live objects.
"""

import random
import struct

import pytest

from traceutil import log_writes
from vnvheap import PowerFailureInjected, SimulatedNvm, VnvHeap, persist, restore
from vnvheap.layout import ENTRY_BYTES, ENTRY_WORDS
from vnvheap.oracle import TraceMachine, check_indexes, dead_entries
from vnvheap.storage import WORD_BYTES

ZERO_WORD = bytes(WORD_BYTES)
_ENTRY = struct.Struct(f"<{ENTRY_WORDS}I")


def truth_of(heap):
    """Slot -> entry bytes of every live object, recomputed from its metadata."""
    return {
        m.entry_slot: _ENTRY.pack(m.handle_id, m.nvm_offset, m.size_bytes)
        for m in heap._metas.values()
    }


def reference_flush(staging, truth):
    """Table-relative writes of the O(live) flush of ``truth`` into ``staging``."""
    table = bytearray(staging)
    writes = []

    def put(lo, word):
        if table[lo : lo + WORD_BYTES] != word:
            writes.append((lo, word))
            table[lo : lo + WORD_BYTES] = word

    occupied = {s for s in range(len(table) // ENTRY_BYTES)
                if table[s * ENTRY_BYTES : s * ENTRY_BYTES + 4] != ZERO_WORD}
    for slot in sorted(set(truth) | occupied):
        base = slot * ENTRY_BYTES
        if slot not in truth:
            put(base, ZERO_WORD)
            continue
        order = list(range(ENTRY_WORDS))
        if table[base : base + 4] == ZERO_WORD:
            order = order[1:] + order[:1]  # birth: id word last
        for w in order:
            put(base + w * WORD_BYTES, truth[slot][w * WORD_BYTES : (w + 1) * WORD_BYTES])
    return writes


def table_writes(log, heap, table):
    lo = heap.layout.table_offset(table)
    hi = lo + heap.layout.table_bytes
    return [(off - lo, data) for off, data in log if lo <= off < hi]


def device_table(dev, heap, table):
    return dev.reopen().read(heap.layout.table_offset(table), heap.layout.table_bytes)


def check_tables(heap, dev):
    """Mirrors agree with the device; both tables hold every live entry;
    the staging table holds nothing else; the other table holds exactly the
    pending clears besides; and the free-slot heap holds exactly the slots
    free in both tables."""
    tables = heap.tables
    truth = truth_of(heap)
    slots = range(heap.layout.max_objects)
    occupied = []
    for t in (0, 1):
        raw = bytes(tables._mirror[t])
        assert raw == device_table(dev, heap, t), f"table {t} mirror drifted from the device"
        occupied.append({s for s in slots if raw[s * ENTRY_BYTES : s * ENTRY_BYTES + 4] != ZERO_WORD})
        for s, entry in truth.items():
            assert raw[s * ENTRY_BYTES : (s + 1) * ENTRY_BYTES] == entry, f"table {t} slot {s} stale"
    staging = tables.staging
    assert occupied[staging] == set(truth), "the staging table holds a dead entry"
    assert tables._pending == occupied[1 - staging] - set(truth)
    free = [s for s in slots if s not in occupied[0] and s not in occupied[1]]
    assert sorted(tables._free) == free
    assert tables.free_slot() == (free[0] if free else None)


class TableOracleMachine(TraceMachine):
    """Guards held across persists, dealloc bursts, small objects that churn
    table slots, and power cycles taken while guards are held."""

    def __init__(self, seed):
        super().__init__(seed, cache=2048, dirty=1024, max_objects=40)
        self.log = log_writes(self.dev)
        self.persists = 0

    def alloc_size(self):
        return self.rng.choice((1, 3, 8, 12, 24, 40, 100))

    def op_dealloc_burst(self):
        for _ in range(self.rng.randint(3, 12)):
            self.op_dealloc()
        check_tables(self.heap, self.dev)

    def op_persist(self):
        heap = self.heap
        staging = heap.tables.staging
        assert not dead_entries(heap, staging), "the table to commit holds a dead entry"
        committed = bytes(heap.tables._mirror[1 - staging])
        del self.log[:]
        super().op_persist()
        self.persists += 1
        truth = truth_of(heap)
        assert table_writes(self.log, heap, staging) == []
        clears = reference_flush(committed, truth)
        assert table_writes(self.log, heap, 1 - staging) == clears
        assert not heap.tables._pending, "the commit left a clear pending"
        check_tables(heap, self.dev)
        check_indexes(heap)

    def reboot(self):
        dev = super().reboot()
        self.log = log_writes(dev)
        return dev

    def op_power_cycle(self):
        """A power cycle with guards held; the restore flush must issue
        exactly the reference writes into the table it stages."""
        old = self.heap
        self.power_cycle()
        staging = 1 - old.tables.committed
        before = bytes(old.tables._mirror[staging])  # the device table at reboot
        assert table_writes(self.log, self.heap, staging) == reference_flush(before, truth_of(self.heap))
        check_tables(self.heap, self.dev)

    OPS = TraceMachine.OPS + [("op_dealloc_burst", 1), ("op_hold_guard", 3),
                              ("op_persist", 3), ("op_power_cycle", 1)]


def test_delta_flush_matches_the_reference_on_adversarial_traces():
    for seed in range(6):
        m = TableOracleMachine(seed)
        m.run(500)
        assert m.persists >= 40
        m.op_persist()
        m.op_persist()


def test_free_slot_reuses_the_lowest_slot_once_both_tables_drop_it():
    rng = random.Random(7)
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=16)
    live = [heap.alloc(bytes([i])) for i in range(12)]
    persist(heap)
    for h in rng.sample(live, 8):
        heap.dealloc(h)
        live.remove(h)
    persist(heap)
    persist(heap)
    check_tables(heap, dev)
    used = {heap._metas[h.id].entry_slot for h in live}
    assert heap.tables.free_slot() == min(set(range(16)) - used)


def test_every_table_write_stores_a_four_byte_bytearray():
    """Births, dealloc clears, a persist's deferred clears and restore's
    delta flush each pass the device a 4-byte bytearray per table word, the
    buffer it stores without a temporary copy, and leave the tables right."""
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=16)
    lay = heap.layout
    sources = []

    def watch(dev):
        write = dev.write

        def watched(offset, data):
            if lay.table_a_offset <= offset < lay.object_offset:
                sources.append((type(data), len(data)))
            return write(offset, data)

        dev.write = watched

    def step(name, fn):
        del sources[:]
        result = fn()
        assert sources, f"{name} wrote no table word"
        assert set(sources) == {(bytearray, WORD_BYTES)}, name
        return result

    watch(dev)
    a, b, c = step("alloc", lambda: [heap.alloc(bytes([i]) * 24) for i in range(3)])
    check_tables(heap, dev)
    persist(heap)  # the commit word alone
    for name, fn in [("dealloc", lambda: heap.dealloc(b)),
                     ("persist with a deferred clear", lambda: persist(heap)),
                     ("dealloc", lambda: heap.dealloc(c)),
                     ("alloc into a slot with stale words", lambda: heap.alloc(b"d" * 40))]:
        step(name, fn)
        check_tables(heap, dev)
    rebooted = dev.reopen()
    watch(rebooted)
    heap, handles = step("restore's delta flush", lambda: restore(rebooted, 2048, 1024))
    check_tables(heap, rebooted)
    assert c.id in handles  # the dealloc was not committed


def test_a_birth_cut_at_any_word_leaves_its_slot_free():
    """Slot 1 is free in both tables but holds the stale offset and size
    words of S, dead and cleared since the last commit. An alloc into it
    writes six words: offset, size, then the id, into table 0 and then into
    table 1. Table 1 is the committed one, so whatever word the power fails
    at, the committed id word is never reached: restore reads slot 1 as
    free and returns the last commit's objects."""
    for budget in range(6):
        dev = SimulatedNvm(64 * 1024)
        heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=4)
        a = heap.alloc(b"a" * 24)  # slot 0
        s = heap.alloc(b"s" * 24)  # slot 1
        b = heap.alloc(b"b" * 24)  # slot 2, so a larger object lands past S's extent
        stale = (0, heap._metas[s.id].nvm_offset, 24)
        persist(heap)
        heap.dealloc(s)
        persist(heap)
        assert heap.tables.committed == 1 and heap.tables.free_slot() == 1
        assert [_ENTRY.unpack_from(heap.tables._mirror[t], ENTRY_BYTES) for t in (0, 1)] == [stale] * 2
        log = log_writes(dev)
        dev.arm_power_failure(budget)
        with pytest.raises(PowerFailureInjected):
            heap.alloc(b"n" * 40)
        lay = heap.layout
        order = [lay.table_offset(t) + ENTRY_BYTES + w * WORD_BYTES for t in (0, 1) for w in (1, 2, 0)]
        assert [offset for offset, _ in log] == order[: budget + 1]  # the id word last
        rebooted = dev.reopen()
        committed = rebooted.read(lay.table_offset(1) + ENTRY_BYTES, WORD_BYTES)
        assert committed == bytes(WORD_BYTES), f"budget {budget}: slot 1 reads as live"
        heap2, handles = restore(rebooted, 2048, 1024)
        assert sorted(handles) == [a.id, b.id]
        assert heap2.read(handles[a.id]) == b"a" * 24 and heap2.read(handles[b.id]) == b"b" * 24
        assert heap2.tables.free_slot() == 1
        check_tables(heap2, rebooted)
