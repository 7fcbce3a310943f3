"""The checkpoint table: one table of epoch-stamped entries, checked against
the live objects and the last commit.

After every step of an adversarial trace, the device table decoded at the
committed epoch must give exactly the ids and extents of the last commit,
decoded at the next epoch exactly the live objects, and the free-slot heap
must hold exactly the slots live at neither; the free NVM space must be
exactly what neither of those two object sets holds. Then each kind of
table write is cut at every word: a birth, a death, the epoch word and
restore's own writes. Each cut must restore exactly the last commit.
"""

import random
import struct

import pytest

from traceutil import log_writes
from vnvheap import PowerFailureInjected, SimulatedNvm, VnvHeap, persist, restore
from vnvheap.layout import ENTRY_BYTES, EPOCH_OFFSET, SUPERBLOCK_BYTES
from vnvheap.oracle import TraceMachine
from vnvheap.storage import WORD_BYTES, words_for

_ENTRY = struct.Struct("<5I")


def peek(dev, offset, length):
    """Device bytes, read without metering a transfer."""
    return bytes(dev._buf[offset : offset + length])


def decode(dev, layout, epoch):
    """``{handle id: (slot, nvm offset, size)}`` of the device table's
    entries live at ``epoch``: ``0 < born <= epoch`` and ``died`` 0 or later."""
    raw = peek(dev, layout.table_offset, layout.table_bytes)
    entries = {}
    for slot in range(layout.max_objects):
        born, hid, offset, size, died = _ENTRY.unpack_from(raw, slot * ENTRY_BYTES)
        if 0 < born <= epoch and not 0 < died <= epoch:
            assert hid not in entries, f"id {hid} is live twice at epoch {epoch}"
            entries[hid] = (slot, offset, size)
    return entries


def extents_of(heap):
    """``{handle id: (slot, nvm offset, size)}`` of the live objects."""
    return {m.id: (m.entry_slot, m.nvm_offset, m.size_bytes) for m in heap._metas.values()}


def check_table(heap, committed):
    """The table decodes to ``committed`` at the committed epoch and to the
    live objects at the next; the free slots and the free NVM space are
    exactly what neither holds."""
    dev, lay, tables = heap.device, heap.layout, heap.tables
    epoch = tables.epoch
    assert peek(dev, EPOCH_OFFSET, WORD_BYTES) == struct.pack("<I", epoch)
    at_commit = decode(dev, lay, epoch)
    assert at_commit == committed, "the committed epoch decodes to another object set"
    live = decode(dev, lay, epoch + 1)
    assert live == extents_of(heap), "the next epoch decodes to another object set"
    held = {**at_commit, **live}.values()
    used = {slot for slot, _, _ in held}
    free = [slot for slot in range(lay.max_objects) if slot not in used]
    assert sorted(tables._free) == free
    assert tables._free[:1] == free[:1]  # a min-heap: the lowest slot is born next
    gaps, at = [], lay.object_offset
    for _, offset, size in sorted(set(held), key=lambda e: e[1]):
        if offset > at:
            gaps.append((at, offset - at))
        at = offset + words_for(size) * WORD_BYTES
    if at < lay.object_offset + lay.object_bytes:
        gaps.append((at, lay.object_offset + lay.object_bytes - at))
    assert heap.tables.extents.free_extents() == gaps, "an extent is held or free out of turn"


class TableOracleMachine(TraceMachine):
    """Guards held across persists, dealloc bursts, small objects that churn
    table slots, and power cuts, with the table checked after every step."""

    def __init__(self, seed):
        super().__init__(seed, cache=2048, dirty=1024, max_objects=40)
        self.last_commit = {}
        self.persists = 0

    def alloc_size(self):
        return self.rng.choice((1, 3, 8, 12, 24, 40, 100))

    def op_dealloc_burst(self):
        for _ in range(self.rng.randint(3, 12)):
            self.op_dealloc()

    def persist(self):
        words = super().persist()
        self.persists += 1
        self.last_commit = extents_of(self.heap)
        return words

    def check(self):
        super().check()
        check_table(self.heap, self.last_commit)

    OPS = TraceMachine.OPS + [("op_dealloc_burst", 1), ("op_hold_guard", 3),
                              ("op_persist", 3), ("op_power_cut", 2)]


def test_the_table_decodes_to_the_last_commit_and_the_live_objects_on_adversarial_traces():
    for seed in range(6):
        m = TableOracleMachine(seed)
        m.run(500)
        assert m.persists >= 40
        m.op_persist()
        m.check()


def test_free_slot_reuses_the_lowest_slot_once_the_commit_drops_it():
    rng = random.Random(7)
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=16)
    live = [heap.alloc(bytes([i])) for i in range(12)]
    persist(heap)
    for h in rng.sample(live, 8):
        heap.dealloc(h)
        live.remove(h)
    used = {heap._metas[h.id].entry_slot for h in live}
    assert heap.tables._free[0] == 12  # the dead are the last commit's until the next
    persist(heap)
    check_table(heap, extents_of(heap))
    assert heap.tables._free[0] == min(set(range(16)) - used)


def test_every_table_write_stores_a_bytearray():
    """A birth passes the device its whole 20 B entry, and a death, the
    epoch word and restore's undo writes a 4 B word, each a bytearray, the
    buffer the device stores without a temporary copy."""
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=16)
    sources = []

    def watch(dev):
        write = dev.write

        def watched(offset, data):
            if offset < heap.layout.object_offset:
                sources.append((type(data), len(data)))
            return write(offset, data)

        dev.write = watched

    def step(fn, size):
        del sources[:]
        result = fn()
        assert sources and set(sources) == {(bytearray, size)}
        return result

    watch(dev)
    a, b, c = step(lambda: [heap.alloc(bytes([i]) * 24) for i in range(3)], ENTRY_BYTES)
    step(lambda: persist(heap), WORD_BYTES)
    step(lambda: heap.dealloc(b), WORD_BYTES)
    step(lambda: persist(heap), WORD_BYTES)
    step(lambda: heap.dealloc(c), WORD_BYTES)
    step(lambda: heap.alloc(b"d" * 40), ENTRY_BYTES)
    rebooted = dev.reopen()
    watch(rebooted)
    heap, handles = step(lambda: restore(rebooted), WORD_BYTES)
    assert sorted(handles) == [a.id, c.id]  # c's death and d's birth were not committed


def assert_restores(dev, contents):
    """A reboot of ``dev`` restores exactly ``contents`` (id -> bytes)."""
    heap, handles = restore(dev.reopen())
    assert {hid: heap.read(h) for hid, h in handles.items()} == contents
    return heap


def _image_with_a_stale_slot():
    """a, s and b in slots 0-2; s deallocated and committed, so slot 1 is
    free but holds s's dead entry."""
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=8)
    a, s, b = (heap.alloc(bytes([ord(c)]) * 24) for c in "asb")
    persist(heap)
    heap.dealloc(s)
    persist(heap)
    assert heap.tables._free[0] == 1
    return dev, heap, {a.id: b"a" * 24, b.id: b"b" * 24}


@pytest.mark.parametrize("slot_state", ["dead and committed", "born and freed this epoch"])
def test_a_birth_cut_at_any_word_restores_the_last_commit(slot_state):
    """A birth writes its five words in one transfer, ``born`` first. Cut at
    every word, into a slot whose old entry is dead at the committed epoch
    or was born and freed since, the restore is the last commit."""
    for budget in range(ENTRY_BYTES // WORD_BYTES + 1):
        dev, heap, committed = _image_with_a_stale_slot()
        if slot_state == "born and freed this epoch":
            heap.dealloc(heap.alloc(b"t" * 12))
        slot = heap.tables._free[0]
        log = log_writes(dev)
        dev.arm_power_failure(budget)
        if budget < ENTRY_BYTES // WORD_BYTES:
            with pytest.raises(PowerFailureInjected):
                heap.alloc(b"n" * 40)
        else:
            heap.alloc(b"n" * 40)
        assert [(offset, len(data)) for offset, data in log] == \
            [(heap.layout.table_offset + slot * ENTRY_BYTES, ENTRY_BYTES)]
        restored = assert_restores(dev, committed)
        assert restored.tables._free[0] == 1
        check_table(restored, extents_of(restored))


@pytest.mark.parametrize("born", ["committed", "this epoch"])
def test_a_death_cut_or_not_restores_the_last_commit(born):
    """A death is one word. Cut or landed, it is not committed: the restore
    brings back a committed object and not one born since."""
    for budget in (0, 1):
        dev, heap, committed = _image_with_a_stale_slot()
        victim = next(iter(committed)) if born == "committed" else heap.alloc(b"t" * 12).id
        dev.arm_power_failure(budget)
        if budget:
            heap.dealloc(heap.handle(victim))
        else:
            with pytest.raises(PowerFailureInjected):
                heap.dealloc(heap.handle(victim))
        assert_restores(dev, committed)


def test_an_epoch_word_cut_restores_the_last_commit_and_one_that_lands_the_new():
    """The epoch word publishes every birth and death of the epoch at once."""
    for budget in (0, 1):
        dev, heap, committed = _image_with_a_stale_slot()
        heap.dealloc(heap.handle(min(committed)))
        n = heap.alloc(b"n" * 40)
        heap.sync_object(n)  # so that the persist writes the epoch word alone
        dev.arm_power_failure(budget)
        if budget:
            persist(heap)
            assert_restores(dev, {max(committed): b"b" * 24, n.id: b"n" * 40})
        else:
            with pytest.raises(PowerFailureInjected):
                persist(heap)
            assert_restores(dev, committed)


def test_restore_cut_at_any_of_its_writes_restores_the_last_commit():
    """Restore sets each stamp of the epoch that never committed back to
    zero. Cut at each of those writes and run again, it restores the same
    objects; a commit after it then publishes nothing of the lost epoch."""
    dev, heap, committed = _image_with_a_stale_slot()
    heap.dealloc(heap.handle(min(committed)))  # slot 0: a died stamp
    t = heap.alloc(b"t" * 12)                  # slot 1
    heap.alloc(b"u" * 12)                      # slot 3: a born stamp
    heap.dealloc(t)                            # slot 1: born and died stamps
    image = dev.reopen()
    reads = words_for(SUPERBLOCK_BYTES + heap.layout.table_bytes)
    undo = 4
    for budget in range(reads, reads + undo + 1):
        dev = image.reopen()
        log = log_writes(dev)
        dev.arm_power_failure(budget)
        if budget < reads + undo:
            with pytest.raises(PowerFailureInjected):
                restore(dev)
        else:
            restore(dev)
        assert all(data == bytes(WORD_BYTES) for _, data in log)
        assert len(log) == min(budget - reads + 1, undo)
        restored = assert_restores(dev, committed)
        persist(restored)
        assert_restores(restored.device, committed)



def test_the_epoch_word_counts_commits_past_a_carry_out_of_its_low_byte():
    """Each commit repacks the next stamp; a death after 600 commits
    stamps the 601st epoch, and a reboot restores at the 600th."""
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=2048, max_modified_state_bytes=1024, max_objects=8)
    h = heap.alloc(b"h" * 8)
    for epoch in range(1, 601):
        persist(heap)
        assert peek(dev, EPOCH_OFFSET, WORD_BYTES) == struct.pack("<I", epoch)
    log = log_writes(dev)
    heap.dealloc(h)
    assert log == [(heap.layout.table_offset + ENTRY_BYTES - WORD_BYTES, struct.pack("<I", 601))]
    assert_restores(dev, {h.id: b"h" * 8})
