"""Checkpointing: the persist cost bound, crash fallback, and restore."""

import io
import random
import struct

import pytest

from traceutil import count_bytecodes, count_c_calls, log_writes
from vnvheap import (
    ConfigInvalidError,
    DirtyBudgetUnsatisfiableError,
    EnergyModel,
    HEADER_CHARGE_BYTES,
    HeapConfig,
    HeapPoisonedError,
    NoValidCheckpointError,
    FileBackedNvm,
    OutOfNvmError,
    PowerFailureInjected,
    SimulatedNvm,
    VnvHeap,
    VnvHeapError,
    persist,
    persist_bound,
    restore,
    wcec_millijoules,
    words_for,
)
from vnvheap.bench import BenchRecord, write_csv
from vnvheap.layout import ENTRY_BYTES, EPOCH_OFFSET, SUPERBLOCK_BYTES


def fresh(cache=4096, dirty=2048, max_objects=64, capacity=256 * 1024):
    dev = SimulatedNvm(capacity)
    heap = VnvHeap(dev, cache_size_bytes=cache,
                   max_modified_state_bytes=dirty, max_objects=max_objects)
    return dev, heap


# -- the worst-case transfer bound --------------------------------------------

def test_persist_bound_values():
    for limit, words in [(512, 132), (1024, 260), (2048, 516), (4096, 1028)]:
        cfg = HeapConfig(cache_size_bytes=4096, max_modified_state_bytes=limit,
                         max_objects=64)
        assert persist_bound(cfg) == words
        assert words == words_for(limit + HEADER_CHARGE_BYTES)


def test_persist_bound_ignores_cache_size():
    bounds = {
        persist_bound(HeapConfig(cache_size_bytes=c, max_modified_state_bytes=2048))
        for c in (2048, 4096, 65536, 1 << 20)
    }
    assert bounds == {516}


def test_wcec_energy():
    assert wcec_millijoules(516) == pytest.approx(0.068112)
    assert wcec_millijoules(0) == 0.0
    half_power = EnergyModel(power_milliwatts=66.0)
    assert wcec_millijoules(516, half_power) == pytest.approx(0.068112 / 2)


def test_one_energy_formula_serves_the_bound_and_the_csv():
    model = EnergyModel(power_milliwatts=66.0, word_transfer_seconds=2.5e-6)
    assert model.time_us(516) == pytest.approx(1290.0)
    assert model.energy_uj(516) == pytest.approx(85.14)
    assert wcec_millijoules(516, model) == model.energy_uj(516) / 1000.0
    out = io.StringIO()
    write_csv([BenchRecord("b", {}, words_read=300, words_written=216)], model, out)
    assert out.getvalue().splitlines()[1] == f"b,,300,216,{model.time_us(516):.3f},{model.energy_uj(516):.6f},1"


def test_single_object_persist_cost_tracks_the_limit():
    # One object sized to fill the whole budget: the checkpoint then costs
    # the object's words plus the commit word, just under the bound.
    expect = {512: 125, 1024: 253, 2048: 509, 4096: 1021}
    for limit, words in expect.items():
        dev, heap = fresh(cache=limit, dirty=limit, max_objects=16)
        heap.alloc(bytes(limit - 19))
        rep = persist(heap)
        assert rep.words_transferred == words
        assert words <= persist_bound(heap.config)


def test_empty_persist_is_one_commit_word():
    dev, heap = fresh()
    rep = persist(heap)
    assert rep == type(rep)(words_transferred=1, objects_synced=0,
                            metadata_bytes_written=4)


def test_idle_repersist_is_one_commit_word():
    dev, heap = fresh()
    heap.alloc(b"x" * 100)
    persist(heap)
    rep = persist(heap)
    assert rep.words_transferred == 1
    assert rep.objects_synced == 0


def test_a_dealloc_burst_is_charged_nothing_and_committed_by_the_epoch_word():
    """Each dealloc writes its death stamp at once, so the persist after a
    burst of 60 is the epoch word alone, and the whole budget is still
    there for X's payload."""
    dev, heap = fresh()
    x = heap.alloc(bytes(2029))  # 508 words: the whole budget
    persist(heap)
    small = [heap.alloc(b"s") for _ in range(60)]
    persist(heap)
    written = dev.cost_meter.words_written
    for h in small:
        heap.dealloc(h)
    assert dev.cost_meter.words_written - written == 60  # one stamp each
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES
    assert persist(heap).words_transferred == 1
    with heap.get_mut(x) as w:
        w.write(b"X")
    rep = persist(heap)
    assert rep.words_transferred == 509 <= persist_bound(heap.config) == 516


def test_dealloc_of_a_clean_object_under_a_full_budget_moves_its_stamp_alone():
    """A full budget under a held write guard: a dealloc needs no room, so
    it syncs no one and writes its death stamp, one word."""
    dev, heap = fresh()
    clean = heap.alloc(b"c" * 8)
    heap.sync_object(clean)
    guard = heap.get_mut(heap.alloc(bytes(2029)))
    assert heap.dirty_bytes == heap.config.max_modified_state_bytes
    words = dev.cost_meter.words_total
    heap.dealloc(clean)
    assert dev.cost_meter.words_total - words == 1
    assert heap.live_handle_ids() == [guard._handle.id]
    assert heap.dirty_bytes == heap.config.max_modified_state_bytes
    guard.release()


def test_persist_clears_modified_keeps_residency():
    dev, heap = fresh()
    hs = [heap.alloc(bytes([i]) * 64) for i in range(3)]
    persist(heap)
    for h in hs:
        info = heap.object_info(h)
        assert info.resident and not info.modified
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES  # clean residents are free


def test_persist_of_a_full_budget_under_guards_is_its_payloads_and_the_commit_word():
    """A maximal construction: dirty budget full to the byte, every modified
    object under a read guard. A guard writes no table word, so persist
    writes the payloads and the commit word: the charge less its 3 words of
    header room, 7 words under persist_bound."""
    dev, heap = fresh()
    sizes = [512, 512, 512, 253, 237]  # 2032 B of whole words
    guards = [heap.get_ref(heap.alloc(bytes([i]) * n))
              for i, n in enumerate(sizes)]
    assert heap.dirty_bytes == 2048 == heap.config.max_modified_state_bytes

    # 508 payload words + 1 commit word
    words = sum(words_for(n) for n in sizes) + 1
    assert words == 2048 // 4 - 3 == 509 <= persist_bound(heap.config) - 7
    dev.arm_power_failure(words)  # exactly enough
    rep = persist(heap)
    dev.disarm_power_failure()
    assert rep.words_transferred == words
    for g in guards:
        g.release()


@pytest.mark.parametrize("count, size, words", [(124, 1, 125), (62, 5, 125), (33, 12, 100)],
                         ids=["124x1B", "62x5B", "33x12B"])
def test_persist_with_every_object_guarded_stays_within_the_bound(count, size, words):
    """The modified-state budget full of small objects, each under a live
    read guard: persist writes one payload per object and the commit word,
    and no table word for any guard."""
    dev, heap = fresh(cache=4096, dirty=512, max_objects=128)
    handles = [heap.alloc(bytes([i % 255 + 1]) * size) for i in range(count)]
    guards = [heap.get_ref(h) for h in handles]
    rep = persist(heap)
    assert rep.words_transferred == words == count * words_for(size) + 1
    assert rep.words_transferred <= persist_bound(heap.config) == 132
    for g in guards:
        g.release()


def test_budget_one_short_of_the_bound_fails_at_the_commit_word():
    """Armed one word short of what the persist writes: every payload is
    durable and only the commit word is cut."""
    dev, heap = fresh()
    placeholder = heap.alloc(b"x")
    heap.sync_object(placeholder)
    sizes = [512, 512, 512, 253, 225]
    handles = [heap.alloc(bytes([i + 1]) * n) for i, n in enumerate(sizes)]
    guards = [heap.get_ref(h) for h in handles]
    extents = [heap.object_info(h).nvm_offset for h in handles]

    dev.arm_power_failure(sum(words_for(n) for n in sizes))  # 505: all but the commit word
    with pytest.raises(PowerFailureInjected):
        persist(heap)
    dev.disarm_power_failure()

    # every payload sync completed; only the commit word is missing
    for (i, n), off in zip(enumerate(sizes), extents):
        assert dev.read(off, n) == bytes([i + 1]) * n
    with pytest.raises(NoValidCheckpointError):
        restore(dev.reopen())  # this heap never reached a commit


def test_interrupted_persist_poisons_the_heap():
    dev, heap = fresh()
    h = heap.alloc(b"z" * 64)
    dev.arm_power_failure(3)
    with pytest.raises(PowerFailureInjected):
        persist(heap)
    dev.disarm_power_failure()
    for op in (lambda: heap.alloc(b"q"),
               lambda: heap.get_ref(h),
               lambda: heap.dealloc(h),
               lambda: heap.sync_object(h),
               lambda: persist(heap)):
        with pytest.raises(HeapPoisonedError):
            op()


def test_power_cut_in_an_eviction_sync_restores_the_last_commit():
    """A miss frees both victims' cache blocks, then syncs each one. Power
    fails in the second victim's sync: the heap is poisoned, and the device
    still restores exactly the committed objects and bytes."""
    dev, heap = fresh(cache=1024, dirty=1024)
    payloads = [bytes([i + 1]) * 249 for i in range(4)] + [bytes(range(250)) * 2 + b"T"]
    a, b, c, d = (heap.alloc(p) for p in payloads[:4])  # 252 B blocks
    for h in (a, b):
        heap.sync_object(h)
        heap.unload(h)
    t = heap.alloc(payloads[4])  # a 504 B block at offset 0
    persist(heap)
    heap.unload(t)
    for h in (a, b):  # back into [0, 504), with 4 hits each
        for _ in range(3):
            heap.get_ref(h).release()
    for h in (c, d):
        # 2 hits each, so c is the coldest resident and d its colder
        # neighbour. A write guard charges its object as modified, so both
        # victims are synced; the bytes stay the committed ones.
        heap.get_mut(h).release()

    log = log_writes(dev)
    dev.arm_power_failure(words_for(249) + 10)  # c's whole sync, 10 words of d's
    with pytest.raises(PowerFailureInjected):
        heap.get_ref(t)  # c's and d's blocks merge into the only hole that fits
    dev.disarm_power_failure()
    assert [offset for offset, _ in log] == [heap.object_info(h).nvm_offset for h in (c, d)]
    with pytest.raises(HeapPoisonedError):
        heap.get_ref(a)

    heap2, handles = restore(dev.reopen(), cache_size_bytes=1024, max_modified_state_bytes=1024)
    assert set(handles) == {h.id for h in (a, b, c, d, t)}
    for h, payload in zip((a, b, c, d, t), payloads):
        with heap2.get_ref(handles[h.id]) as g:
            assert g.read() == payload


def _alloc_case(heap):
    return lambda: heap.alloc(b"n" * 40)


def _dealloc_case(heap):
    h = heap.alloc(b"d" * 40)
    return lambda: heap.dealloc(h)


def _sync_case(heap):
    h = heap.alloc(b"s" * 40)
    return lambda: heap.sync_object(h)


def _miss_case(heap):
    h = heap.alloc(b"m" * 40)
    heap.sync_object(h)
    heap.unload(h)
    return lambda: heap.get_ref(h).release()


def _replace_miss_case(heap):
    h = heap.alloc(b"r" * 40)
    heap.sync_object(h)
    heap.unload(h)
    heap.alloc(b"v" * 2000)  # the 40 B modified charge no longer fits
    return lambda: heap.replace(h, b"R" * 40)


@pytest.mark.parametrize("make_op", [_alloc_case, _dealloc_case, _sync_case, _miss_case,
                                     _replace_miss_case],
                         ids=["alloc", "dealloc", "sync_object", "get_ref miss",
                              "replace miss syncing a victim"])
def test_every_heap_transfer_path_poisons_the_heap(make_op):
    """A cut anywhere in an op's transfers marks the device and poisons the
    heap; the op's full word count goes through and leaves it usable."""
    def setup():
        dev, heap = fresh()
        other = heap.alloc(b"o" * 16)
        return dev, heap, other, make_op(heap)

    dev, _, _, op = setup()
    before = dev.cost_meter.words_total
    op()
    words = dev.cost_meter.words_total - before
    assert words > 0

    for budget in range(words + 1):
        dev, heap, other, op = setup()
        dev.arm_power_failure(budget)
        if budget < words:
            with pytest.raises(PowerFailureInjected):
                op()
            assert dev.power_failed
            dev.disarm_power_failure()
            with pytest.raises(HeapPoisonedError):
                heap.get_ref(other)
        else:
            op()
            dev.disarm_power_failure()
            assert not dev.power_failed
            with heap.get_ref(other) as g:
                assert g.read() == b"o" * 16
            persist(heap)


def _alloc_one_more(heap):
    """One object allocated after the checkpoint, whose birth is never
    committed: the very first transfer of the persist, its payload, dies.
    Returns the budget and the offset of the word it cuts."""
    b = heap.alloc(b"B" * 100)
    return 0, heap.object_info(b).nvm_offset


def _fill_the_limit_with_write_guards(heap):
    """Five write-guarded 401-byte objects charge 16 + 5 * 404 = 2036 of
    the 2048 limit bytes (the committed object is clean, so free). The
    persist writes their 505 payload words, then the epoch word: the budget
    covers the payloads and cuts the epoch word."""
    for i in range(5):
        heap.get_mut(heap.alloc(bytes(401))).write(bytes([i + 1]) * 401)
    return 5 * words_for(401), EPOCH_OFFSET


@pytest.mark.parametrize("committed, dirty", [
    (b"A" * 100, _alloc_one_more),
    (b"checkpoint one" * 4, _fill_the_limit_with_write_guards),
], ids=["first-transfer", "epoch-word"])
def test_fallback_to_previous_checkpoint(committed, dirty):
    """A crash during the second persist must leave the first restorable."""
    dev, heap = fresh()
    a = heap.alloc(committed)
    persist(heap)

    budget, cut = dirty(heap)
    dev.arm_power_failure(budget)
    with pytest.raises(PowerFailureInjected, match=rf"writing \[{cut}, "):
        persist(heap)
    dev.disarm_power_failure()

    heap2, handles = restore(dev.reopen())
    # exactly the checkpointed object is back, byte for byte: no birth
    # after it was ever committed
    assert {hid: heap2.read(h) for hid, h in handles.items()} == {a.id: committed}


def test_fallback_resurrects_objects_deallocated_after_the_checkpoint():
    dev, heap = fresh()
    a = heap.alloc(b"keep me!" * 8)
    persist(heap)
    heap.dealloc(a)
    c = heap.alloc(b"c" * 64)  # must not reuse a's extent, still committed
    assert heap.object_info(c).nvm_offset != 0

    heap2, handles = restore(dev.reopen())  # crash without a second persist
    assert a.id in handles
    with heap2.get_ref(handles[a.id]) as g:
        assert g.read() == b"keep me!" * 8


def test_restore_does_not_bring_back_a_deallocated_object_under_a_new_id():
    dev, heap = fresh()
    a = heap.alloc(b"AAAA")
    persist(heap)
    heap.dealloc(a)
    persist(heap)
    heap.alloc(b"BBBB")
    heap2, handles = restore(dev.reopen())
    assert {hid: heap2.read(h) for hid, h in handles.items()} == {}


def test_alloc_dealloc_churn_without_a_persist_reuses_table_slots():
    dev, heap = fresh(max_objects=8)
    for _ in range(3 * 8):
        heap.dealloc(heap.alloc(b"x"))
    assert heap.live_handle_ids() == []


def test_commit_releases_the_extents_of_committed_objects_deallocated_since():
    dev, heap = fresh()
    a = heap.alloc(b"a" * 128)
    persist(heap)
    free_before = heap.stats().nvm_free_bytes
    heap.dealloc(a)
    assert heap.stats().nvm_free_bytes == free_before  # the last commit holds it
    persist(heap)
    assert heap.stats().nvm_free_bytes == free_before + 128


def test_restore_brings_a_guarded_object_back_swapped_out_and_unpinned():
    dev, heap = fresh()
    held = heap.alloc(b"held" * 30)
    loose = heap.alloc(b"loose" * 20)
    g = heap.get_ref(held)
    persist(heap)

    heap2, handles = restore(dev.reopen())
    for h in (held, loose):
        info = heap2.object_info(handles[h.id])
        assert not info.resident and not info.pinned and not info.modified
    assert heap2.dirty_bytes == HEADER_CHARGE_BYTES
    assert heap2.stats().pinned_count == 0

    # nothing is left to release: a writer gets the object at once
    with heap2.get_mut(handles[held.id]) as w:
        assert w.read() == b"held" * 30
        w.write(b"now mine")
    with heap2.get_ref(handles[loose.id]) as r:
        assert r.read() == b"loose" * 20
    g.release()


def test_restore_handle_directory():
    dev, heap = fresh()
    sizes = {heap.alloc(bytes(n)).id: n for n in (8, 60, 300)}
    persist(heap)
    heap2, handles = restore(dev.reopen())
    assert set(handles) == set(sizes)
    assert {h.id: h.size_bytes for h in handles.values()} == sizes
    # ids keep growing from where they left off
    fresh_handle = heap2.alloc(b"new")
    assert fresh_handle.id > max(sizes)


def test_restore_requires_a_commit():
    dev = SimulatedNvm(64 * 1024)
    with pytest.raises(NoValidCheckpointError):
        restore(dev)  # blank device
    VnvHeap(dev, max_objects=16)  # formats, but never persists
    with pytest.raises(NoValidCheckpointError):
        restore(dev.reopen())


# The words of an entry: born | handle id | nvm offset | size | died.
ID_WORD, OFFSET_WORD, SIZE_WORD = 1, 2, 3


def _committed_image(objects):
    """A power-cycled device whose table holds ``objects``, committed, in
    slots 0, 1, ...; returns the device and the table's offset."""
    dev, heap = fresh()
    for payload in objects:
        heap.alloc(payload)
    persist(heap)
    return dev.reopen(), heap.layout.table_offset


def _entry_word(table, slot, word):
    return table + slot * ENTRY_BYTES + 4 * word


@pytest.mark.parametrize("forged, error", [
    ("twice", "committed twice"),   # slot 1 takes slot 0's id
    ("zero", "handle id 0"),        # slot 0's id is zeroed: no heap hands out 0
], ids=["twice", "zero"])
def test_restore_rejects_a_forged_handle_id(forged, error):
    dev, table = _committed_image([b"AAAAAAAA", b"BBBBBBBB"])
    if forged == "twice":
        slot, value = 1, dev.read(_entry_word(table, 0, ID_WORD), 4)
    else:
        slot, value = 0, bytes(4)
    dev.write(_entry_word(table, slot, ID_WORD), value)
    with pytest.raises(NoValidCheckpointError, match=error):
        restore(dev)


def test_an_image_at_its_last_epoch_restores_but_refuses_to_persist():
    """At epoch 2^32 - 2 the next epoch word would leave the following
    epoch no stamp, so persist refuses before it writes a word, and the
    heap stays usable."""
    dev, _ = _committed_image([b"AAAAAAAA"])
    dev.write(EPOCH_OFFSET, struct.pack("<I", 0xFFFFFFFE))
    heap, handles = restore(dev)
    heap.replace(handles[1], b"BBBBBBBB")
    before = dev.cost_meter.snapshot()
    with pytest.raises(OutOfNvmError, match="last epoch"):
        persist(heap)
    assert dev.cost_meter.snapshot() == before
    assert dev.read(EPOCH_OFFSET, 4) == struct.pack("<I", 0xFFFFFFFE)
    assert heap.read(handles[1]) == b"BBBBBBBB"
    heap.alloc(b"CCCC")
    restored, _ = restore(dev.reopen())
    assert restored.live_handle_ids() == [1]


def test_an_alloc_past_the_last_handle_id_is_refused_before_it_takes_room():
    dev, table = _committed_image([b"AAAAAAAA"])
    dev.write(_entry_word(table, 0, ID_WORD), struct.pack("<I", 0xFFFFFFFF))
    heap, handles = restore(dev)
    assert list(handles) == [0xFFFFFFFF]
    before, words = heap.stats(), dev.cost_meter.snapshot()
    with pytest.raises(OutOfNvmError, match="handle id"):
        heap.alloc(b"n" * 8)
    assert dev.cost_meter.snapshot() == words
    after = heap.stats()
    assert (after.nvm_free_bytes, after.cache_free_bytes) == (before.nvm_free_bytes,
                                                              before.cache_free_bytes)


def test_the_last_handle_id_is_handed_out_once():
    """With 2^32 - 2 the largest committed id, an alloc takes the last
    one, 2^32 - 1, which commits and restores; only the alloc after it is
    refused."""
    dev, table = _committed_image([b"AAAAAAAA"])
    dev.write(_entry_word(table, 0, ID_WORD), struct.pack("<I", 0xFFFFFFFE))
    heap, _ = restore(dev)
    last = heap.alloc(b"L" * 8)
    assert last.id == 0xFFFFFFFF
    with pytest.raises(OutOfNvmError, match="handle id"):
        heap.alloc(b"n" * 8)
    persist(heap)
    restored, handles = restore(dev.reopen())
    assert sorted(handles) == [0xFFFFFFFE, 0xFFFFFFFF]
    assert restored.read(handles[0xFFFFFFFF]) == b"L" * 8


@pytest.mark.parametrize("nvm_offset", [
    "overlap",       # slot 1's extent starts inside slot 0's
    "unaligned",     # 2 B past slot 1's own extent, off a word boundary
    0,               # the superblock, below the object region
    256 * 1024,      # past the end of the device
])
def test_restore_rejects_an_extent_that_is_not_free(nvm_offset):
    dev, table = _committed_image([b"AAAAAAAA", b"BBBBBBBB"])
    at = _entry_word(table, 1, OFFSET_WORD)
    if nvm_offset == "overlap":
        nvm_offset = int.from_bytes(dev.read(_entry_word(table, 0, OFFSET_WORD), 4), "little")
    elif nvm_offset == "unaligned":
        nvm_offset = int.from_bytes(dev.read(at, 4), "little") + 2
    dev.write(at, nvm_offset.to_bytes(4, "little"))
    with pytest.raises(NoValidCheckpointError, match="not free"):
        restore(dev)


def test_restore_rejects_a_zero_sized_entry():
    dev, table = _committed_image([b"AAAAAAAA", b"BBBBBBBB"])
    dev.write(_entry_word(table, 1, SIZE_WORD), bytes(4))
    with pytest.raises(NoValidCheckpointError, match="size 0"):
        restore(dev)


@pytest.mark.parametrize("size", [1022, 5000])
def test_restore_rejects_an_entry_too_large_for_the_cache(size):
    # Under a 1024 B cache, no eviction could ever make room to load it.
    dev, heap = fresh(cache=1024, dirty=1024)
    for i in range(3):
        heap.alloc(bytes([i + 1]) * 8)
    persist(heap)
    dev, at = dev.reopen(), _entry_word(heap.layout.table_offset, 2, SIZE_WORD)
    dev.write(at, size.to_bytes(4, "little"))
    with pytest.raises(NoValidCheckpointError, match=f"object 3: {size} B cannot fit the 1024 B cache"):
        restore(dev)  # the recorded 1024 B cache
    dev.write(at, (1021).to_bytes(4, "little"))  # a 1024 B block
    heap, handles = restore(dev)
    with heap.get_ref(handles[3]) as g:
        assert g.read(0, 8) == bytes([3]) * 8


def _guarded_image(objects, guard):
    """Like ``_committed_image``, with a read guard held across the persist
    on the objects whose indexes are in ``guard``."""
    dev, heap = fresh()
    handles = [heap.alloc(payload) for payload in objects]
    guards = [heap.get_ref(handles[i]) for i in guard]
    persist(heap)
    for g in guards:
        g.release()
    return dev.reopen()


def test_an_image_with_a_guarded_object_restores_into_a_smaller_cache():
    # Blocks of 204 B sat at 0, 204, 408 and 612 of a 4 KiB cache, the last
    # one guarded. The image records no cache offset, so a 512 B cache,
    # which holds two such blocks at a time, serves all four.
    payloads = [bytes([i]) * 200 for i in range(4)]
    dev = _guarded_image(payloads, guard=(3,))
    heap, handles = restore(dev, cache_size_bytes=512, max_modified_state_bytes=512)
    for hid, payload in zip(sorted(handles), payloads):
        with heap.get_ref(handles[hid]) as g:
            assert g.read() == payload


def test_a_one_word_object_region_holds_a_one_byte_object():
    """A device of a superblock, one 20 B entry and one word, with up to 3
    bytes to spare, has an object region of exactly one word; one byte
    less leaves it none."""
    for capacity in (SUPERBLOCK_BYTES + ENTRY_BYTES + 4, SUPERBLOCK_BYTES + ENTRY_BYTES + 7):
        dev, heap = fresh(cache=20, dirty=20, max_objects=1, capacity=capacity)
        assert heap.layout.object_bytes == 4
        heap.alloc(b"z")
        persist(heap)
        restored, handles = restore(dev.reopen())
        assert [restored.read(h) for h in handles.values()] == [b"z"]
    with pytest.raises(ConfigInvalidError, match="leaves no object region"):
        fresh(cache=20, dirty=20, max_objects=1, capacity=SUPERBLOCK_BYTES + ENTRY_BYTES + 3)


def test_restore_rejects_an_image_of_another_layout_version():
    dev, _ = _committed_image([b"AAAAAAAA"])
    dev.write(4, (2).to_bytes(4, "little"))  # superblock version 2: two mirrored tables
    with pytest.raises(NoValidCheckpointError, match="no recognizable heap image"):
        restore(dev)


@pytest.mark.parametrize("capacity", [4, SUPERBLOCK_BYTES - 1])
def test_restore_of_a_device_smaller_than_a_superblock_reads_nothing(capacity):
    dev = SimulatedNvm(capacity)
    with pytest.raises(NoValidCheckpointError, match="no recognizable heap image"):
        restore(dev)
    assert dev.cost_meter.snapshot() == (0, 0)


def test_restore_of_a_device_of_one_superblock_reads_it_and_refuses():
    """A device exactly one superblock long has room to read one: its 7
    words, all zero, are no heap image."""
    dev = SimulatedNvm(SUPERBLOCK_BYTES)
    with pytest.raises(NoValidCheckpointError, match="no recognizable heap image"):
        restore(dev)
    assert dev.cost_meter.snapshot() == (SUPERBLOCK_BYTES // 4, 0)


@pytest.mark.parametrize("offset, value, error", [
    (16, 0, "max_objects must be >= 1"),             # no table, so no entry slots
    (16, 24_000_000, "leaves no object region"),     # a table larger than the device
    (16, 30, "not whole entries"),
    (12, 32, "offset does not match"),               # the table offset
    (20, 0, "cache cannot hold"),                    # the recorded cache size
    (24, 8192, "exceeds the cache size"),           # the recorded limit, over the cache
    (20, 1 << 31, "exceeds the 65536 B device"),    # bit 31 of the recorded cache size
    (8, 0xFFFFFFFF, "past the last one"),           # an epoch that leaves no stamp above it
], ids=["no slots", "table too long", "torn entry", "table offset", "cache size", "limit",
        "cache over the device", "last word epoch"])
def test_restore_rejects_a_superblock_no_heap_could_have_written(offset, value, error):
    dev, heap = fresh(max_objects=16, capacity=64 * 1024)
    heap.alloc(b"AAAAAAAA")
    persist(heap)
    dev = dev.reopen()
    dev.write(offset, value.to_bytes(4, "little"))
    with pytest.raises(NoValidCheckpointError, match=error):
        restore(dev, cache_size_bytes=4096, max_modified_state_bytes=2048)


def test_restore_defaults_to_the_recorded_configuration():
    """``format`` records the cache size and the limit in the superblock;
    restore uses them unless an argument overrides them."""
    dev, heap = fresh(cache=1024, dirty=512, max_objects=16)
    heap.alloc(b"A" * 8)
    persist(heap)
    words = struct.unpack_from("<2I", dev.read(20, 8))
    assert words == (1024, 512)
    restored, _ = restore(dev.reopen())
    assert restored.config == heap.config
    restored, _ = restore(dev.reopen(), max_modified_state_bytes=256)
    assert (restored.config.cache_size_bytes, restored.config.max_modified_state_bytes) == (1024, 256)


def test_restore_refuses_an_override_cache_larger_than_the_device_before_it_writes():
    """A cache size passed to restore is the caller's input, so one larger
    than the device is refused as ``format`` refuses it, with
    :class:`ConfigInvalidError`, before restore sets back any stamp of an
    epoch that never committed. The same size recorded in the superblock
    marks a corrupt image instead (``NoValidCheckpointError``, above)."""
    dev, heap = fresh(max_objects=16, capacity=64 * 1024)
    heap.alloc(b"A" * 8)
    persist(heap)
    heap.alloc(b"B" * 8)  # born in an epoch that never commits
    dev = dev.reopen()
    with pytest.raises(ConfigInvalidError, match="cache of 1048576 B exceeds the 65536 B device"):
        restore(dev, cache_size_bytes=1 << 20)
    assert dev.cost_meter.words_written == 0
    restored, handles = restore(dev, cache_size_bytes=64 * 1024)
    assert restored.config.cache_size_bytes == 64 * 1024 and len(handles) == 1
    assert dev.cost_meter.words_written == 1  # the uncommitted birth's stamp, set back


def test_restore_refuses_a_limit_above_the_recorded_one_before_it_writes():
    """The recorded limit sizes every persist of the image, so a restore
    may lower it but never raise it: a limit one byte over the record is
    refused with :class:`ConfigInvalidError` before restore sets back any
    stamp, and the record itself is accepted."""
    dev, heap = fresh(cache=4096, dirty=512, max_objects=16)
    heap.alloc(b"A" * 8)
    persist(heap)
    heap.alloc(b"B" * 8)  # born in an epoch that never commits
    dev = dev.reopen()
    image = bytes(dev._buf)
    for limit in (513, 4096):
        with pytest.raises(ConfigInvalidError, match=f"limit of {limit} B exceeds the 512 B"):
            restore(dev, max_modified_state_bytes=limit)
    assert dev.cost_meter.words_written == 0
    assert bytes(dev._buf) == image
    restored, handles = restore(dev, max_modified_state_bytes=512)
    assert restored.config.max_modified_state_bytes == 512 and len(handles) == 1
    assert persist_bound(restored.config) == 132
    assert dev.cost_meter.words_written == 1  # the uncommitted birth's stamp, set back


def test_restore_reads_the_superblock_and_five_words_per_slot():
    """Restore reads no payload: every object loads on first access."""
    dev, heap = fresh(max_objects=128)
    for i in range(5):
        heap.alloc(bytes([i]) * 100)
    persist(heap)
    dev = dev.reopen()
    restore(dev)
    assert SUPERBLOCK_BYTES // 4 == 7
    assert dev.cost_meter.snapshot() == (7 + 5 * 128, 0) == (647, 0)


def _unordered_image(live):
    """A power-cycled 1024-slot image committing ``live`` objects whose
    extents are out of slot order: every other object of a first commit is
    deallocated, and a larger object, placed above all the others, takes
    its slot."""
    dev, heap = fresh(max_objects=1024)
    handles = [heap.alloc(b"a" * 8) for _ in range(live)]
    persist(heap)
    for h in handles[::2]:
        heap.dealloc(h)
    persist(heap)
    for _ in handles[::2]:
        heap.alloc(b"b" * 12)
    persist(heap)
    by_slot = [m.nvm_offset for m in sorted(heap._metas.values(), key=lambda m: m.entry_slot)]
    assert by_slot != sorted(by_slot)
    return dev.reopen()


def test_restore_costs_the_same_bytecodes_per_object_at_any_live_count():
    """Restore checks and rebuilds each live entry in a fixed number of
    steps, plus one sort by offset, so its cost per object is the same
    between 256 and 512 live objects as between 64 and 128. Each entry
    builds one object, its handle, in at most 172.5 bytecodes."""
    cost = {live: count_bytecodes(restore, _unordered_image(live)) for live in (64, 128, 256, 512)}
    low = (cost[128] - cost[64]) / 64
    high = (cost[512] - cost[256]) / 256
    assert abs(high - low) <= 0.05 * low
    assert high <= 172.5, high


def test_an_object_over_a_smaller_limit_restores_readable_but_not_writable():
    """Restored under a limit its charge cannot fit, an object still reads;
    a get_mut or replace of it, swapped out or resident, is refused by the
    room plan and moves no word."""
    dev, heap = fresh(dirty=1024)
    payload = b"w" * 200
    hid = heap.alloc(payload).id
    persist(heap)
    heap, handles = restore(dev.reopen(), max_modified_state_bytes=64)
    h = handles[hid]
    for resident in (False, True):
        if resident:
            assert heap.read(h) == payload
        words = heap.device.cost_meter.snapshot()
        state = heap.stats(), heap.object_info(h)
        with pytest.raises(DirtyBudgetUnsatisfiableError):
            heap.get_mut(h)
        with pytest.raises(DirtyBudgetUnsatisfiableError):
            heap.replace(h, b"v" * 200)
        assert heap.device.cost_meter.snapshot() == words
        assert (heap.stats(), heap.object_info(h)) == state


def _tolerate(fn, *args):
    """Run ``fn(*args)``; return its result, or None if it raised a
    ``VnvHeapError``. Any other exception propagates."""
    try:
        return fn(*args)
    except VnvHeapError:
        return None


def test_restore_of_a_bit_flipped_image_refuses_it_or_returns_a_working_heap():
    """1 to 3 bits flipped in the superblock and table of a committed image,
    500 times: each restore refuses the image with a ``VnvHeapError``, or
    returns a heap on which read, replace, dealloc, alloc, persist and a
    second restore raise no other exception. Whether that heap holds
    exactly a committed state is beyond what the table's format rules can
    tell."""
    dev, heap = fresh(cache=1024, dirty=512, max_objects=12, capacity=4096)
    handles = [heap.alloc(bytes([i]) * (8 + 12 * i)) for i in range(8)]
    persist(heap)
    heap.dealloc(handles[1])
    heap.replace(handles[2], b"r" * 32)
    heap.alloc(b"n" * 40)
    persist(heap)
    heap.dealloc(handles[3])  # a death and a birth that never commit
    heap.alloc(b"u" * 16)
    image = dev.reopen()
    flip_bits = (SUPERBLOCK_BYTES + heap.layout.table_bytes) * 8
    rng = random.Random(23)
    refused = 0
    for _ in range(500):
        dev = image.reopen()
        for bit in rng.sample(range(flip_bits), rng.randint(1, 3)):
            dev._buf[bit // 8] ^= 1 << bit % 8
        restored = _tolerate(restore, dev)
        if restored is None:
            refused += 1
            continue
        heap, handles = restored
        for h in handles.values():
            _tolerate(heap.read, h)
            _tolerate(heap.replace, h, b"x" * h.size_bytes)
        if handles:
            _tolerate(heap.dealloc, handles[min(handles)])
        _tolerate(heap.alloc, b"y" * 24)
        _tolerate(persist, heap)
        _tolerate(restore, dev.reopen())
    assert 100 < refused < 400


def test_an_image_taken_under_many_guards_restores_at_a_small_limit():
    # None of the 40 objects guarded at persist comes back resident, so the
    # restored heap is charged the 16 B header alone.
    dev = _guarded_image([bytes([i]) for i in range(40)], guard=range(40))
    heap, handles = restore(dev, max_modified_state_bytes=64)
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES == 16
    assert len(handles) == 40
    assert heap.stats().pinned_count == heap.stats().resident_count == 0
    with heap.get_ref(handles[40]) as g:
        assert g.read() == bytes([39])


def test_restore_round_trip_through_a_file(tmp_path):
    path = tmp_path / "heap.img"
    dev = FileBackedNvm(path, capacity_bytes=128 * 1024)
    heap = VnvHeap(dev, max_objects=32)
    h = heap.alloc(b"survives the file system" * 4)
    persist(heap)
    dev.close()

    dev2 = FileBackedNvm(path)
    heap2, handles = restore(dev2)
    with heap2.get_ref(handles[h.id]) as g:
        assert g.read() == b"survives the file system" * 4
    dev2.close()


def test_persist_under_a_live_write_guard_keeps_the_object_charged():
    dev, heap = fresh()
    h = heap.alloc(b"\x00" * 100)
    w = heap.get_mut(h)
    w.write(b"v1")
    rep = persist(heap)
    assert rep.objects_synced == 1
    assert heap.object_info(h).modified  # writer can keep writing
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES + 100
    w.write(b"v2")
    w.release()
    persist(heap)
    heap2, handles = restore(dev.reopen())
    with heap2.get_ref(handles[h.id]) as g:
        assert g.read(0, 2) == b"v2"


def test_read_of_swapped_out_object_under_a_full_budget_moves_only_its_load():
    # Residency costs a persist nothing, so a read never meets the dirty
    # rule: with the budget pinned full, the miss still loads its object
    # and syncs no one.
    dev, heap = fresh(cache=4096, dirty=416)
    y = heap.alloc(b"y" * 16)
    heap.sync_object(y)
    heap.unload(y)
    x = heap.alloc(b"x" * 400)   # dirty: 16 + 400 = 416, the limit
    w = heap.get_mut(x)
    meter = dev.cost_meter
    read, written = meter.words_read, meter.words_written
    with heap.get_ref(y) as g:
        assert g.read() == b"y" * 16
    assert (meter.words_read - read, meter.words_written - written) == (words_for(16), 0)
    assert heap.dirty_bytes == 416 and heap.object_info(x).modified
    w.release()


def test_mixed_state_survives_a_power_cycle():
    dev, heap = fresh()
    resident_mod = heap.alloc(b"rm" * 50)
    resident_clean = heap.alloc(b"rc" * 50)
    heap.sync_object(resident_clean)
    swapped = heap.alloc(b"sw" * 50)
    heap.sync_object(swapped)
    heap.unload(swapped)
    persist(heap)

    heap2, handles = restore(dev.reopen())
    for h, content in ((resident_mod, b"rm" * 50),
                       (resident_clean, b"rc" * 50),
                       (swapped, b"sw" * 50)):
        with heap2.get_ref(handles[h.id]) as g:
            assert g.read() == content
        info = heap2.object_info(handles[h.id])
        assert not info.modified


# -- what persist visits ----------------------------------------------------------

def test_persist_writes_payloads_in_modification_order():
    """Loaded A then B, written B then A: the payloads go out B, A. A
    resident loaded earlier but first written later goes out later."""
    dev, heap = fresh()
    b = heap.alloc(b"B" * 8)  # b gets the lower id and extent
    a = heap.alloc(b"A" * 8)
    persist(heap)
    for h in (b, a):
        heap.unload(h)
    for h in (a, b):
        heap.get_ref(h).release()
    for h, fill in ((b, b"b"), (a, b"a")):
        with heap.get_mut(h) as w:
            w.write(fill * 8)
    log = log_writes(dev)
    persist(heap)
    payloads = [data for offset, data in log if offset >= heap.layout.object_offset]
    assert payloads == [b"b" * 8, b"a" * 8]


def test_an_object_write_guarded_across_a_persist_goes_out_first_at_the_next():
    """G, the latest to arrive, is written after X and held under its write
    guard across a persist. At the next persist it goes out first, before
    Y and X, which were written again in that order since the commit."""
    dev, heap = fresh()
    x, y, g = (heap.alloc(bytes([i]) * 12) for i in range(3))
    persist(heap)
    heap.replace(x, b"x" * 12)
    w = heap.get_mut(g)
    w.write(b"g" * 12)
    log = log_writes(dev)
    persist(heap)
    assert [data for offset, data in log[:-1]] == [b"x" * 12, b"g" * 12]
    heap.replace(y, b"y" * 12)
    heap.replace(x, b"X" * 12)
    w.write(b"G" * 12)
    del log[:]
    persist(heap)
    assert [data for offset, data in log[:-1]] == [b"G" * 12, b"y" * 12, b"X" * 12]
    assert log[-1][0] == EPOCH_OFFSET
    w.release()


def test_persist_is_one_write_per_payload_then_the_epoch_word():
    """Each modified object goes out in one device write, in modification
    order; then the one epoch word. The deallocations since the last commit
    wrote their stamps when they ran, so the persist writes no table word."""
    dev, heap = fresh()
    b, a, c, d = (heap.alloc(bytes([i]) * 24) for i in range(4))
    persist(heap)
    persist(heap)
    dead = [heap.tables.table_offset + heap._metas[h.id].entry_slot * ENTRY_BYTES + 16
            for h in (d, c)]
    log = log_writes(dev)
    heap.dealloc(d)
    heap.dealloc(c)
    assert log == [(at, struct.pack("<I", 3)) for at in dead]  # died in epoch 3
    for h in (b, a):
        heap.unload(h)
    for h in (a, b):
        heap.get_ref(h).release()
    for h, fill in ((b, b"b"), (a, b"a")):
        with heap.get_mut(h) as w:
            w.write(fill * 24)
    extents = {h: heap._metas[h.id].nvm_offset for h in (a, b)}
    del log[:]
    persist(heap)
    assert log == [
        (extents[b], b"b" * 24),
        (extents[a], b"a" * 24),
        (EPOCH_OFFSET, struct.pack("<I", 3)),
    ]


def test_persist_cost_does_not_grow_with_clean_residents():
    """One modified and one pinned object: persist executes the same number
    of bytecodes whether 1 or 256 clean objects are resident beside them."""
    def persist_bytecodes(clean):
        dev, heap = fresh(cache=8192, dirty=4096, max_objects=300)
        for i in range(clean):
            heap.alloc(bytes([i % 256]) * 4)
        modified = heap.alloc(b"modified")
        pinned = heap.alloc(b"pinned")
        persist(heap)
        assert heap.stats().resident_count == clean + 2
        guard = heap.get_ref(pinned)
        with heap.get_mut(modified) as w:
            w.write(b"M")
        executed = count_bytecodes(persist, heap)
        guard.release()
        return executed

    assert persist_bytecodes(1) == persist_bytecodes(256)


def test_persist_settles_its_bookkeeping_once_the_commit_lands():
    """After a persist only the write-guarded object stays modified, charged
    its payload over the header. A persist that dies mid-payload settles
    nothing: the heap is poisoned and restore returns the previous commit."""
    dev, heap = fresh()
    others = [heap.alloc(bytes([i]) * 20) for i in range(6)]
    guarded = heap.alloc(b"g" * 40)
    w = heap.get_mut(guarded)
    w.write(b"G" * 40)
    for h in others:
        heap.replace(h, b"x" * 20)
    persist(heap)
    assert heap._modified == {guarded.id: heap._metas[guarded.id]}
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES + 40
    assert not any(heap.object_info(h).modified for h in others)

    for h in others:
        heap.replace(h, b"y" * 20)
    modified = dict(heap._modified)
    # The guarded payload, carried over, goes out first (10 words) and
    # lands whole; the next is cut at 2 of its 5 words.
    dev.arm_power_failure(12)
    with pytest.raises(PowerFailureInjected):
        persist(heap)
    dev.disarm_power_failure()
    assert heap._modified == modified
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES + 40 + 6 * 20
    with pytest.raises(HeapPoisonedError):
        heap.read(others[0])
    heap2, handles = restore(dev.reopen())
    assert sorted(handles) == sorted(h.id for h in others + [guarded])
    # The two payloads the cut persist reached were written over their
    # committed extents in place (see the in-place write-back tests below);
    # the rest must hold the previous commit.
    for h in others[1:]:
        assert heap2.read(handles[h.id]) == b"x" * 20
    assert heap2.read(handles[guarded.id]) == b"G" * 40


def _persist_of(modified):
    """A heap of 16 committed objects, ``modified`` of them written since."""
    dev, heap = fresh()
    handles = [heap.alloc(bytes([i]) * 32) for i in range(16)]
    persist(heap)
    for h in handles[:modified]:
        heap.replace(h, b"x" * 32)
    return heap


def test_persist_costs_at_most_76_bytecodes_per_payload():
    """Each modified object costs persist one pass step: its device write
    and its write-guard test. The per-payload cost is the difference
    between 16 and 8 payloads."""
    per_payload = (count_bytecodes(persist, _persist_of(16))
                   - count_bytecodes(persist, _persist_of(8))) / 8
    assert per_payload <= 76


@pytest.mark.parametrize("modified", [8, 16])
def test_persist_sorts_nothing(modified):
    """Persist writes in the modified index's own order: no call to
    ``sorted`` or ``list.sort``, whose work no bytecode count can see."""
    calls = count_c_calls(persist, _persist_of(modified))
    assert calls["dict.values"] == 1  # the probe sees the pass
    assert not calls["sorted"] and not calls["list.sort"]


# Known defects: a write-back (an eviction sync, ``sync_object``, a persist
# payload or a ``replace`` written around the cache) goes over its object's
# committed extent in place, so a power cut after it restores bytes that no
# commit held. Each test passes once the first write-back of an epoch goes
# to a fresh extent.

def _contents(heap, handles):
    return {hid: heap.read(h) for hid, h in handles.items()}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="sync_object writes over the committed extent")
def test_a_sync_after_the_commit_leaves_the_committed_payload():
    dev, heap = fresh()
    h = heap.alloc(b"old!" * 4)
    persist(heap)
    heap.replace(h, b"new!" * 4)
    heap.sync_object(h)
    heap2, handles = restore(dev.reopen())
    assert _contents(heap2, handles) == {h.id: b"old!" * 4}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an eviction sync writes over the committed extent")
def test_an_eviction_sync_after_the_commit_leaves_the_committed_payload():
    dev, heap = fresh(cache=256, dirty=256)
    h = heap.alloc(b"A" * 200)
    persist(heap)
    heap.replace(h, b"B" * 200)
    heap.alloc(b"C" * 200)  # evicts h, syncing it
    heap2, handles = restore(dev.reopen())
    assert _contents(heap2, handles) == {h.id: b"A" * 200}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a cut persist leaves a torn payload in the committed extent")
def test_a_persist_cut_mid_payload_restores_the_committed_payloads():
    dev, heap = fresh()
    hs = [heap.alloc(bytes([i]) * 64) for i in range(2)]
    persist(heap)
    for h in hs:
        heap.replace(h, b"n" * 64)
    dev.arm_power_failure(20)  # object 1's 16 words, then 4 of object 2's
    with pytest.raises(PowerFailureInjected):
        persist(heap)
    heap2, handles = restore(dev.reopen())
    assert _contents(heap2, handles) == {h.id: bytes([i]) * 64 for i, h in enumerate(hs)}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a replace written around the cache writes over the committed extent")
def test_a_write_around_after_the_commit_leaves_the_committed_payload():
    dev, heap = fresh(cache=256, dirty=256)
    h = heap.alloc(b"A" * 100)
    persist(heap)
    heap.unload(h)
    heap.alloc(b"C" * 200)  # [0, 204): no hole fits h, and C is as hot as h
    heap.replace(h, b"B" * 100)
    if heap.object_info(h).resident:
        pytest.fail("the replace was admitted, not written around")
    heap2, handles = restore(dev.reopen())
    assert _contents(heap2, handles) == {h.id: b"A" * 100}
