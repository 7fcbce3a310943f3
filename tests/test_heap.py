"""Heap behaviour: allocation, the two budgets, eviction order, state machine."""

import dataclasses
import random

import pytest

from vnvheap import (
    CachePressureUnresolvableError,
    ConfigInvalidError,
    DirtyBudgetUnsatisfiableError,
    GuardActiveError,
    HEADER_CHARGE_BYTES,
    HeapConfig,
    HeapPoisonedError,
    META_CHARGE_BYTES,
    ObjectTooLargeError,
    OutOfNvmError,
    PowerFailureInjected,
    PreconditionError,
    SimulatedNvm,
    SizeMismatchError,
    StaleHandleError,
    StillPinnedError,
    VnvHeap,
    WriteGuardActiveError,
    persist,
    restore,
    words_for,
)
from vnvheap.freelist import align_up
from vnvheap.layout import ENTRY_BYTES
from vnvheap.oracle import check_indexes

from traceutil import count_bytecodes, count_bytecodes_by_function, log_writes


def make_heap(cache=4096, dirty=2048, max_objects=64, capacity=256 * 1024):
    dev = SimulatedNvm(capacity)
    return VnvHeap(dev, cache_size_bytes=cache,
                   max_modified_state_bytes=dirty, max_objects=max_objects)


def _load(heap, handle):
    """The payload, read through a guard: unlike ``heap.read``, whose
    admission rule may serve a miss from NVM, a miss always loads."""
    with heap.get_ref(handle) as guard:
        return guard.read()


def _swapped_out(heap, payload, hits=1):
    """A clean, swapped-out object of ``payload`` with ``hits`` hits."""
    handle = heap.alloc(payload)
    for _ in range(hits - 1):
        heap.get_ref(handle).release()
    heap.sync_object(handle)
    heap.unload(handle)
    return handle


def expected_dirty(heap):
    """Recompute the dirty total from first principles: the header and the
    whole words of each modified object. Residency and deallocation are
    free."""
    total = HEADER_CHARGE_BYTES
    for hid in heap.live_handle_ids():
        info = heap.object_info(heap.handle(hid))
        if info.modified:
            total += align_up(info.size_bytes)
    return total


# -- configuration -----------------------------------------------------------

def test_config_rejects_nonsense():
    dev = SimulatedNvm(64 * 1024)
    with pytest.raises(ConfigInvalidError, match="cannot hold even a one-byte object"):
        VnvHeap(dev, cache_size_bytes=0)
    with pytest.raises(ConfigInvalidError):
        VnvHeap(dev, cache_size_bytes=1022)  # not word-aligned
    with pytest.raises(ConfigInvalidError, match="must be positive"):
        VnvHeap(dev, max_modified_state_bytes=0)
    with pytest.raises(ConfigInvalidError):
        VnvHeap(dev, cache_size_bytes=1024, max_modified_state_bytes=2048)
    with pytest.raises(ConfigInvalidError, match="fixed persist header"):
        VnvHeap(dev, max_modified_state_bytes=HEADER_CHARGE_BYTES - 4)
    # A 4 B cache holds a one-byte object: only its limit, which must cover
    # the header and fit the cache, cannot exist.
    with pytest.raises(ConfigInvalidError, match="fixed persist header"):
        VnvHeap(dev, cache_size_bytes=4, max_modified_state_bytes=4)
    with pytest.raises(ConfigInvalidError):
        VnvHeap(dev, max_objects=0)


def test_config_accepts_each_bound_itself():
    """Every bound admits its own value: a 16 B cache whose limit is the
    whole cache and covers the persist header alone, with one metadata
    slot."""
    cfg = HeapConfig(cache_size_bytes=HEADER_CHARGE_BYTES,
                     max_modified_state_bytes=HEADER_CHARGE_BYTES, max_objects=1)
    assert (cfg.cache_size_bytes, cfg.max_modified_state_bytes, cfg.max_objects) == (16, 16, 1)
    heap = make_heap(cache=16, dirty=16, max_objects=1)
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        heap.alloc(b"a")  # the header leaves no room for a charge
    heap = make_heap(cache=20, dirty=20, max_objects=1)
    h = heap.alloc(b"a")  # the one slot
    assert heap.read(h) == b"a"


def test_config_rejects_device_too_small_for_tables():
    dev = SimulatedNvm(1024)
    with pytest.raises(ConfigInvalidError, match="leaves no object region"):
        VnvHeap(dev, max_objects=1024)  # tables alone need 20 KiB


def test_config_rejects_a_cache_larger_than_the_device():
    dev = SimulatedNvm(2048)
    with pytest.raises(ConfigInvalidError, match="exceeds the 2048 B device"):
        VnvHeap(dev, cache_size_bytes=4096, max_objects=8)
    assert dev.cost_meter.snapshot() == (0, 0)


def test_default_config():
    cfg = HeapConfig()
    assert cfg.cache_size_bytes == 4096
    assert cfg.max_modified_state_bytes == 2048


# -- allocation and accounting ------------------------------------------------

def test_alloc_stores_payload_and_charges_dirty():
    heap = make_heap()
    h = heap.alloc(b"abc" * 11)  # 33 B
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES + align_up(33) == 52
    assert heap.dirty_bytes == expected_dirty(heap)
    with heap.get_ref(h) as g:
        assert g.read() == b"abc" * 11


def test_alloc_rejects_empty_payload():
    heap = make_heap()
    with pytest.raises(PreconditionError):
        heap.alloc(b"")


def test_alloc_rejects_object_larger_than_cache():
    heap = make_heap(cache=4096, dirty=4096)
    with pytest.raises(ObjectTooLargeError):
        heap.alloc(bytes(4096))  # payload + metadata exceeds the cache


def test_an_object_whose_block_is_the_whole_cache_is_cacheable():
    """A 61 B object takes a 64 B block. In a 64 B cache it is not too
    large to cache, but its charge and the header pass any limit that
    cache allows, so an alloc is refused by the dirty budget. Restored
    into that cache, it loads and reads."""
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=4096, max_modified_state_bytes=2048, max_objects=8)
    h = heap.alloc(b"w" * 61)
    persist(heap)
    restored, handles = restore(dev.reopen(), cache_size_bytes=64, max_modified_state_bytes=64)
    with restored.get_ref(handles[h.id]) as g:
        assert g.read() == b"w" * 61
    assert restored.stats().cache_free_bytes == 0
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        restored.alloc(b"n" * 61)
    with pytest.raises(ObjectTooLargeError):
        restored.alloc(b"n" * 62)  # a 68 B block


def test_alloc_rejects_object_that_can_never_be_dirty():
    heap = make_heap(cache=4096, dirty=256)
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        heap.alloc(bytes(256 - HEADER_CHARGE_BYTES + 1))  # 241 B: 244 B of words
    heap.alloc(bytes(256 - HEADER_CHARGE_BYTES))
    assert heap.dirty_bytes == 256


def test_alloc_exhausts_nvm():
    heap = make_heap(cache=2048, max_objects=8, capacity=2048)
    region = heap.layout.object_bytes
    heap.alloc(bytes(align_up(region // 2)))
    with pytest.raises(OutOfNvmError):
        heap.alloc(bytes(region // 2 + 8))


def test_alloc_exhausts_metadata_table():
    heap = make_heap(max_objects=2)
    heap.alloc(b"a")
    heap.alloc(b"b")
    with pytest.raises(OutOfNvmError):
        heap.alloc(b"c")


def test_dealloc_frees_everything():
    heap = make_heap()
    before = heap.stats()
    h = heap.alloc(bytes(100))
    heap.dealloc(h)
    after = heap.stats()
    # born and freed in one epoch: no checkpoint holds it, so it is all free
    assert after == before
    assert heap.live_handle_ids() == []
    kept = heap.alloc(bytes(100))
    persist(heap)
    heap.dealloc(kept)
    # the last commit holds it: its extent stays reserved until the next one
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES == expected_dirty(heap)
    assert heap.stats().cache_free_bytes == before.cache_free_bytes
    assert heap.stats().nvm_free_bytes == before.nvm_free_bytes - align_up(100)
    assert persist(heap).words_transferred == 1  # the epoch word alone
    assert heap.stats() == before


def test_dealloc_then_use_raises_stale_handle():
    heap = make_heap()
    h = heap.alloc(b"x")
    heap.dealloc(h)
    with pytest.raises(StaleHandleError):
        heap.get_ref(h)
    with pytest.raises(StaleHandleError):
        heap.dealloc(h)


def test_handles_do_not_cross_heaps():
    a, b = make_heap(), make_heap()
    h = a.alloc(b"x")
    with pytest.raises(StaleHandleError):
        b.get_ref(h)


def test_handle_reattach_by_id():
    heap = make_heap()
    h = heap.alloc(b"payload")
    again = heap.handle(h.id)
    with heap.get_ref(again) as g:
        assert g.read() == b"payload"
    with pytest.raises(StaleHandleError):
        heap.handle(9999)


def test_a_handle_is_its_objects_one_record():
    """``alloc``, ``handle(id)`` and ``restore`` hand out one handle per
    object, so handles compare and hash by identity: as dict keys and set
    members they name their objects."""
    heap = make_heap()
    a, b = heap.alloc(b"a"), heap.alloc(b"bb")
    assert heap.handle(a.id) is a and heap.handle(b.id) is b
    assert repr(a) == f"ObjectHandle(id={a.id}, size=1)"
    names = {a: "a", b: "b"}
    assert names[heap.handle(b.id)] == "b"
    assert len({a, b, heap.handle(a.id)}) == 2
    persist(heap)
    heap2, handles = restore(heap.device.reopen())
    assert handles.keys() == {a.id, b.id}
    assert all(handle is heap2.handle(hid) for hid, handle in handles.items())
    assert handles[a.id] != a and handles[a.id] not in names  # another heap's object


_ENTRY_POINTS = {
    "get_ref": lambda heap, h: heap.get_ref(h),
    "read": lambda heap, h: heap.read(h),
    "get_mut": lambda heap, h: heap.get_mut(h),
    "replace": lambda heap, h: heap.replace(h, bytes(h.size_bytes)),
    "dealloc": lambda heap, h: heap.dealloc(h),
    "sync_object": lambda heap, h: heap.sync_object(h),
    "unload": lambda heap, h: heap.unload(h),
    "object_info": lambda heap, h: heap.object_info(h),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_refuses_a_dead_or_foreign_handle(entry):
    """A deallocated handle is refused as deallocated, and a live handle of
    another heap, whose id names a live object here, as another heap's;
    either refusal leaves the heap as it was."""
    heap = make_heap()
    live = heap.alloc(b"l" * 8)
    gone = heap.alloc(b"g" * 8)
    heap.dealloc(gone)
    foreign = make_heap().alloc(b"f" * 8)
    assert foreign.id == live.id
    call = _ENTRY_POINTS[entry]
    for handle, message in ((gone, f"object {gone.id} was deallocated"),
                            (foreign, "belongs to a different heap")):
        before = _heap_state(heap)
        with pytest.raises(StaleHandleError, match=message):
            call(heap, handle)
        assert _heap_state(heap) == before


# -- eviction ------------------------------------------------------------------

def test_cache_pressure_evicts_coldest_first_older_entry_breaks_ties():
    heap = make_heap(cache=1024, dirty=1024)
    hs = [heap.alloc(bytes([i]) * 200) for i in range(5)]  # 5 * 204 = 1020
    assert heap.stats().resident_count == 5
    heap.get_ref(hs[0]).release()  # 2 hits: the oldest is no longer the coldest
    heap.alloc(b"f" * 200)  # forces one eviction
    assert [heap.object_info(h).resident for h in hs] == [True, False, True, True, True]
    heap.alloc(b"g" * 200)  # "f" has 1 hit too, but entered its tier last
    assert [heap.object_info(h).resident for h in hs] == [True, False, False, True, True]


@pytest.mark.parametrize("hits_a, hits_c, victims", [
    (3, 2, "bc"),  # c has fewer hits
    (2, 3, "ba"),  # a has fewer hits
    (2, 2, "bc"),  # a tie grows the hole upward
])
def test_a_hole_grows_into_its_colder_neighbour(hits_a, hits_c, victims):
    """Five 204 B blocks a..e fill a 1024 B cache; b, with 1 hit, is the
    coldest and anchors the hole, and a 404 B block needs one neighbour
    more: the one with fewer hits."""
    heap = make_heap(cache=1024, dirty=1024)
    hs = dict(zip("abcde", (heap.alloc(bytes([i]) * 200) for i in range(5))))
    for name, hits in zip("abcde", (hits_a, 1, hits_c, 4, 4)):
        for _ in range(hits - 1):
            heap.get_ref(hs[name]).release()
    unloaded = _log_calls(heap, "_unload")
    heap.alloc(b"n" * 400)
    assert unloaded == [hs[name].id for name in victims]


def test_a_hot_object_survives_a_sweep_of_cold_loads():
    """Under arrival order the hot object, the oldest resident, is the first
    victim of a sweep that loads each cold object once; ranked by hits, the
    sweep's objects evict one another and the hot one stays resident."""
    heap = make_heap(cache=1024, dirty=1024, max_objects=32)
    hot = heap.alloc(b"H" * 200)
    for _ in range(3):
        heap.get_ref(hot).release()
    cold = []
    for i in range(12):
        h = heap.alloc(bytes([i]) * 200)
        heap.sync_object(h)
        heap.unload(h)
        cold.append(h)
    unloaded = _log_calls(heap, "_unload")
    for i, h in enumerate(cold):
        assert _load(heap, h) == bytes([i]) * 200
    assert len(unloaded) == len(cold) - 4  # the cache holds five blocks
    assert hot.id not in unloaded
    words = heap.device.cost_meter.words_total
    assert heap.read(hot) == b"H" * 200
    assert heap.device.cost_meter.words_total == words


@pytest.mark.parametrize("seed", range(4))
def test_victims_of_an_unpinned_miss_are_one_run_from_the_coldest(seed):
    """With no pinned block in the cache, each miss evicts one address-
    contiguous run: no other resident lies between its victims, and the run
    holds the coldest resident, the first of the lowest tier."""
    rng = random.Random(seed)
    heap = make_heap(cache=2048, dirty=2048, max_objects=128)
    handles = [heap.alloc(bytes([i]) * rng.randint(1, 200)) for i in range(48)]
    unloaded = _log_calls(heap, "_unload")
    runs = 0
    for _ in range(300):
        h = rng.choice(handles[: rng.choice((6, 48))])  # a few hot handles
        if rng.random() < 0.2:
            heap.replace(h, bytes([rng.randrange(256)]) * h.size_bytes)
            continue
        if rng.random() < 0.1 and heap.object_info(h).resident:
            if heap.object_info(h).modified:
                heap.sync_object(h)
            heap.unload(h)  # punches a hole somewhere in the cache
            continue
        residents = {m.id: (m.cache_offset, m.cache_offset + m.block_bytes)
                     for m in heap._by_offset.values()}
        coldest = next(m.id for tier in heap._tiers for m in tier.values())
        unloaded.clear()
        heap.get_ref(h).release()
        if not unloaded:
            continue
        start = min(residents[v][0] for v in unloaded)
        end = max(residents[v][1] for v in unloaded)
        between = [hid for hid, (s, e) in residents.items() if start < e and s < end]
        assert sorted(between) == sorted(unloaded)
        assert coldest in unloaded
        runs += len(unloaded) > 1
    assert runs > 10  # many misses grew a hole past its anchor


def test_evicted_object_reloads_with_its_payload():
    heap = make_heap(cache=512, dirty=512)
    h1 = heap.alloc(b"1" * 200)
    heap.alloc(b"2" * 200)  # blocks: 204 + 204, leaving 104 free
    heap.alloc(b"3" * 120)  # needs 124 -> evicts h1 (write-back first)
    assert not heap.object_info(h1).resident
    with heap.get_ref(h1) as g:
        assert g.read() == b"1" * 200
    assert heap.object_info(h1).resident


def test_eviction_skips_pinned_objects():
    heap = make_heap(cache=512, dirty=512)
    h1 = heap.alloc(b"1" * 200)
    h2 = heap.alloc(b"2" * 200)
    g = heap.get_ref(h1)
    heap.alloc(b"3" * 120)  # must evict h2, not the pinned h1
    assert heap.object_info(h1).resident
    assert not heap.object_info(h2).resident
    g.release()


def test_all_pinned_cache_pressure_is_an_error():
    heap = make_heap(cache=512, dirty=512)
    g1 = heap.get_ref(heap.alloc(b"1" * 200))
    g2 = heap.get_ref(heap.alloc(b"2" * 200))
    with pytest.raises(CachePressureUnresolvableError):
        heap.alloc(b"3" * 200)
    g1.release(); g2.release()
    heap.alloc(b"3" * 200)  # now fine


def test_a_walled_hole_is_given_back_and_only_the_fitting_hole_is_evicted():
    """A, the coldest resident, is modified and walled in between the cache
    start and the pinned P. A miss for T's 504 B block cannot fit in A's
    hole, so A stays resident and modified and only C, whose hole fits, is
    synced and unloaded: the miss writes C's words and not A's."""
    heap = make_heap(cache=1024, dirty=1024)
    a = heap.alloc(b"A" * 100)  # [0, 104)
    p = heap.alloc(b"P" * 100)  # [104, 208)
    t = heap.alloc(b"T" * 500)  # [208, 712), then swapped out
    heap.sync_object(t)
    heap.unload(t)
    c = heap.alloc(b"C" * 700)  # [208, 912); [912, 1024) is free
    guard = heap.get_ref(p)
    meter = heap.device.cost_meter
    read, written = meter.words_read, meter.words_written
    assert _load(heap, t) == b"T" * 500
    assert meter.words_written - written == words_for(700)
    assert meter.words_read - read == words_for(500)
    assert heap.object_info(a).resident and heap.object_info(a).modified
    assert heap.object_info(a).cache_offset == 0
    assert not heap.object_info(c).resident
    assert heap.object_info(t).cache_offset == 208
    assert heap.dirty_bytes == expected_dirty(heap)
    guard.release()


def test_a_cache_miss_with_every_hole_walled_in_moves_no_word():
    """Every unpinned resident is walled in by pinned blocks in holes too
    small for the block: the miss raises with nothing synced or unloaded."""
    heap = make_heap(cache=512, dirty=512)
    a = heap.alloc(b"A" * 100)  # [0, 104)
    p = heap.alloc(b"P" * 100)  # [104, 208)
    heap.sync_object(p)
    t = heap.alloc(b"T" * 300)  # [208, 512), then swapped out
    heap.sync_object(t)
    heap.unload(t)
    b = heap.alloc(b"B" * 100)  # [208, 312)
    q = heap.alloc(b"Q" * 190)  # [312, 508)
    guards = [heap.get_ref(p), heap.get_ref(q)]
    stats = heap.stats()
    words = heap.device.cost_meter.words_total
    with pytest.raises(CachePressureUnresolvableError):
        heap.get_ref(t)
    assert heap.device.cost_meter.words_total == words
    assert heap.stats() == stats
    assert heap._cache_alloc.free_extents() == [(508, 4)]
    assert all(heap.object_info(h).modified for h in (a, b))
    for g in guards:
        g.release()
    assert _load(heap, t) == b"T" * 300


def test_failed_alloc_rolls_back_cleanly():
    heap = make_heap(cache=512, dirty=512)
    g1 = heap.get_ref(heap.alloc(b"1" * 200))
    g2 = heap.get_ref(heap.alloc(b"2" * 200))
    stats = heap.stats()
    with pytest.raises(CachePressureUnresolvableError):
        heap.alloc(b"3" * 200)
    assert heap.stats() == stats
    g1.release(); g2.release()


def test_dirty_pressure_syncs_oldest_modified_first():
    heap = make_heap(cache=4096, dirty=1024)
    dev = heap.device
    h1 = heap.alloc(b"1" * 400)
    h2 = heap.alloc(b"2" * 400)
    # 16 + 2*400 = 816; a 250 B object (252 more) busts the budget
    written_before = dev.cost_meter.words_written
    h3 = heap.alloc(b"3" * 250)
    # h1 was synced (100 words) to make room; plus the new entry's five
    # words. All three stay resident.
    assert dev.cost_meter.words_written - written_before == 100 + 5
    assert not heap.object_info(h1).modified
    assert heap.object_info(h1).resident
    assert heap.object_info(h2).modified
    assert heap.dirty_bytes == expected_dirty(heap) <= 1024


def test_dirty_victims_that_exactly_cover_the_charge_are_all_that_is_synced():
    """A, B and C (100 B each) are modified: 16 + 300 of the 512 limit. A
    296 B alloc is 100 B over it, which A's sync alone covers exactly, so
    A is synced and B, the next in arrival order, stays modified."""
    heap = make_heap(cache=4096, dirty=512)
    a, b, c = (heap.alloc(bytes([i]) * 100) for i in range(3))
    log = log_writes(heap.device)
    d = heap.alloc(b"D" * 296)
    assert log[0] == (a.nvm_offset, bytes([0]) * 100)
    assert [offset for offset, _ in log[1:]] == [heap.tables.table_offset + 3 * ENTRY_BYTES]
    assert [heap.object_info(h).modified for h in (a, b, c, d)] == [False, True, True, True]
    assert heap.dirty_bytes == expected_dirty(heap) == 512


def test_clean_residents_cost_the_dirty_budget_nothing():
    """Alloc and sync a 1-byte object 1024 times, every one left resident
    and clean: a persist would write its commit word alone, so no alloc is
    refused for dirty pressure."""
    heap = make_heap(cache=4096, dirty=2048, max_objects=1024, capacity=64 * 1024)
    for _ in range(1024):
        heap.sync_object(heap.alloc(b"1"))
    assert heap.stats().resident_count == 1024
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES


def test_unsatisfiable_dirty_pressure_is_an_error():
    heap = make_heap(cache=4096, dirty=512)
    g = heap.get_mut(heap.alloc(b"a" * 400))
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        heap.alloc(b"b" * 400)
    g.release()
    heap.alloc(b"b" * 400)  # sync of the first object now resolves it


def test_a_refused_dirty_rule_moves_no_word():
    """A modified 200 B object and a write-guarded one charge 16 + 2 * 200 of
    the 512 limit. A get_mut miss on a clean 300 B object cannot be admitted
    even if the unguarded one is synced, so it raises before any sync."""
    heap = make_heap(cache=1024, dirty=512)
    target = heap.alloc(b"T" * 300)
    heap.sync_object(target)
    heap.unload(target)
    a = heap.alloc(b"A" * 200)
    guard = heap.get_mut(heap.alloc(b"B" * 200))
    stats = heap.stats()
    words = heap.device.cost_meter.words_total
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        heap.get_mut(target)
    assert heap.device.cost_meter.words_total == words
    assert heap.stats() == stats
    assert heap.object_info(a).modified
    assert not heap.object_info(target).resident
    guard.release()


def test_a_refused_alloc_moves_no_word():
    """B (300 B) is write-guarded and A (100 B) modified: 16 + 300 + 100 of
    the 512 limit. A 200 B alloc fits the cache once A's hole is freed, but
    not even A's sync could admit its charge, so it raises with A neither
    synced nor unloaded."""
    heap = make_heap(cache=512, dirty=512)
    b = heap.alloc(b"B" * 300)  # [0, 304)
    a = heap.alloc(b"A" * 100)  # [304, 408)
    guard = heap.get_mut(b)
    before = _heap_state(heap)
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        heap.alloc(b"C" * 200)
    assert _heap_state(heap) == before
    assert heap._cache_alloc.free_extents() == [(408, 104)]
    guard.release()
    c = heap.alloc(b"C" * 200)  # the syncs of A and B now make room
    assert not heap.object_info(a).resident
    assert heap.read(c) == b"C" * 200
    assert heap.dirty_bytes == expected_dirty(heap)


def test_a_miss_refused_for_cache_pressure_moves_no_word():
    """X (300 B) is swapped out. M, P1 and P2 (100 B each) sit at 0, 104 and
    208, with P1 write-guarded and P2 clean and read-guarded: 16 + 200 of
    the 512 limit. A ``get_mut`` of X needs M's sync for dirty room, but no
    hole fits X's 304 B block, so the miss raises
    ``CachePressureUnresolvableError``. It should have synced nothing. A
    ``replace`` of X is never refused for cache pressure: it is written
    around the cache, one write of its payload, and M stays modified."""
    for name in ("get_mut", "replace"):
        heap = make_heap(cache=512, dirty=512)
        x = heap.alloc(b"X" * 300)
        heap.sync_object(x)
        heap.unload(x)
        m = heap.alloc(b"M" * 100)
        p1 = heap.alloc(b"1" * 100)
        p2 = heap.alloc(b"2" * 100)
        heap.sync_object(p2)
        guards = [heap.get_mut(p1), heap.get_ref(p2)]
        before = _heap_state(heap)
        if name == "get_mut":
            with pytest.raises(CachePressureUnresolvableError):
                heap.get_mut(x)
            assert _heap_state(heap) == before, "the refused get_mut moved words"
        else:
            log = log_writes(heap.device)
            heap.replace(x, b"Y" * 300)
            assert log == [(x.nvm_offset, b"Y" * 300)]
            _only_the_count_changed(heap, x, before, words_for(300))
            assert heap.object_info(m).modified
        for g in guards:
            g.release()
        if name == "replace":
            assert _load(heap, x) == b"Y" * 300


def test_a_write_miss_counts_the_syncs_of_its_hole_as_dirty_room():
    """512 B cache, 400 B limit. X (200 B) is swapped out; O (100 B, at
    [0, 104)) is modified and hot, C (196 B, [104, 304)) clean and V (200 B,
    [304, 508)) modified: 16 + 300 of the limit. X's 204 B block takes the
    hole of C and V, and X's charge needs 116 B synced, which V's sync, made
    for the hole anyway, covers. So a ``get_mut`` or ``replace`` of X writes
    V's payload alone and O stays modified. X has 2 hits, so the replace,
    its 3rd, is more than twice C's 1 and is admitted."""
    accesses = {"get_mut": lambda heap, x: heap.get_mut(x).release(),
                "replace": lambda heap, x: heap.replace(x, b"Y" * 200)}
    for name, access in accesses.items():
        heap = make_heap(cache=512, dirty=400)
        x = _swapped_out(heap, b"X" * 200, hits=2)
        o = heap.alloc(b"O" * 100)
        c = heap.alloc(b"C" * 196)
        heap.sync_object(c)
        v = heap.alloc(b"V" * 200)
        heap.read(o)  # O is hot, so the hole grows from C into V
        assert [heap.object_info(h).cache_offset for h in (o, c, v)] == [0, 104, 304]
        log = log_writes(heap.device)
        access(heap, x)
        assert log == [(heap.object_info(v).nvm_offset, b"V" * 200)], f"{name} wrote {log}"
        assert heap.object_info(o).modified
        assert heap.object_info(x).cache_offset == 104
        assert heap.dirty_bytes == expected_dirty(heap) == 16 + 100 + 200


def test_a_holes_modified_victims_that_exactly_cover_the_charge_sync_nothing_more():
    """The heap of the test above at a 316 B limit, which O, C's sync and V
    leave full. X's 200 B charge is over it by exactly V's 200, which V's
    sync for the hole covers, so the dirty rule chooses no victim and O
    stays modified."""
    accesses = {"get_mut": lambda heap, x: heap.get_mut(x).release(),
                "replace": lambda heap, x: heap.replace(x, b"Y" * 200)}
    for name, access in accesses.items():
        heap = make_heap(cache=512, dirty=316)
        x = _swapped_out(heap, b"X" * 200, hits=2)
        o = heap.alloc(b"O" * 100)
        c = heap.alloc(b"C" * 196)
        heap.sync_object(c)
        v = heap.alloc(b"V" * 200)
        heap.read(o)
        assert heap.dirty_bytes == 316
        log = log_writes(heap.device)
        access(heap, x)
        assert log == [(heap.object_info(v).nvm_offset, b"V" * 200)], f"{name} wrote {log}"
        assert heap.object_info(o).modified
        assert heap.dirty_bytes == expected_dirty(heap) == 16 + 100 + 200


def test_cache_pressure_is_refused_before_dirty_pressure():
    """512 B cache, 400 B limit. X (300 B) is swapped out, P (200 B) is
    write-guarded and Q (100 B) clean and read-guarded. No hole fits a
    304 B block, and no sync can admit a 300 B charge beside P's 200 B, so
    both rules refuse: a ``get_mut`` miss of X and a 300 B alloc each raise
    the cache rule's error with no word moved. A ``replace`` of X, which
    no hole admits, is written around the cache instead: its payload's
    words alone, and neither rule's refusal."""
    accesses = {"get_mut": lambda heap, x: heap.get_mut(x),
                "alloc": lambda heap, x: heap.alloc(b"Z" * 300),
                "replace": None}  # written around, below
    for name, access in accesses.items():
        heap = make_heap(cache=512, dirty=400)
        x = heap.alloc(b"X" * 300)
        heap.sync_object(x)
        heap.unload(x)
        p = heap.alloc(b"P" * 200)
        q = heap.alloc(b"Q" * 100)
        heap.sync_object(q)
        guards = [heap.get_mut(p), heap.get_ref(q)]
        before = _heap_state(heap)
        extents = heap._cache_alloc.free_extents()
        if access is None:
            heap.replace(x, b"Y" * 300)
            _only_the_count_changed(heap, x, before, words_for(300))
        else:
            with pytest.raises(CachePressureUnresolvableError):
                access(heap, x)
            assert _heap_state(heap) == before, f"the refused {name} moved words"
        assert heap._cache_alloc.free_extents() == extents
        for g in guards:
            g.release()


def test_without_pressure_no_room_is_made():
    """A read miss, a replace miss, a first write of a resident and an
    alloc that each fit by first fit, with dirty room to spare, succeed
    without calling ``_make_room``: one probe is their whole cost."""
    heap = make_heap(cache=1024, dirty=512)
    a, b = heap.alloc(b"A" * 100), heap.alloc(b"B" * 100)
    for h in (a, b):
        heap.sync_object(h)
        heap.unload(h)
    c = heap.alloc(b"C" * 100)
    heap.sync_object(c)

    def refuse(*args):
        raise AssertionError("room was made without pressure")

    heap._make_room = refuse
    assert heap.read(a) == b"A" * 100
    heap.replace(b, b"b" * 100)
    with heap.get_mut(c) as w:
        w.write(b"c")
    d = heap.alloc(b"D" * 100)
    assert [heap.read(h) for h in (b, c, d)] == [b"b" * 100, b"c" + b"C" * 99, b"D" * 100]
    assert heap.dirty_bytes == expected_dirty(heap) == 16 + 3 * 100


def _count_allocator_calls(allocator):
    """Count the ``free`` calls made on ``allocator``."""
    calls = {"free": 0}
    for name in calls:
        inner = getattr(allocator, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        setattr(allocator, name, counted)
    return calls


def test_a_miss_meeting_a_walled_hole_leaves_the_allocator_untouched():
    """A, the coldest resident, is walled in by the cache start and the
    read-guarded P: its hole is too small for T. The cache rule passes over
    it without freeing A's block or carving it back, then evicts B and Q,
    whose hole fits. With P's neighbour Q pinned as well, no hole fits and
    the refused miss leaves the free extents exactly as they were."""
    for q_pinned in (False, True):
        heap = make_heap(cache=512, dirty=512)
        a = heap.alloc(b"A" * 100)  # [0, 104)
        p = heap.alloc(b"P" * 100)  # [104, 208)
        t = heap.alloc(b"T" * 200)  # [208, 412), then swapped out
        heap.sync_object(t)
        heap.unload(t)
        b = heap.alloc(b"B" * 100)  # [208, 312)
        q = heap.alloc(b"Q" * 196)  # [312, 512)
        guards = [heap.get_ref(p)] + ([heap.get_ref(q)] if q_pinned else [])
        extents = heap._cache_alloc.free_extents()
        calls = _count_allocator_calls(heap._cache_alloc)
        if q_pinned:
            before = _heap_state(heap)
            with pytest.raises(CachePressureUnresolvableError):
                heap.get_ref(t)
            assert _heap_state(heap) == before
            assert heap._cache_alloc.free_extents() == extents == []
        else:
            assert _load(heap, t) == b"T" * 200
            assert heap.object_info(t).cache_offset == 208
            assert heap.object_info(a).resident
            assert not heap.object_info(b).resident and not heap.object_info(q).resident
            assert heap._cache_alloc.free_extents() == [(412, 100)]
        assert calls == {"free": 0}
        for g in guards:
            g.release()


def test_hits_count_accesses_survive_swap_out_and_restart_at_restore():
    heap = make_heap()
    h = heap.alloc(b"x" * 40)
    assert heap.object_info(h).hits == 1
    heap.get_ref(h).release()
    assert heap.read(h) == b"x" * 40
    heap.get_mut(h).release()
    heap.replace(h, b"y" * 40)
    assert heap.object_info(h).hits == 5
    guard = heap.get_mut(h)
    for refused in (heap.get_ref, heap.read, heap.get_mut):
        with pytest.raises(GuardActiveError):
            refused(h)
    guard.release()
    assert heap.object_info(h).hits == 6  # a refused access counts nothing
    heap.sync_object(h)
    heap.unload(h)
    assert heap.object_info(h).hits == 6
    assert heap.read(h) == b"y" * 40  # the load is the 7th hit
    assert heap.object_info(h).hits == 7
    assert heap._tiers[3][h.id] is heap._metas[h.id]
    persist(heap)
    heap2, handles = restore(heap.device.reopen())
    assert heap2.object_info(handles[h.id]).hits == 1
    assert heap2.read(handles[h.id]) == b"y" * 40
    assert heap2.object_info(handles[h.id]).hits == 2


# -- explicit state management -------------------------------------------------

def test_sync_then_unload_is_zero_transfer_then_reload():
    heap = make_heap()
    h = heap.alloc(b"q" * 128)
    heap.sync_object(h)
    assert not heap.object_info(h).modified
    words = heap.device.cost_meter.words_total
    heap.unload(h)
    assert heap.device.cost_meter.words_total == words  # unload moves nothing
    assert not heap.object_info(h).resident
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES


def test_sync_preconditions():
    heap = make_heap()
    h = heap.alloc(b"x" * 8)
    heap.sync_object(h)
    with pytest.raises(PreconditionError):
        heap.sync_object(h)  # already clean
    heap.unload(h)
    with pytest.raises(PreconditionError):
        heap.sync_object(h)  # not resident


def test_unload_preconditions():
    heap = make_heap()
    h = heap.alloc(b"x" * 8)
    with pytest.raises(PreconditionError):
        heap.unload(h)  # still modified
    heap.sync_object(h)
    g = heap.get_ref(h)
    with pytest.raises(StillPinnedError):
        heap.unload(h)
    g.release()
    heap.unload(h)
    with pytest.raises(PreconditionError):
        heap.unload(h)  # already out


def test_dealloc_of_nonresident_object():
    heap = make_heap()
    h = heap.alloc(b"x" * 64)
    heap.sync_object(h)
    heap.unload(h)
    heap.dealloc(h)
    assert heap.live_handle_ids() == []
    assert heap.dirty_bytes == HEADER_CHARGE_BYTES


# -- miss cost -------------------------------------------------------------------

def _log_calls(heap, method):
    """Record the handle id of every object ``heap.<method>`` acts on, in
    order (``_unload`` or ``_sync``)."""
    calls = []
    inner = getattr(heap, method)

    def logged(handle):
        calls.append(handle.id)
        return inner(handle)

    setattr(heap, method, logged)
    return calls


def test_miss_cost_per_victim_does_not_grow_with_free_extents():
    """A ``get_ref`` miss evicts k victims, oldest first, until their merged
    hole fits the block. Each victim costs the same bytecodes whether the
    cache holds 4 or 64 free extents (too small to fit) elsewhere.

    Every miss starts with one first-fit probe over all extents, which finds
    no fit whatever k is; the cost of k = 8 victims minus the cost of k = 1
    leaves that probe out and measures the seven extra victims alone."""
    def miss_bytecodes(victims, extents):
        cache = 2048
        heap = make_heap(cache=cache, dirty=cache, max_objects=200)
        target = heap.alloc(bytes(253))  # a 256 B block at offset 0
        heap.sync_object(target)
        heap.unload(target)
        for _ in range(victims):  # refill [0, 256) in arrival order
            heap.alloc(bytes(256 // victims - META_CHARGE_BYTES))
        gaps = []
        for _ in range(extents):
            heap.alloc(b"k" * 5)  # an 8 B keeper, then an 8 B gap
            gaps.append(heap.alloc(b"g" * 5))
        heap.alloc(bytes(cache - 256 - 16 * extents - META_CHARGE_BYTES))  # the rest
        for hid in heap.live_handle_ids():
            if heap.object_info(heap.handle(hid)).modified:
                heap.sync_object(heap.handle(hid))
        for gap in gaps:
            heap.unload(gap)
        assert len(heap._cache_alloc.free_extents()) == extents
        unloaded = _log_calls(heap, "_unload")
        executed = count_bytecodes(heap.get_ref, target)
        assert len(unloaded) == victims
        assert heap.object_info(target).cache_offset == 0
        return executed

    def seven_more_victims(extents):
        return miss_bytecodes(8, extents) - miss_bytecodes(1, extents)

    assert seven_more_victims(4) == seven_more_victims(64)


def test_alloc_and_dealloc_cost_does_not_grow_with_live_objects():
    """Without cache or dirty pressure, one alloc and one dealloc execute the
    same bytecodes whether 1 or 256 objects are live."""

    def alloc_and_dealloc_bytecodes(live):
        heap = make_heap(cache=8192, dirty=4096, max_objects=300)
        for i in range(live):
            heap.alloc(i.to_bytes(4, "little"))
        persist(heap)
        executed = []
        handle = []
        executed.append(count_bytecodes(lambda: handle.append(heap.alloc(b"new!"))))
        executed.append(count_bytecodes(heap.dealloc, handle[0]))
        assert len(heap.live_handle_ids()) == live
        return executed

    assert alloc_and_dealloc_bytecodes(1) == alloc_and_dealloc_bytecodes(256)


def test_dirty_pressure_cost_does_not_grow_with_clean_residents():
    """A ``get_mut`` miss under dirty pressure, which syncs the oldest
    modified object, executes the same bytecodes whether 1 or 256 clean
    residents arrived before it."""

    def miss_bytecodes(clean):
        heap = make_heap(cache=8192, dirty=256, max_objects=300)
        for i in range(clean):
            heap.sync_object(heap.alloc(bytes([i % 256]) * 4))
        target = heap.alloc(b"T" * 64)
        heap.sync_object(target)
        heap.unload(target)
        oldest = heap.alloc(b"O" * 64)
        heap.alloc(b"M" * 64)
        heap.alloc(b"N" * 64)
        assert heap.dirty_bytes == 16 + 3 * 64  # of 256: the target's 64 B need one sync
        guard = []
        executed = count_bytecodes(lambda: guard.append(heap.get_mut(target)))
        assert not heap.object_info(oldest).modified
        assert heap.stats().resident_count == clean + 4
        guard[0].release()
        return executed

    assert miss_bytecodes(1) == miss_bytecodes(256)


# -- access cost -------------------------------------------------------------------

@pytest.mark.parametrize("case, bound", [
    ("first write", 166),   # get_mut charges a clean resident
    ("write again", 142),   # the resident is modified already
    ("read", 143),
    ("heap.read", 57),      # the kv store's get of a resident
    ("heap.replace", 99),   # the kv store's update of a clean resident
])
def test_guarded_access_costs_at_most_its_bytecodes(case, bound):
    """A guarded access to a resident, granted, used once and released,
    executes at most ``bound`` bytecodes in all, and so does a whole-object
    ``read`` or ``replace`` of it, the kv store's hot path. The resident's
    count reaches 5 or 6, no power of two, so no access moves it up a tier.
    A failure prints the count of each function, naming the one that grew."""
    heap = make_heap()
    h = heap.alloc(b"x" * 40)
    for _ in range(3):
        heap.read(h)
    heap.sync_object(h)
    if case == "write again":
        heap.get_mut(h).release()

    def write_once():
        guard = heap.get_mut(h)
        guard.write(b"y")
        guard.release()

    def read_once():
        guard = heap.get_ref(h)
        guard.read()
        guard.release()

    access = {"first write": write_once, "write again": write_once, "read": read_once,
              "heap.read": lambda: heap.read(h),
              "heap.replace": lambda: heap.replace(h, b"z" * 40)}[case]
    executed = count_bytecodes_by_function(access)
    assert heap.object_info(h).hits in (5, 6)
    assert heap.object_info(h).modified == (case not in ("read", "heap.read"))
    assert sum(executed.values()) <= bound, dict(executed)


def _cold_under_pressure():
    """A heap whose cache five residents with 3 hits each fill, and a
    swapped-out 40 B object with 4: its next access, its 5th hit, is not
    more than twice theirs, so it is not admitted."""
    heap = make_heap(cache=1024, dirty=1024)
    cold = _swapped_out(heap, b"C" * 40, hits=4)
    for i in range(5):  # 5 * 204 of 1024 B
        h = heap.alloc(bytes([i]) * 200)
        heap.sync_object(h)
        for _ in range(2):
            heap.get_ref(h).release()
    return heap, cold


def test_a_read_served_from_nvm_costs_at_most_its_bytecodes():
    """A ``read`` miss that is not admitted, the kv store's get of a cold
    value under cache pressure: one first-fit probe, the weighing against
    the coldest resident and the device read, with no victim planned,
    execute at most 229 bytecodes in all. The object's count reaches 5, no
    power of two. The failed probe leaves the cache allocator's bound at its
    longest free extent, so the next such read, at count 6, skips the probe
    and executes at most 178. A failure prints the count of each function."""
    heap, cold = _cold_under_pressure()
    executed = count_bytecodes_by_function(lambda: heap.read(cold))
    assert heap.object_info(cold).hits == 5
    assert not heap.object_info(cold).resident
    assert sum(executed.values()) <= 229, dict(executed)
    executed = count_bytecodes_by_function(lambda: heap.read(cold))
    assert heap.object_info(cold).hits == 6
    assert not heap.object_info(cold).resident
    assert sum(executed.values()) <= 178, dict(executed)


def test_a_replace_written_around_costs_at_most_its_bytecodes():
    """A ``replace`` miss that is not admitted, the kv store's update of a
    cold value under cache pressure: the same probe and weighing as a read
    served from NVM, then the device write of the payload, execute at most
    241 bytecodes in all. A failure prints the count of each function."""
    heap, cold = _cold_under_pressure()
    payload = b"D" * 40
    executed = count_bytecodes_by_function(lambda: heap.replace(cold, payload))
    assert heap.object_info(cold).hits == 5
    assert not heap.object_info(cold).resident
    assert sum(executed.values()) <= 241, dict(executed)


# -- whole-object replace ----------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_replace_moves_the_words_of_get_mut_write_release_less_the_loads(seed):
    """One seeded trace of gets, whole-object writes and persists under cache
    and dirty pressure, on two heaps: A writes with ``replace``, B with
    ``get_mut`` + ``write`` + ``release``. A hit or a miss that ``replace``
    admits leaves both heaps in the same state with the same device writes,
    A reading one load fewer per admitted miss. A miss it does not admit is
    written around the cache: one write of the payload to the object's
    extent, with nothing changed but the count, and B, in the same state,
    writes it the same way, so the two stay in step. Both restore the same
    bytes."""
    rng = random.Random(seed)
    sizes = [rng.choice((8, 24, 61, 100, 150, 200)) for _ in range(24)]
    shadow = [bytes([i]) * n for i, n in enumerate(sizes)]
    heaps = [make_heap(cache=1024, dirty=512, max_objects=32) for _ in range(2)]
    logs = [log_writes(heap.device) for heap in heaps]
    handles = [[heap.alloc(payload) for payload in shadow] for heap in heaps]
    heap_a, heap_b = heaps
    skipped = admitted = around = 0
    for _ in range(600):
        i = rng.randrange(len(sizes))
        r = rng.random()
        if r < 0.45:
            for heap, hs in zip(heaps, handles):
                with heap.get_ref(hs[i]) as g:
                    assert g.read() == shadow[i]
        elif r < 0.97:
            shadow[i] = rng.randbytes(sizes[i])
            a, b = handles[0][i], handles[1][i]
            missed = not heap_a.object_info(a).resident
            before, written = _heap_state(heap_a), len(logs[0])
            heap_a.replace(a, shadow[i])
            if missed and not heap_a.object_info(a).resident:
                around += 1
                _only_the_count_changed(heap_a, a, before, words_for(sizes[i]))
                assert logs[0][written:] == [(a.nvm_offset, shadow[i])]
                heap_b.replace(b, shadow[i])
                assert not heap_b.object_info(b).resident
            else:
                admitted += missed
                skipped += missed * words_for(sizes[i])
                with heap_b.get_mut(b) as w:
                    w.write(shadow[i])
        else:
            for heap in heaps:
                persist(heap)
        (stats_a, cache_a, _, infos_a), (stats_b, cache_b, _, infos_b) = map(_heap_state, heaps)
        assert (stats_a, cache_a, infos_a) == (stats_b, cache_b, infos_b)
    assert admitted > 10 and around > 10, (admitted, around)
    for heap in heaps:
        persist(heap)

    assert logs[0] == logs[1]
    meter_a, meter_b = heap_a.device.cost_meter, heap_b.device.cost_meter
    assert meter_a.words_written == meter_b.words_written
    assert meter_a.words_read == meter_b.words_read - skipped
    for heap, hs in zip(heaps, handles):
        restored, by_id = restore(heap.device.reopen(), cache_size_bytes=1024,
                                  max_modified_state_bytes=512)
        assert set(by_id) == {h.id for h in hs}
        for h, payload in zip(hs, shadow):
            with restored.get_ref(by_id[h.id]) as g:
                assert g.read() == payload


def _heap_state(heap):
    return (heap.stats(), bytes(heap._cache), heap.device.cost_meter.words_total,
            [heap.object_info(heap.handle(hid)) for hid in heap.live_handle_ids()])


def test_replace_refusals_move_nothing():
    """Each refused ``replace`` raises before any transfer and leaves the
    heap exactly as it was."""
    heap = make_heap()
    swapped = heap.alloc(b"s" * 40)
    heap.sync_object(swapped)
    heap.unload(swapped)
    resident = heap.alloc(b"r" * 40)
    gone = heap.alloc(b"g" * 8)
    heap.dealloc(gone)
    foreign = make_heap().alloc(b"f" * 40)

    # (error, the guard held on ``resident`` during the call, the call)
    cases = ((SizeMismatchError, None, lambda: heap.replace(swapped, b"x" * 39)),
             (SizeMismatchError, None, lambda: heap.replace(resident, b"x" * 41)),
             (GuardActiveError, heap.get_ref, lambda: heap.replace(resident, b"x" * 40)),
             (GuardActiveError, heap.get_mut, lambda: heap.replace(resident, b"x" * 40)),
             (StaleHandleError, None, lambda: heap.replace(gone, b"x" * 8)),
             (StaleHandleError, None, lambda: heap.replace(foreign, b"x" * 40)))
    for error, guard_with, op in cases:
        guard = guard_with(resident) if guard_with else None
        before = _heap_state(heap)
        with pytest.raises(error):
            op()
        assert _heap_state(heap) == before
        if guard:
            guard.release()
    with heap.get_ref(swapped) as g:
        assert g.read() == b"s" * 40


def test_replace_on_a_power_failed_device_is_poisoned():
    heap = make_heap()
    h = heap.alloc(b"p" * 40)
    heap.device.arm_power_failure(0)
    with pytest.raises(PowerFailureInjected):
        heap.sync_object(h)
    heap.device.disarm_power_failure()
    with pytest.raises(HeapPoisonedError):
        heap.replace(h, b"q" * 40)


def test_replace_miss_refused_by_the_dirty_budget_stages_nothing():
    """The miss makes dirty room for X before it takes a cache block: when
    the modified charge cannot be met (16 + 144 + 100 > 256, and Y is
    guarded), it raises with X still swapped out and nothing moved."""
    heap = make_heap(cache=1024, dirty=256)
    x = heap.alloc(b"X" * 100)
    heap.sync_object(x)
    heap.unload(x)
    y = heap.alloc(b"Y" * 144)
    guard = heap.get_mut(y)
    stats = heap.stats()
    words = heap.device.cost_meter.words_total
    with pytest.raises(DirtyBudgetUnsatisfiableError):
        heap.replace(x, b"Z" * 100)
    assert not heap.object_info(x).resident
    assert heap.stats() == stats
    assert heap.device.cost_meter.words_total == words
    guard.release()
    with heap.get_ref(x) as g:
        assert g.read() == b"X" * 100
    heap.unload(x)
    heap.replace(x, b"Z" * 100)  # the guard is gone, so Y's sync makes room
    with heap.get_ref(x) as g:
        assert g.read() == b"Z" * 100


# -- guard-free whole-object read ---------------------------------------------------

def _only_the_count_changed(heap, handle, before, words):
    """From the state ``before`` it, an access moved exactly ``words``
    words, left ``handle`` swapped out and changed nothing but its count."""
    stats, cache, total, infos = before
    assert not heap.object_info(handle).resident
    assert _heap_state(heap) == (stats, cache, total + words,
                                 [dataclasses.replace(info, hits=info.hits + 1)
                                  if info.handle_id == handle.id else info for info in infos])


def _served_from_nvm(heap, handle, before, read):
    """``read`` returned ``handle``'s bytes without loading it: from the
    state ``before`` it, it moved exactly its load words and changed
    nothing but the object's count."""
    _only_the_count_changed(heap, handle, before, words_for(handle.size_bytes))
    assert heap.device.cost_meter.words_read == read + words_for(handle.size_bytes)


def test_read_moves_the_words_of_get_ref_read_release():
    """One seeded trace of reads, writes and persists under cache and dirty
    pressure, on two heaps: A reads with ``read``, B with ``get_ref`` +
    ``read`` + ``release``. Both return the same bytes. A hit or a miss
    that ``read`` admits leaves both heaps in the same state with the same
    device traffic. A miss it does not admit is served from NVM: it moves
    its load words alone and changes nothing but the count, and B, in the
    same state, serves it the same way, so the two stay in step."""
    rng = random.Random(5)
    sizes = [rng.choice((8, 24, 61, 100, 150, 200)) for _ in range(24)]
    heaps = [make_heap(cache=1024, dirty=512, max_objects=32) for _ in range(2)]
    logs = [log_writes(heap.device) for heap in heaps]
    handles = [[heap.alloc(bytes([i]) * n) for i, n in enumerate(sizes)] for heap in heaps]
    heap_a, heap_b = heaps
    admitted = served = 0
    for _ in range(400):
        i = rng.randrange(len(sizes))
        r = rng.random()
        if r < 0.7:
            a, b = handles[0][i], handles[1][i]
            missed = not heap_a.object_info(a).resident
            before, read = _heap_state(heap_a), heap_a.device.cost_meter.words_read
            got = heap_a.read(a)
            if missed and not heap_a.object_info(a).resident:
                served += 1
                _served_from_nvm(heap_a, a, before, read)
                assert heap_b.read(b) == got
            else:
                admitted += missed
                with heap_b.get_ref(b) as g:
                    assert got == g.read()
        elif r < 0.97:
            # Through a write guard, which loads a miss: a replace miss may
            # be written around and leave the cache as it was.
            payload = rng.randbytes(sizes[i])
            for heap, hs in zip(heaps, handles):
                with heap.get_mut(hs[i]) as w:
                    w.write(payload)
        else:
            for heap in heaps:
                persist(heap)
        assert _heap_state(heap_a) == _heap_state(heap_b)
    assert admitted > 10 and served > 10, (admitted, served)
    assert logs[0] == logs[1]
    assert heap_a.device.cost_meter.snapshot() == heap_b.device.cost_meter.snapshot()


def test_read_raises_the_errors_of_get_ref_in_its_order():
    """Where several faults hold at once, ``read`` raises the one
    ``get_ref`` raises, and neither moves a word or changes the heap. Cache
    pressure is the exception: ``read`` is never refused for it, so where
    ``get_ref`` raises :class:`CachePressureUnresolvableError`, ``read``
    serves the bytes from NVM."""
    heap = make_heap(cache=512, dirty=512)
    guarded = heap.alloc(b"g" * 200)
    swapped = heap.alloc(b"s" * 200)
    heap.sync_object(swapped)
    heap.unload(swapped)
    other = heap.alloc(b"o" * 200)
    gone = heap.alloc(b"d" * 8)
    heap.dealloc(gone)
    # A handle from another heap whose id names a guarded object here.
    foreign = make_heap().alloc(b"f" * 200)
    assert foreign.id == guarded.id
    heap.get_mut(guarded)
    read_guard = heap.get_ref(other)  # every resident is now pinned
    cases = ((StaleHandleError, gone),
             (StaleHandleError, foreign),          # before the write guard
             (WriteGuardActiveError, guarded))
    for error, handle in cases:
        for access in (heap.get_ref, heap.read):
            before = _heap_state(heap)
            with pytest.raises(error):
                access(handle)
            assert _heap_state(heap) == before
    before = _heap_state(heap)
    with pytest.raises(CachePressureUnresolvableError):
        heap.get_ref(swapped)
    assert _heap_state(heap) == before
    read = heap.device.cost_meter.words_read
    assert heap.read(swapped) == b"s" * 200
    _served_from_nvm(heap, swapped, before, read)
    before = _heap_state(heap)
    with pytest.raises(StaleHandleError):  # get_mut, too, checks the heap first
        heap.get_mut(foreign)
    assert _heap_state(heap) == before
    read_guard.release()
    heap.device.arm_power_failure(0)
    with pytest.raises(PowerFailureInjected):
        heap.sync_object(other)
    heap.device.disarm_power_failure()
    for handle in (gone, foreign, guarded, swapped):  # a poisoned heap comes first
        for access in (heap.get_ref, heap.read, heap.get_mut):
            with pytest.raises(HeapPoisonedError):
                access(handle)


def test_a_cold_read_under_pressure_moves_only_its_load_words():
    """Five residents, two of them modified, fill the cache, and a cold
    object misses: ``read`` returns its bytes with exactly ``ceil(201/4)``
    words read and none written, and every other object stays as it was."""
    heap = make_heap(cache=1024, dirty=1024)
    cold = _swapped_out(heap, b"C" * 201)
    for i in range(5):
        h = heap.alloc(bytes([i]) * 200)  # 5 * 204 of 1024 B
        if i > 1:
            heap.sync_object(h)
    before, read = _heap_state(heap), heap.device.cost_meter.words_read
    assert heap.read(cold) == b"C" * 201
    _served_from_nvm(heap, cold, before, read)
    assert heap.device.cost_meter.words_read - read == 51


@pytest.mark.parametrize("target_hits, admitted", [(4, True), (3, False)])
def test_a_read_is_admitted_with_more_than_twice_the_anchors_hits(target_hits, admitted):
    """Five residents with 2 hits each fill the cache; A, the first of
    their tier, is the coldest and anchors the hole. A read of T, this
    access its 5th hit, is more than twice A's and is admitted: it evicts
    what a ``get_ref`` miss evicts, A alone, with the same words, and lands
    in A's block. At 4 hits, exactly twice A's, T is served from NVM."""
    heaps = [make_heap(cache=1024, dirty=1024) for _ in range(2)]
    for heap in heaps:
        _swapped_out(heap, b"T" * 200, target_hits)
        for i in range(5):
            heap.get_ref(heap.alloc(bytes([i]) * 200)).release()
    heap, twin = heaps
    target, anchor = heap.handle(1), heap.handle(2)
    assert heap.object_info(anchor).hits == 2
    unloaded = _log_calls(heap, "_unload")
    before, read = _heap_state(heap), heap.device.cost_meter.words_read
    assert heap.read(target) == b"T" * 200
    if admitted:
        assert unloaded == [anchor.id]
        assert heap.object_info(target).cache_offset == before[3][1].cache_offset
        twin.get_ref(twin.handle(1)).release()
        assert _heap_state(heap) == _heap_state(twin)
    else:
        assert unloaded == []
        _served_from_nvm(heap, target, before, read)


@pytest.mark.parametrize("target_hits, admitted", [(4, True), (3, False)])
def test_a_replace_is_admitted_with_more_than_twice_the_anchors_hits(target_hits, admitted):
    """The heap of the read case above. A ``replace`` of T, this access its
    5th hit, is admitted: it evicts what a ``get_mut`` miss evicts, A
    alone, syncing it, and lands in A's block, modified, with one load
    fewer. At 4 hits it is written around the cache: one write of the
    payload to T's extent, which a later load returns."""
    heaps = [make_heap(cache=1024, dirty=1024) for _ in range(2)]
    for heap in heaps:
        _swapped_out(heap, b"T" * 200, target_hits)
        for i in range(5):
            heap.get_ref(heap.alloc(bytes([i]) * 200)).release()
    heap, twin = heaps
    target, anchor = heap.handle(1), heap.handle(2)
    unloaded = _log_calls(heap, "_unload")
    log = log_writes(heap.device)
    before = _heap_state(heap)
    heap.replace(target, b"U" * 200)
    if admitted:
        assert unloaded == [anchor.id]
        assert log == [(anchor.nvm_offset, bytes(200))]  # the anchor's eviction sync
        assert heap.object_info(target).cache_offset == before[3][1].cache_offset
        assert heap.object_info(target).modified
        with twin.get_mut(twin.handle(1)) as w:
            w.write(b"U" * 200)
        (stats, cache, _, infos), (stats2, cache2, _, infos2) = map(_heap_state, heaps)
        assert (stats, cache, infos) == (stats2, cache2, infos2)
        assert twin.device.cost_meter.words_read - heap.device.cost_meter.words_read == 50
    else:
        assert unloaded == [] and log == [(target.nvm_offset, b"U" * 200)]
        _only_the_count_changed(heap, target, before, 50)
        assert _load(heap, target) == b"U" * 200


def _no_hole_to_make(walled):
    """A heap whose residents are all read-guarded, or, when ``walled``,
    whose two unpinned ones sit between pinned blocks in holes too small,
    the guards, and T, a swapped-out 300 B object with 8 hits."""
    heap = make_heap(cache=512, dirty=512)
    a = heap.alloc(b"A" * 100)  # [0, 104)
    p = heap.alloc(b"P" * 100)  # [104, 208)
    t = _swapped_out(heap, b"T" * 300, hits=8)  # [208, 512) until unloaded
    b = heap.alloc(b"B" * 100)  # [208, 312)
    q = heap.alloc(b"Q" * 190)  # [312, 508)
    pinned = (p, q) if walled else (a, p, b, q)
    return heap, t, [heap.get_ref(h) for h in pinned]


@pytest.mark.parametrize("walled", [False, True])
def test_a_replace_with_no_hole_to_make_is_written_around(walled):
    """With every resident pinned, or every unpinned one walled in, a
    ``get_mut`` miss raises, but a ``replace`` of the same object, hot
    enough to be admitted, writes its payload to its extent with nothing
    else moved or changed."""
    heap, t, guards = _no_hole_to_make(walled)
    before = _heap_state(heap)
    with pytest.raises(CachePressureUnresolvableError):
        heap.get_mut(t)
    assert _heap_state(heap) == before
    log = log_writes(heap.device)
    heap.replace(t, b"U" * 300)
    assert log == [(t.nvm_offset, b"U" * 300)]
    _only_the_count_changed(heap, t, before, words_for(300))
    for g in guards:
        g.release()
    assert _load(heap, t) == b"U" * 300


@pytest.mark.parametrize("walled", [False, True])
def test_a_read_with_no_hole_to_make_is_served_from_nvm(walled):
    """With every resident pinned, or every unpinned one walled in by
    pinned blocks in holes too small, a ``get_ref`` miss raises, but a
    ``read`` of the same object, hot enough to be admitted, returns its
    bytes from NVM with its load words alone."""
    heap, t, guards = _no_hole_to_make(walled)
    before = _heap_state(heap)
    with pytest.raises(CachePressureUnresolvableError):
        heap.get_ref(t)
    assert _heap_state(heap) == before
    read = heap.device.cost_meter.words_read
    assert heap.read(t) == b"T" * 300
    _served_from_nvm(heap, t, before, read)
    for g in guards:
        g.release()


def test_an_object_read_past_the_top_tier_loads():
    """While every resident is pinned, reads served from NVM raise a
    swapped-out object's count to 9, past the top tier the residents
    reach; the next load files it in tier 4 all the same."""
    heap = make_heap(cache=512, dirty=512)
    t = _swapped_out(heap, b"T" * 100)
    residents = [heap.alloc(bytes([i]) * 253) for i in range(2)]  # 2 * 256 B
    guards = [heap.get_ref(h) for h in residents]
    for _ in range(8):
        assert heap.read(t) == b"T" * 100
    assert heap.object_info(t).hits == 9
    for g in guards:
        g.release()
    assert _load(heap, t) == b"T" * 100
    assert heap.object_info(t).hits == 10
    assert t.id in heap._tiers[4]
    check_indexes(heap)


def test_a_read_miss_returns_the_bytes_the_device_read():
    """A miss hands back the very ``bytes`` object the device's read made,
    with no second copy out of the cache; a later hit copies out equal
    bytes, and a ``get_ref`` miss loads the object the same way."""
    heap = make_heap()
    payload = b"payload!" * 4
    h = heap.alloc(payload)
    heap.sync_object(h)
    heap.unload(h)
    produced = []
    device_read = heap.device.read

    def read(offset, length):
        produced.append(device_read(offset, length))
        return produced[-1]

    heap.device.read = read
    got = heap.read(h)
    assert len(produced) == 1 and got is produced[0] and got == payload
    hit = heap.read(h)
    assert len(produced) == 1 and type(hit) is bytes and hit == payload
    heap.unload(h)
    with heap.get_ref(h) as g:
        assert g.read() == payload
    assert len(produced) == 2 and produced[1] == payload


# -- stats -----------------------------------------------------------------------

def test_stats_reflect_the_world():
    heap = make_heap()
    h1 = heap.alloc(b"a" * 100)
    h2 = heap.alloc(b"b" * 50)
    heap.sync_object(h2)
    g = heap.get_ref(h1)
    s = heap.stats()
    assert s.resident_count == 2
    assert s.resident_bytes == 150
    assert s.pinned_count == 1
    assert s.dirty_bytes == HEADER_CHARGE_BYTES + 100  # a clean resident is free
    assert s.cache_free_bytes == 4096 - align_up(103) - align_up(53)
    g.release()
