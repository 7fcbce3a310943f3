"""Queue backends, the key-value stores, and the access-pattern generators."""

import math
import struct

import pytest

from vnvheap import SimulatedNvm, VnvHeap, persist, restore
from vnvheap.baselines import ManagedStatePool
from vnvheap.errors import (
    KeyNotFoundError,
    OutOfNvmError,
    PreconditionError,
    QueueEmptyError,
    RamCapacityExceededError,
    SizeMismatchError,
    StaleHandleError,
)
from vnvheap.workloads import (
    MsKvStore,
    NvmQueue,
    RamQueue,
    VnvKvStore,
    VnvQueue,
    WORKLOAD_KEYS,
    WORKLOAD_SIZE_MIX,
    WORKLOAD_TOTAL_BYTES,
    build_kv_store,
    gen_access_sequence,
    unequal_weights,
    workload_sizes,
)


def element(i, size=64):
    return bytes([i % 256]) * size


def make_vnv_queue(element_size=64, cache=4096):
    dev = SimulatedNvm(256 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=cache, max_modified_state_bytes=cache,
                   max_objects=128)
    return dev, heap, VnvQueue(heap, element_size)


QUEUE_FACTORIES = {
    "vnv": lambda: make_vnv_queue()[2],
    "nvm": lambda: NvmQueue(SimulatedNvm(64 * 1024), capacity=64, element_size=64),
    "ram": lambda: RamQueue(ram_bytes=4096, element_size=64),
}


@pytest.mark.parametrize("backend", sorted(QUEUE_FACTORIES))
class TestQueueSemantics:
    def test_fifo_order(self, backend):
        q = QUEUE_FACTORIES[backend]()
        for i in range(10):
            q.push(element(i))
        assert len(q) == 10
        assert [q.pop() for _ in range(10)] == [element(i) for i in range(10)]

    def test_interleaved(self, backend):
        q = QUEUE_FACTORIES[backend]()
        expected = []
        nxt = 0
        for round_ in range(30):
            q.push(element(nxt)); expected.append(nxt); nxt += 1
            if round_ % 3 == 2:
                assert q.pop() == element(expected.pop(0))
        while len(q):
            assert q.pop() == element(expected.pop(0))

    def test_pop_empty(self, backend):
        q = QUEUE_FACTORIES[backend]()
        with pytest.raises(QueueEmptyError):
            q.pop()

    def test_element_size_is_exact(self, backend):
        q = QUEUE_FACTORIES[backend]()
        with pytest.raises(SizeMismatchError):
            q.push(b"short")
        with pytest.raises(SizeMismatchError):
            q.push(bytes(65))

    def test_an_element_is_sized_in_bytes_not_items(self, backend):
        q = QUEUE_FACTORIES[backend]()
        q.push(memoryview(element(0)).cast("I"))  # 16 items, 64 bytes
        with pytest.raises(SizeMismatchError):
            q.push(memoryview(bytes(256)).cast("I"))  # 64 items, 256 bytes
        assert len(q) == 1 and q.pop() == element(0)


class TestVnvQueue:
    def test_steady_state_cycle_is_free(self):
        dev, heap, q = make_vnv_queue(element_size=256)
        for i in range(12):
            q.push(element(i, 256))
        for i in range(4):  # settle
            q.push(element(i, 256)); q.pop()
        before = dev.cost_meter.snapshot()
        for i in range(32):
            q.push(element(i, 256)); q.pop()
        assert dev.cost_meter.snapshot() == before

    def test_capacity_grows_on_demand(self):
        dev, heap, q = make_vnv_queue()
        assert q.capacity == 8
        for i in range(9):
            q.push(element(i))
        assert q.capacity == 16
        assert [q.pop() for _ in range(9)] == [element(i) for i in range(9)]

    @pytest.mark.parametrize("persisted", [False, True], ids=["unpersisted", "persisted"])
    def test_a_push_refused_after_the_record_grew_keeps_a_valid_record(self, persisted):
        """Nine table slots hold the control record and 8 elements: the 9th
        push must double the record and finds no slot for the larger one,
        whether or not a persist keeps the old record's slot to the next
        commit. The old record stays as it was, so the queue still pops,
        and its 8 elements persist and come back through ``attach``."""
        dev = SimulatedNvm(64 * 1024)
        heap = VnvHeap(dev, cache_size_bytes=4096, max_modified_state_bytes=4096,
                       max_objects=9)
        q = VnvQueue(heap, 32)
        for i in range(8):
            q.push(element(i, 32))
        if persisted:
            persist(heap)
        control = q.control_id
        with pytest.raises(OutOfNvmError):
            q.push(element(8, 32))
        assert (len(q), q.capacity, q.control_id) == (8, 8, control)
        persist(heap)
        heap2, _ = restore(dev.reopen())
        q2 = VnvQueue.attach(heap2, control)
        assert [q2.pop() for _ in range(8)] == [element(i, 32) for i in range(8)]
        assert q.pop() == element(0, 32)

    def test_queue_survives_a_power_cycle(self):
        dev, heap, q = make_vnv_queue(element_size=32)
        for i in range(7):
            q.push(element(i, 32))
        q.pop()
        persist(heap)
        heap2, _ = restore(dev.reopen(), cache_size_bytes=4096,
                           max_modified_state_bytes=4096)
        q2 = VnvQueue.attach(heap2, q.control_id)
        assert len(q2) == 6
        assert [q2.pop() for _ in range(6)] == [element(i, 32) for i in range(1, 7)]
        q2.push(element(40, 32))
        assert q2.pop() == element(40, 32)

    def test_a_wrong_length_push_takes_no_slot(self):
        """The length is checked before a slot is taken: at full capacity a
        refused push allocates no element and does not grow the control
        object, and with a free slot it leaves that slot free."""
        dev, heap, q = make_vnv_queue()
        for i in range(8):
            q.push(element(i))
        live = heap.live_handle_ids()
        for payload in (bytes(63), bytes(65)):
            with pytest.raises(SizeMismatchError):
                q.push(payload)
            assert (heap.live_handle_ids(), q.capacity, len(q)) == (live, 8, 8)
        assert q.pop() == element(0)
        with pytest.raises(SizeMismatchError):
            q.push(b"short")
        q.push(element(8))
        assert heap.live_handle_ids() == live
        assert [q.pop() for _ in range(8)] == [element(i) for i in range(1, 9)]

    def test_a_view_of_too_many_bytes_takes_no_slot(self):
        dev, heap, q = make_vnv_queue()
        q.push(element(0))
        live = heap.live_handle_ids()
        with pytest.raises(SizeMismatchError):
            q.push(memoryview(bytes(256)).cast("I"))  # 64 items, 256 bytes
        assert (heap.live_handle_ids(), len(q)) == (live, 1)

    def test_free_slots_are_reused(self):
        dev, heap, q = make_vnv_queue()
        for i in range(6):
            q.push(element(i))
        for _ in range(6):
            q.pop()
        objects_before = len(heap.live_handle_ids())
        for i in range(6):
            q.push(element(i))
        assert len(heap.live_handle_ids()) == objects_before

    def test_a_push_and_a_pop_under_cache_pressure_are_served(self):
        """Read guards pin every other resident, so a miss cannot make room.
        Neither a push nor a pop is refused for it. A push onto a
        swapped-out free element is written around the cache: ``replace``
        stores the payload in the element's extent, and the element joins
        the queue still swapped out. A pop of the swapped-out head is served
        from NVM by ``read``, and the head moves to the free list still
        swapped out. A persist then commits the written-around element: the
        queue attaches after a restore and pops every element in order, as
        the original does once the guards go, and its record still lists
        every element object."""
        dev, heap, q = make_vnv_queue(cache=1024)
        for i in range(20):
            q.push(element(i))
        for i in range(3):
            assert q.pop() == element(i)

        def state():
            record = q._guard.read()
            live = struct.unpack_from("<I", record, 4)[0]
            ids = struct.unpack_from(f"<{live + 1}I", record, 8)
            return len(q), ids[:live], ids[live]  # ids[live]: the free top

        length, live, free_top_id = state()
        head, free_top = heap.handle(live[0]), heap.handle(free_top_id)
        if heap.object_info(free_top).resident:  # the pop may have loaded it
            heap.unload(free_top)
        filler = heap.alloc(bytes(72))
        guards = [heap.get_ref(heap.handle(hid)) for hid in heap.live_handle_ids()
                  if heap.object_info(heap.handle(hid)).resident
                  and not heap.object_info(heap.handle(hid)).pinned]
        assert not heap.object_info(head).resident
        assert heap.stats().cache_free_bytes < 68  # no hole fits a 64 B element
        q.push(element(20))
        assert state()[:2] == (length + 1, live + (free_top.id,))
        assert not heap.object_info(free_top).resident
        assert q.pop() == element(3)
        after = state()
        assert after == (length, live[1:] + (free_top.id,), head.id)
        assert not heap.object_info(head).resident
        persist(heap)
        heap2, _ = restore(dev.reopen())
        q2 = VnvQueue.attach(heap2, q.control_id)
        assert [q2.pop() for _ in range(17)] == [element(i) for i in range(4, 21)]
        for g in guards:
            g.release()
        heap.dealloc(filler)
        q.push(element(21))  # onto the free top: every element stays listed
        record = q._guard.read()
        listed = struct.unpack_from(f"<{(len(record) - 8) // 4}I", record, 8)
        elements = set(heap.live_handle_ids()) - {q.control_id}
        assert {hid for hid in listed if hid} == elements and len(elements) == 20
        assert [q.pop() for _ in range(18)] == [element(i) for i in range(4, 22)]

    # -- attach refuses what is not its queue ----------------------------------

    @staticmethod
    def restored_queue(element_size=32):
        """A 3-element queue of ``element_size`` B elements and a 10 B
        stray object, persisted and restored: the restored heap, the control
        id and the element ids."""
        dev, heap, q = make_vnv_queue(element_size)
        for i in range(3):
            q.push(element(i, element_size))
        stray = heap.alloc(b"not queued")
        persist(heap)
        heap2, _ = restore(dev.reopen())
        elements = [h.id for h in q._live]
        return heap2, q.control_id, elements, stray.id

    def test_attach_of_an_unknown_control_id_names_it(self):
        heap, _, _, _ = self.restored_queue()
        with pytest.raises(StaleHandleError, match="id 9999$"):
            VnvQueue.attach(heap, 9999)

    def test_attach_names_an_element_id_it_cannot_find(self):
        heap, control, elements, _ = self.restored_queue()
        heap.dealloc(heap.handle(elements[1]))
        with pytest.raises(StaleHandleError, match=f"id {elements[1]}$"):
            VnvQueue.attach(heap, control)

    def test_attach_refuses_an_element_object_as_the_control(self):
        heap, _, elements, stray = self.restored_queue()
        # Element 0 holds zeros, so its header reads element size 0; element
        # 1 holds 0x01 bytes, so its header counts more live elements than
        # its 6 ids.
        for hid, why in ((elements[0], "element size 0,"),
                         (elements[1], "16843009 live of 6 ids")):
            with pytest.raises(PreconditionError, match=why):
                VnvQueue.attach(heap, hid)
        with pytest.raises(PreconditionError, match=f"object {stray} \\(10 B\\)"):
            VnvQueue.attach(heap, stray)

    @pytest.mark.parametrize("header, why", [
        ((0, 3), "element size 0,"),
        ((32, 4), "4 live of 3 ids"),
        ((64, 3), "is 32 B, the control record says 64 B"),
    ], ids=["no-element-size", "live-count", "element-size"])
    def test_attach_refuses_a_control_header_that_contradicts_its_objects(self, header, why):
        heap, control, elements, _ = self.restored_queue()
        ids = struct.pack("<8I", *elements, *[0] * 5)
        heap.replace(heap.handle(control), struct.pack("<2I", *header) + ids)
        with pytest.raises(PreconditionError, match=why):
            VnvQueue.attach(heap, control)
        heap.replace(heap.handle(control), struct.pack("<2I", 32, 3) + ids)
        q = VnvQueue.attach(heap, control)
        assert [q.pop() for _ in range(3)] == [element(i, 32) for i in range(3)]

    @pytest.mark.parametrize("listed", [
        lambda control, e: [e[0], e[0], e[1]],
        lambda control, e: [e[0], control, e[2]],
        lambda control, e: [e[0], 0, e[1], e[2]],
    ], ids=["an-element-twice", "the-control-itself", "a-zero-before-an-element"])
    def test_attach_refuses_ids_that_name_no_queue(self, listed):
        # 40 B elements, the size of the 8-id control record, so that no
        # size check can tell the record from an element.
        heap, control, elements, _ = self.restored_queue(element_size=40)
        ids = listed(control, elements)
        record = struct.pack(f"<2I{len(ids)}I", 40, 3, *ids)
        heap.replace(heap.handle(control), record.ljust(40, b"\0"))
        with pytest.raises(PreconditionError, match="twice, the record itself, or 0 before"):
            VnvQueue.attach(heap, control)


class TestRamQueue:
    def test_capacity_from_ram_budget(self):
        assert RamQueue(4096, 256).capacity == 15

    def test_over_capacity_raises(self):
        q = RamQueue(4096, 256)
        for i in range(15):
            q.push(element(i, 256))
        with pytest.raises(RamCapacityExceededError):
            q.push(element(15, 256))

    def test_ring_wraps(self):
        q = RamQueue(4096, 256)
        for i in range(15):
            q.push(element(i, 256))
        for i in range(40):
            assert q.pop() == element(i, 256)
            q.push(element(i + 15, 256))


def test_nvm_queue_ring_wraps_and_costs_are_flat():
    dev = SimulatedNvm(64 * 1024)
    q = NvmQueue(dev, capacity=8, element_size=64)
    for i in range(8):
        q.push(element(i))
    with pytest.raises(RamCapacityExceededError):
        q.push(element(9))
    before = dev.cost_meter.snapshot()
    for i in range(30):
        assert q.pop() == element(i)
        q.push(element(i + 8, 64))
    r, w = dev.cost_meter.snapshot()
    # pop reads one 16-word element and rewrites the state word;
    # push writes one element plus the state word
    assert (r - before[0], w - before[1]) == (30 * 16, 30 * 18)


@pytest.mark.parametrize("make", [
    lambda: RamQueue(10),
    lambda: RamQueue(4096, 0),
    lambda: RamQueue(4096, -4),
    lambda: NvmQueue(SimulatedNvm(64 * 1024), capacity=-1),
    lambda: NvmQueue(SimulatedNvm(64 * 1024), element_size=0),
    lambda: VnvQueue(make_vnv_queue()[1], 0),
], ids=["ram-below-bookkeeping", "ram-element-0", "ram-element-negative",
        "nvm-capacity-negative", "nvm-element-0", "vnv-element-0"])
def test_a_queue_refuses_a_size_it_cannot_hold(make):
    with pytest.raises(PreconditionError):
        make()


def test_nvm_queue_refuses_a_capacity_its_state_word_cannot_count():
    # Head and length are a u16 each: 65535 elements fit, 65536 do not.
    dev = SimulatedNvm(64 * 1024)
    assert NvmQueue(dev, capacity=0xFFFF, element_size=64).capacity == 0xFFFF
    with pytest.raises(PreconditionError, match="at most 65535"):
        NvmQueue(dev, capacity=0x10000, element_size=64)


# -- key-value stores -----------------------------------------------------------


def make_vnv_store():
    dev = SimulatedNvm(512 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=65536,
                   max_modified_state_bytes=WORKLOAD_TOTAL_BYTES // 5,
                   max_objects=512)
    return VnvKvStore(heap)


def make_ms_store(page_size=128):
    dev = SimulatedNvm(512 * 1024)
    page_count = -(-WORKLOAD_TOTAL_BYTES // page_size)
    pool = ManagedStatePool(dev, WORKLOAD_TOTAL_BYTES, page_size,
                            dirty_page_limit=max(1, (WORKLOAD_TOTAL_BYTES // 5
                                                     - page_count) // page_size))
    return MsKvStore(pool)


def test_workload_population_mix():
    sizes = workload_sizes(5)
    assert len(sizes) == WORKLOAD_KEYS == 256
    assert sum(sizes) == WORKLOAD_TOTAL_BYTES == 59392
    for size, count in WORKLOAD_SIZE_MIX:
        assert sizes.count(size) == count
    assert workload_sizes(5) == sizes          # deterministic
    assert workload_sizes(6) != sizes          # placement depends on the seed


@pytest.mark.parametrize("make_store", [make_vnv_store, make_ms_store],
                         ids=["vnv", "ms"])
class TestKvStore:
    def test_population_round_trip(self, make_store):
        store = make_store()
        shadow = build_kv_store(store, seed=11)
        for key, value in shadow.items():
            assert store.get(key) == value
            assert store.value_size(key) == len(value)

    def test_update_in_place(self, make_store):
        store = make_store()
        shadow = build_kv_store(store, seed=11)
        for key in (0, 17, 255):
            value = b"\xab" * store.value_size(key)
            store.update(key, value)
            shadow[key] = value
        for key, value in shadow.items():
            assert store.get(key) == value

    def test_update_must_match_size(self, make_store):
        store = make_store()
        build_kv_store(store, seed=11)
        with pytest.raises(SizeMismatchError):
            store.update(0, bytes(store.value_size(0) + 1))

    def test_put_of_a_non_byte_value_stores_its_bytes(self, make_store):
        store = make_store()
        store.put(0, memoryview(bytes(range(8))).cast("I"))  # 2 items, 8 bytes
        store.put(1, b"next")
        assert store.value_size(0) == 8
        assert (store.get(0), store.get(1)) == (bytes(range(8)), b"next")

    def test_update_with_a_non_byte_value_stores_its_bytes(self, make_store):
        store = make_store()
        store.put(0, bytes(8))
        store.put(1, b"next")
        store.update(0, memoryview(bytes(range(8))).cast("I"))
        assert (store.get(0), store.get(1)) == (bytes(range(8)), b"next")

    def test_missing_key(self, make_store):
        store = make_store()
        with pytest.raises(KeyNotFoundError):
            store.get(3)


def _device(store):
    return store.heap.device if isinstance(store, VnvKvStore) else store.pool.device


@pytest.mark.parametrize("make_store, call, error", [
    (make_vnv_store, lambda store: store.put(0, b"again"), PreconditionError),
    (make_vnv_store, lambda store: store.update(1, b"first"), KeyNotFoundError),
    (make_vnv_store, lambda store: store.value_size(1), KeyNotFoundError),
    (make_ms_store, lambda store: store.put(0, b"again"), PreconditionError),
    # one byte more than the pool's RAM has left after the first value
    (make_ms_store, lambda store: store.put(1, bytes(WORKLOAD_TOTAL_BYTES - 4)),
     RamCapacityExceededError),
], ids=["vnv-put-present", "vnv-update-missing", "vnv-value-size-missing",
        "ms-put-present", "ms-put-past-the-ram"])
def test_a_refused_kv_call_raises_its_type_and_changes_nothing(make_store, call, error):
    store = make_store()
    store.put(0, b"first")
    index, words = dict(store._index), _device(store).cost_meter.snapshot()
    with pytest.raises(error):
        call(store)
    assert store._index == index
    assert _device(store).cost_meter.snapshot() == words
    assert store.get(0) == b"first"


def test_backends_agree_on_the_same_trace():
    vnv, ms = make_vnv_store(), make_ms_store()
    shadow_v = build_kv_store(vnv, seed=3)
    shadow_m = build_kv_store(ms, seed=3)
    assert shadow_v == shadow_m
    for i, key in enumerate(gen_access_sequence("random", WORKLOAD_KEYS, 500, 9)):
        value = bytes([(i * 7 + key) % 256]) * vnv.value_size(key)
        vnv.update(key, value)
        ms.update(key, value)
    for key in range(WORKLOAD_KEYS):
        assert vnv.get(key) == ms.get(key)


def test_metadata_accounting():
    vnv = make_vnv_store()
    build_kv_store(vnv, seed=1)
    assert vnv.metadata_bytes == 3 * WORKLOAD_KEYS == 768
    for page, expected in ((32, 1856), (512, 116)):
        ms = make_ms_store(page)
        assert ms.metadata_bytes == expected


# Words per op of each run below when every read miss loaded its object,
# evicting for it: the heap's rule before ``read`` had an admission rule.
_WORDS_PER_OP_ADMITTING_EVERY_READ = {
    ("unequal", 0): 31.3445, ("unequal", 4): 36.5296,
    ("random", 0): 42.8104, ("random", 4): 45.7753,
    ("sequential", 0): 58.0563, ("sequential", 4): 58.0104,
}


@pytest.mark.parametrize("pattern, update_every", list(_WORDS_PER_OP_ADMITTING_EVERY_READ))
def test_read_admission_never_costs_more_words_than_admitting_every_read(pattern,
                                                                         update_every):
    """Guards against a cache that freezes its residents. The standard kv
    store (working set 3.6x the cache) in a 16 KiB cache with a 4 KiB limit
    serves 20 000 gets, or updates every ``update_every``-th op, and after
    op 10 000 every key moves on by 97, so the hot set moves and the old
    residents' counts, which never decay, outrank the new hot set's. Over 4
    seeds, the words per op stay at or below those of admitting every read.
    A rule that never evicted for a read gave 40.61 on ``unequal`` reads."""
    words = 0
    for seed in range(4):
        dev = SimulatedNvm(512 * 1024)
        store = VnvKvStore(VnvHeap(dev, cache_size_bytes=16 * 1024,
                                   max_modified_state_bytes=4 * 1024, max_objects=512))
        shadow = build_kv_store(store, seed)
        sizes = workload_sizes(seed)
        keys = gen_access_sequence(pattern, WORKLOAD_KEYS, 20_000, seed + 1)
        before = dev.cost_meter.words_total
        for i, key in enumerate(keys):
            if i >= 10_000:
                key = (key + 97) % WORKLOAD_KEYS
            if update_every and i % update_every == update_every - 1:
                shadow[key] = bytes([i % 256]) * sizes[key]
                store.update(key, shadow[key])
            else:
                assert store.get(key) == shadow[key]
        words += dev.cost_meter.words_total - before
    per_op = words / 80_000
    assert per_op <= _WORDS_PER_OP_ADMITTING_EVERY_READ[pattern, update_every], per_op


# -- access patterns ----------------------------------------------------------


def test_sequential_pattern_cycles():
    seq = gen_access_sequence("sequential", 5, 12, seed=0)
    assert seq == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]


def test_patterns_are_deterministic_per_seed():
    for pattern in ("random", "unequal"):
        a = gen_access_sequence(pattern, 256, 200, seed=13)
        assert a == gen_access_sequence(pattern, 256, 200, seed=13)
        assert a != gen_access_sequence(pattern, 256, 200, seed=14)
        assert all(0 <= k < 256 for k in a)


def test_unknown_pattern():
    with pytest.raises(PreconditionError):
        gen_access_sequence("zipf", 256, 10, seed=0)


def test_unequal_weights_formula():
    w = unequal_weights(256)
    assert w.shape == (256,)
    assert abs(float(w.sum()) - 1.0) < 1e-12
    raw = [math.sin(5.0 / 32.0 * k) ** 4 + 0.1 for k in range(256)]
    total = sum(raw)
    for k in (0, 1, 10, 100, 255):
        assert abs(float(w[k]) - raw[k] / total) < 1e-12
    # the additive floor keeps every key reachable
    assert float(w.min()) > 0
