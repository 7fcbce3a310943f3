"""Golden device traffic: a wall-clock change must leave every word as it was."""

import hashlib

from vnvheap import PowerFailureInjected, SimulatedNvm, VnvHeap, persist, restore
from vnvheap.workloads import (
    WORKLOAD_KEYS,
    VnvKvStore,
    build_kv_store,
    gen_access_sequence,
    workload_sizes,
)

from test_tables import TableOracleMachine
from traceutil import log_writes

# SHA-256 over every (offset, data) the trace below passes to the device's
# public ``write``.
KV_WRITES_SHA256 = "0ec8dc974fc221a5ad8ba02396a8bbcd8e5357b9d65c0709c2c1e5c18788baaa"
# The meter's (words_read, words_written) at the end of the trace.
KV_WORDS = (55136, 45518)


def test_kv_trace_device_traffic_is_unchanged():
    """Pins the exact device traffic of a miss-heavy kv trace.

    A standard 256-object kv store (working set 3.6x the cache) in a 16 KiB
    cache with a 4 KiB modified-state limit serves 2000 ``unequal`` ops, three
    gets per update, with a persist every 256 ops. The digest covers every
    public ``StorageDevice.write(offset, data)`` in order; the meter's read
    and write word totals are asserted beside it, so a change that only
    moves reads leaves the digest as it is. A change that only makes the
    simulator faster must leave both as they are. A change that moves words
    on purpose updates them and records in CHANGES.md why the words moved.
    """
    seed = 16
    dev = SimulatedNvm(512 * 1024)
    log = log_writes(dev)
    heap = VnvHeap(dev, cache_size_bytes=16 * 1024, max_modified_state_bytes=4 * 1024,
                   max_objects=512)
    store = VnvKvStore(heap)
    shadow = build_kv_store(store, seed)
    sizes = workload_sizes(seed)
    keys = gen_access_sequence("unequal", WORKLOAD_KEYS, 2000, seed + 1)
    for i, key in enumerate(keys, 1):
        if i % 4:
            assert store.get(key) == shadow[key]
        else:
            shadow[key] = bytes([i % 256]) * sizes[key]
            store.update(key, shadow[key])
        if i % 256 == 0:
            persist(heap)

    digest = hashlib.sha256()
    _fold(digest, log)
    assert digest.hexdigest() == KV_WRITES_SHA256
    meter = dev.cost_meter
    assert (meter.words_read, meter.words_written) == KV_WORDS


class _TablePathMachine(TableOracleMachine):
    """The table oracle's trace, with every device write folded into a digest.

    The log is folded in, with the meter totals, just before and just after
    every persist and before every reboot, which starts a new device.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.digest = hashlib.sha256()
        self.log = log_writes(self.dev)

    def fold(self):
        _fold(self.digest, self.log)
        del self.log[:]
        meter = self.dev.cost_meter
        self.digest.update(b"read=%d write=%d" % (meter.words_read, meter.words_written))

    def op_persist(self):
        self.fold()
        super().op_persist()
        self.fold()

    def reboot(self):
        self.fold()
        dev = super().reboot()
        self.log = log_writes(dev)
        return dev


def _fold(digest, log):
    for offset, data in log:
        digest.update(b"%d:%d:" % (offset, len(data)))
        digest.update(data)


# SHA-256 of the table-path trace below: the machine's writes and meter
# totals, then each armed alloc/dealloc's writes and the tables it leaves.
TABLE_TRAFFIC_SHA256 = "7797a7fff4f9eced5577fc6abcef581814aed14fdae68808840cd6c713553815"


def _armed_steps(heap, handles):
    """Deallocate three objects, persist, then allocate two: the death
    stamps, the epoch word and two births."""
    for hid in sorted(handles)[:3]:
        heap.dealloc(handles[hid])
    persist(heap)
    heap.alloc(bytes(range(1, 14)))
    heap.alloc(bytes(range(40)))


def test_table_path_device_traffic_is_unchanged():
    """Pins the exact device traffic of allocation, deallocation and restore.

    The kv digest above never deallocates or restores. This trace does: the
    table oracle's seeded mix of allocs, dealloc bursts, guards held across
    persists and power cuts with ``restore``, 600 steps. Then, from the
    image it leaves, a restore and :func:`_armed_steps` run once for each
    transfer budget up to one that lets them finish, so the order of the
    table words and the durable prefix of a cut transfer are pinned too. A
    change that moves a table word on purpose updates the digest and says
    why in CHANGES.md.
    """
    m = _TablePathMachine(3)
    m.run(600)
    m.op_persist()
    digest = m.digest
    image = m.dev
    cut = 0
    for budget in range(16):
        dev = image.reopen()
        log = log_writes(dev)
        heap, handles = restore(dev, cache_size_bytes=m.cache, max_modified_state_bytes=m.dirty)
        dev.arm_power_failure(budget)
        try:
            _armed_steps(heap, handles)
        except PowerFailureInjected:
            cut += 1
        _fold(digest, log)
        digest.update(dev.reopen().read(0, heap.layout.object_offset))
        meter = dev.cost_meter
        digest.update(b"read=%d write=%d" % (meter.words_read, meter.words_written))
    assert cut == 14, "the budgets must cut the steps at every word and also let them finish"
    assert digest.hexdigest() == TABLE_TRAFFIC_SHA256
