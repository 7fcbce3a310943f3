"""Golden device traffic: a wall-clock change must leave every word as it was."""

import hashlib

from vnvheap import SimulatedNvm, VnvHeap, persist
from vnvheap.workloads import (
    WORKLOAD_KEYS,
    VnvKvStore,
    build_kv_store,
    gen_access_sequence,
    workload_sizes,
)

from traceutil import log_writes

# SHA-256 over every (offset, data) the trace below passes to the device's
# public ``write``, then the final meter totals.
KV_TRAFFIC_SHA256 = "a9513830947f658221689eee1ab691268b411c4c216709531722d28cb21c8fbe"


def test_kv_trace_device_traffic_is_unchanged():
    """Pins the exact device traffic of a miss-heavy kv trace.

    A standard 256-object kv store (working set 3.6x the cache) in a 16 KiB
    cache with a 4 KiB modified-state limit serves 2000 ``unequal`` ops, three
    gets per update, with a persist every 256 ops. The digest covers every
    public ``StorageDevice.write(offset, data)`` in order, then the meter's
    read and write word totals. A change that only makes the simulator faster
    must leave it as it is. A change that moves words on purpose updates the
    digest and records in CHANGES.md why the words moved.
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
    for offset, data in log:
        digest.update(b"%d:%d:" % (offset, len(data)))
        digest.update(data)
    meter = dev.cost_meter
    digest.update(b"read=%d write=%d" % (meter.words_read, meter.words_written))
    assert digest.hexdigest() == KV_TRAFFIC_SHA256
