"""Golden device traffic: a wall-clock change must leave every word as it was."""

import hashlib

from vnvheap import PowerFailureInjected, SimulatedNvm, VnvHeap, persist, restore
from vnvheap.layout import EPOCH_OFFSET
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
# public ``write``, in order.
KV_WRITES_SHA256 = "997500e2e5198892cfb3736b48a760bf03d505071d82d62b65a8582f4f7a8ba0"
# The same writes with the order inside each commit's run dropped (see
# :func:`_fold_runs`).
KV_RUNS_SHA256 = "6b6c615b883244b78050e2caacf43e8b1f2d5799448ead98fc05cd78ac1578af"
# The meter's (words_read, words_written) at the end of the trace.
KV_WORDS = (50928, 45790)


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
    The runs digest is checked first: when it holds and the ordered digest
    does not, the same writes reached each commit in another order.
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

    runs = hashlib.sha256()
    _fold_runs(runs, log)
    assert runs.hexdigest() == KV_RUNS_SHA256
    digest = hashlib.sha256()
    _fold(digest, log)
    assert digest.hexdigest() == KV_WRITES_SHA256
    meter = dev.cost_meter
    assert (meter.words_read, meter.words_written) == KV_WORDS


class _TablePathMachine(TableOracleMachine):
    """The table oracle's trace, with every device write folded into a digest.

    The log is folded in, with the meter totals, just before and just after
    every persist and before every reboot, which starts a new device. Every
    write is also kept in ``stream``, across reboots, with a ``PERSIST``
    mark where each persist starts and a ``REBOOT`` mark at each reboot.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.digest = hashlib.sha256()
        self.log = log_writes(self.dev)
        self.stream = log_writes(self.dev, [])

    def fold(self):
        _fold(self.digest, self.log)
        del self.log[:]
        meter = self.dev.cost_meter
        self.digest.update(b"read=%d write=%d" % (meter.words_read, meter.words_written))

    def op_persist(self):
        self.fold()
        super().op_persist()
        self.fold()

    def persist(self):
        self.stream.append(PERSIST)
        return super().persist()

    def reboot(self):
        self.fold()
        self.stream.append(REBOOT)
        dev = super().reboot()
        self.log = log_writes(dev)
        log_writes(dev, self.stream)
        return dev


def _fold(digest, log):
    for offset, data in log:
        digest.update(b"%d:%d:" % (offset, len(data)))
        digest.update(data)


PERSIST, REBOOT = "persist", "reboot"  # the marks in a machine's stream


def _fold_runs(digest, stream):
    """Fold a write stream in with the order inside each run dropped, each
    run as its sorted (offset, bytes) list. A run ends at an epoch-word
    write, the commit, and also, in a machine's stream, where a persist
    starts or the power is cut. A run that a persist starts and a power cut
    ends goes in as a mark alone: which payloads a cut persist reaches
    depends on the order it writes them in. So which bytes reach which
    offset between two commits stays pinned, but not their order."""
    run, persisting = [], False
    for item in stream:
        if item is PERSIST or item is REBOOT:
            if persisting:  # the power was cut mid-persist
                digest.update(b"cut persist;")
            else:
                _fold(digest, sorted(run))
                digest.update(item.encode() + b";")
            run, persisting = [], item is PERSIST
            continue
        run.append(item)
        if item[0] == EPOCH_OFFSET:
            _fold(digest, sorted(run))
            digest.update(b"commit;")
            run, persisting = [], False
    _fold(digest, sorted(run))


# SHA-256 of the table-path trace below: the machine's writes and meter
# totals, then each armed alloc/dealloc's writes and the tables it leaves.
TABLE_TRAFFIC_SHA256 = "f56c298c0ad1320aa9ce38521dc4135f5018bf0d60767e68d808d949c7fddbd5"
# The machine's writes, then each armed run's, with the order inside each
# commit's run dropped (see :func:`_fold_runs`).
TABLE_RUNS_SHA256 = "278cf33fa64467cc3cb381b8b2fd9534020607d81f4d8bd2ea1bc1c9b90b5cc7"


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
    why in CHANGES.md. The runs digest is checked first, as in the kv trace.
    """
    m = _TablePathMachine(3)
    m.run(600)
    m.op_persist()
    digest = m.digest
    runs = hashlib.sha256()
    _fold_runs(runs, m.stream)
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
        runs.update(b"budget=%d;" % budget)
        _fold_runs(runs, log)
        digest.update(dev.reopen().read(0, heap.layout.object_offset))
        meter = dev.cost_meter
        digest.update(b"read=%d write=%d" % (meter.words_read, meter.words_written))
    assert cut == 14, "the budgets must cut the steps at every word and also let them finish"
    assert runs.hexdigest() == TABLE_RUNS_SHA256
    assert digest.hexdigest() == TABLE_TRAFFIC_SHA256
