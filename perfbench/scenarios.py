"""The benchmark's three workloads over the public ``vnvheap`` API.

Each workload is a closed loop: one application client in one thread issues
its next operation only when the previous one returned, because the heap is a
library called by a single application thread. Every op stream is generated
from the seed before any timing starts; a pass then builds a fresh device and
heap (the set-up), replays the stream, and runs its oracle. Passes of one
stream are deterministic, so their word and count results must be identical.
"""

from __future__ import annotations

import random
import struct
from collections import Counter
from time import perf_counter_ns as clock

import numpy as np

from vnvheap import (
    NoValidCheckpointError,
    PowerFailureInjected,
    VnvHeap,
    VnvHeapError,
    persist_bound,
)
from vnvheap.workloads import (
    WORKLOAD_KEYS,
    VnvKvStore,
    build_kv_store,
    gen_access_sequence,
    workload_sizes,
)

from tracing import Tracer, bind, make_device

REF_EVERY_NS = 25_000_000


def ref_loop_us() -> float:
    """A fixed pure-Python loop: the host-speed yardstick. Its time moves
    only with the speed of the host, never with the program."""
    t0 = clock()
    acc = 0
    for i in range(5_000):
        acc = (acc * 31 + i) & 0xFFFF
    return (clock() - t0) / 1e3


REFUSAL_CLASSES = (
    "OutOfNvmError",
    "CachePressureUnresolvableError",
    "DirtyBudgetUnsatisfiableError",
    "GuardActiveError",
    "StillPinnedError",
    "HeapPoisonedError",
)


class Recorder:
    """What one pass measured. :meth:`fingerprint` is its deterministic part."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.traced = tracer is not None
        self.setup_s = 0.0
        self.op_ns: list[int] = []
        self.persist_ns: list[int] = []
        self.restore_ns: list[int] = []
        self.persist_words: list[int] = []   # every persist, the ones that died too
        self.persist_reports: list = []      # PersistReport of each completed persist
        self.restore_words: list[int] = []   # words read by each restore() call
        self.attempted = 0
        self.failed = 0
        self.refused: Counter = Counter()
        self.words = 0
        self.bound_violations = 0
        self.restore_mismatches = 0
        self.read_mismatches = 0
        self.headroom_min: int | None = None
        self.end_stats = None
        self.ref_us: list[float] = []    # ref_loop_us() every REF_EVERY_NS between ops
        self._ref_at = 0

    def op(self, name: str, t0: int, t1: int, heap: VnvHeap) -> None:
        self.attempted += 1
        self.op_ns.append(t1 - t0)
        if t1 - self._ref_at > REF_EVERY_NS:
            self.ref_us.append(ref_loop_us())
            self._ref_at = clock()
        if self.tracer is not None:
            self.tracer.end_op(name, t0, t1)
            room = heap.config.max_modified_state_bytes - heap.dirty_bytes
            if self.headroom_min is None or room < self.headroom_min:
                self.headroom_min = room

    def refusal(self, name: str, exc: Exception, t0: int, heap: VnvHeap) -> None:
        """An op that raised; it counts as attempted and failed."""
        self.op(name, t0, clock(), heap)
        self.failed += 1
        cls = type(exc).__name__
        self.refused[cls if cls in REFUSAL_CLASSES else "other"] += 1

    def checkpoint(self, api, dev, bound: int, armed: bool) -> bool:
        """One persist; returns False if it died. Either way the words it
        moved are recorded, and a death or an overrun is a violation."""
        written = dev.cost_meter.words_written
        if armed:
            dev.arm_power_failure(bound)
        t0 = clock()
        try:
            report = api.persist()
        except PowerFailureInjected:
            report = None
        finally:
            t1 = clock()
            dev.disarm_power_failure()
        words = dev.cost_meter.words_written - written
        self.persist_ns.append(t1 - t0)
        self.persist_words.append(words)
        if report is not None:
            self.persist_reports.append(report)
        if report is None or words > bound:
            self.bound_violations += 1
        if self.tracer is not None:
            self.tracer.end_op(None, t0, t1)
        return report is not None

    def fingerprint(self) -> tuple:
        return (self.attempted, self.failed, self.words, tuple(self.persist_words),
                tuple(self.restore_words), self.bound_violations,
                self.restore_mismatches, self.read_mismatches,
                tuple(sorted(self.refused.items())))


# -- kv-unequal-evict ------------------------------------------------------------


class KvUnequalEvict:
    """Standard 256-object kv store, working set 3.6x the cache."""

    name = "kv-unequal-evict"
    SUBSTREAMS = 16         # the size shuffle decides which keys are large
    TIMED = 7               # timed ones (112 persists); the rest only widen the word metrics
    CAPACITY = 512 * 1024
    CACHE = 16 * 1024
    DIRTY = 4 * 1024
    MAX_OBJECTS = 512
    WARMUP_OPS = 2048
    PERSIST_EVERY = 512
    PASS_OPS = 16 * PERSIST_EVERY
    UPDATE_EVERY = 4        # 3 gets per update

    def generate(self, seed: int) -> dict:
        n = self.WARMUP_OPS + self.PASS_OPS
        keys = gen_access_sequence("unequal", WORKLOAD_KEYS, n, seed + 1)
        sizes = workload_sizes(seed)
        ops = [(key, bytes([(i + key) % 256]) * sizes[key]
                if i % self.UPDATE_EVERY == self.UPDATE_EVERY - 1 else None)
               for i, key in enumerate(keys)]
        return {"seed": seed, "warmup": ops[:self.WARMUP_OPS], "ops": ops[self.WARMUP_OPS:]}

    def setup(self, stream: dict, tracer: Tracer | None) -> dict:
        dev = make_device(tracer, self.CAPACITY)
        heap = VnvHeap(dev, cache_size_bytes=self.CACHE,
                       max_modified_state_bytes=self.DIRTY, max_objects=self.MAX_OBJECTS)
        store = VnvKvStore(heap)
        state = {"dev": dev, "heap": heap, "store": store,
                 "shadow": build_kv_store(store, stream["seed"]),
                 "api": bind(heap, tracer, store)}
        self._drive(state, stream["warmup"], Recorder(None))
        return state

    def run(self, state: dict, stream: dict, rec: Recorder) -> None:
        before = state["dev"].cost_meter.words_total
        self._drive(state, stream["ops"], rec)
        rec.words = state["dev"].cost_meter.words_total - before

    def _drive(self, state: dict, ops: list, rec: Recorder) -> None:
        dev, heap, shadow = state["dev"], state["heap"], state["shadow"]
        get, update = state["api"].kv_get, state["api"].kv_update
        bound = persist_bound(heap.config)
        every = self.PERSIST_EVERY
        for i, (key, value) in enumerate(ops):
            if value is None:
                t0 = clock()
                try:
                    got = get(key)
                except VnvHeapError as exc:
                    rec.refusal("op.kv_get", exc, t0, heap)
                    continue
                t1 = clock()
                if got != shadow[key]:
                    rec.read_mismatches += 1
                rec.op("op.kv_get", t0, t1, heap)
            else:
                t0 = clock()
                try:
                    update(key, value)
                except VnvHeapError as exc:
                    rec.refusal("op.kv_update", exc, t0, heap)
                    continue
                t1 = clock()
                shadow[key] = value
                rec.op("op.kv_update", t0, t1, heap)
            if i % every == every - 1:
                rec.checkpoint(state["api"], dev, bound, armed=False)

    def finish(self, state: dict, rec: Recorder) -> None:
        heap, store = state["heap"], state["store"]
        rec.end_stats = heap.stats()
        rec.read_mismatches += sum(store.get(k) != v for k, v in state["shadow"].items())


# -- sensor-checkpoint -------------------------------------------------------------


class SensorCheckpoint:
    """256 resident records and a header held under a write guard throughout."""

    name = "sensor-checkpoint"
    SUBSTREAMS = 4          # uniform traffic; repeats matter more than layouts
    TIMED = 1               # one stream, so that each op gets the most repeats
    CAPACITY = 512 * 1024
    CACHE = 32 * 1024
    DIRTY = 8 * 1024
    MAX_OBJECTS = 288       # 256 records + header, with a few spare slots
    RECORDS = 256
    RECORD = struct.Struct("<QQQ")     # 24 B: op number, record index, seed
    HEADER = struct.Struct("<QQ48x")   # 64 B: op number, last record written
    WARMUP_OPS = 64
    PERSIST_EVERY = 16
    PASS_OPS = 128 * PERSIST_EVERY

    def generate(self, seed: int) -> dict:
        rng = np.random.Generator(np.random.PCG64(seed))
        n = self.WARMUP_OPS + self.PASS_OPS
        idx = [int(r) for r in rng.integers(0, self.RECORDS, n)]
        ops = [(r, self.RECORD.pack(i + 1, r, seed), self.HEADER.pack(i + 1, r))
               for i, r in enumerate(idx)]
        initial = [self.RECORD.pack(0, r, seed) for r in range(self.RECORDS)]
        return {"seed": seed, "initial": initial,
                "warmup": ops[:self.WARMUP_OPS], "ops": ops[self.WARMUP_OPS:]}

    def setup(self, stream: dict, tracer: Tracer | None) -> dict:
        dev = make_device(tracer, self.CAPACITY)
        heap = VnvHeap(dev, cache_size_bytes=self.CACHE,
                       max_modified_state_bytes=self.DIRTY, max_objects=self.MAX_OBJECTS)
        api = bind(heap, tracer)
        records = [heap.alloc(payload) for payload in stream["initial"]]
        header = heap.alloc(self.HEADER.pack(0, 0))
        state = {"dev": dev, "heap": heap, "api": api, "records": records, "header": header,
                 "header_guard": heap.get_mut(header),
                 "shadow": list(stream["initial"]), "header_value": self.HEADER.pack(0, 0)}
        rec = Recorder(None)
        rec.checkpoint(api, dev, persist_bound(heap.config), armed=False)
        self._drive(state, stream["warmup"], rec)
        return state

    def run(self, state: dict, stream: dict, rec: Recorder) -> None:
        before = state["dev"].cost_meter.words_total
        self._drive(state, stream["ops"], rec)
        rec.words = state["dev"].cost_meter.words_total - before

    def _drive(self, state: dict, ops: list, rec: Recorder) -> None:
        dev, heap, api = state["dev"], state["heap"], state["api"]
        records, shadow, header_guard = state["records"], state["shadow"], state["header_guard"]
        get_mut, release = api.get_mut, api.guard_release
        bound = persist_bound(heap.config)
        every = self.PERSIST_EVERY
        for i, (r, payload, header) in enumerate(ops):
            t0 = clock()
            try:
                guard = get_mut(records[r])
                guard.write(payload)
                release(guard)
                header_guard.write(header)
            except VnvHeapError as exc:
                rec.refusal("op.sensor_update", exc, t0, heap)
                continue
            t1 = clock()
            shadow[r] = payload
            state["header_value"] = header
            rec.op("op.sensor_update", t0, t1, heap)
            if i % every == every - 1:
                rec.checkpoint(api, dev, bound, armed=False)

    def finish(self, state: dict, rec: Recorder) -> None:
        heap = state["heap"]
        rec.end_stats = heap.stats()
        state["header_guard"].release()
        expected = list(zip(state["records"], state["shadow"]))
        expected.append((state["header"], state["header_value"]))
        for handle, value in expected:
            with heap.get_ref(handle) as g:
                rec.read_mismatches += g.read() != value


# -- churn-powerfail ---------------------------------------------------------------

ALLOC, DEALLOC, READ, HOLD, RELEASE_HELD, WRITE, PERSIST, PIN_BURST, POWER_CYCLE = range(9)
TINY_MAX = 12


class ChurnPowerfail:
    """Small objects churned under armed persists and power cycles.

    Every persist is armed with exactly ``persist_bound`` words. A persist that
    dies is a bound violation; the workload then restores and checks that the
    previous checkpoint came back. Every restore is compared for exact
    equality (object-id set and every payload) with the last committed
    shadow. After a mismatch the run continues from the restored heap, with
    the shadow re-read from it, so one defect neither aborts nor resets it.
    """

    name = "churn-powerfail"
    SUBSTREAMS = 16
    TIMED = 4
    CAPACITY = 128 * 1024
    CACHE = 4096
    DIRTY = 2048
    MAX_OBJECTS = 128
    LIVE_CAP = 40           # regular objects the application keeps live at most
    BURST_MAX = 64          # tiny objects pinned at once; LIVE_CAP + BURST_MAX < MAX_OBJECTS
    POPULATION = 48
    WARMUP_STEPS = 200
    PASS_STEPS = 1500

    # Cumulative step probabilities.
    STEPS = ((0.040, PERSIST), (0.046, POWER_CYCLE), (0.052, PIN_BURST),
             (0.090, RELEASE_HELD), (0.140, HOLD), (0.220, DEALLOC),
             (0.500, ALLOC), (0.750, READ), (1.0, WRITE))

    @staticmethod
    def _payload(rng: random.Random) -> bytes:
        size = rng.randint(1, TINY_MAX) if rng.random() < 0.6 else rng.randint(TINY_MAX + 1, 400)
        return bytes([rng.randrange(256)]) * size

    def _step(self, rng: random.Random) -> tuple:
        r = rng.random()
        kind = next(k for p, k in self.STEPS if r < p)
        if kind == ALLOC:
            return (ALLOC, self._payload(rng))
        if kind == DEALLOC:
            return (DEALLOC, [rng.random() for _ in range(rng.randint(1, 8))])
        if kind in (READ, HOLD):
            return (kind, rng.random())
        if kind == WRITE:
            return (WRITE, rng.random(), rng.randrange(256))
        if kind == PIN_BURST:
            return (PIN_BURST, rng.randrange(256),
                    [bytes([rng.randrange(256)]) * rng.randint(1, 4)
                     for _ in range(rng.randint(40, self.BURST_MAX))])
        return (kind,)

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        population = [self._payload(rng) for _ in range(self.POPULATION)]
        warmup = [self._step(rng) for _ in range(self.WARMUP_STEPS)]
        ops = [self._step(rng) for _ in range(self.PASS_STEPS)]
        return {"seed": seed, "population": population, "warmup": warmup, "ops": ops}

    def setup(self, stream: dict, tracer: Tracer | None) -> dict:
        dev = make_device(tracer, self.CAPACITY)
        heap = VnvHeap(dev, cache_size_bytes=self.CACHE,
                       max_modified_state_bytes=self.DIRTY, max_objects=self.MAX_OBJECTS)
        state = {"tracer": tracer, "committed": None, "spent": 0}
        self._adopt(state, dev, heap)
        for payload in stream["population"]:
            handle = heap.alloc(payload)
            self._add(state, handle, payload)
        self._drive(state, stream["warmup"], Recorder(None))
        return state

    def run(self, state: dict, stream: dict, rec: Recorder) -> None:
        state["spent"] = -state["dev"].cost_meter.words_total
        self._drive(state, stream["ops"], rec)
        rec.words = state["spent"] + state["dev"].cost_meter.words_total

    def finish(self, state: dict, rec: Recorder) -> None:
        heap = state["heap"]
        rec.end_stats = heap.stats()
        for guard in state["held"]:
            guard.release()
        for hid, value in state["shadow"].items():
            with heap.get_ref(state["handles"][hid]) as g:
                rec.read_mismatches += g.read() != value

    # -- application state --------------------------------------------------

    def _adopt(self, state: dict, dev, heap: VnvHeap) -> None:
        # Words count from here on: what restore() and the oracle moved on
        # this device before is restore traffic, reported as restore_words.
        state["spent"] -= dev.cost_meter.words_total
        state.update(dev=dev, heap=heap, api=bind(heap, state["tracer"]),
                     bound=persist_bound(heap.config), live=[], handles={},
                     shadow={}, held=[], held_ids=Counter())

    @staticmethod
    def _add(state: dict, handle, payload: bytes) -> None:
        state["live"].append(handle.id)
        state["handles"][handle.id] = handle
        state["shadow"][handle.id] = payload

    @staticmethod
    def _unheld(state: dict) -> list[int]:
        held = state["held_ids"]
        return [hid for hid in state["live"] if not held[hid]]

    # -- the loop -----------------------------------------------------------------

    def _drive(self, state: dict, ops: list, rec: Recorder) -> None:
        for op in ops:
            kind = op[0]
            if kind == ALLOC:
                if len(state["live"]) < self.LIVE_CAP:
                    self._alloc(state, op[1], rec, pin=False)
            elif kind == DEALLOC:
                for frac in op[1]:
                    candidates = self._unheld(state)
                    if candidates:
                        self._dealloc(state, candidates[int(frac * len(candidates))], rec)
            elif kind in (READ, HOLD):
                if state["live"]:
                    hid = state["live"][int(op[1] * len(state["live"]))]
                    self._read(state, hid, rec, hold=kind == HOLD)
            elif kind == RELEASE_HELD:
                self._release_held(state, rec)
            elif kind == WRITE:
                candidates = self._unheld(state)
                if candidates:
                    self._write(state, candidates[int(op[1] * len(candidates))], op[2], rec)
            elif kind == PERSIST:
                self._persist(state, rec)
            elif kind == PIN_BURST:
                self._pin_burst(state, op[1], op[2], rec)
            else:
                self._power_cycle(state, rec)

    def _alloc(self, state: dict, payload: bytes, rec: Recorder, pin: bool) -> int | None:
        api, heap = state["api"], state["heap"]
        t0 = clock()
        try:
            handle = api.alloc(payload)
            guard = api.get_ref(handle) if pin else None
        except VnvHeapError as exc:
            rec.refusal("op.alloc", exc, t0, heap)
            return None
        t1 = clock()
        self._add(state, handle, payload)
        if guard is not None:
            state["held"].append(guard)
            state["held_ids"][handle.id] += 1
        rec.op("op.alloc", t0, t1, heap)
        return handle.id

    def _dealloc(self, state: dict, hid: int, rec: Recorder) -> None:
        api, heap = state["api"], state["heap"]
        t0 = clock()
        try:
            api.dealloc(state["handles"][hid])
        except VnvHeapError as exc:
            rec.refusal("op.dealloc", exc, t0, heap)
            return
        t1 = clock()
        state["live"].remove(hid)
        del state["handles"][hid], state["shadow"][hid]
        rec.op("op.dealloc", t0, t1, heap)

    def _read(self, state: dict, hid: int, rec: Recorder, hold: bool) -> None:
        api, heap = state["api"], state["heap"]
        t0 = clock()
        try:
            guard = api.get_ref(state["handles"][hid])
            got = guard.read()
            if not hold:
                api.guard_release(guard)
        except VnvHeapError as exc:
            rec.refusal("op.read", exc, t0, heap)
            return
        t1 = clock()
        rec.read_mismatches += got != state["shadow"][hid]
        if hold:
            state["held"].append(guard)
            state["held_ids"][hid] += 1
        rec.op("op.read", t0, t1, heap)

    def _release_held(self, state: dict, rec: Recorder) -> None:
        release, heap, held_ids = state["api"].guard_release, state["heap"], state["held_ids"]
        for guard in state["held"]:
            t0 = clock()
            release(guard)
            t1 = clock()
            rec.op("op.release", t0, t1, heap)
        held_ids.clear()
        state["held"] = []

    def _write(self, state: dict, hid: int, fill: int, rec: Recorder) -> None:
        api, heap = state["api"], state["heap"]
        payload = bytes([fill]) * len(state["shadow"][hid])
        t0 = clock()
        try:
            guard = api.get_mut(state["handles"][hid])
            guard.write(payload)
            api.guard_release(guard)
        except VnvHeapError as exc:
            rec.refusal("op.write", exc, t0, heap)
            return
        t1 = clock()
        state["shadow"][hid] = payload
        rec.op("op.write", t0, t1, heap)

    def _pin_burst(self, state: dict, fill: int, payloads: list, rec: Recorder) -> None:
        """Rewrite every large object, then take many tiny readings, each
        under a read guard across one persist, then free the readings. The
        modified-state budget is full when the pinned entries come due."""
        shadow = state["shadow"]
        for hid in self._unheld(state):
            if len(shadow[hid]) > TINY_MAX:
                self._write(state, hid, fill, rec)
        room = self.LIVE_CAP + self.BURST_MAX - len(state["live"])
        burst = [self._alloc(state, payload, rec, pin=True) for payload in payloads[:room]]
        if self._persist(state, rec):
            self._release_held(state, rec)
            for hid in burst:
                if hid is not None:
                    self._dealloc(state, hid, rec)

    def _persist(self, state: dict, rec: Recorder) -> bool:
        if rec.checkpoint(state["api"], state["dev"], state["bound"], armed=True):
            state["committed"] = dict(state["shadow"])
            return True
        # The heap is poisoned; the previous checkpoint must come back.
        self._power_cycle(state, rec)
        return False

    def _power_cycle(self, state: dict, rec: Recorder) -> None:
        """Reboot, restore, and compare with the last committed shadow."""
        old = state["dev"]
        state["spent"] += old.cost_meter.words_total
        dev = old.reopen()
        committed = state["committed"]
        t0 = clock()
        try:
            heap, handles = state["api"].restore(dev, self.CACHE, self.DIRTY)
            error = None
        except Exception as exc:  # noqa: BLE001 - the oracle judges every outcome
            heap, error = None, exc
        t1 = clock()
        rec.restore_ns.append(t1 - t0)
        rec.restore_words.append(dev.cost_meter.words_read)
        if rec.tracer is not None:
            rec.tracer.end_op(None, t0, t1)
        if heap is None:
            if committed is not None or not isinstance(error, NoValidCheckpointError):
                rec.restore_mismatches += 1
            self._start_over(state, dev)
            return
        if committed is None:
            rec.restore_mismatches += 1   # restored from a device never committed
        try:
            restored = {}
            for hid in sorted(handles):
                if heap.object_info(handles[hid]).pinned:
                    heap.release_restored_pin(handles[hid])
                with heap.get_ref(handles[hid]) as g:
                    restored[hid] = g.read()
        except Exception:  # noqa: BLE001 - a restored heap that cannot be read
            rec.restore_mismatches += 1
            self._start_over(state, dev)
            return
        if committed is not None and restored != committed:
            rec.restore_mismatches += 1
        self._adopt(state, dev, heap)
        for hid, payload in restored.items():
            self._add(state, handles[hid], payload)
        state["committed"] = dict(restored)

    def _start_over(self, state: dict, dev) -> None:
        """Format the device afresh after a restore that gave nothing usable."""
        dev = dev.reopen()
        heap = VnvHeap(dev, cache_size_bytes=self.CACHE,
                       max_modified_state_bytes=self.DIRTY, max_objects=self.MAX_OBJECTS)
        self._adopt(state, dev, heap)
        state["committed"] = None


WORKLOADS = {w.name: w for w in (KvUnequalEvict(), SensorCheckpoint(), ChurnPowerfail())}
