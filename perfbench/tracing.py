"""Spans for the traced benchmark run, recorded from the benchmark's own files.

The program is not instrumented. Instead every public call the workloads
make into it goes through a table of callables (:func:`bind`). Untraced, the
table holds the program's own bound methods, so timing sees no extra frames.
Traced, each entry is wrapped to record one span, and the device is a
:class:`TracedNvm` whose ``read``/``write`` record a child span per transfer,
because the heap calls the device's public ``read``/``write`` itself.

A span is the tuple ``(name, op_id, parent, t0_ns, t1_ns, value, flags)``.
``parent`` is the index of the enclosing span, ``-1`` for a call made directly
by an application op, or ``ROOT`` for the op's own span, which is appended
when the op ends. ``value`` is a call-specific count: table metadata bytes
written for heap calls, words moved for device transfers. Spans stay in
memory until the pass ends and are summarised by :class:`LayerStats`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from time import perf_counter_ns
from types import SimpleNamespace

from vnvheap import PowerFailureInjected, ReadGuard, SimulatedNvm, persist, restore

ROOT = -2

ARMED = 1
PAYLOAD = 2
FAILED = 4

ACCESS_SPANS = ("heap.get_ref", "heap.get_mut", "workloads.kv_get", "workloads.kv_update")


class Tracer:
    """In-memory span log of one benchmark pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = 0

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, name: str, t0: int, t1: int, value: int, flags: int = 0) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else -1
        self.spans[idx] = (name, self.op_id, parent, t0, t1, value, flags)

    def wrap(self, name: str, fn, probe=None):
        """``fn`` recording one span per call; ``probe()`` is diffed into ``value``."""
        def traced(*args):
            idx = self.open()
            before = probe() if probe is not None else 0
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                t1 = perf_counter_ns()
                self.close(idx, name, t0, t1, probe() - before if probe is not None else 0)
        return traced

    def end_op(self, name: str | None, t0: int, t1: int) -> None:
        """Close application op ``name`` (or a bare checkpoint when None)."""
        if name is not None:
            self.spans.append((name, self.op_id, ROOT, t0, t1, 0, 0))
        self.op_id += 1


class TracedNvm(SimulatedNvm):
    """Simulated device that records a span per public transfer."""

    def __init__(self, tracer: Tracer, capacity_bytes: int, object_offset: int = 0) -> None:
        super().__init__(capacity_bytes)
        self.tracer = tracer
        # Writes at or above this offset land in the object region (payload);
        # below it are the superblock and the checkpoint tables.
        self.object_offset = object_offset

    def _transfer(self, name: str, fn, offset: int, arg):
        tracer = self.tracer
        meter = self.cost_meter
        flags = (ARMED if self.armed else 0) | (PAYLOAD if offset >= self.object_offset else 0)
        before = meter.words_total
        idx = tracer.open()
        t0 = perf_counter_ns()
        try:
            return fn(self, offset, arg)
        except PowerFailureInjected:
            flags |= FAILED
            raise
        finally:
            t1 = perf_counter_ns()
            tracer.close(idx, name, t0, t1, meter.words_total - before, flags)

    def read(self, offset: int, length: int) -> bytes:
        return self._transfer("storage.read", SimulatedNvm.read, offset, length)

    def write(self, offset: int, data) -> None:
        return self._transfer("storage.write", SimulatedNvm.write, offset, data)

    def reopen(self) -> "TracedNvm":
        dev = TracedNvm(self.tracer, self.capacity_bytes, self.object_offset)
        dev._buf[:] = self._buf
        return dev


def make_device(tracer: Tracer | None, capacity_bytes: int):
    return SimulatedNvm(capacity_bytes) if tracer is None else TracedNvm(tracer, capacity_bytes)


def bind(heap, tracer: Tracer | None, store=None) -> SimpleNamespace:
    """The public calls a workload makes on ``heap`` (and its kv ``store``)."""
    calls = {
        "heap.alloc": heap.alloc,
        "heap.dealloc": heap.dealloc,
        "heap.get_ref": heap.get_ref,
        "heap.get_mut": heap.get_mut,
        "heap.guard_release": ReadGuard.release,
        "persistence.persist": partial(persist, heap),
        "persistence.restore": restore,
    }
    if store is not None:
        calls["workloads.kv_get"] = store.get
        calls["workloads.kv_update"] = store.update
    if tracer is not None:
        if isinstance(heap.device, TracedNvm):
            heap.device.object_offset = heap.layout.object_offset

        def metadata_bytes():
            return heap.tables.metadata_bytes_written
        probed = ("heap.alloc", "heap.dealloc", "persistence.persist")
        calls = {name: tracer.wrap(name, fn, metadata_bytes if name in probed else None)
                 for name, fn in calls.items()}
    return SimpleNamespace(**{name.split(".", 1)[1]: fn for name, fn in calls.items()})


class LayerStats:
    """Per-layer sums over the traced passes of one run."""

    def __init__(self) -> None:
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.count = Counter()
        self.ops = 0
        self.accesses = 0
        self.misses = 0
        self.load_words = 0
        self.sync_words = 0
        self.storage_ns = 0
        self.armed_ns = 0
        self.armed_words = 0
        self.power_failures = 0
        self.metadata_words: dict[str, int] = Counter()

    def add(self, tracer: Tracer, n_ops: int) -> None:
        spans = tracer.spans
        self.ops += n_ops
        child_ns = [0] * len(spans)
        op_child_ns: Counter = Counter()
        reads_under = Counter()
        read_words_under = Counter()
        for name, op_id, parent, t0, t1, value, flags in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
            elif parent == -1:
                op_child_ns[op_id] += t1 - t0
            if name.startswith("storage."):
                self.count[name] += 1
                self.storage_ns += t1 - t0
                if flags & ARMED:
                    self.armed_ns += t1 - t0
                    self.armed_words += value
                if flags & FAILED:
                    self.power_failures += 1
                if parent >= 0:
                    if name == "storage.read":
                        reads_under[parent] += 1
                        read_words_under[parent] += value
                    elif flags & PAYLOAD and spans[parent][0] != "persistence.persist":
                        self.sync_words += value
        for idx, (name, op_id, parent, t0, t1, value, flags) in enumerate(spans):
            if name.startswith("storage."):
                continue
            covered = op_child_ns[op_id] if parent == ROOT else child_ns[idx]
            self.self_ns[name].append(t1 - t0 - covered)
            if name in ACCESS_SPANS:
                self.accesses += 1
                if reads_under[idx]:
                    self.misses += 1
                    self.load_words += read_words_under[idx]
            elif name in ("heap.alloc", "heap.dealloc", "persistence.persist"):
                self.count[name] += 1
                self.metadata_words[name] += value // 4
