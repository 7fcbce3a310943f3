"""Benchmark runners and property suites behind the command-line interface.

Everything here is deterministic: storage costs come from the word-granular
cost meter, time and energy are derived from those words through an explicit
model, and all randomness is seeded. A record is therefore reproducible
bit-for-bit from (benchmark, parameters, seed).
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field

from .baselines import MS_PAGE_SIZES, ManagedStatePool, ModuleSwapApp, UnmanagedRam
from .errors import PreconditionError
from .heap import HEADER_CHARGE_BYTES, VnvHeap, persist
from .oracle import TraceMachine
from .storage import EnergyModel, SimulatedNvm, StorageDevice
from .workloads import (
    MsKvStore,
    NvmQueue,
    RamQueue,
    VnvKvStore,
    VnvQueue,
    WORKLOAD_KEYS,
    WORKLOAD_TOTAL_BYTES,
    build_kv_store,
    gen_access_sequence,
    unequal_weights,
)

# The axes each benchmark sweeps, in sweep order. The CLI's choices and
# default sweeps, and each runner's refusals, read these declarations.
ACCESS_SIZES = (32, 128, 512, 1024)
ACCESS_CASES = ("best", "bad", "worst")
ACCESS_SYSTEMS = ("vnv", "module")
QUEUE_BACKENDS = ("ram", "nvm", "vnv")
QUEUE_LENGTH_SWEEP = (4, 12, 20, 60)
PERSIST_MODES = ("vary_ram", "vary_limit")
PERSIST_RAM_SWEEP = (4096, 8192, 16384, 32768)
PERSIST_LIMIT_SWEEP = (512, 1024, 2048, 4096)
KVS_BACKENDS = ("vnv", "ms")
KVS_CACHE_BYTES = 65536  # holds the whole 58 KiB working set
KVS_DIRTY_BUDGET = WORKLOAD_TOTAL_BYTES // 5


@dataclass
class BenchRecord:
    benchmark: str
    params: dict[str, object]
    words_read: int = 0
    words_written: int = 0
    reps: int = 1

    @property
    def words_total(self) -> int:
        return self.words_read + self.words_written

    @classmethod
    def since(cls, benchmark: str, params: dict[str, object], device: StorageDevice,
              before: tuple[int, int], reps: int = 1) -> "BenchRecord":
        """The words ``device`` moved since its meter read ``before``."""
        words_read, words_written = device.cost_meter.snapshot()
        return cls(benchmark, params, words_read - before[0], words_written - before[1], reps)


CSV_HEADER = ("benchmark", "params", "words_read", "words_written",
              "time_us", "energy_uj", "reps")


def format_params(params: dict[str, object]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def write_csv(records: list[BenchRecord], model: EnergyModel, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            r.benchmark,
            format_params(r.params),
            r.words_read,
            r.words_written,
            f"{model.time_us(r.words_total):.3f}",
            f"{model.energy_uj(r.words_total):.6f}",
            r.reps,
        ])


# -- object access latency (best / bad / worst case) ---------------------------

def run_access_bench(case: str, object_size: int, system: str) -> BenchRecord:
    """Measure one guarded access in the named staging. ``system`` is the
    heap ("vnv") or the whole-module swapping baseline ("module")."""
    if case not in ACCESS_CASES:
        raise PreconditionError(f"case must be one of {ACCESS_CASES}")
    if not 0 < object_size <= 1024:
        raise PreconditionError("object_size must be in (0, 1024]")
    if system not in ACCESS_SYSTEMS:
        raise PreconditionError(f"unknown system {system!r}")
    dev = SimulatedNvm(64 * 1024)
    if system == "vnv":
        # one object plus one 1 KiB eviction victim must be stageable; the cache
        # and budget are sized so the worst case genuinely has to sync + load
        heap = VnvHeap(dev, cache_size_bytes=1044, max_modified_state_bytes=1044,
                       max_objects=8)
        target = heap.alloc(bytes(object_size))
        if case in ("bad", "worst"):
            heap.sync_object(target)
            heap.unload(target)
        if case == "worst":
            heap.alloc(bytes(1024))  # a modified victim hogging the cache
        before = dev.cost_meter.snapshot()
        with heap.get_ref(target) as g:
            g.read(0, object_size)
    else:
        app = ModuleSwapApp(dev, module_count=2)
        target_module = 0 if case == "best" else 1
        before = dev.cost_meter.snapshot()
        app.read(target_module, 0, object_size)
    return BenchRecord.since(
        "access", {"case": case, "object_size": object_size, "system": system}, dev, before)


# -- queue push+pop ------------------------------------------------------------------

def _element(i: int, size: int) -> bytes:
    return bytes([(i * 31 + j) % 256 for j in range(4)]) * (size // 4)


def run_queue_bench(initial_len: int, backend: str, reps: int = 64) -> BenchRecord:
    """Average storage cost of one push+pop at a steady queue length. Every
    pop must return what a FIFO shadow of the pushes holds."""
    if backend not in QUEUE_BACKENDS:
        raise PreconditionError(f"unknown queue backend {backend!r}")
    size = 256
    dev = SimulatedNvm()  # the RAM backend never touches it
    if backend == "vnv":
        heap = VnvHeap(dev, cache_size_bytes=4096, max_modified_state_bytes=4096,
                       max_objects=max(64, 2 * initial_len + 16))
        queue = VnvQueue(heap, size)
    elif backend == "nvm":
        queue = NvmQueue(dev, capacity=max(64, 2 * initial_len), element_size=size)
    else:
        queue = RamQueue(4096, size)
    pushed: deque[bytes] = deque()

    def push(i: int) -> None:
        pushed.append(_element(i, size))
        queue.push(pushed[-1])

    def pop() -> None:
        if queue.pop() != pushed.popleft():
            raise AssertionError(f"the {backend} queue popped a payload it was not pushed")

    for i in range(initial_len):
        push(i)
    for i in range(4):  # settle into the steady state before metering
        push(i)
        pop()

    before = dev.cost_meter.snapshot()
    for i in range(reps):
        push(i + initial_len)
        pop()
    return BenchRecord.since(
        "queue", {"backend": backend, "length": initial_len, "element_size": size},
        dev, before, reps)


# -- persist cost sweeps -----------------------------------------------------------

def _vnv_persist(mode: str, ram: int, dirty_limit: int) -> BenchRecord:
    """Largest checkpoint cost observed over three persists while a single
    object keeps the modified-state budget saturated: every byte beside the
    header is its payload."""
    dev = SimulatedNvm(64 * 1024)
    heap = VnvHeap(dev, cache_size_bytes=ram,
                   max_modified_state_bytes=dirty_limit, max_objects=8)
    payload = bytes(dirty_limit - HEADER_CHARGE_BYTES)
    h = heap.alloc(payload)
    worst = 0
    for _ in range(3):
        worst = max(worst, persist(heap).words_transferred)
        with heap.get_mut(h) as w:  # re-dirty the whole object
            w.write(payload)
    return BenchRecord(
        "persist", {"mode": mode, "ram": ram, "dirty_limit": dirty_limit, "system": "vnv"},
        words_written=worst)


def _unmanaged_persist(mode: str, ram: int) -> BenchRecord:
    baseline = UnmanagedRam(SimulatedNvm(2 * ram), ram)
    return BenchRecord("persist", {"mode": mode, "ram": ram, "system": "unmanaged"},
                       words_written=baseline.checkpoint())


def run_persist_bench(mode: str) -> list[BenchRecord]:
    """``vary_ram``: the heap at a 2048-byte limit beside the whole-RAM
    checkpoint, per RAM size. ``vary_limit``: the heap in 4 KiB of RAM per
    limit, then the one whole-RAM checkpoint of that RAM."""
    if mode not in PERSIST_MODES:
        raise PreconditionError(f"unknown persist mode {mode!r}")
    if mode == "vary_ram":
        return [record for ram in PERSIST_RAM_SWEEP
                for record in (_vnv_persist(mode, ram, 2048), _unmanaged_persist(mode, ram))]
    return [*(_vnv_persist(mode, 4096, limit) for limit in PERSIST_LIMIT_SWEEP),
            _unmanaged_persist(mode, 4096)]


# -- key-value store updates ----------------------------------------------------------

def ms_dirty_page_limit(page_size: int) -> int:
    """Dirty pages the pool may hold under the byte budget the heap gets
    (``KVS_DIRTY_BUDGET``): page payloads plus their one-byte-per-page
    metadata must fit."""
    page_count = -(-WORKLOAD_TOTAL_BYTES // page_size)
    return (KVS_DIRTY_BUDGET - page_count) // page_size


def run_kvs_bench(backend: str, pattern: str, seed: int,
                  page_size: int | None = None, n_ops: int = 4096) -> BenchRecord:
    """Per-update storage cost over the standard 256-object population. The
    store must then hold what the trace wrote."""
    if backend not in KVS_BACKENDS:
        raise PreconditionError(f"unknown kvs backend {backend!r}")
    dev = SimulatedNvm()
    if backend == "vnv":
        heap = VnvHeap(dev, cache_size_bytes=KVS_CACHE_BYTES,
                       max_modified_state_bytes=KVS_DIRTY_BUDGET, max_objects=512)
        store = VnvKvStore(heap)
        params: dict[str, object] = {"backend": backend}
    else:
        if page_size not in MS_PAGE_SIZES:
            raise PreconditionError(f"page size must be one of {MS_PAGE_SIZES}")
        pool = ManagedStatePool(dev, WORKLOAD_TOTAL_BYTES, page_size,
                                dirty_page_limit=ms_dirty_page_limit(page_size))
        store = MsKvStore(pool)
        params = {"backend": backend, "page_size": page_size}

    shadow = build_kv_store(store, seed)
    keys = gen_access_sequence(pattern, WORKLOAD_KEYS, n_ops, seed + 1)
    before = dev.cost_meter.snapshot()
    for i, key in enumerate(keys):
        value = bytes([(i + key) % 256]) * store.value_size(key)
        store.update(key, value)
        shadow[key] = value
    params.update({"pattern": pattern, "seed": seed,
                   "metadata_bytes": store.metadata_bytes,
                   "total_bytes": WORKLOAD_TOTAL_BYTES})
    record = BenchRecord.since("kvs", params, dev, before, n_ops)
    for key, value in shadow.items():  # both backends must agree with the trace
        if store.get(key) != value:
            raise AssertionError(f"kvs state diverged at key {key}")
    return record


# -- crash / property suites ------------------------------------------------------------

@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        extra = "" if self.ok else f" ({len(self.failures)} failures)"
        return f"{verdict} {self.name}: {self.checks} checks{extra}"


_SUITE_TRACE = {"cache": 4096, "dirty": 2048, "max_objects": 64, "capacity": 256 * 1024}


def _require_asserts(suite: str) -> None:
    """The oracle checks with assert statements, which ``python -O`` strips;
    a suite run without them would pass without checking anything."""
    if not __debug__:
        raise PreconditionError(f"{suite} needs assert statements; run it without python -O")


def run_crash_suite(seed: int, iterations: int = 100) -> SuiteReport:
    """persist -> reboot -> restore equality on random traces with guards
    held, every persist armed at ``persist_bound``, and every power cut the
    traces draw restoring the last commit's ids and the payloads not written
    since it. Raises :class:`PreconditionError` under ``python -O``."""
    _require_asserts("crash")
    report = SuiteReport("crash: checkpoint/restore round trips")
    for i in range(iterations):
        m = TraceMachine(seed * 1000 + i, **_SUITE_TRACE)
        try:
            for _ in range(m.rng.randint(0, 120)):
                m.step()
            m.power_cycle()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the suite
            report.failures.append(f"iteration {i} (seed {seed * 1000 + i}): {exc!r}")
        report.checks += 1
    return report


def run_dirty_limit_suite(seed: int, traces: int = 10, ops: int = 10_000) -> SuiteReport:
    """The two core runtime invariants on oracle traces: after every
    operation ``dirty_bytes <= limit`` (4 B per word the next persist
    writes, plus 3 words), and every persist, armed at ``persist_bound``,
    writes exactly its dry run. Every operation also makes the oracle's
    guard checks; every 97th runs the full check.
    Raises :class:`PreconditionError` under ``python -O``."""
    _require_asserts("the invariant suite")
    report = SuiteReport("invariants: dirty limit and persist bound")
    for t in range(traces):
        m = TraceMachine(seed + t, **_SUITE_TRACE)
        for op in range(ops):
            try:
                m.step()
                if m.heap.dirty_bytes > m.dirty:
                    raise AssertionError(f"dirty {m.heap.dirty_bytes} > {m.dirty}")
                if op % 97 == 96:
                    m.check()
            except Exception as exc:  # noqa: BLE001 - the trace is broken; go on to the next
                report.failures.append(f"trace {t} op {op}: {exc!r}")
                break
            report.checks += 1
    return report


def run_pattern_suite(draws: int = 1_000_000) -> SuiteReport:
    """Empirical Unequal-pattern distribution vs. its defining weights."""
    import numpy as np

    report = SuiteReport("access pattern: unequal-weight statistics")
    weights = unequal_weights(WORKLOAD_KEYS)
    keys = gen_access_sequence("unequal", WORKLOAD_KEYS, draws, seed=424242)
    counts = np.bincount(np.asarray(keys), minlength=WORKLOAD_KEYS)
    tv = 0.5 * float(np.abs(counts / draws - weights).sum())
    report.checks = draws
    if tv >= 0.01:
        report.failures.append(f"total variation {tv:.4f} >= 0.01")
    # determinism: the same seed must reproduce the same sequence
    again = gen_access_sequence("unequal", WORKLOAD_KEYS, 1000, seed=424242)
    if again != keys[:1000]:
        report.failures.append("sequence not deterministic for a fixed seed")
    return report


def run_check(seed: int, quick: bool = False) -> list[SuiteReport]:
    """Every property suite. Raises :class:`PreconditionError` under
    ``python -O``, before any suite runs."""
    _require_asserts("check")
    scale = 10 if quick else 1
    return [
        run_dirty_limit_suite(seed, traces=10 // scale or 1,
                              ops=10_000 // scale),
        run_crash_suite(seed, iterations=100 // scale),
        # the statistical tolerance assumes the full draw count, so the
        # pattern suite never scales down (it is cheap anyway)
        run_pattern_suite(),
    ]
