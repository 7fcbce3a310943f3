"""Benchmark workloads: a non-volatile FIFO queue and a small key-value store.

The queue stores each element in its own heap object so the heap's eviction
machinery works element-wise: a short queue lives entirely in cache and moves
nothing, a long one streams elements through the cache at the cost of one
write-back and one load per push/pop cycle. Queue bookkeeping (element ids,
FIFO order, free slots) lives in a separate control object that is kept under
a write guard for the queue's whole lifetime: it is updated in place on every
operation, survives checkpoints, and is never an eviction candidate.

The key-value store exists in two functionally identical builds, one over the
heap and one over the page-tracking pool, so a shared trace can compare their
storage traffic and metadata footprints. Its index is an ordinary volatile
dict: rebuilt by the embedding application, not part of the measured state.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from .errors import (
    KeyNotFoundError,
    PreconditionError,
    QueueEmptyError,
    RamCapacityExceededError,
    SizeMismatchError,
    StaleHandleError,
)
from .baselines import ManagedStatePool
from .heap import ObjectHandle, VnvHeap
from .storage import StorageDevice

# The functions that use numpy import it themselves: most commands never
# call them, and loading numpy is most of the CLI's start-up time.
if TYPE_CHECKING:
    import numpy as np

QUEUE_ELEMENT_BYTES = 256
_CONTROL_HEADER = struct.Struct("<IIII")  # element_size, capacity, live_count, spare


class VnvQueue:
    """FIFO queue of fixed-size elements, one heap object per element."""

    def __init__(self, heap: VnvHeap, element_size: int = QUEUE_ELEMENT_BYTES,
                 _attach: tuple | None = None) -> None:
        self.heap = heap
        self.element_size = element_size
        if _attach is not None:
            self._slots, self._live, self._free, self._control, self.capacity = _attach
        else:
            self.capacity = 8
            self._slots: list[ObjectHandle] = []
            self._live: list[int] = []   # slot indices, FIFO order
            self._free: list[int] = []   # slot indices, most recently freed last
            self._control = heap.alloc(bytes(self._control_bytes(self.capacity)))
        self._guard = heap.get_mut(self._control)
        self._sync_control()

    # -- bookkeeping -----------------------------------------------------------

    @staticmethod
    def _control_bytes(capacity: int) -> int:
        return _CONTROL_HEADER.size + 4 * capacity

    def _sync_control(self) -> None:
        ids = [self._slots[i].id for i in self._live]
        ids += [self._slots[i].id for i in reversed(self._free)]
        packed = _CONTROL_HEADER.pack(self.element_size, self.capacity,
                                      len(self._live), 0)
        packed += struct.pack(f"<{len(ids)}I", *ids)
        self._guard.write(packed)

    def _grow_control(self) -> None:
        # The control object is sized for `capacity` ids; double it. This is
        # the one queue operation that goes through the allocator.
        self.capacity *= 2
        self._guard.release()
        self.heap.dealloc(self._control)
        self._control = self.heap.alloc(bytes(self._control_bytes(self.capacity)))
        self._guard = self.heap.get_mut(self._control)

    def _take_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if len(self._slots) == self.capacity:
            self._grow_control()
        self._slots.append(self.heap.alloc(bytes(self.element_size)))
        return len(self._slots) - 1

    # -- queue interface -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def push(self, payload: bytes) -> None:
        # Checked, in bytes, before a slot is taken, so a refused push leaks none.
        payload = bytes(payload)
        if len(payload) != self.element_size:
            raise SizeMismatchError(
                f"queue elements are {self.element_size} B, got {len(payload)}")
        slot = self._take_slot()
        self.heap.replace(self._slots[slot], payload)
        self._live.append(slot)
        self._sync_control()

    def pop(self) -> bytes:
        if not self._live:
            raise QueueEmptyError("queue is empty")
        slot = self._live.pop(0)
        with self.heap.get_ref(self._slots[slot]) as g:
            payload = g.read()
        self._free.append(slot)
        self._sync_control()
        return payload

    def close(self) -> None:
        """Release the control guard (e.g. before deallocating the queue)."""
        if not self._guard.released:
            self._guard.release()

    @property
    def control_id(self) -> int:
        """Stable id of the control object; the key to :meth:`attach`."""
        return self._control.id

    @classmethod
    def attach(cls, heap: VnvHeap, handles: dict[int, ObjectHandle],
               control_id: int) -> "VnvQueue":
        """Rebuild a queue from a restored heap and its handle directory.

        Raises :class:`StaleHandleError` for a control or element id that
        ``handles`` does not hold, and :class:`PreconditionError` for a
        control record that contradicts its objects (an element object
        passed as the control, say): a size that holds no whole id list, an
        element size of 0, a capacity other than the ids it holds, more live
        elements than ids, or an element object of another size."""
        control = _restored(handles, control_id, "control object")
        total, odd = divmod(control.size_bytes - _CONTROL_HEADER.size, 4)
        if total < 0 or odd:
            raise PreconditionError(
                f"object {control_id} ({control.size_bytes} B) is not a queue control record")
        with heap.get_ref(control) as g:
            element_size, capacity, live_count, _ = _CONTROL_HEADER.unpack(
                g.read(0, _CONTROL_HEADER.size))
            ids = struct.unpack(f"<{total}I", g.read(_CONTROL_HEADER.size))
        slot_ids = [i for i in ids if i]  # zero-padded tail = unallocated
        if not element_size or capacity != total or live_count > len(slot_ids):
            raise PreconditionError(
                f"object {control_id} is not a queue control record: element size "
                f"{element_size}, capacity {capacity} for {total} ids, "
                f"{live_count} live of {len(slot_ids)} ids")
        slots = [_restored(handles, i, "element") for i in slot_ids]
        for slot in slots:
            if slot.size_bytes != element_size:
                raise PreconditionError(
                    f"queue element {slot.id} is {slot.size_bytes} B, "
                    f"the control record says {element_size} B")
        live = list(range(live_count))
        free = list(reversed(range(live_count, len(slot_ids))))
        return cls(heap, element_size,
                   _attach=(slots, live, free, control, capacity))


def _restored(handles: dict[int, ObjectHandle], handle_id: int, what: str) -> ObjectHandle:
    handle = handles.get(handle_id)
    if handle is None:
        raise StaleHandleError(f"queue {what} {handle_id} is not among the restored objects")
    return handle


class NvmQueue:
    """Every element read from / written to storage directly; no cache. The
    state word packs the head and the length as a u16 each."""

    def __init__(self, device: StorageDevice, capacity: int = 1024,
                 element_size: int = QUEUE_ELEMENT_BYTES) -> None:
        if capacity > 0xFFFF:
            raise PreconditionError(f"a raw-NVM queue holds at most 65535 elements, not {capacity}")
        self.device = device
        self.element_size = element_size
        self.capacity = capacity
        self.head = 0
        self.length = 0

    def _slot_offset(self, index: int) -> int:
        return 4 + (index % self.capacity) * self.element_size

    def _write_state(self) -> None:
        self.device.write(0, struct.pack("<HH", self.head % self.capacity, self.length))

    def __len__(self) -> int:
        return self.length

    def push(self, payload: bytes) -> None:
        payload = bytes(payload)  # sized in bytes, not items
        if len(payload) != self.element_size:
            raise SizeMismatchError("wrong element size")
        if self.length == self.capacity:
            raise RamCapacityExceededError("queue region is full")
        self.device.write(self._slot_offset(self.head + self.length), payload)
        self.length += 1
        self._write_state()

    def pop(self) -> bytes:
        if not self.length:
            raise QueueEmptyError("queue is empty")
        payload = self.device.read(self._slot_offset(self.head), self.element_size)
        self.head += 1
        self.length -= 1
        self._write_state()
        return payload


class RamQueue:
    """Plain volatile ring buffer, capped at the RAM size; zero storage cost."""

    def __init__(self, ram_bytes: int = 4096,
                 element_size: int = QUEUE_ELEMENT_BYTES) -> None:
        self.element_size = element_size
        # 16 bytes reserved for the same head/length bookkeeping the other
        # backends keep, so capacities are comparable
        self.capacity = (ram_bytes - 16) // element_size
        self._buf = bytearray(self.capacity * element_size)
        self.head = 0
        self.length = 0

    def __len__(self) -> int:
        return self.length

    def push(self, payload: bytes) -> None:
        payload = bytes(payload)  # a slice store must not resize the ring
        if len(payload) != self.element_size:
            raise SizeMismatchError("wrong element size")
        if self.length == self.capacity:
            raise RamCapacityExceededError(
                f"RAM queue holds at most {self.capacity} elements")
        slot = (self.head + self.length) % self.capacity
        self._buf[slot * self.element_size : (slot + 1) * self.element_size] = payload
        self.length += 1

    def pop(self) -> bytes:
        if not self.length:
            raise QueueEmptyError("queue is empty")
        slot = self.head % self.capacity
        payload = bytes(self._buf[slot * self.element_size : (slot + 1) * self.element_size])
        self.head = (self.head + 1) % self.capacity
        self.length -= 1
        return payload


# -- key-value store --------------------------------------------------------------

# the benchmark's object population: (size, count)
WORKLOAD_SIZE_MIX = ((32, 64), (128, 128), (256, 32), (1024, 32))
WORKLOAD_KEYS = sum(count for _, count in WORKLOAD_SIZE_MIX)
WORKLOAD_TOTAL_BYTES = sum(size * count for size, count in WORKLOAD_SIZE_MIX)


def workload_sizes(seed: int) -> list[int]:
    """The 256 object sizes in a seed-determined insertion order."""
    import numpy as np

    sizes = [size for size, count in WORKLOAD_SIZE_MIX for _ in range(count)]
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.shuffle(sizes)
    return [int(s) for s in sizes]


class VnvKvStore:
    def __init__(self, heap: VnvHeap) -> None:
        self.heap = heap
        self._index: dict[int, ObjectHandle] = {}

    def put(self, key: int, value: bytes) -> None:
        if key in self._index:
            raise PreconditionError(f"key {key} already present")
        self._index[key] = self.heap.alloc(value)

    # get and update, the kv hot path, look the key up inline, with no frame
    # for _handle.
    def get(self, key: int) -> bytes:
        try:
            handle = self._index[key]
        except KeyError:
            raise KeyNotFoundError(f"no value for key {key}") from None
        return self.heap.read(handle)

    def update(self, key: int, value: bytes) -> None:
        try:
            handle = self._index[key]
        except KeyError:
            raise KeyNotFoundError(f"no value for key {key}") from None
        self.heap.replace(handle, value)

    def value_size(self, key: int) -> int:
        return self._handle(key).size_bytes

    def _handle(self, key: int) -> ObjectHandle:
        try:
            return self._index[key]
        except KeyError:
            raise KeyNotFoundError(f"no value for key {key}") from None

    @property
    def metadata_bytes(self) -> int:
        # 3 bytes of packed bookkeeping per object
        return 3 * len(self._index)


class MsKvStore:
    def __init__(self, pool: ManagedStatePool) -> None:
        self.pool = pool
        self._index: dict[int, tuple[int, int]] = {}
        self._brk = 0  # values are packed back to back

    def put(self, key: int, value: bytes) -> None:
        if key in self._index:
            raise PreconditionError(f"key {key} already present")
        value = bytes(value)  # the region is as long as its bytes, not its items
        if self._brk + len(value) > len(self.pool.ram):
            raise RamCapacityExceededError("pool RAM exhausted")
        region = (self._brk, len(value))
        self._brk += len(value)
        with self.pool.open(*region, mode="write") as t:
            t.write(value)
        self._index[key] = region

    def get(self, key: int) -> bytes:
        with self.pool.open(*self._region(key), mode="read") as t:
            return t.read()

    def update(self, key: int, value: bytes) -> None:
        offset, length = self._region(key)
        value = bytes(value)
        if len(value) != length:
            raise SizeMismatchError(f"value is {len(value)} B, region is {length} B")
        with self.pool.open(offset, length, mode="write") as t:
            t.write(value)

    def value_size(self, key: int) -> int:
        return self._region(key)[1]

    def _region(self, key: int) -> tuple[int, int]:
        try:
            return self._index[key]
        except KeyError:
            raise KeyNotFoundError(f"no value for key {key}") from None

    @property
    def metadata_bytes(self) -> int:
        return self.pool.metadata_bytes


# Byte i is i % 256, for any start below 256 plus the largest object of the mix.
_RAMP = bytes(i % 256 for i in range(256 + max(size for size, _ in WORKLOAD_SIZE_MIX)))


def build_kv_store(store, seed: int) -> dict[int, bytes]:
    """Populate ``store`` with the standard 256-object mix; returns the shadow
    map. Byte i of key k's value is ``(k * 37 + i) % 256``: a slice of the ramp."""
    shadow = {}
    for key, size in enumerate(workload_sizes(seed)):
        start = key * 37 % 256
        value = _RAMP[start : start + size]
        store.put(key, value)
        shadow[key] = value
    return shadow


# -- access patterns ----------------------------------------------------------------

PATTERNS = ("sequential", "unequal", "random")


def unequal_weights(n_keys: int = WORKLOAD_KEYS) -> np.ndarray:
    """Normalized access weights: sin^4((5/32) k) + 0.1 over the key range."""
    import numpy as np

    k = np.arange(n_keys)
    w = np.sin(5.0 / 32.0 * k) ** 4 + 0.1
    return w / w.sum()


def gen_access_sequence(pattern: str, n_keys: int, n_ops: int, seed: int) -> list[int]:
    if pattern == "sequential":
        return [i % n_keys for i in range(n_ops)]
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    if pattern == "random":
        return rng.integers(0, n_keys, n_ops).tolist()
    if pattern == "unequal":
        keys = rng.choice(n_keys, size=n_ops, p=unequal_weights(n_keys))
        return keys.tolist()
    raise PreconditionError(f"unknown access pattern {pattern!r}")
