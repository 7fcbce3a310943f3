"""Benchmark workloads: a non-volatile FIFO queue and a small key-value store.

The queue stores each element in its own heap object so the heap's eviction
machinery works element-wise: a short queue lives entirely in cache and moves
nothing, a long one streams elements through the cache at the cost of one
write-back and one load per push/pop cycle. The queue holds its element
handles itself: the live ones in FIFO order, the popped ones on a stack for
reuse. Their ids are recorded in a separate control object that is kept
under a write guard for the queue's whole lifetime: it is updated in place
on every operation, survives checkpoints, is never an eviction candidate,
and is all :meth:`VnvQueue.attach` needs to rebuild the queue. The record
is ``element_size | live_count | ids...``; its length is its capacity.

The key-value store exists in two functionally identical builds, one over the
heap and one over the page-tracking pool, so a shared trace can compare their
storage traffic and metadata footprints. Its index is an ordinary volatile
dict: rebuilt by the embedding application, not part of the measured state.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING

from .errors import (
    KeyNotFoundError,
    PreconditionError,
    QueueEmptyError,
    RamCapacityExceededError,
    SizeMismatchError,
)
from .baselines import ManagedStatePool
from .heap import ObjectHandle, VnvHeap
from .storage import StorageDevice

# The functions that use numpy import it themselves: most commands never
# call them, and loading numpy is most of the CLI's start-up time.
if TYPE_CHECKING:
    import numpy as np

QUEUE_ELEMENT_BYTES = 256
_CONTROL_HEADER = struct.Struct("<II")  # element_size, live_count; the ids follow


def _element_size(size: int) -> int:
    """``size``, checked: every backend stores elements of at least a byte."""
    if size < 1:
        raise PreconditionError(f"a queue element must be at least 1 B, not {size}")
    return size


class VnvQueue:
    """FIFO queue of fixed-size elements, one heap object per element."""

    def __init__(self, heap: VnvHeap, element_size: int = QUEUE_ELEMENT_BYTES) -> None:
        self.heap = heap
        self.element_size = _element_size(element_size)
        self._live: deque[ObjectHandle] = deque()  # FIFO order
        self._free: list[ObjectHandle] = []  # a stack: most recently freed last
        self._control = heap.alloc(bytes(_CONTROL_HEADER.size + 4 * 8))  # 8 ids to start
        self._guard = heap.get_mut(self._control)
        self._sync_control()

    @property
    def capacity(self) -> int:
        """The element ids the control record holds: its length, less the header."""
        return (self._control.size_bytes - _CONTROL_HEADER.size) // 4

    def _sync_control(self) -> None:
        ids = [h.id for h in self._live] + [h.id for h in reversed(self._free)]
        self._guard.write(_CONTROL_HEADER.pack(self.element_size, len(self._live))
                          + struct.pack(f"<{len(ids)}I", *ids))

    # -- queue interface -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def push(self, payload: bytes) -> None:
        """Append ``payload``. A refused push changes nothing: the element
        joins the queue only once it holds the payload, and a full record
        goes only once its double, listing the same elements, is allocated.
        Cache pressure never refuses a push onto a free element: ``replace``
        writes an element it does not admit around the cache."""
        # Checked, in bytes, before an element is taken.
        payload = bytes(payload)
        if len(payload) != self.element_size:
            raise SizeMismatchError(
                f"queue elements are {self.element_size} B, got {len(payload)}")
        free = self._free
        if not free:
            if len(self._live) == self.capacity:
                # Double the control record, the one queue operation that
                # reallocates it, and fill it before the element alloc.
                control = self.heap.alloc(
                    bytes(2 * self._control.size_bytes - _CONTROL_HEADER.size))
                self._guard.release()
                self.heap.dealloc(self._control)
                self._control, self._guard = control, self.heap.get_mut(control)
                self._sync_control()
            free.append(self.heap.alloc(bytes(self.element_size)))
        self.heap.replace(free[-1], payload)
        self._live.append(free.pop())
        self._sync_control()

    def pop(self) -> bytes:
        """Remove and return the head. The head is read before it leaves
        the queue, so a refused pop changes nothing. Cache pressure never
        refuses it: ``read`` serves a head it does not admit from NVM."""
        if not self._live:
            raise QueueEmptyError("queue is empty")
        payload = self.heap.read(self._live[0])
        self._free.append(self._live.popleft())
        self._sync_control()
        return payload

    @property
    def control_id(self) -> int:
        """Stable id of the control object; the key to :meth:`attach`."""
        return self._control.id

    @classmethod
    def attach(cls, heap: VnvHeap, control_id: int) -> "VnvQueue":
        """Rebuild a queue from a restored heap: the control record names
        each element by id, and ``heap.handle`` resolves every id.

        Raises :class:`StaleHandleError` for a control or element id that
        names no live object, and :class:`PreconditionError` for a control
        record that contradicts its objects (an element object passed as
        the control, say): a size that holds no whole id list, an element
        size of 0, more live elements than ids, an id listed twice, its
        own id, a 0 before the last id, or an element object of another
        size. The record's length is the queue's capacity."""
        control = heap.handle(control_id)
        total, odd = divmod(control.size_bytes - _CONTROL_HEADER.size, 4)
        if total < 0 or odd:
            raise PreconditionError(
                f"object {control_id} ({control.size_bytes} B) is not a queue control record")
        record = heap.read(control)
        element_size, live_count = _CONTROL_HEADER.unpack_from(record)
        listed = struct.unpack_from(f"<{total}I", record, _CONTROL_HEADER.size)
        ids = [i for i in listed if i]  # zero-padded tail = unallocated
        if not element_size or live_count > len(ids):
            raise PreconditionError(
                f"object {control_id} is not a queue control record: element size "
                f"{element_size}, {live_count} live of {len(ids)} ids")
        if 0 in listed[:len(ids)] or control_id in ids or len(set(ids)) < len(ids):
            raise PreconditionError(
                f"object {control_id} is not a queue control record: its ids list an "
                "object twice, the record itself, or 0 before an element")
        elements = [heap.handle(i) for i in ids]
        for element in elements:
            if element.size_bytes != element_size:
                raise PreconditionError(
                    f"queue element {element.id} is {element.size_bytes} B, "
                    f"the control record says {element_size} B")
        queue = cls.__new__(cls)
        queue.heap, queue.element_size = heap, element_size
        queue._live = deque(elements[:live_count])
        queue._free = elements[live_count:][::-1]  # the record lists the top first
        queue._control = control
        queue._guard = heap.get_mut(control)
        queue._sync_control()
        return queue


class NvmQueue:
    """Every element read from / written to storage directly; no cache. The
    state word packs the head and the length as a u16 each."""

    def __init__(self, device: StorageDevice, capacity: int = 1024,
                 element_size: int = QUEUE_ELEMENT_BYTES) -> None:
        if not 0 <= capacity <= 0xFFFF:
            raise PreconditionError(
                f"a raw-NVM queue holds at most 65535 elements and at least 0, not {capacity}")
        self.device = device
        self.element_size = _element_size(element_size)
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
        self.element_size = _element_size(element_size)
        # 16 bytes reserved for the same head/length bookkeeping the other
        # backends keep, so capacities are comparable
        if ram_bytes < 16:
            raise PreconditionError(f"{ram_bytes} B of RAM cannot hold the 16 B of bookkeeping")
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
