"""Ownership-checked virtually non-volatile heap.

Objects live in NVM extents and are staged through a fixed-size volatile
cache at whole-object granularity. Access goes through guards: any number of
live read guards, or exactly one write guard, never both. A guard pins its
object in the cache; pinned objects are never evicted and keep a stable cache
address for the guard's lifetime. A guard holds two things, both handed
over when it is granted: its object's meta and a view of the payload's
cache bytes (read-only under a read guard). Releasing it drops the meta,
and a guard without one is released; the view is released with it, so a
``data`` view the caller kept dies with the guard.

Two budgets constrain every operation:

* cache space - each resident object occupies ``align4(size + 3)`` bytes of
  the cache buffer (3 bytes model the packed per-object metadata that lives
  beside the payload).
* modified state - ``dirty_bytes`` is 4 bytes per word the next persist
  writes, plus 3 words held for a commit record: a 16-byte header and
  ``align4(size)`` per modified object. It must never exceed
  ``max_modified_state_bytes``; residency and deallocation are free.

Eviction follows one rule for each budget. Each rule is one loop over the
heap's own indexes that plans its victims and changes nothing, so a cache
miss costs O(victims), plus the residents of any walled hole, and dirty
pressure costs a sort of the modified objects; neither visits the clean
residents otherwise:

* cache pressure - when no free extent fits the new block, the coldest
  unpinned resident anchors a hole: the first of the lowest tier (see
  below). The hole, its block and the free extents beside it, then grows
  into the colder of its two unpinned address neighbours, the one with
  fewer hits (the upper one on a tie), until it fits the block. The plan
  frees nothing: it reads each victim's free neighbours from the
  allocator. When pinned blocks or
  the cache ends wall the hole in first, it is passed over, with the
  allocator and its residents untouched, and the next coldest resident
  starts another hole. The hole that fits is the only fit, so it is where
  first fit would place the block; one slice store claims it.
* dirty pressure - one pass over the modified objects in cache-arrival
  order (see the arrival stamps below) chooses the unpinned ones until the
  new state fits. Syncing changes no residency, so the pass never restarts.

Plan, then act, in one order for every operation (``VnvHeap._make_room``):
an alloc, a miss and a first write plan the hole they need, if any, then
the dirty rule, which counts the hole's modified victims as synced and
never chooses a resident inside the hole. Only once both plans make room
are the hole's victims synced and unloaded, the block claimed and the
dirty victims synced. So cache pressure is refused before dirty pressure,
a refusal moves no word, and the same heap state syncs the same objects
whichever operation meets it. ``_make_room`` runs only on overflow, when
the probe finds no fit or the charge would pass the limit: without
pressure, one first-fit probe is the whole cost of a miss or an alloc, and
a first write adds its charge inline. ``replace`` gives the result of
``get_mut`` + ``write`` + ``release``, but a miss skips the device read;
``read`` gives the result of ``get_ref`` + ``read`` + ``release`` without
building a guard, and a miss returns the very bytes the device read, with
no second copy out of the cache.

Checkpointing writes only modified state. :func:`persist` writes every
modified payload in one pass over the modified index, in its own order
(modification order, see below), then the one epoch word that commits the
checkpoint (see :mod:`vnvheap.layout`). Entries are written at alloc and
stamped at dealloc, so a persist writes no entry, guarded or not, and a
power failure anywhere leaves the last committed checkpoint readable.
A heap that keeps ``dirty_bytes`` under the limit is therefore always
persisted within ``max_modified_state_bytes // 4 - 3`` words, 7 under
:func:`persist_bound`, whatever the cache size. A persist visits the
modified index alone, so its host cost follows what changed, not how many
objects are resident or live; each payload costs one host copy, a slice of
the cache's ``bytearray``. The commit releases the slots and extents of the
objects deallocated since the last commit, and only then is the bookkeeping
settled, once: the modified index keeps just the write-guarded objects,
whose holders can keep writing.

:func:`restore` is the one step that reads the whole table:
``CheckpointTables.open`` checks the superblock, :func:`restore` checks the
configuration it records as :class:`HeapConfig` does, and ``adopt`` checks
the table.
Every live entry comes back clean, swapped out and unpinned, whether or not
a guard was held on it at persist, and loads lazily on first access.

A power failure marks the device it cuts (``StorageDevice.power_failed``).
The volatile bookkeeping may then be out of step with NVM, so from then on
every heap on that device raises ``HeapPoisonedError``; the way back is
``restore()`` from ``device.reopen()``, the reboot.

Each object counts its ``hits``: 1 at alloc, one more for every
``get_ref``, ``get_mut``, ``replace`` and ``read`` that succeeds. The count
is volatile: it survives a swap-out, and ``restore()`` restarts it at 1.
A resident sits in tier ``hits.bit_length()``, so an access moves it up a
tier only when its count reaches a power of two, to the end of that tier.
Counts never decay, so when the hot set moves, its old members leave the
cache only once the colder tiers are drained.

An object is resident exactly when its ``cache_offset`` is ``>= 0``; no
other field records residency. Its ``pin_count`` is its guard state, as in
a reader-writer lock's state word: the number of live read guards, -1
under the write guard, 0 unguarded. A guarded object is always resident.
The heap keeps these indexes of the residents, one per question it asks:

* ``_by_offset`` and ``_by_end``, every resident by the cache offset where
  its block starts and where it ends, so a hole finds its neighbours.
  ``_by_offset`` is also the set of residents: ``stats()`` sums over it.
* ``_tiers``, the residents of each tier in the order they entered it.
* ``_modified``, every modified resident by handle id, so that a persist
  and the dirty rule visit only the objects they may write and never the
  clean residents. Membership is the modified state; no field records it.
  An object enters it when it is allocated or first written, and leaves it
  when it is synced, deallocated, or cleared by a persist. Its order, the
  order they entered it, is modification order: the write-guarded objects
  the last persist kept come first, then the others by their first
  modification since (a synced object enters again at its next write).

Each object also carries an ``arrival`` stamp, taken from a heap-wide
counter every time it becomes resident (at allocation and on load). Stamps
are distinct, so sorting the modified index by stamp yields cache-arrival
order, the dirty rule's order. It differs from modification order whenever
a resident loaded earlier is first written later. Only the dirty rule
sorts; a persist writes in modification order, with no sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    CachePressureUnresolvableError,
    ConfigInvalidError,
    DirtyBudgetUnsatisfiableError,
    GuardActiveError,
    GuardReleasedError,
    HeapPoisonedError,
    NoValidCheckpointError,
    ObjectTooLargeError,
    OutOfNvmError,
    PreconditionError,
    SizeMismatchError,
    StaleHandleError,
    StillPinnedError,
    WriteGuardActiveError,
)
from .freelist import FirstFitAllocator, align_up
from .layout import CheckpointTables
from .storage import StorageDevice, WORD_BYTES, words_for

HEADER_CHARGE_BYTES = 16  # the epoch word and 3 words held for a commit record
META_CHARGE_BYTES = 3  # cache only: packed per-object metadata
_ARRIVAL = attrgetter("arrival")  # the dirty rule's order: cache arrival


@dataclass(frozen=True)
class HeapConfig:
    """Validated heap parameters."""

    cache_size_bytes: int = 4096
    max_modified_state_bytes: int = 2048
    max_objects: int = 1024

    def __post_init__(self) -> None:
        if self.cache_size_bytes < align_up(1 + META_CHARGE_BYTES):
            raise ConfigInvalidError("cache cannot hold even a one-byte object")
        if self.cache_size_bytes % WORD_BYTES:
            raise ConfigInvalidError("cache size must be word-aligned")
        if self.max_modified_state_bytes <= 0:
            raise ConfigInvalidError("modified-state limit must be positive")
        if self.max_modified_state_bytes > self.cache_size_bytes:
            raise ConfigInvalidError("modified-state limit exceeds the cache size")
        if self.max_modified_state_bytes < HEADER_CHARGE_BYTES:
            raise ConfigInvalidError(
                "modified-state limit cannot cover the fixed persist header"
            )
        if self.max_objects < 1:
            raise ConfigInvalidError("max_objects must be >= 1")


@dataclass(slots=True)
class ObjectMeta:
    """Per-object state record (internal)."""

    handle_id: int
    entry_slot: int
    nvm_offset: int
    size_bytes: int
    # Sizes never change, so these two are computed once, by the creator.
    block_bytes: int  # cache bytes while resident: align_up(size + META_CHARGE_BYTES)
    charge: int  # dirty bytes while modified, its payload words: align_up(size)
    pin_count: int = 0  # live read guards, or -1 under the write guard
    cache_offset: int = -1  # where the object is cached; -1 when not resident
    arrival: int = 0  # stamp of the latest time the object became resident
    hits: int = 1  # accesses since alloc or restore, the alloc counting as one


@dataclass(frozen=True)
class ObjectInfo:
    """Public snapshot of one object's state."""

    handle_id: int
    size_bytes: int
    resident: bool
    modified: bool
    pinned: bool
    cache_offset: int
    nvm_offset: int
    hits: int  # the count the cache rule ranks by (see the module docstring)


@dataclass(frozen=True)
class HeapStats:
    resident_bytes: int
    dirty_bytes: int
    resident_count: int
    pinned_count: int
    cache_free_bytes: int
    nvm_free_bytes: int


class ObjectHandle:
    """Names one allocation from creation to deallocation.

    Only valid with the heap that produced it. The ``id`` is stable across
    persist/restore cycles, which is how an application reattaches its state
    after a power cycle.
    """

    __slots__ = ("id", "size_bytes", "_heap")

    def __init__(self, handle_id: int, size_bytes: int, heap: "VnvHeap") -> None:
        self.id = handle_id
        self.size_bytes = size_bytes
        self._heap = heap

    def __repr__(self) -> str:
        return f"ObjectHandle(id={self.id}, size={self.size_bytes})"


_RELEASED = "guard was already released"


class _Guard:
    """Its object's meta and a view of its cached payload, both handed over
    by the heap when it grants the guard. A guard whose meta is None is
    released; ``release`` drops the meta and releases the view, so that a
    ``data`` view the caller kept dies with the guard."""

    __slots__ = ("_meta", "_view")

    def __init__(self, meta: ObjectMeta, view: memoryview) -> None:
        self._meta = meta
        self._view = view

    @property
    def data(self) -> memoryview:
        """Zero-copy view of the payload. Invalid after release."""
        if self._meta is None:
            raise GuardReleasedError(_RELEASED)
        return self._view

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        meta = self._meta
        if meta is None:
            raise GuardReleasedError(_RELEASED)
        if length is None:
            length = meta.size_bytes - offset
        if offset < 0 or length < 0 or offset + length > meta.size_bytes:
            raise PreconditionError("read outside the object")
        return bytes(self._view[offset : offset + length])

    def release(self) -> None:
        meta = self._meta
        if meta is None:
            raise GuardReleasedError(_RELEASED)
        self._meta = None
        self._view.release()
        # The pin tells the guard's kind: -1 under the write guard, else
        # the count of live read guards.
        if meta.pin_count < 0:
            meta.pin_count = 0
        else:
            meta.pin_count -= 1

    @property
    def released(self) -> bool:
        return self._meta is None

    def __enter__(self):
        if self._meta is None:
            raise GuardReleasedError(_RELEASED)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._meta is not None:
            self.release()


class ReadGuard(_Guard):
    """Shared, immutable access to a resident object."""

    __slots__ = ()


class WriteGuard(_Guard):
    """Exclusive, mutable access; the object is charged as modified."""

    __slots__ = ()

    def write(self, data: bytes | bytearray | memoryview, offset: int = 0) -> None:
        meta = self._meta
        if meta is None:
            raise GuardReleasedError(_RELEASED)
        if type(data) is not bytes:
            data = bytes(data)
        end = offset + len(data)
        if offset < 0 or end > meta.size_bytes:
            raise PreconditionError("write outside the object")
        self._view[offset:end] = data


class VnvHeap:
    """The heap itself. See the module docstring for the model."""

    def __init__(
        self,
        device: StorageDevice,
        cache_size_bytes: int = HeapConfig.cache_size_bytes,
        max_modified_state_bytes: int = HeapConfig.max_modified_state_bytes,
        max_objects: int = HeapConfig.max_objects,
        _tables: CheckpointTables | None = None,
    ) -> None:
        self.config = HeapConfig(cache_size_bytes, max_modified_state_bytes, max_objects)
        self.device = device
        # A new image, unless restore passes the tables of the one it adopts.
        self.tables = _tables or CheckpointTables.format(
            device, max_objects, cache_size_bytes, max_modified_state_bytes)
        # The tables hold the geometry; perfbench/tracing.py reads it here.
        self.layout = self.tables
        self._cache = bytearray(cache_size_bytes)
        # Guards slice these views; the cache is never resized. Bytes are
        # stored through _view: a bytearray store copies them once more first.
        self._view = memoryview(self._cache)
        self._ro_view = self._view.toreadonly()
        self._cache_alloc = FirstFitAllocator(0, cache_size_bytes)
        self._metas: dict[int, ObjectMeta] = {}
        self._modified: dict[int, ObjectMeta] = {}
        # _tiers[t] holds the residents of tier t >= 1 in the order they
        # entered it; _tiers[0] stays empty. The list grows by one tier
        # when a count first reaches the next power of two.
        self._tiers: list[dict[int, ObjectMeta]] = [{}, {}]
        self._by_offset: dict[int, ObjectMeta] = {}  # residents by cache offset
        self._by_end: dict[int, ObjectMeta] = {}  # residents by cache block end
        self._stamps = count(1)  # arrival stamps
        self._dirty = HEADER_CHARGE_BYTES

    # -- inspection ---------------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        return self._dirty

    def stats(self) -> HeapStats:
        residents = self._by_offset.values()
        return HeapStats(
            resident_bytes=sum(m.size_bytes for m in residents),
            dirty_bytes=self._dirty,
            resident_count=len(residents),
            pinned_count=sum(1 for m in residents if m.pin_count),
            cache_free_bytes=self._cache_alloc.total_free(),
            nvm_free_bytes=self.tables.extents.total_free(),
        )

    def object_info(self, handle: ObjectHandle) -> ObjectInfo:
        m = self._resolve(handle)
        return ObjectInfo(
            handle_id=m.handle_id,
            size_bytes=m.size_bytes,
            resident=m.cache_offset >= 0,
            modified=m.handle_id in self._modified,
            pinned=m.pin_count != 0,
            cache_offset=m.cache_offset,
            nvm_offset=m.nvm_offset,
            hits=m.hits,
        )

    def live_handle_ids(self) -> list[int]:
        return sorted(self._metas)

    def handle(self, handle_id: int) -> ObjectHandle:
        """Reattach a handle by its stable id (e.g. after restore)."""
        meta = self._metas.get(handle_id)
        if meta is None:
            raise StaleHandleError(f"no live object with id {handle_id}")
        return ObjectHandle(meta.handle_id, meta.size_bytes, self)

    # -- allocation ---------------------------------------------------------

    def alloc(self, payload: bytes | bytearray | memoryview) -> ObjectHandle:
        """Create an object holding ``payload``. It starts resident and
        modified (nothing has been synced to its extent yet)."""
        if self.device.power_failed:
            self._check_usable()
        payload = bytes(payload)
        size = len(payload)
        if size == 0:
            raise PreconditionError("zero-sized objects are not representable")
        # align_up, inline, here and for the charge: the meta takes both.
        block = (size + META_CHARGE_BYTES + WORD_BYTES - 1) & -WORD_BYTES
        config = self.config
        if block > config.cache_size_bytes:
            raise ObjectTooLargeError(
                f"{size} B object cannot ever be cached "
                f"(cache is {config.cache_size_bytes} B)"
            )
        charge = (size + WORD_BYTES - 1) & -WORD_BYTES
        limit = config.max_modified_state_bytes
        if charge + HEADER_CHARGE_BYTES > limit:
            raise DirtyBudgetUnsatisfiableError(
                f"{size} B object cannot fit the modified-state limit"
            )
        tables = self.tables
        tables.check_birth()
        nvm_offset = tables.extents.alloc(size)
        if nvm_offset is None:
            raise OutOfNvmError(f"no free NVM extent of {size} B")
        # Without cache or dirty pressure, no room is made: one first-fit probe.
        cache_offset = self._cache_alloc.alloc(block)
        if cache_offset is None or self._dirty + charge > limit:
            try:
                cache_offset = self._make_room(block, charge, cache_offset)
            except Exception:
                tables.extents.free(nvm_offset, size)
                raise

        # Entry identity never changes, so it is written once, now; persist()
        # then writes only the epoch word.
        slot, handle_id = tables.record_alloc(nvm_offset, size)

        # Positional: a call with keywords costs twice as much. Resident and
        # modified, unpinned, at a fresh arrival stamp.
        meta = ObjectMeta(handle_id, slot, nvm_offset, size, block, charge,
                          0, cache_offset, next(self._stamps))
        self._view[cache_offset : cache_offset + size] = payload
        self._metas[handle_id] = meta
        self._tiers[1][handle_id] = meta
        self._by_offset[cache_offset] = meta
        self._by_end[cache_offset + block] = meta
        self._modified[handle_id] = meta
        self._dirty += charge
        return ObjectHandle(handle_id, size, self)

    def dealloc(self, handle: ObjectHandle) -> None:
        """Drop an object. Its entry is stamped dead from the next epoch on.
        An object of the last commit keeps its slot and extent until the next
        commit, so a fallback to that checkpoint can still restore it; one
        born since is freed at once. Charges nothing and needs no room."""
        if self.device.power_failed:
            self._check_usable()
        meta = self._metas.get(handle.id)
        if meta is None or handle._heap is not self:
            meta = self._resolve(handle)
        if meta.pin_count:
            raise StillPinnedError(f"object {meta.handle_id} has a live guard")
        handle_id = meta.handle_id
        if self._modified.pop(handle_id, None) is not None:
            self._dirty -= meta.charge
        if meta.cache_offset >= 0:
            self._cache_alloc.free(meta.cache_offset, meta.block_bytes)
            self._unload(meta)
        del self._metas[handle_id]
        self.tables.record_dealloc(meta.entry_slot, meta.nvm_offset, meta.size_bytes)

    # -- access -------------------------------------------------------------

    def get_ref(self, handle: ObjectHandle) -> ReadGuard:
        """Shared read access. Loads the object if it is swapped out."""
        if self.device.power_failed:
            self._check_usable()
        meta = self._metas.get(handle.id)
        if meta is None or handle._heap is not self:
            meta = self._resolve(handle)
        if meta.pin_count < 0:
            raise WriteGuardActiveError(f"object {meta.handle_id} has a live write guard")
        if meta.cache_offset < 0:
            self._ensure_resident(meta)
        hits = meta.hits = meta.hits + 1
        if not hits & (hits - 1):
            self._promote(meta)
        meta.pin_count += 1
        start = meta.cache_offset
        return ReadGuard(meta, self._ro_view[start : start + meta.size_bytes])

    def read(self, handle: ObjectHandle) -> bytes:
        """The whole payload: the result of ``get_ref`` + ``read`` +
        ``release``, with the same errors in the same order, but no guard
        is built."""
        if self.device.power_failed:
            self._check_usable()
        meta = self._metas.get(handle.id)
        if meta is None or handle._heap is not self:
            meta = self._resolve(handle)
        if meta.pin_count < 0:
            raise WriteGuardActiveError(f"object {meta.handle_id} has a live write guard")
        if meta.cache_offset < 0:
            payload = self._ensure_resident(meta)
        else:
            start = meta.cache_offset
            payload = self._view[start : start + meta.size_bytes].tobytes()
        hits = meta.hits = meta.hits + 1
        if not hits & (hits - 1):
            self._promote(meta)
        return payload

    def get_mut(self, handle: ObjectHandle) -> WriteGuard:
        """Exclusive write access. Charges the whole object to the dirty
        budget up front, whether or not the caller writes."""
        if self.device.power_failed:
            self._check_usable()
        meta = self._metas.get(handle.id)
        if meta is None or handle._heap is not self:
            meta = self._resolve(handle)
        if meta.pin_count:
            raise GuardActiveError(f"object {meta.handle_id} is already guarded")
        if meta.cache_offset < 0:
            self._ensure_resident(meta, True, meta.charge)
        modified = self._modified
        if meta.handle_id not in modified:
            # A first write: the miss above already made room for the charge.
            charge = meta.charge
            if self._dirty + charge > self.config.max_modified_state_bytes:
                self._make_room(0, charge)
            modified[meta.handle_id] = meta
            self._dirty += charge
        hits = meta.hits = meta.hits + 1
        if not hits & (hits - 1):
            self._promote(meta)
        meta.pin_count = -1
        start = meta.cache_offset
        return WriteGuard(meta, self._view[start : start + meta.size_bytes])

    def replace(self, handle: ObjectHandle, payload: bytes | bytearray | memoryview) -> None:
        """Overwrite the whole object with ``payload``: the result of
        ``get_mut`` + ``write`` + ``release``, but a swapped-out object's old
        bytes are never read from NVM, so a miss costs no load."""
        if self.device.power_failed:
            self._check_usable()
        meta = self._metas.get(handle.id)
        if meta is None or handle._heap is not self:
            meta = self._resolve(handle)
        if meta.pin_count:
            raise GuardActiveError(f"object {meta.handle_id} is already guarded")
        payload = bytes(payload)
        size = meta.size_bytes
        if len(payload) != size:
            raise SizeMismatchError(f"value is {len(payload)} B, object is {size} B")
        if meta.cache_offset < 0:
            self._ensure_resident(meta, False, meta.charge)
        modified = self._modified
        if meta.handle_id not in modified:
            charge = meta.charge
            if self._dirty + charge > self.config.max_modified_state_bytes:
                self._make_room(0, charge)
            modified[meta.handle_id] = meta
            self._dirty += charge
        hits = meta.hits = meta.hits + 1
        if not hits & (hits - 1):
            self._promote(meta)
        start = meta.cache_offset
        self._view[start : start + size] = payload

    # -- explicit state management -------------------------------------------

    def sync_object(self, handle: ObjectHandle) -> None:
        """Write a modified resident object back to its extent."""
        self._check_usable()
        meta = self._resolve(handle)
        if meta.pin_count < 0:
            raise GuardActiveError("cannot sync under a live write guard")
        if meta.handle_id not in self._modified:  # a modified object is always resident
            raise PreconditionError("sync requires a modified, resident object")
        self._sync(meta)

    def unload(self, handle: ObjectHandle) -> None:
        """Drop a clean, unpinned object from the cache. No transfers."""
        self._check_usable()
        meta = self._resolve(handle)
        if meta.cache_offset < 0:
            raise PreconditionError("object is not resident")
        if meta.pin_count:
            raise StillPinnedError("pinned objects cannot be unloaded")
        if meta.handle_id in self._modified:
            raise PreconditionError("sync the object before unloading it")
        self._cache_alloc.free(meta.cache_offset, meta.block_bytes)
        self._unload(meta)

    # -- internals ------------------------------------------------------------

    def _check_usable(self) -> None:
        if self.device.power_failed:
            raise HeapPoisonedError("heap is unusable after a power failure")

    def _resolve(self, handle: ObjectHandle) -> ObjectMeta:
        if handle._heap is not self:
            raise StaleHandleError("handle belongs to a different heap")
        meta = self._metas.get(handle.id)
        if meta is None:
            raise StaleHandleError(f"object {handle.id} was deallocated")
        return meta

    def _ensure_resident(self, meta: ObjectMeta, fetch: bool = True,
                         extra: int = 0) -> bytes | None:
        """Load a swapped-out object (callers test ``meta.cache_offset``) and
        return the bytes the device read. Without ``fetch`` the block is left
        as it was, for a caller that overwrites every byte, and None is
        returned. Residency charges nothing to the dirty budget; a write
        access passes the object's charge as ``extra``, so that one
        :meth:`_make_room` also makes the dirty room for it."""
        block = meta.block_bytes
        offset = self._cache_alloc.alloc(block)
        if offset is None or self._dirty + extra > self.config.max_modified_state_bytes:
            offset = self._make_room(block, extra, offset)
        payload = None
        if fetch:
            payload = self.device.read(meta.nvm_offset, meta.size_bytes)
            self._view[offset : offset + meta.size_bytes] = payload
        meta.arrival = next(self._stamps)
        meta.cache_offset = offset
        handle_id = meta.handle_id
        self._tiers[meta.hits.bit_length()][handle_id] = meta
        self._by_offset[offset] = meta
        self._by_end[offset + meta.block_bytes] = meta
        return payload

    def _promote(self, meta: ObjectMeta) -> None:
        """Move a resident whose count just reached a power of two to the
        end of the next tier."""
        tiers = self._tiers
        tier = meta.hits.bit_length()
        if tier == len(tiers):
            tiers.append({})
        handle_id = meta.handle_id
        del tiers[tier - 1][handle_id]
        tiers[tier][handle_id] = meta

    def _make_room(self, block: int, extra: int, offset: int | None = None) -> int | None:
        """Make room in the cache for ``block`` bytes (0 for none) and in the
        dirty budget for ``extra`` more bytes of modified state, and return
        the block's offset. ``offset`` is where the caller's first-fit probe
        placed the block, or None. It runs only on overflow: callers call it
        only once that probe has failed or the charge does not fit.

        It plans both rules, then acts. The cache rule plans first, when the
        probe failed (:meth:`_plan_hole`), so cache pressure is refused
        before dirty pressure. The dirty rule then counts the hole's
        modified victims as synced and passes over the pinned residents and
        every resident inside the hole. Only once both plans make room does
        it act: it syncs and unloads the hole's victims, claims the block
        at the hole's start with one :meth:`FirstFitAllocator.claim_span`,
        where first fit would place it, since the hole is its only fit, and
        syncs the dirty rule's victims. So a refusal by either rule moves no
        word, and a probe's block is given back."""
        hole, start, end = (), 0, 0
        if offset is None and block:
            hole, start, end = self._plan_hole(block)
        modified = self._modified
        victims = []
        # A read miss adds no modified state, and the heap keeps its dirty
        # bytes under the limit, so only a charge can be over it.
        over = extra and self._dirty + extra - self.config.max_modified_state_bytes
        if over > 0:
            for meta in hole:
                if meta.handle_id in modified:
                    over -= meta.charge
            if over > 0:
                for meta in sorted(modified.values(), key=_ARRIVAL):
                    if not meta.pin_count and not start <= meta.cache_offset < end:
                        victims.append(meta)
                        over -= meta.charge
                        if over <= 0:
                            break
                else:
                    if offset is not None:
                        self._cache_alloc.free(offset, block)
                    raise DirtyBudgetUnsatisfiableError(
                        f"{extra} B of new modified state cannot be admitted"
                    )
        for meta in hole:
            if meta.handle_id in modified:
                self._sync(meta)
            self._unload(meta)
        if hole:
            offset = self._cache_alloc.claim_span(start, end, block)
        for meta in victims:
            self._sync(meta)
        return offset

    def _plan_hole(self, block: int) -> tuple[list[ObjectMeta], int, int]:
        """Plan the cache rule, changing nothing: the victims whose blocks,
        with the free extents beside them, span a ``[start, end)`` that fits
        ``block``, returned as ``(victims, start, end)``. Each victim's free
        neighbours come from :meth:`FirstFitAllocator.freed_span`, so a hole
        that is walled in before it fits is passed over with the allocator
        untouched."""
        freed_span = self._cache_alloc.freed_span
        by_offset, by_end = self._by_offset, self._by_end
        walled = ()  # a set once the first hole is walled in
        for tier in self._tiers:
            if not tier:
                continue
            for meta in tier.values():
                if meta.pin_count or meta.handle_id in walled:
                    continue
                hole = [meta]
                start, end = freed_span(meta.cache_offset, meta.block_bytes)
                while end - start < block:
                    # Free extents are maximal, so a hole is bordered by
                    # residents (never by one of its victims) or a cache end.
                    meta = _colder(by_end.get(start), by_offset.get(end))
                    if meta is None:
                        break
                    hole.append(meta)
                    lo, hi = freed_span(meta.cache_offset, meta.block_bytes)
                    if lo < start:
                        start = lo
                    if hi > end:
                        end = hi
                else:
                    return hole, start, end
                # Every unpinned resident between the walls is in the hole,
                # so none of them can anchor one that fits.
                if walled:
                    walled.update(m.handle_id for m in hole)
                else:
                    walled = {m.handle_id for m in hole}
        raise CachePressureUnresolvableError(
            f"no unpinned resident to evict for a {block} B block"
        )

    def _sync(self, meta: ObjectMeta) -> None:
        start = meta.cache_offset
        self.device.write(meta.nvm_offset, self._cache[start : start + meta.size_bytes])
        del self._modified[meta.handle_id]
        self._dirty -= meta.charge

    def _unload(self, meta: ObjectMeta) -> None:
        """Drop ``meta``'s residency; the caller frees its cache block."""
        handle_id = meta.handle_id
        offset = meta.cache_offset
        del self._tiers[meta.hits.bit_length()][handle_id]
        del self._by_offset[offset]
        del self._by_end[offset + meta.block_bytes]
        meta.cache_offset = -1


def _colder(left: ObjectMeta | None, right: ObjectMeta | None) -> ObjectMeta | None:
    """The colder of a hole's unpinned address neighbours, the one with
    fewer hits (the upper one on a tie), or None when both wall the hole in."""
    if left is None or left.pin_count:
        return None if right is None or right.pin_count else right
    if right is None or right.pin_count or left.hits < right.hits:
        return left
    return right


class PersistReport(NamedTuple):
    words_transferred: int
    objects_synced: int
    metadata_bytes_written: int


def persist_bound(config: HeapConfig) -> int:
    """Worst-case words one persist may transfer. Depends only on the
    modified-state limit (plus the fixed header), never on cache size. The
    modified-state charge keeps every persist at least 7 words under it."""
    return words_for(config.max_modified_state_bytes + HEADER_CHARGE_BYTES)


def persist(heap: VnvHeap) -> PersistReport:
    """Checkpoint the heap. The heap stays usable afterwards: guards stay
    live, residents stay resident, and every object leaves the modified
    index except those under a live write guard. Once the image has
    committed its last epoch, raises :class:`OutOfNvmError` instead."""
    device = heap.device
    if device.power_failed:
        heap._check_usable()
    write = device.write
    # A payload is a slice of the bytearray, its one host copy, not of
    # heap._view: the device stores a bytearray fastest.
    cache = heap._cache
    tables = heap.tables
    meter = device.cost_meter
    written_before = meter.words_written
    metadata_before = tables.metadata_bytes_written
    tables.check_commit()
    # One pass in the index's own order, modification order, with no sort.
    # A live write guard keeps its object modified and charged, since its
    # holder can keep writing after we return; the pass collects those, and
    # the heap takes them only once the commit has landed.
    modified = heap._modified
    guarded = {}
    dirty = HEADER_CHARGE_BYTES
    for meta in modified.values():
        start = meta.cache_offset
        write(meta.nvm_offset, cache[start : start + meta.size_bytes])
        if meta.pin_count < 0:
            guarded[meta.handle_id] = meta
            dirty += meta.charge
    tables.commit()
    heap._modified = guarded
    heap._dirty = dirty
    return PersistReport(
        meter.words_written - written_before,
        len(modified),
        tables.metadata_bytes_written - metadata_before,
    )


def restore(
    device: StorageDevice,
    cache_size_bytes: int | None = None,
    max_modified_state_bytes: int | None = None,
) -> tuple[VnvHeap, dict[int, ObjectHandle]]:
    """Rebuild a heap from the device's committed checkpoint.

    The cache size and modified-state limit default to the ones the image
    was formatted with; an argument overrides its recorded value. Returns
    the heap and a handle per surviving object, keyed by the stable handle
    id the application saw before the power cycle. Every object comes back
    swapped out and unpinned. Raises :class:`NoValidCheckpointError` for an
    image with no committed checkpoint or one it cannot trust.
    """
    try:
        # The recorded configuration must be one a heap could have had: it
        # came from the image, so one no heap can have marks a corrupt image.
        tables = CheckpointTables.open(device)
        HeapConfig(tables.cache_size_bytes, tables.max_modified_state_bytes, tables.max_objects)
    except ConfigInvalidError as exc:
        raise NoValidCheckpointError(f"image records an impossible heap: {exc}") from None
    if cache_size_bytes is None:
        cache_size_bytes = tables.cache_size_bytes
    if max_modified_state_bytes is None:
        max_modified_state_bytes = tables.max_modified_state_bytes

    heap = VnvHeap(device, cache_size_bytes, max_modified_state_bytes,
                   tables.max_objects, tables)
    metas, handles = heap._metas, {}
    for slot, handle_id, nvm_offset, size in tables.adopt():
        # align_up, inline, as in alloc.
        block = (size + META_CHARGE_BYTES + WORD_BYTES - 1) & -WORD_BYTES
        if block > cache_size_bytes:
            # No eviction could ever make room to load it.
            raise NoValidCheckpointError(
                f"object {handle_id}: {size} B cannot fit the {cache_size_bytes} B cache")
        # Positional, as in alloc: clean, not resident, unpinned.
        metas[handle_id] = ObjectMeta(handle_id, slot, nvm_offset, size, block,
                                      (size + WORD_BYTES - 1) & -WORD_BYTES)
        handles[handle_id] = ObjectHandle(handle_id, size, heap)
    return heap, handles
