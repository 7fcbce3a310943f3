"""On-device image layout and the epoch-stamped metadata table.

Image layout (every field a little-endian u32 word):

====================  =======================================================
offset 0              superblock, 28 bytes: magic ``VNVH`` | version |
                      epoch | table offset | table length | cache size |
                      modified-state limit
28, ``table_offset``  metadata table, ``table_bytes``: ``max_objects``
                      entries of 20 bytes
``object_offset``     object region (payload extents), ``object_bytes``:
                      the rest of the device in whole words, at least one
====================  =======================================================

The :class:`CheckpointTables` constructor computes this geometry, for a new
image and a recorded one alike, and refuses a cache larger than the device.

An entry is ``born | handle id | nvm offset | size | died``: the object's
identity, fixed for its life, between the epochs of its birth and its
death. The epoch word counts commits, and an entry is live at epoch ``e``
exactly when ``0 < born <= e`` and ``died`` is 0 or greater than ``e``; a
``born`` of zero marks a free slot. Between the commits of epochs ``e`` and
``e + 1``, a birth writes its whole entry in one transfer with
``born = e + 1`` as its first word, a deallocation writes ``died = e + 1``,
and the commit writes ``e + 1`` into the epoch word, which publishes every
birth and death of the epoch at once. A power failure before that word
lands leaves each stamp it wrote above the committed epoch, whatever prefix
of a birth is durable, so no cut changes what the committed epoch decodes
to. Restore sets those stamps back to zero before the heap writes new ones.

The superblock also records the cache size and modified-state limit the
image was formatted with, which restore uses by default. No volatile state
(pins, cache offsets) is recorded, so a restored object always starts
swapped out.
"""

from __future__ import annotations

import heapq
import struct
from operator import itemgetter

from .errors import ConfigInvalidError, NoValidCheckpointError, OutOfNvmError
from .freelist import FirstFitAllocator, align_up
from .storage import StorageDevice, WORD_BYTES

MAGIC = b"VNVH"
VERSION = 3
SUPERBLOCK_BYTES = 28
EPOCH_OFFSET = 8
ENTRY_BYTES = 20
ENTRY_WORDS = ENTRY_BYTES // WORD_BYTES
BORN_AT, DIED_AT = 0, 16  # byte offsets of the two stamps in an entry
ZERO_WORD = bytearray(WORD_BYTES)  # a bytearray, as every table write is
LAST_WORD = 0xFFFFFFFF  # the largest handle id, and one past the last committed epoch

_SB = struct.Struct("<4sIIIIII")
_ENTRY = struct.Struct(f"<{ENTRY_WORDS}I")
_WORD = struct.Struct("<I")


class CheckpointTables:
    """Owns every field of the image: the superblock, the metadata table and
    the epoch word. It issues the handle ids, 1 to ``LAST_WORD``, and the
    epochs, committing 1 to ``LAST_WORD - 1``: epoch ``LAST_WORD`` would
    leave its births no stamp above it.

    Every write is one transfer from a ``bytearray``: a birth is its whole
    entry, a death and a commit one stamp word, and :meth:`adopt` one zero
    word per stamp of an epoch that never committed. Nothing reads the table
    between restores, so no copy of it is kept in memory.

    ``epoch`` is the last committed epoch, and ``_stamp`` the next epoch's
    stamp word, which deaths and the commit write. ``_free`` is the
    exact min-heap of the slots live neither at ``epoch`` nor at
    ``epoch + 1``, which :meth:`record_alloc` pops. ``_born`` holds the
    slots born since the last commit, and ``_deaths`` the ``(slot, nvm
    offset, size)`` of every object of the last commit deallocated since:
    its slot and extent still belong to that checkpoint, so :meth:`commit`
    releases them. A slot born and freed in one epoch is released at once,
    with its extent. So the table must hold the live objects plus those
    deallocated since the last commit. ``extents`` is the object region's
    free space: the heap allocates from it, and only the tables free into
    it. Tables come from :meth:`format`, or from :meth:`open` then
    :meth:`adopt`, each through the constructor: it holds the geometry and
    the configuration the superblock records.
    """

    table_offset = SUPERBLOCK_BYTES  # the table follows the superblock

    def __init__(self, device: StorageDevice, max_objects: int, cache_size_bytes: int,
                 max_modified_state_bytes: int, epoch: int = 0) -> None:
        capacity = device.capacity_bytes
        self.table_bytes = max_objects * ENTRY_BYTES
        self.object_offset = SUPERBLOCK_BYTES + self.table_bytes
        rest = capacity - self.object_offset
        self.object_bytes = rest - rest % WORD_BYTES
        if self.object_bytes < WORD_BYTES:
            raise ConfigInvalidError(
                f"device of {capacity} B leaves no object region for "
                f"{max_objects} metadata entries")
        if cache_size_bytes > capacity:  # no heap needs more cache than device
            raise ConfigInvalidError(
                f"cache of {cache_size_bytes} B exceeds the {capacity} B device")
        self.device, self.max_objects, self.epoch = device, max_objects, epoch
        self.cache_size_bytes = cache_size_bytes
        self.max_modified_state_bytes = max_modified_state_bytes
        self._entry = bytearray(ENTRY_BYTES)  # a birth's entry, packed in place
        self.metadata_bytes_written = 0  # cumulative, callers diff it

    @classmethod
    def format(cls, device: StorageDevice, max_objects: int, cache_size_bytes: int,
               max_modified_state_bytes: int) -> "CheckpointTables":
        """The tables of a new image: a superblock at epoch 0 (no commit)
        and a zeroed table."""
        tables = cls(device, max_objects, cache_size_bytes, max_modified_state_bytes)
        device.write(0, _SB.pack(
            MAGIC, VERSION, 0, SUPERBLOCK_BYTES, tables.table_bytes,
            cache_size_bytes, max_modified_state_bytes,
        ))
        device.write(SUPERBLOCK_BYTES, bytearray(tables.table_bytes))
        tables._start(list(range(max_objects)), [], 1)  # ascending, so a heap
        return tables

    @classmethod
    def open(cls, device: StorageDevice) -> "CheckpointTables":
        """The tables of the device's committed image, with its recorded
        epoch, cache size and limit. Raises :class:`NoValidCheckpointError`,
        having written nothing, for a device with no room for a superblock
        (read nothing either), an image with no commit, or a superblock whose
        words disagree. It maps no :class:`ConfigInvalidError` of the
        constructor: ``restore`` checks a recorded configuration in one place."""
        if device.capacity_bytes < SUPERBLOCK_BYTES:
            raise NoValidCheckpointError("device holds no recognizable heap image")
        magic, version, epoch, table_offset, table_bytes, cache, limit = _SB.unpack(
            device.read(0, SUPERBLOCK_BYTES))
        if magic != MAGIC or version != VERSION:
            raise NoValidCheckpointError("device holds no recognizable heap image")
        if not epoch:
            raise NoValidCheckpointError("device was formatted but never persisted")
        if epoch == LAST_WORD:
            raise NoValidCheckpointError(f"epoch {epoch} is past the last one an image commits")
        if table_bytes % ENTRY_BYTES:
            raise NoValidCheckpointError("metadata table length is not whole entries")
        if table_offset != SUPERBLOCK_BYTES:
            raise NoValidCheckpointError("metadata table offset does not match the layout")
        return cls(device, table_bytes // ENTRY_BYTES, cache, limit, epoch)

    def adopt(self) -> list[tuple[int, int, int, int]]:
        """Read the table of the image :meth:`open` checked, check it, and
        return the entries live at its epoch, ``(slot, handle id, nvm
        offset, size)`` by slot. Raises :class:`NoValidCheckpointError`,
        having written nothing, for a table no heap could have committed: a
        handle id 0, an id live twice, a size 0, or an extent that is not
        word-aligned, leaves the object region or overlaps another one.

        Every stamp above the epoch was written by an epoch that never
        committed; each is then set back to zero, in slot order, so that the
        next commit cannot publish it. These writes change nothing that
        decoding at the epoch reads, so a restore cut among them and run
        again decodes the same entries.
        """
        epoch, max_objects = self.epoch, self.max_objects
        raw = self.device.read(SUPERBLOCK_BYTES, self.table_bytes)
        words = struct.unpack(f"<{max_objects * ENTRY_WORDS}I", raw)
        live, free, undo, ids = [], [], [], set()
        for slot in range(max_objects):
            at = slot * ENTRY_WORDS
            born, handle_id, nvm_offset, size, died = words[at : at + ENTRY_WORDS]
            if born > epoch:
                undo.append(slot * ENTRY_BYTES + BORN_AT)
                born = 0
            if died > epoch:
                undo.append(slot * ENTRY_BYTES + DIED_AT)
                died = 0
            if not born or died:
                free.append(slot)
                continue
            if not handle_id:
                # Ids start at 1, so no heap ever handed out id 0.
                raise NoValidCheckpointError(f"slot {slot} is committed with handle id 0")
            if handle_id in ids:
                raise NoValidCheckpointError(f"handle id {handle_id} is committed twice")
            if not size:
                # A zero-sized extent reserves nothing, so the next alloc
                # would hand out the same offset.
                raise NoValidCheckpointError(f"object {handle_id} is committed with size 0")
            ids.add(handle_id)
            live.append((slot, handle_id, nvm_offset, size))
        used = []
        at, region_end = self.object_offset, self.object_offset + self.object_bytes
        for _, handle_id, nvm_offset, size in sorted(live, key=itemgetter(2)):
            end = nvm_offset + align_up(size)
            if nvm_offset < at or end > region_end or nvm_offset % WORD_BYTES:
                raise NoValidCheckpointError(
                    f"object {handle_id}: extent [{nvm_offset}, {end}) is not free")
            used.append((nvm_offset, size))
            at = end
        for offset in undo:
            self._write_word(offset, ZERO_WORD)
        self._start(free, used, max(ids, default=0) + 1)
        return live

    def _start(self, free: list[int], used: list[tuple[int, int]], next_id: int) -> None:
        self.extents = FirstFitAllocator(self.object_offset, self.object_bytes, used)
        self._stamp = bytearray(_WORD.pack(self.epoch + 1))
        self._free = free
        self._next_id = next_id
        self._born: set[int] = set()
        self._deaths: list[tuple[int, int, int]] = []

    def check_birth(self) -> None:
        """Raise :class:`OutOfNvmError` unless a slot and an id are left."""
        if not self._free:
            raise OutOfNvmError("metadata table is full")
        if self._next_id > LAST_WORD:
            raise OutOfNvmError("every handle id a word can hold has been issued")

    def check_commit(self) -> None:
        """Raise :class:`OutOfNvmError` once the last epoch has committed."""
        if self.epoch == LAST_WORD - 1:
            raise OutOfNvmError(f"the image has committed its last epoch, {self.epoch}")

    # -- writes (metered by the device) --------------------------------------

    def _write_word(self, offset: int, word: bytearray) -> None:
        self.device.write(SUPERBLOCK_BYTES + offset, word)
        self.metadata_bytes_written += WORD_BYTES

    def record_alloc(self, nvm_offset: int, size: int) -> tuple[int, int]:
        """Write a new object's entry, born in the next epoch, into the
        lowest free slot, in one transfer, and return the slot and the next
        handle id, which it issues. :meth:`check_birth` must pass first."""
        slot = heapq.heappop(self._free)
        handle_id = self._next_id
        self._next_id = handle_id + 1
        entry = self._entry
        _ENTRY.pack_into(entry, 0, self.epoch + 1, handle_id, nvm_offset, size, 0)
        self.device.write(SUPERBLOCK_BYTES + slot * ENTRY_BYTES, entry)
        self.metadata_bytes_written += ENTRY_BYTES
        self._born.add(slot)
        return slot, handle_id

    def record_dealloc(self, slot: int, nvm_offset: int, size: int) -> None:
        """Stamp the entry's death with the next epoch. An entry born in
        that epoch too is live at no epoch, so its slot and extent are free
        at once; any other is the last commit's until :meth:`commit`."""
        self._write_word(slot * ENTRY_BYTES + DIED_AT, self._stamp)
        born = self._born
        if slot in born:
            born.discard(slot)
            heapq.heappush(self._free, slot)
            self.extents.free(nvm_offset, size)
        else:
            self._deaths.append((slot, nvm_offset, size))

    def commit(self) -> None:
        """Publish the next epoch with one word, then release the slots and
        extents of the deaths it committed, in the order they died.
        :meth:`check_commit` must pass first."""
        stamp = self._stamp
        self.device.write(EPOCH_OFFSET, stamp)
        self.metadata_bytes_written += WORD_BYTES
        epoch = self.epoch = self.epoch + 1
        _WORD.pack_into(stamp, 0, epoch + 1)
        if self._born:
            self._born.clear()
        deaths = self._deaths
        if deaths:
            self._deaths = []
            free = self._free
            release = self.extents.free
            for slot, nvm_offset, size in deaths:
                heapq.heappush(free, slot)
                release(nvm_offset, size)
