"""On-device image layout and the epoch-stamped metadata table.

Image layout (every field a little-endian u32 word):

====================  =======================================================
offset 0              superblock, 28 bytes: magic ``VNVH`` | version |
                      epoch | table offset | table length | cache size |
                      modified-state limit
28                    metadata table (``max_objects`` entries of 20 bytes)
after the table       object region (payload extents)
====================  =======================================================

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
from dataclasses import dataclass
from operator import itemgetter

from .errors import ConfigInvalidError, NoValidCheckpointError
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

_SB = struct.Struct("<4sIIIIII")
_AFTER_BORN = struct.Struct(f"<{ENTRY_WORDS - 1}I")  # an entry's words after its born stamp
_WORD = struct.Struct("<I")


@dataclass(frozen=True)
class ImageLayout:
    capacity_bytes: int
    max_objects: int
    table_offset: int
    table_bytes: int
    object_offset: int
    object_bytes: int

    @classmethod
    def compute(cls, capacity_bytes: int, max_objects: int) -> "ImageLayout":
        if max_objects < 1:
            raise ConfigInvalidError("max_objects must be >= 1")
        table_bytes = max_objects * ENTRY_BYTES
        object_offset = SUPERBLOCK_BYTES + table_bytes
        object_bytes = capacity_bytes - object_offset
        object_bytes -= object_bytes % WORD_BYTES
        if object_bytes < WORD_BYTES:
            raise ConfigInvalidError(
                f"device of {capacity_bytes} B leaves no object region for "
                f"{max_objects} metadata entries"
            )
        return cls(
            capacity_bytes=capacity_bytes,
            max_objects=max_objects,
            table_offset=SUPERBLOCK_BYTES,
            table_bytes=table_bytes,
            object_offset=object_offset,
            object_bytes=object_bytes,
        )


@dataclass
class Superblock:
    version: int
    epoch: int
    table_offset: int
    table_bytes: int
    cache_size_bytes: int
    max_modified_state_bytes: int


def read_superblock(device: StorageDevice) -> Superblock:
    magic, *words = _SB.unpack(device.read(0, SUPERBLOCK_BYTES))
    if magic != MAGIC or words[0] != VERSION:
        raise NoValidCheckpointError("device holds no recognizable heap image")
    return Superblock(*words)


class CheckpointTables:
    """Owns the metadata table and the epoch word.

    Every write is one transfer from a ``bytearray``: a birth is its whole
    entry, a death and a commit one stamp word, and :meth:`adopt` one zero
    word per stamp of an epoch that never committed. Nothing reads the table
    between restores, so no copy of it is kept in memory.

    ``_stamp`` is the next epoch's stamp word, which births, deaths and the
    commit write; ``epoch``, the last committed epoch, is derived from it.
    ``_free`` is the exact min-heap of the slots live neither at ``epoch``
    nor at ``epoch + 1``, which :meth:`record_alloc` pops. ``_born`` holds
    the slots born since the last commit, and ``_deaths`` the ``(slot, nvm
    offset, size)`` of every object of the last commit deallocated since:
    its slot and extent still belong to that checkpoint, so :meth:`commit`
    releases them. A slot born and freed in one epoch is released at once,
    with its extent. So the table must hold the live objects plus those
    deallocated since the last commit. ``extents`` is the object region's
    free space: the heap allocates from it, and only the tables free into
    it. :meth:`format` or :meth:`adopt` must run before any other method.
    """

    def __init__(self, device: StorageDevice, layout: ImageLayout) -> None:
        self.device = device
        self.layout = layout
        self._base = layout.table_offset
        self._entry = bytearray(ENTRY_BYTES)  # a birth's entry, packed in place
        self.metadata_bytes_written = 0  # cumulative, callers diff it

    def format(self, cache_size_bytes: int, max_modified_state_bytes: int) -> None:
        """Write a superblock at epoch 0 (no commit) and zero the table."""
        lay = self.layout
        self.device.write(0, _SB.pack(
            MAGIC, VERSION, 0, lay.table_offset, lay.table_bytes,
            cache_size_bytes, max_modified_state_bytes,
        ))
        self.device.write(lay.table_offset, bytearray(lay.table_bytes))
        self._start(0, list(range(lay.max_objects)), [])  # ascending, so a heap

    def adopt(self, epoch: int) -> list[tuple[int, int, int, int]]:
        """Read the table of an image committed at ``epoch``, check it, and
        return its live entries, ``(slot, handle id, nvm offset, size)`` by
        slot. Raises :class:`NoValidCheckpointError`, having written
        nothing, for a table no heap could have committed: a handle id 0,
        an id live twice, a size 0, or an extent that is not word-aligned,
        leaves the object region or overlaps another live extent.

        Every stamp above ``epoch`` was written by an epoch that never
        committed; each is then set back to zero, in slot order, so that the
        next commit cannot publish it. These writes change nothing that
        decoding at ``epoch`` reads, so a restore cut among them and run
        again decodes the same entries.
        """
        lay = self.layout
        raw = self.device.read(self._base, lay.table_bytes)
        words = struct.unpack(f"<{lay.max_objects * ENTRY_WORDS}I", raw)
        live, free, undo, ids = [], [], [], set()
        for slot in range(lay.max_objects):
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
        at, region_end = lay.object_offset, lay.object_offset + lay.object_bytes
        for _, handle_id, nvm_offset, size in sorted(live, key=itemgetter(2)):
            end = nvm_offset + align_up(size)
            if nvm_offset < at or end > region_end or nvm_offset % WORD_BYTES:
                raise NoValidCheckpointError(
                    f"object {handle_id}: extent [{nvm_offset}, {end}) is not free")
            used.append((nvm_offset, size))
            at = end
        for offset in undo:
            self._write_word(offset, ZERO_WORD)
        self._start(epoch, free, used)
        return live

    def _start(self, epoch: int, free: list[int], used: list[tuple[int, int]]) -> None:
        lay = self.layout
        self.extents = FirstFitAllocator(lay.object_offset, lay.object_bytes, used)
        self._stamp = bytearray(_WORD.pack(epoch + 1))
        self._free = free
        self._born: set[int] = set()
        self._deaths: list[tuple[int, int, int]] = []

    @property
    def epoch(self) -> int:
        """The last committed epoch."""
        return _WORD.unpack(self._stamp)[0] - 1

    def free_slot(self) -> int | None:
        """Lowest slot live neither at the committed epoch nor at the next."""
        return self._free[0] if self._free else None

    # -- writes (metered by the device) --------------------------------------

    def _write_word(self, offset: int, word: bytearray) -> None:
        self.device.write(self._base + offset, word)
        self.metadata_bytes_written += WORD_BYTES

    def record_alloc(self, handle_id: int, nvm_offset: int, size: int) -> int:
        """Write a new object's entry, born in the next epoch, into the slot
        :meth:`free_slot` names, in one transfer, and return the slot."""
        slot = heapq.heappop(self._free)
        entry = self._entry
        entry[:WORD_BYTES] = self._stamp
        _AFTER_BORN.pack_into(entry, WORD_BYTES, handle_id, nvm_offset, size, 0)
        self.device.write(self._base + slot * ENTRY_BYTES, entry)
        self.metadata_bytes_written += ENTRY_BYTES
        self._born.add(slot)
        return slot

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
        extents of the deaths it committed, in the order they died."""
        stamp = self._stamp
        self.device.write(EPOCH_OFFSET, stamp)
        self.metadata_bytes_written += WORD_BYTES
        # Count the stamp up to the next epoch in place, with no int epoch
        # to keep: a fresh pack would cost a persist about 1% more.
        low = stamp[0]
        if low < 255:
            stamp[0] = low + 1
        else:
            _WORD.pack_into(stamp, 0, _WORD.unpack(stamp)[0] + 1)
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
