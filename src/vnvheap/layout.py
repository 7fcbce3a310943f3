"""On-device image layout and the double-buffered metadata table manager.

Image layout (all integers little-endian):

====================  =======================================================
offset 0              superblock, 24 bytes:
                      magic ``VNVH`` (4) | version u16 | active-slot u8 |
                      commit-flag u8 | slot A offset u32 | slot A length u32 |
                      slot B offset u32 | slot B length u32
24                    metadata slot A (``max_objects`` entries of 12 bytes)
24 + table length     metadata slot B (same shape)
after slot B          object region (payload extents)
====================  =======================================================

A metadata entry is ``handle id u32 | nvm offset u32 | size u32``: the
object's identity, fixed for its life. A handle id of zero marks a free
entry slot. The table code handles an entry as its three little-endian
words, and every table write is one of those words: a delta compares the
entry's words with the mirrored slot's as ints and writes only those that
differ. Each word written is a 4-byte ``bytearray``, a slice of the entry
packed once or :data:`ZERO_WORD`, so neither the device nor the volatile
mirror copies it into a temporary before the store. No volatile state
(pins, cache offsets) is recorded, so a restored object always starts
swapped out.

Commit protocol: version, active-slot and commit-flag share the superblock's
second word, so a single atomic word write publishes a new checkpoint. The
slot being committed must be fully written before that word; the other slot
("staging") is where all between-checkpoint entry writes go, keeping the
committed table untouched until the next flip. Births are the exception:
they are written to both slots at allocation.

A deallocation clears the staging id word and leaves a deferred clear in
the committed table, so a fallback restore still sees the object. The commit
clears those right after its commit word, once that table is no longer the
fallback. See :class:`CheckpointTables`.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

from .errors import ConfigInvalidError, NoValidCheckpointError
from .storage import StorageDevice, WORD_BYTES

MAGIC = b"VNVH"
VERSION = 2
SUPERBLOCK_BYTES = 24
COMMIT_WORD_OFFSET = 4  # version u16 | active u8 | commit u8, one word
ENTRY_BYTES = 12
ENTRY_WORDS = ENTRY_BYTES // WORD_BYTES
ZERO_WORD = bytearray(WORD_BYTES)  # a bytearray, as every table word is
# Orders in which an entry's words are written. A birth (the slot's id word
# is zero) writes the id word last, so a power failure in the middle leaves
# the slot reading as free, never as a torn half-written object.
BIRTH_ORDER = (1, 2, 0)
UPDATE_ORDER = (0, 1, 2)

_SB = struct.Struct("<4sHBBIIII")
_WORDS = struct.Struct(f"<{ENTRY_WORDS}I")  # an entry as its words
# The superblock's second word after a commit that makes table ``i`` active,
# as a bytearray: the device stores one without a temporary copy.
_COMMIT_WORDS = tuple(bytearray(struct.pack("<HBB", VERSION, i, 1)) for i in (0, 1))


@dataclass(frozen=True)
class ImageLayout:
    capacity_bytes: int
    max_objects: int
    table_a_offset: int
    table_b_offset: int
    table_bytes: int
    object_offset: int
    object_bytes: int

    @classmethod
    def compute(cls, capacity_bytes: int, max_objects: int) -> "ImageLayout":
        if max_objects < 1:
            raise ConfigInvalidError("max_objects must be >= 1")
        table_bytes = max_objects * ENTRY_BYTES
        object_offset = SUPERBLOCK_BYTES + 2 * table_bytes
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
            table_a_offset=SUPERBLOCK_BYTES,
            table_b_offset=SUPERBLOCK_BYTES + table_bytes,
            table_bytes=table_bytes,
            object_offset=object_offset,
            object_bytes=object_bytes,
        )

    def table_offset(self, index: int) -> int:
        return self.table_a_offset if index == 0 else self.table_b_offset


@dataclass
class Superblock:
    version: int
    active_slot: int
    committed: bool
    a_offset: int
    a_length: int
    b_offset: int
    b_length: int


def read_superblock(device: StorageDevice) -> Superblock:
    raw = device.read(0, SUPERBLOCK_BYTES)
    magic, version, active, commit, a_off, a_len, b_off, b_len = _SB.unpack(raw)
    if magic != MAGIC or version != VERSION:
        raise NoValidCheckpointError("device holds no recognizable heap image")
    if active > 1:
        raise NoValidCheckpointError(f"active-slot byte is {active}, not 0 or 1")
    return Superblock(version, active, commit == 1, a_off, a_len, b_off, b_len)


class CheckpointTables:
    """Owns the two metadata slots and the commit word.

    Volatile mirrors of both slots let every NVM table write be a minimal
    word-granular delta. Callers pass each entry as its three words,
    ``(handle id, nvm offset, size)``, which are packed once into a
    ``bytearray``; a write unpacks the mirror slot and the packed entry,
    compares word with word as ints and sends only the words that differ,
    each a 4-byte slice of the packed entry, in a fixed order
    (:data:`BIRTH_ORDER` when the slot's id word is zero, else
    :data:`UPDATE_ORDER`).

    An entry never changes after allocation, births are written to both
    tables and a dealloc clears the staging id word at once. So outside
    restore the staging table holds exactly the live entries, and the other
    table holds them plus ``_pending``: the slots deallocated since the last
    commit, whose clears are deferred. :meth:`commit` clears exactly those,
    so it costs O(deallocations), not O(live objects), and pushes each onto
    ``_free``, the exact min-heap of the slots free in both tables, which
    :meth:`record_alloc` pops. :meth:`format` or :meth:`adopt` must run
    before any other method; after :meth:`adopt`, only
    :meth:`committed_entries` and then :meth:`flush_delta`, which scan the
    mirrors and rebuild ``_free``.
    """

    def __init__(self, device: StorageDevice, layout: ImageLayout) -> None:
        self.device = device
        self.layout = layout
        self._bases = (layout.table_a_offset, layout.table_b_offset)
        self.staging = 0
        self.committed: int | None = None
        self.metadata_bytes_written = 0  # cumulative, callers diff it

    # -- formatting / adoption ---------------------------------------------

    def format(self) -> None:
        """Write a fresh superblock (no commit) and zero both tables."""
        lay = self.layout
        sb = _SB.pack(
            MAGIC, VERSION, 0, 0,
            lay.table_a_offset, lay.table_bytes,
            lay.table_b_offset, lay.table_bytes,
        )
        self.device.write(0, sb)
        zeros = bytearray(lay.table_bytes)
        self.device.write(lay.table_a_offset, zeros)
        self.device.write(lay.table_b_offset, zeros)
        self.staging = 0
        self.committed = None
        self._mirror = [bytearray(lay.table_bytes), bytearray(lay.table_bytes)]
        self._pending: set[int] = set()
        self._free = list(range(lay.max_objects))  # ascending, so a heap

    def adopt(self, superblock: Superblock) -> None:
        """Load mirrors from a device that already holds a committed image.

        Restore brings back every committed entry, so those are live and
        none is pending. The caller must then flush the truth of every live
        slot (see :meth:`flush_delta`), since the staging slot may predate
        the committed one and hold entries that are not live.
        """
        lay = self.layout
        self._mirror = [bytearray(self.device.read(base, lay.table_bytes)) for base in self._bases]
        self.committed = superblock.active_slot
        self.staging = 1 - superblock.active_slot
        self._pending = set()

    # -- entry access -------------------------------------------------------

    def _set_slots(self, table: int) -> list[int]:
        """Slots of ``table`` whose id word is set, ascending, from the
        mirror. A zero test does not depend on byte order."""
        ids = memoryview(self._mirror[table]).cast("I")[::ENTRY_WORDS]
        return [slot for slot, v in enumerate(ids) if v]

    def committed_entries(self) -> list[tuple[int, tuple[int, int, int]]]:
        """``(slot, entry words)`` of every committed entry, by slot."""
        assert self.committed is not None
        table = self._mirror[self.committed]
        unpack = _WORDS.unpack_from
        return [(slot, unpack(table, slot * ENTRY_BYTES))
                for slot in self._set_slots(self.committed)]

    def free_slot(self) -> int | None:
        """Lowest slot free in both tables, hence not live either."""
        return self._free[0] if self._free else None

    # -- writes (all word-granular, metered by the device) ------------------

    def _write_entry(self, table: int, slot: int, entry: bytearray) -> None:
        """Bring one slot of ``table`` to the live ``entry``, packed: each
        differing word goes to the device and the mirror as a 4-byte slice
        of ``entry``."""
        mirror = self._mirror[table]
        base = slot * ENTRY_BYTES
        old = _WORDS.unpack_from(mirror, base)
        new = _WORDS.unpack(entry)
        if old == new:
            return
        write = self.device.write
        at = self._bases[table] + base
        for w in UPDATE_ORDER if old[0] else BIRTH_ORDER:
            if old[w] != new[w]:
                lo = w * WORD_BYTES
                word = entry[lo : lo + WORD_BYTES]
                write(at + lo, word)
                mirror[base + lo : base + lo + WORD_BYTES] = word
                self.metadata_bytes_written += WORD_BYTES

    def record_alloc(self, handle_id: int, nvm_offset: int, size: int) -> int:
        """Write a new object's entry into both tables (birth is eager), in
        the slot :meth:`free_slot` names, and return that slot. The entry is
        packed once, for both tables."""
        slot = heapq.heappop(self._free)
        entry = bytearray(_WORDS.pack(handle_id, nvm_offset, size))
        self._write_entry(0, slot, entry)
        self._write_entry(1, slot, entry)
        return slot

    def record_dealloc(self, slot: int) -> None:
        """Clear the staging id word. The committed table keeps the entry (a
        deferred clear) until the next :meth:`commit`, so a fallback restore
        still sees the object."""
        self._clear_id(self.staging, slot)
        self._pending.add(slot)

    def _clear_id(self, table: int, slot: int) -> None:
        lo = slot * ENTRY_BYTES
        self.device.write(self._bases[table] + lo, ZERO_WORD)
        self._mirror[table][lo : lo + WORD_BYTES] = ZERO_WORD
        self.metadata_bytes_written += WORD_BYTES

    def flush_delta(self, entries: dict[int, tuple[int, int, int]]) -> None:
        """Make the staging table match the truth at restore, visiting only
        the slots that can differ from it, in ascending order, then rebuild
        the free slots from the live ones.

        ``entries`` maps every live slot to its entry words: after an
        uncommitted dealloc the staging table can lack a committed entry,
        and it can hold the dead entries of an older checkpoint. A slot
        outside these candidates needs no write, so the device sees the
        same writes as a comparison of every live entry.
        """
        staging = self.staging
        mirror = self._mirror[staging]
        for slot in sorted(entries.keys() | self._set_slots(staging)):
            entry = entries.get(slot)
            if entry is None:
                self._clear_id(staging, slot)
            elif _WORDS.unpack_from(mirror, slot * ENTRY_BYTES) != entry:
                # Packed only when some word differs: most live slots match.
                self._write_entry(staging, slot, bytearray(_WORDS.pack(*entry)))
        self._free = [slot for slot in range(self.layout.max_objects) if slot not in entries]

    def commit(self) -> None:
        """Atomically publish the staging table and flip the roles, then
        clear, in ascending order, the pending entries of the new staging
        table (no longer the fallback)."""
        self.device.write(COMMIT_WORD_OFFSET, _COMMIT_WORDS[self.staging])
        self.metadata_bytes_written += WORD_BYTES
        self.committed = self.staging
        self.staging = staging = 1 - self.staging
        pending = self._pending
        if pending:
            slots = sorted(pending)
            pending.clear()
            free = self._free
            for slot in slots:
                self._clear_id(staging, slot)
                heapq.heappush(free, slot)
