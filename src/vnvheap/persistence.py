"""Checkpointing: persist the heap's modified state, restore it after a
power cycle, and bound/estimate the cost of doing so.

persist() writes, in order: every modified payload (in cache-arrival order),
then the one epoch word that commits the checkpoint (see
:mod:`vnvheap.layout`). Entries were written at allocation and stamped at
deallocation, so no entry is written at persist, guarded or not. Every one
of these words is charged to the modified-state budget, so a persist writes
exactly ``dirty_bytes / 4 - 3`` words, within ``persist_bound()`` whatever
the cache size. A power failure anywhere leaves the last committed
checkpoint readable.

persist() visits only modified objects, never the clean residents: the
payloads come from the heap's modified index, sorted by arrival stamp (see
:mod:`vnvheap.heap`). The commit then releases the slots and extents of the
objects deallocated since the last commit (``CheckpointTables.commit``).
So its host cost follows what changed, not how many objects are resident or
live. Each payload costs one host copy, a slice of the cache's
``bytearray``, which the device stores without copying it again (see
:meth:`~vnvheap.storage.StorageDevice.write`). The payloads go out in one
loop, and the bookkeeping is settled once, after the commit: the modified
index is rebuilt from the write-guarded payloads (pin count -1) alone, so
no object has a flag to clear.

restore() checks the superblock, then ``CheckpointTables.adopt`` reads and
checks the table, rebuilds the object region's free space from the entries
live at the committed epoch in one sort, and sets the stamps of the epoch
that never committed back to zero; restore builds a heap of those entries.
Every object starts swapped out, whether or not a guard was held on it at
persist, and loads lazily on first access. Restore is the one step that
reads the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigInvalidError, NoValidCheckpointError
from .heap import (
    HEADER_CHARGE_BYTES,
    HeapConfig,
    ObjectHandle,
    ObjectMeta,
    VnvHeap,
    _ARRIVAL,
)
from .layout import ENTRY_BYTES, ImageLayout, read_superblock
from .storage import StorageDevice, words_for


@dataclass(frozen=True)
class EnergyModel:
    """Worst-case transfer parameters, and the one words -> time -> energy formula."""

    power_milliwatts: float = 132.0
    word_transfer_seconds: float = 1e-6

    def time_us(self, words: int) -> float:
        return words * self.word_transfer_seconds * 1e6

    def energy_uj(self, words: int) -> float:
        return self.time_us(words) * self.power_milliwatts / 1000.0  # mW * us = nJ


class PersistReport(NamedTuple):
    words_transferred: int
    objects_synced: int
    metadata_bytes_written: int


def persist_bound(config: HeapConfig) -> int:
    """Worst-case words one persist may transfer. Depends only on the
    modified-state limit (plus the fixed header), never on cache size. The
    modified-state charge keeps every persist at least 7 words under it."""
    return words_for(config.max_modified_state_bytes + HEADER_CHARGE_BYTES)


def wcec_millijoules(words: int, model: EnergyModel = EnergyModel()) -> float:
    """Energy to move ``words`` at the model's transfer latency and power."""
    return model.energy_uj(words) / 1000.0


def persist(heap: VnvHeap) -> PersistReport:
    """Checkpoint the heap. The heap stays usable afterwards: guards stay
    live, residents stay resident, and every object leaves the modified
    index except those under a live write guard."""
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
    # Cache-arrival order: the order in which the residents are held.
    payloads = sorted(heap._modified.values(), key=_ARRIVAL)
    for meta in payloads:
        write(meta.nvm_offset, cache[meta.cache_offset : meta.cache_offset + meta.size_bytes])
    tables.commit()
    # Settle the bookkeeping once the commit has landed. A live write guard
    # keeps its object modified and charged: its holder can keep writing
    # after we return.
    guarded = {}
    dirty = HEADER_CHARGE_BYTES
    for meta in payloads:
        if meta.pin_count < 0:
            guarded[meta.handle_id] = meta
            dirty += meta.charge
    heap._modified = guarded
    heap._dirty = dirty
    return PersistReport(
        meter.words_written - written_before,
        len(payloads),
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
    superblock = read_superblock(device)
    if not superblock.epoch:
        raise NoValidCheckpointError("device was formatted but never persisted")
    if superblock.table_bytes % ENTRY_BYTES:
        raise NoValidCheckpointError("metadata table length is not whole entries")
    max_objects = superblock.table_bytes // ENTRY_BYTES
    try:
        layout = ImageLayout.compute(device.capacity_bytes, max_objects)
        # The recorded configuration must be one a heap could have had.
        HeapConfig(superblock.cache_size_bytes, superblock.max_modified_state_bytes)
    except ConfigInvalidError as exc:
        # These values came from the image, so one a heap cannot have marks
        # a corrupt image, not a bad configuration.
        raise NoValidCheckpointError(f"image records an impossible heap: {exc}") from None
    if layout.table_offset != superblock.table_offset:
        raise NoValidCheckpointError("metadata table offset does not match the layout")
    if cache_size_bytes is None:
        cache_size_bytes = superblock.cache_size_bytes
    if max_modified_state_bytes is None:
        max_modified_state_bytes = superblock.max_modified_state_bytes

    heap = VnvHeap(
        device,
        cache_size_bytes=cache_size_bytes,
        max_modified_state_bytes=max_modified_state_bytes,
        max_objects=max_objects,
        _adopt_layout=layout,
    )
    metas, handles = heap._metas, {}
    for slot, handle_id, nvm_offset, size in heap.tables.adopt(superblock.epoch):
        meta = ObjectMeta.swapped_out(handle_id, slot, nvm_offset, size)
        if meta.block_bytes > cache_size_bytes:
            # No eviction could ever make room to load it.
            raise NoValidCheckpointError(
                f"object {handle_id}: {size} B cannot fit the {cache_size_bytes} B cache")
        metas[handle_id] = meta
        handles[handle_id] = ObjectHandle(handle_id, size, heap)
    heap._next_id = max(metas, default=0) + 1
    return heap, handles
