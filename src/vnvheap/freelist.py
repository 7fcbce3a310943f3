"""First-fit free-list allocator used for both the cache buffer and the NVM
object region. Offsets and lengths are kept word-aligned."""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter

from .storage import WORD_BYTES


def align_up(n: int) -> int:
    return (n + WORD_BYTES - 1) & -WORD_BYTES


_START = itemgetter(0)


class FirstFitAllocator:
    """Manages free extents of ``[start, start + size)`` in address order.

    ``alloc`` returns the lowest-addressed fit (deterministic). ``free``
    merges the freed block with its free neighbours and returns the start
    and length of the free extent that now holds it, so a caller that frees
    until a block fits learns when it does, and what borders the hole,
    without another scan. All requests are rounded
    up to whole words, so callers must free with the same length they
    allocated.
    """

    def __init__(self, start: int, size: int) -> None:
        assert start % WORD_BYTES == 0 and size % WORD_BYTES == 0
        self.start = start
        self.size = size
        self._free: list[list[int]] = [[start, size]] if size else []

    def alloc(self, nbytes: int) -> int | None:
        """Return the offset of a new extent, or None if nothing fits."""
        assert nbytes > 0
        need = align_up(nbytes)
        for ext in self._free:
            if ext[1] >= need:
                offset = ext[0]
                ext[0] += need
                ext[1] -= need
                if ext[1] == 0:
                    self._free.remove(ext)
                return offset
        return None

    def allocate_at(self, offset: int, nbytes: int) -> None:
        """Carve a specific extent out of the free space (restore path)."""
        need = align_up(nbytes)
        for i, (off, length) in enumerate(self._free):
            if off <= offset and offset + need <= off + length:
                del self._free[i]
                if offset > off:
                    insort(self._free, [off, offset - off])
                tail = (off + length) - (offset + need)
                if tail:
                    insort(self._free, [offset + need, tail])
                return
        raise ValueError(f"extent [{offset}, {offset + need}) is not free")

    def free(self, offset: int, nbytes: int) -> tuple[int, int]:
        """Return ``[offset, offset + nbytes)`` to the free space and return
        ``(start, length)`` of the free extent that now contains it."""
        assert nbytes > 0
        length = align_up(nbytes)
        end = offset + length
        assert self.start <= offset and end <= self.start + self.size
        free = self._free
        i = bisect_left(free, offset, key=_START)
        # The extents are sorted and disjoint, so only the two neighbours of
        # the insertion point can overlap the freed range or touch it.
        nxt = free[i] if i < len(free) else None
        assert nxt is None or end <= nxt[0], "double free"
        if i:
            prev = free[i - 1]
            prev_end = prev[0] + prev[1]
            assert prev_end <= offset, "double free"
            if prev_end == offset:
                prev[1] += length
                if nxt is not None and nxt[0] == end:
                    prev[1] += nxt[1]
                    del free[i]
                return prev[0], prev[1]
        if nxt is not None and nxt[0] == end:
            nxt[0] = offset
            nxt[1] += length
            return offset, nxt[1]
        free.insert(i, [offset, length])
        return offset, length

    def total_free(self) -> int:
        return sum(length for _, length in self._free)

    def free_extents(self) -> list[tuple[int, int]]:
        return [(off, length) for off, length in self._free]
