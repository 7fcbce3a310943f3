"""First-fit free-list allocator used for both the cache buffer and the NVM
object region. Offsets and lengths are kept word-aligned."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from operator import itemgetter

from .storage import WORD_BYTES


def align_up(n: int) -> int:
    return (n + WORD_BYTES - 1) & -WORD_BYTES


_START = itemgetter(0)
_LENGTH = itemgetter(1)


class FirstFitAllocator:
    """Manages free extents of ``[start, start + size)``: a list of
    ``[offset, length]`` in address order, disjoint and never touching. One
    rule per operation:

    - ``alloc`` takes the lowest-addressed extent that fits (first fit, so
      deterministic).
    - ``free`` replaces the freed block's touching free neighbours with
      their merge, in one slice store.
    - ``freed_span`` names the free extent that freeing a block would leave,
      and changes nothing: a caller that would free blocks until one fits
      plans with it first.
    - ``claim_span`` takes a whole planned span in one step: the free
      extents inside it give way to the tail after the new block, in one
      slice store.

    All requests are rounded up to whole words, so callers must free with
    the same length they allocated. The methods a cache access calls align
    inline: a call to :func:`align_up` would cost each access a frame.

    ``max_free`` is never less than the longest free extent, so a request
    longer than it fails without a scan, and a caller may test it before
    calling ``alloc`` at all. ``free`` and ``claim_span`` raise it to the
    extent they store, and a scan that fails lowers it to the longest
    extent there is: on a full cache, a failed probe is one comparison.
    """

    def __init__(self, start: int, size: int, used: Iterable[tuple[int, int]] = ()) -> None:
        """Manage ``[start, start + size)``, free but for the sorted,
        disjoint ``(offset, nbytes)`` extents of ``used``."""
        assert start % WORD_BYTES == 0 and size % WORD_BYTES == 0
        self.start = start
        self.size = size
        self._free: list[list[int]] = []
        at = start
        for offset, nbytes in used:
            if offset > at:
                self._free.append([at, offset - at])
            at = offset + align_up(nbytes)
        if at < start + size:
            self._free.append([at, start + size - at])
        self.max_free = max(map(_LENGTH, self._free), default=0)

    def alloc(self, nbytes: int) -> int | None:
        """Return the offset of a new extent, or None if nothing fits."""
        assert nbytes > 0
        need = (nbytes + WORD_BYTES - 1) & -WORD_BYTES
        if need > self.max_free:
            return None
        for ext in self._free:
            if ext[1] >= need:
                offset = ext[0]
                ext[0] += need
                ext[1] -= need
                if ext[1] == 0:
                    self._free.remove(ext)
                return offset
        self.max_free = max(map(_LENGTH, self._free), default=0)
        return None

    def freed_span(self, offset: int, nbytes: int) -> tuple[int, int]:
        """``(start, end)`` of the free extent that would hold the allocated
        ``[offset, offset + nbytes)`` once freed, which is not freed. One
        bisection finds the free extents just below and just above it."""
        free = self._free
        i = bisect_left(free, offset, key=_START)
        start, end = offset, offset + ((nbytes + WORD_BYTES - 1) & -WORD_BYTES)
        if i:
            prev = free[i - 1]
            if prev[0] + prev[1] == offset:
                start = prev[0]
        if i < len(free) and free[i][0] == end:
            end += free[i][1]
        return start, end

    def claim_span(self, start: int, end: int, nbytes: int) -> int:
        """Allocate ``nbytes`` at ``start`` of the span ``[start, end)``,
        whose allocated blocks the caller gives up without freeing them:
        the free extents inside the span give way to the tail after the new
        block. Returns ``start``."""
        need = (nbytes + WORD_BYTES - 1) & -WORD_BYTES
        free = self._free
        i = bisect_left(free, start, key=_START)
        j = bisect_left(free, end, i, key=_START)
        rest = end - start - need
        free[i:j] = [[end - rest, rest]] if rest else []
        if rest > self.max_free:
            self.max_free = rest
        return start

    def free(self, offset: int, nbytes: int) -> None:
        """Return ``[offset, offset + nbytes)`` to the free space."""
        assert nbytes > 0
        start, end = offset, offset + ((nbytes + WORD_BYTES - 1) & -WORD_BYTES)
        assert self.start <= start and end <= self.start + self.size
        free = self._free
        i = j = bisect_left(free, offset, key=_START)
        # The extents are sorted and disjoint, so only the two neighbours of
        # the insertion point can overlap the freed range or touch it.
        if i:
            prev_start, prev_length = free[i - 1]
            assert prev_start + prev_length <= offset, "double free"
            if prev_start + prev_length == offset:
                i, start = i - 1, prev_start
        if j < len(free):
            next_start, next_length = free[j]
            assert end <= next_start, "double free"
            if next_start == end:
                j, end = j + 1, end + next_length
        free[i:j] = [[start, end - start]]
        if end - start > self.max_free:
            self.max_free = end - start

    def total_free(self) -> int:
        return sum(length for _, length in self._free)

    def free_extents(self) -> list[tuple[int, int]]:
        return [(off, length) for off, length in self._free]
