"""First-fit extent allocator used for both the cache and the object region."""

import random

import pytest

from vnvheap.freelist import FirstFitAllocator, align_up


def test_align_up():
    assert align_up(0) == 0
    assert align_up(1) == 4
    assert align_up(4) == 4
    assert align_up(5) == 8


def test_alloc_is_first_fit():
    a = FirstFitAllocator(0, 100)
    x = a.alloc(10)
    y = a.alloc(10)
    assert (x, y) == (0, 12)  # 10 rounds to a 12-byte extent
    a.free(x, 10)
    # the freed hole at 0 is the first fit for anything that fits it
    assert a.alloc(8) == 0


def test_free_coalesces_neighbours():
    a = FirstFitAllocator(0, 48)
    offs = [a.alloc(12) for _ in range(4)]
    assert a.total_free() == 0
    a.free(offs[1], 12)
    a.free(offs[3], 12)
    assert len(a.free_extents()) == 2
    a.free(offs[2], 12)  # bridges both holes
    assert a.free_extents() == [(12, 36)]
    a.free(offs[0], 12)
    assert a.free_extents() == [(0, 48)]


def test_alloc_exhaustion_returns_none():
    a = FirstFitAllocator(0, 16)
    assert a.alloc(16) == 0
    assert a.alloc(1) is None


def test_double_free_is_a_bug():
    a = FirstFitAllocator(0, 32)
    off = a.alloc(8)
    a.free(off, 8)
    with pytest.raises(AssertionError):
        a.free(off, 8)


@pytest.mark.parametrize("offset", [
    4,   # [4, 12) runs one word into the free extent from below
    12,  # [12, 20) starts one word before the free extent ends
])
def test_free_overlapping_a_free_extent_by_one_word_is_a_bug(offset):
    a = FirstFitAllocator(0, 32)
    offs = [a.alloc(8) for _ in range(4)]
    a.free(offs[1], 8)  # [8, 16) is the only free extent
    with pytest.raises(AssertionError, match="double free"):
        a.free(offset, 8)
    assert a.free_extents() == [(8, 8)]


def test_the_free_space_is_built_around_the_extents_in_use():
    a = FirstFitAllocator(100, 100, [(104, 8), (112, 5), (140, 60)])
    assert a.free_extents() == [(100, 4), (120, 20)]
    assert FirstFitAllocator(0, 64, [(0, 64)]).free_extents() == []
    assert FirstFitAllocator(0, 64).free_extents() == [(0, 64)]


def test_randomized_against_byte_map_oracle():
    """Every byte is either inside exactly one live allocation or free.

    The oracle is a plain byte-occupancy array updated alongside the
    allocator; after every operation the allocator's free extents must
    describe exactly the unoccupied bytes.
    """
    rng = random.Random(0xF1EE)
    size = 256
    a = FirstFitAllocator(0, size)
    occupied = bytearray(size)  # 1 = allocated
    live: list[tuple[int, int]] = []

    def check():
        free_from_oracle = []
        i = 0
        while i < size:
            if occupied[i]:
                i += 1
                continue
            j = i
            while j < size and not occupied[j]:
                j += 1
            free_from_oracle.append((i, j - i))
            i = j
        assert a.free_extents() == free_from_oracle
        assert a.total_free() == sum(length for _, length in free_from_oracle)
        # alloc fails without a scan above this bound, so it must hold
        assert a.max_free >= max((length for _, length in free_from_oracle), default=0)

    for _ in range(2000):
        if live and rng.random() < 0.45:
            off, n = live.pop(rng.randrange(len(live)))
            span = a.freed_span(off, n)
            a.free(off, n)
            block = align_up(n)
            occupied[off : off + block] = bytes(block)
            # freed_span named, before the free, the oracle's free run that
            # now holds the block
            lo, hi = off, off + block
            while lo > 0 and not occupied[lo - 1]:
                lo -= 1
            while hi < size and not occupied[hi]:
                hi += 1
            assert span == (lo, hi)
        else:
            n = rng.randint(1, 40)
            off = a.alloc(n)
            block = align_up(n)
            if off is None:
                # no free run of the byte map is long enough
                assert bytes(block) not in occupied
            else:
                assert off % 4 == 0
                assert not any(occupied[off : off + block])
                occupied[off : off + block] = b"\x01" * block
                live.append((off, n))
        check()


def test_claim_span_is_free_then_first_fit():
    """A span planned with ``freed_span`` over a run of adjacent blocks, then
    claimed, leaves the same free extents and offset as freeing the run and
    allocating first fit, whenever nothing outside the span fits."""
    rng = random.Random(0xC1A1)
    compared = 0
    for _ in range(300):
        a = FirstFitAllocator(0, 512)
        live = []
        while (off := a.alloc(n := rng.randint(1, 40))) is not None:
            live.append((off, n))
        for off, n in rng.sample(live, len(live) // 3):
            a.free(off, n)
            live.remove((off, n))
        live.sort()
        i = rng.randrange(len(live))
        run = live[i : i + rng.randint(1, 4)]
        start, end = a.freed_span(*run[0])
        for off, n in run[1:]:
            if off != end:  # a free extent must not separate the run
                break
            lo, hi = a.freed_span(off, n)
            start, end = min(start, lo), max(end, hi)
        else:
            block = align_up(rng.randint(1, end - start))
            if any(length >= block for _, length in a.free_extents()):
                continue
            twin = FirstFitAllocator(0, 512)
            twin._free = [list(ext) for ext in a._free]
            for off, n in run:
                twin.free(off, n)
            assert a.claim_span(start, end, block) == twin.alloc(block) == start
            assert a.free_extents() == twin.free_extents()
            compared += 1
    assert compared >= 50
