"""Guard semantics: shared readers, exclusive writer, pinning, use-after-release."""

import pytest

from vnvheap import (
    GuardActiveError,
    GuardReleasedError,
    PreconditionError,
    ReadGuard,
    SimulatedNvm,
    StillPinnedError,
    VnvHeap,
    WriteGuardActiveError,
)


@pytest.fixture
def heap():
    return VnvHeap(SimulatedNvm(128 * 1024), max_objects=64)


def test_many_read_guards_coexist(heap):
    h = heap.alloc(b"shared" * 10)
    guards = [heap.get_ref(h) for _ in range(5)]
    assert all(g.read(0, 6) == b"shared" for g in guards)
    assert heap.object_info(h).pinned
    for g in guards:
        g.release()
    assert not heap.object_info(h).pinned


def test_write_guard_is_exclusive_with_readers(heap):
    h = heap.alloc(b"x" * 16)
    r = heap.get_ref(h)
    with pytest.raises(GuardActiveError):
        heap.get_mut(h)
    r.release()
    w = heap.get_mut(h)
    with pytest.raises(WriteGuardActiveError):
        heap.get_ref(h)
    with pytest.raises(GuardActiveError):
        heap.get_mut(h)
    w.release()
    heap.get_ref(h).release()


def test_write_guard_mutates_and_dirties(heap):
    h = heap.alloc(b"\x00" * 32)
    heap.sync_object(h)
    base = heap.dirty_bytes
    with heap.get_mut(h) as w:
        w.write(b"\xff" * 4, offset=28)
    assert heap.dirty_bytes == base + 32  # whole object charged
    with heap.get_ref(h) as r:
        assert r.read(28, 4) == b"\xff" * 4
        assert r.read(0, 4) == b"\x00" * 4


def test_write_from_a_bytearray_or_memoryview_lands_byte_for_byte(heap):
    h = heap.alloc(bytes(16))
    source = bytearray(b"abcd")
    with heap.get_mut(h) as w:
        w.write(source, offset=1)
        source[:] = b"zzzz"  # the object holds the bytes as they were
        w.write(memoryview(b"..WXYZ..")[2:6], offset=5)
        w.write(memoryview(b"\x01\x02\x03\x04").cast("H"), offset=9)  # 2 items, 4 bytes
        w.write(w.data[1:4], offset=13)  # a view of the object itself
    with heap.get_ref(h) as r:
        assert r.read() == b"\x00abcdWXYZ\x01\x02\x03\x04abc"


def test_read_guard_view_is_immutable(heap):
    h = heap.alloc(b"abcd")
    with heap.get_ref(h) as g:
        with pytest.raises(TypeError):
            g.data[0] = 0x7A


def test_guard_read_write_bounds(heap):
    h = heap.alloc(b"0123456789")
    with heap.get_ref(h) as g:
        with pytest.raises(PreconditionError):
            g.read(8, 4)
        with pytest.raises(PreconditionError):
            g.read(-1, 2)
    with heap.get_mut(h) as w:
        with pytest.raises(PreconditionError):
            w.write(b"xyz", offset=8)


def test_use_after_release_fails_loudly(heap):
    h = heap.alloc(b"gone")
    g = heap.get_ref(h)
    view = g.data
    g.release()
    with pytest.raises(GuardReleasedError):
        g.read()
    with pytest.raises(GuardReleasedError):
        g.data
    with pytest.raises(GuardReleasedError):
        g.release()
    with pytest.raises(GuardReleasedError):
        with g:
            pass
    # even a stashed raw view is dead, not silently stale
    with pytest.raises(ValueError):
        view[0]
    w = heap.get_mut(h)
    w.release()
    with pytest.raises(GuardReleasedError):
        w.write(b"late")


def test_a_guard_released_without_its_view_taken_refuses_every_use(heap):
    h = heap.alloc(b"none")
    for grant in (heap.get_ref, heap.get_mut):
        g = grant(h)
        g.release()
        assert g.released and not heap.object_info(h).pinned
        uses = [g.read, lambda: g.data, g.release, g.__enter__]
        if grant is heap.get_mut:
            uses.append(lambda: g.write(b"late"))
        for use in uses:
            with pytest.raises(GuardReleasedError):
                use()
        g.__exit__(None, None, None)  # a released guard's exit does nothing
    assert heap.read(h) == b"none"


def test_a_data_view_shows_the_writes_before_and_after_it_is_taken(heap):
    n = heap.alloc(b"neighbour")
    h = heap.alloc(b"0123456789")  # past the neighbour's block
    assert heap.object_info(h).cache_offset > 0
    with heap.get_mut(h) as w:
        w.write(b"ab", offset=2)
        view = w.data
        assert view.tobytes() == b"01ab456789"
        assert w.data is view  # taken once, kept
        w.write(b"XY", offset=8)
        assert view.tobytes() == b"01ab4567XY"
        view[0:1] = b"!"
        assert w.read() == b"!1ab4567XY"
    with heap.get_ref(h) as r:
        assert r.read(2, 2) == b"ab" and bytes(r.data) == b"!1ab4567XY"
    assert heap.read(n) == b"neighbour"


def test_stale_write_guard_view_cannot_touch_the_cache(heap):
    h = heap.alloc(b"safe")
    w = heap.get_mut(h)
    view = w.data
    w.release()
    with pytest.raises(ValueError):
        view[0] = 0x21


def test_one_release_serves_both_guard_kinds(heap):
    """A caller may bind ``ReadGuard.release`` once and call it on every
    guard, as the benchmark's bound calls do: the pin, not the class, tells
    a write guard's release from a read guard's."""
    h = heap.alloc(b"both")
    release = ReadGuard.release
    for _ in range(2):
        release(heap.get_mut(h))
        assert not heap.object_info(h).pinned
        guards = [heap.get_ref(h), heap.get_ref(h)]
        release(guards[0])
        assert heap.object_info(h).pinned and guards[1].read() == b"both"
        release(guards[1])
        assert not heap.object_info(h).pinned


def test_context_manager_releases_once(heap):
    h = heap.alloc(b"cm")
    with heap.get_ref(h) as g:
        g.release()  # explicit release inside the block is fine
    assert g.released


def test_pinned_object_keeps_its_address_under_pressure():
    heap = VnvHeap(SimulatedNvm(128 * 1024), cache_size_bytes=512,
                   max_modified_state_bytes=512, max_objects=16)
    h = heap.alloc(b"p" * 100)
    with heap.get_ref(h) as g:
        addr_before = heap.object_info(h).cache_offset
        heap.alloc(b"a" * 150)
        heap.alloc(b"b" * 150)  # churns the rest of the cache
        assert heap.object_info(h).cache_offset == addr_before
        assert g.read(0, 1) == b"p"


def test_dealloc_refuses_guarded_object(heap):
    h = heap.alloc(b"held")
    g = heap.get_ref(h)
    with pytest.raises(StillPinnedError):
        heap.dealloc(h)
    g.release()
    heap.dealloc(h)


def test_sync_refuses_write_guarded_object(heap):
    h = heap.alloc(b"w" * 8)
    w = heap.get_mut(h)
    with pytest.raises(GuardActiveError):
        heap.sync_object(h)
    w.release()
    heap.sync_object(h)


def test_guard_loads_swapped_out_object(heap):
    h = heap.alloc(b"far" * 20)
    heap.sync_object(h)
    heap.unload(h)
    reads_before = heap.device.cost_meter.words_read
    with heap.get_ref(h) as g:
        assert g.read(0, 3) == b"far"
    assert heap.device.cost_meter.words_read == reads_before + 15  # 60 B


def test_nested_guards_on_distinct_objects(heap):
    h1, h2 = heap.alloc(b"one"), heap.alloc(b"two")
    with heap.get_mut(h1) as w, heap.get_ref(h2) as r:
        w.write(r.read())  # copy two -> one
    with heap.get_ref(h1) as g:
        assert g.read() == b"two"
