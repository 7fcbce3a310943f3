"""Seeded random traces with full invariant checks after every operation."""

import pytest

from vnvheap.oracle import TraceMachine


@pytest.mark.parametrize("seed", [1, 7, 0xBEEF, 20240811])
def test_trace_invariants_hold(seed):
    m = TraceMachine(seed)
    m.run(350)


@pytest.mark.parametrize("seed", [3, 11])
def test_trace_with_power_cycles(seed):
    m = TraceMachine(seed)
    for _ in range(4):
        m.run(80)
        m.power_cycle()


def test_trace_tiny_configuration():
    # a cramped heap exercises eviction and budget churn constantly
    m = TraceMachine(99, cache=256, dirty=128, max_objects=8, capacity=16 * 1024)
    m.run(500)
    m.power_cycle()


def test_trace_generous_configuration():
    m = TraceMachine(5, cache=8192, dirty=8192, max_objects=64)
    m.run(300)
    m.power_cycle()


def test_every_step_is_charged_exactly_what_the_next_persist_writes():
    """Cache 1024, limit 512, 32 slots: every step checks that the dirty
    total is exactly 4 bytes per word of the next persist, plus 3 words. A
    dealloc writes its entry's death stamp at once and owes the next persist
    nothing, so a heap that charged the dealloc of a clean object would fail
    at the first such dealloc."""
    m = TraceMachine(2, cache=1024, dirty=512, max_objects=32)
    m.run(1000)


def test_check_holds_each_pin_count_to_the_machines_guards():
    """The full check fails when an object's pin count is not the number of
    read guards the machine holds on it, or -1 under its write guard."""
    m = TraceMachine(1)
    for hid in (1, 2):
        payload = bytes([hid]) * 8
        h = m.heap.alloc(payload)
        m.shadow[h.id], m.handles[h.id] = bytearray(payload), h
    for hid, take, writable in ((1, m.heap.get_ref, False), (1, m.heap.get_ref, False),
                                (2, m.heap.get_mut, True)):
        g = take(m.handles[hid])
        m.guards.append((hid, g, writable, m.heap._metas[hid].cache_offset))
    m.check()
    for hid, wrong in ((1, 1), (1, -1), (2, 1), (2, 0)):
        meta = m.heap._metas[hid]
        right, meta.pin_count = meta.pin_count, wrong
        with pytest.raises(AssertionError, match="pin count"):
            m.check()
        meta.pin_count = right
    m.check()


def test_check_holds_each_block_to_its_size_and_the_cache():
    """The full check fails when an object's block or charge is not its
    size aligned with and without the meta charge, or when its block ends
    past the cache, even with the payload inside it."""
    m = TraceMachine(1)
    payload = bytes(8)
    h = m.heap.alloc(payload)
    m.shadow[h.id], m.handles[h.id] = bytearray(payload), h
    m.check()
    meta = m.heap._metas[h.id]
    for field, wrong, match in (("block_bytes", 8, "has block"),
                                ("charge", 12, "has block"),
                                ("cache_offset", m.cache - 8, "ends past the cache")):
        right = getattr(meta, field)
        setattr(meta, field, wrong)
        with pytest.raises(AssertionError, match=match):
            m.check()
        setattr(meta, field, right)
    m.check()


@pytest.mark.parametrize("written", [False, True], ids=["untouched", "written"])
def test_a_cut_holds_each_payload_not_written_since_the_commit(written):
    """After a cut, restore must return byte for byte every committed
    payload not written since the commit. One byte of object 1 is flipped
    on the device, past the meter, and a power cut is drawn: the check
    fails naming object 1, unless the machine counts it as written since
    the commit, whose write-back a cut may tear. Then the restored bytes
    are the commit the next cut is judged against."""
    m = TraceMachine(2)  # its first drawn budget, 0, cuts the persist
    m._cut_ops = ["op_persist"]  # nothing is modified, so no payload is written
    for hid in (1, 2):
        payload = bytes([hid]) * 8
        h = m.heap.alloc(payload)
        m.shadow[h.id], m.handles[h.id] = bytearray(payload), h
    m.persist()
    if written:
        m.written.add(1)
    m.dev._buf[m.handles[1].nvm_offset] ^= 0xFF
    booted = m.dev
    if written:
        m.op_power_cut()
        torn = {1: b"\xfe" + bytes([1]) * 7, 2: bytes([2]) * 8}
        assert m.shadow == m.committed == torn and not m.written
    else:
        with pytest.raises(AssertionError, match="object 1 restored other bytes"):
            m.op_power_cut()
    assert m.dev is not booted
