"""Baseline systems: the paged write-back pool, whole-module swapping, and
unmanaged RAM checkpoints."""

import random

import pytest

from vnvheap.baselines import (
    MS_PAGE_SIZES,
    ManagedStatePool,
    ModuleSwapApp,
    UnmanagedRam,
)
from vnvheap.errors import (
    DirtyBudgetUnsatisfiableError,
    GuardReleasedError,
    OutOfRangeError,
    PreconditionError,
)
from vnvheap.storage import SimulatedNvm, words_for


def make_pool(ram=1024, page=64, limit=4):
    dev = SimulatedNvm(8192)
    return dev, ManagedStatePool(dev, ram, page, dirty_page_limit=limit)


class TestPoolDirtyTracking:
    def test_read_open_dirties_nothing(self):
        _, pool = make_pool()
        with pool.open(0, 300, "read") as t:
            assert t.read() == bytes(300)
        assert pool.dirty_pages == []

    def test_one_byte_write_dirties_one_page(self):
        _, pool = make_pool(page=64)
        pool.open(130, 1, "write").close()
        assert pool.dirty_pages == [2]

    def test_boundary_spanning_write_dirties_two_pages(self):
        _, pool = make_pool(page=64)
        pool.open(63, 2, "write").close()
        assert pool.dirty_pages == [0, 1]

    def test_page_aligned_write_dirties_exactly_its_pages(self):
        _, pool = make_pool(page=64)
        pool.open(64, 128, "write").close()
        assert pool.dirty_pages == [1, 2]

    def test_zero_length_write_dirties_nothing(self):
        _, pool = make_pool()
        pool.open(10, 0, "write").close()
        assert pool.dirty_pages == []

    def test_single_access_beyond_limit_rejected(self):
        _, pool = make_pool(ram=1024, page=64, limit=3)
        with pytest.raises(DirtyBudgetUnsatisfiableError):
            pool.open(0, 64 * 4, "write")

    def test_least_recently_dirtied_page_written_back_first(self):
        dev, pool = make_pool(ram=1024, page=64, limit=2)
        pool.open(0 * 64, 1, "write").close()    # page 0
        pool.open(5 * 64, 1, "write").close()    # page 5
        written = dev.cost_meter.words_written
        pool.open(7 * 64, 1, "write").close()    # page 7 evicts page 0
        assert dev.cost_meter.words_written - written == words_for(64)
        assert pool.dirty_pages == [5, 7]

    def test_redirty_refreshes_eviction_order(self):
        dev, pool = make_pool(ram=1024, page=64, limit=2)
        token = pool.open(0, 64, "write")
        token.write(b"\xaa" * 64)
        token.close()
        pool.open(5 * 64, 1, "write").close()
        pool.open(0, 1, "write").close()         # page 0 becomes most recent
        pool.open(7 * 64, 1, "write").close()    # so page 5 is the victim
        assert pool.dirty_pages == [0, 7]
        # page 0's new content stays RAM-only until it is written back
        assert dev.read(0, 64) == bytes(64)
        assert pool.ram[0:64] == b"\xaa" * 64


class TestPoolTokens:
    def test_write_via_read_token_rejected(self):
        _, pool = make_pool()
        with pool.open(0, 8, "read") as t, pytest.raises(PreconditionError):
            t.write(b"x")

    def test_double_close(self):
        _, pool = make_pool()
        t = pool.open(0, 8, "read")
        t.close()
        with pytest.raises(GuardReleasedError):
            t.close()
        with pytest.raises(GuardReleasedError):
            t.read()

    def test_access_bounds(self):
        _, pool = make_pool()
        t = pool.open(10, 8, "write")
        with pytest.raises(OutOfRangeError):
            t.read(0, 9)
        with pytest.raises(OutOfRangeError):
            t.write(b"123456789")
        with pytest.raises(OutOfRangeError):
            pool.open(1020, 8, "read")
        t.close()

    def test_unknown_mode(self):
        _, pool = make_pool()
        with pytest.raises(PreconditionError):
            pool.open(0, 1, "rw")

    def test_a_non_byte_buffer_is_written_by_its_bytes(self):
        # A view of 32-bit items has 2 items but 8 bytes: the pool's RAM
        # keeps its size and takes the 8 bytes.
        _, pool = make_pool(ram=256)
        with pool.open(0, 8, "write") as t:
            t.write(memoryview(bytes(range(8))).cast("I"))
        assert len(pool.ram) == 256
        assert pool.ram[:9] == bytes(range(8)) + b"\0"

    def test_token_window_is_relative(self):
        _, pool = make_pool()
        with pool.open(100, 16, "write") as t:
            t.write(b"hello", at=3)
            assert t.read(3, 5) == b"hello"
        with pool.open(103, 5, "read") as t:
            assert t.read() == b"hello"


class TestPoolCheckpoint:
    def test_cost_is_dirty_pages_plus_bitmap(self):
        _, pool = make_pool(ram=1024, page=64, limit=4)
        pool.open(0, 1, "write").close()
        pool.open(200, 1, "write").close()
        words = pool.checkpoint()
        assert words == 2 * words_for(64) + words_for(pool.page_count)
        assert pool.dirty_pages == []

    def test_clean_checkpoint_still_pays_the_bitmap(self):
        _, pool = make_pool(ram=1024, page=64)
        assert pool.checkpoint() == words_for(16)

    def test_bound(self):
        _, pool = make_pool(ram=1024, page=64, limit=4)
        assert pool.checkpoint_bound_words() == words_for(4 * 64 + 16)
        for p in range(4):
            pool.open(p * 64, 1, "write").close()
        assert pool.checkpoint() == pool.checkpoint_bound_words()

    def test_metadata_is_one_byte_per_page(self):
        _, pool = make_pool(ram=1024, page=64)
        assert pool.metadata_bytes == 16
        _, pool = make_pool(ram=1000, page=64)
        assert pool.metadata_bytes == 16  # partial trailing page still counts

    def test_randomized_content_reaches_device_by_checkpoint(self):
        rng = random.Random(99)
        dev, pool = make_pool(ram=2048, page=32, limit=5)
        shadow = bytearray(2048)
        for _ in range(300):
            off = rng.randrange(0, 2040)
            n = rng.randint(1, min(2048 - off, 5 * 32))
            data = bytes(rng.randrange(256) for _ in range(n))
            first, last = off // 32, (off + n - 1) // 32
            if last - first + 1 > 5:
                continue
            with pool.open(off, n, "write") as t:
                t.write(data)
            shadow[off : off + n] = data
            with pool.open(off, n, "read") as t:
                assert t.read() == data
        pool.checkpoint()
        assert dev.read(0, 2048) == bytes(shadow)


class TestModuleSwap:
    def test_active_module_access_is_free(self):
        dev = SimulatedNvm(16384)
        app = ModuleSwapApp(dev, module_count=3)
        before = dev.cost_meter.snapshot()
        app.write(0, 0, b"abc")
        assert app.read(0, 0, 3) == b"abc"
        assert dev.cost_meter.snapshot() == before

    def test_swap_costs_a_full_writeback_plus_load(self):
        dev = SimulatedNvm(16384)
        app = ModuleSwapApp(dev, module_count=3)
        r0, w0 = dev.cost_meter.snapshot()
        app.read(1, 0, 8)
        r1, w1 = dev.cost_meter.snapshot()
        assert (r1 - r0, w1 - w0) == (256, 256)  # 1 KiB out, 1 KiB in

    def test_content_survives_swapping(self):
        dev = SimulatedNvm(16384)
        app = ModuleSwapApp(dev, module_count=2)
        app.write(0, 10, b"zero")
        app.write(1, 10, b"one!")   # swaps module 0 out
        assert app.read(0, 10, 4) == b"zero"
        assert app.read(1, 10, 4) == b"one!"


    def test_a_non_byte_buffer_leaves_the_next_module_alone(self):
        dev = SimulatedNvm(16384)
        app = ModuleSwapApp(dev, module_count=2)
        app.write(1, 0, b"neighbour!")
        app.write(0, 0, memoryview(bytes(range(8))).cast("I"))  # 2 items, 8 bytes
        assert len(app.ram) == ModuleSwapApp.MODULE_SIZE
        assert app.read(1, 0, 10) == b"neighbour!"  # the swap wrote one module
        assert app.read(0, 0, 9) == bytes(range(8)) + b"\0"


    @pytest.mark.parametrize("call", [
        lambda app: app.read(2, 0, 1),
        lambda app: app.write(-1, 0, b"x"),
        lambda app: app.read(0, -1, 1),
        lambda app: app.read(0, 1021, 4),
        lambda app: app.write(0, -1, b"x"),
        lambda app: app.write(0, 1021, b"four"),
    ], ids=["read-module-past-last", "write-module-negative", "read-offset-negative",
            "read-one-byte-past", "write-offset-negative", "write-one-byte-past"])
    def test_an_access_outside_the_modules_is_refused_and_moves_nothing(self, call):
        dev = SimulatedNvm(16384)
        app = ModuleSwapApp(dev, module_count=2)
        app.write(0, 1020, b"keep")
        before = dev.cost_meter.snapshot()
        with pytest.raises(OutOfRangeError):
            call(app)
        assert dev.cost_meter.snapshot() == before
        assert app.active == 0
        assert app.read(0, 1020, 4) == b"keep"


class TestUnmanagedRam:
    def test_checkpoint_is_whole_ram(self):
        for ram in (4096, 8192, 10000):
            dev = SimulatedNvm(2 * ram + 64)
            base = UnmanagedRam(dev, ram)
            assert base.checkpoint() == words_for(ram)

    def test_content_round_trip(self):
        dev = SimulatedNvm(16384)
        base = UnmanagedRam(dev, 4096)
        base.ram[100:105] = b"State"
        base.checkpoint()
        assert dev.read(100, 5) == b"State"


def test_page_size_catalog():
    assert MS_PAGE_SIZES == (32, 64, 128, 256, 512)
    dev = SimulatedNvm(8192)
    with pytest.raises(PreconditionError):
        ManagedStatePool(dev, 1024, 48, dirty_page_limit=2)
    with pytest.raises(PreconditionError):
        ManagedStatePool(dev, 1024, 64, dirty_page_limit=0)


@pytest.mark.parametrize("call, message", [
    (lambda app, pool: app.read(0, 0, -1), "read outside the module"),
    (lambda app, pool: app.read(0, 10, -5), "read outside the module"),
    (lambda app, pool: app.read(0, 1024, 1), "read outside the module"),
    (lambda app, pool: app.write(0, 1024, b"x"), "write outside the module"),
    (lambda app, pool: pool.open(0, -1), "region outside the pool"),
    (lambda app, pool: pool.open(-1, 1), "region outside the pool"),
    (lambda app, pool: pool.open(8, 8).read(4, -1), "read outside the opened region"),
    (lambda app, pool: pool.open(8, 8).read(-1), "read outside the opened region"),
    (lambda app, pool: pool.open(8, 8, "write").write(b"x", -1),
     "write outside the opened region"),
    (lambda app, pool: pool.open(8, 8, "write").write(b"x", 8),
     "write outside the opened region"),
], ids=["module-read-length-minus-1", "module-read-length-minus-5", "module-read-past-end",
        "module-write-past-end", "pool-open-negative-length", "pool-open-negative-offset",
        "token-read-negative-length", "token-read-negative-offset",
        "token-write-negative-offset", "token-write-past-end"])
def test_a_region_outside_its_range_is_refused_with_its_message(call, message):
    """Every baseline refuses a negative offset, a negative length and a
    region past its end alike, each with the message of the access."""
    dev = SimulatedNvm(16384)
    app = ModuleSwapApp(dev, module_count=2)
    pool = ManagedStatePool(SimulatedNvm(8192), 1024, 64, dirty_page_limit=4)
    with pytest.raises(OutOfRangeError, match=f"^{message}$"):
        call(app, pool)


def test_a_pool_may_hold_a_single_dirty_page():
    """The least limit a pool accepts is one page: dirtying a second page
    writes the first back."""
    dev, pool = make_pool(limit=1)
    with pool.open(0, 8, "write") as t:
        t.write(b"a" * 8)
    with pool.open(64, 8, "write") as t:
        t.write(b"b" * 8)
    assert pool.dirty_pages == [1]
    assert dev.read(0, 8) == b"a" * 8


@pytest.mark.parametrize("call", [
    lambda app: app.read(1, 1021, 4),
    lambda app: app.read(1, 0, -1),
    lambda app: app.write(1, 1021, b"four"),
], ids=["read-past-end", "read-negative-length", "write-past-end"])
def test_a_refused_access_to_the_inactive_module_swaps_nothing(call):
    """The range is checked before the swap, so a refused access to the
    module that is not in RAM moves no word and keeps the active module."""
    dev = SimulatedNvm(16384)
    app = ModuleSwapApp(dev, module_count=2)
    with pytest.raises(OutOfRangeError):
        call(app)
    assert dev.cost_meter.snapshot() == (0, 0)
    assert app.active == 0
