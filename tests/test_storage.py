"""Word-granular storage devices: metering, bounds, and power-failure injection."""

from array import array

import pytest

from vnvheap import (
    ConfigInvalidError,
    EnergyModel,
    FileBackedNvm,
    OutOfRangeError,
    PowerFailureInjected,
    PreconditionError,
    SimulatedNvm,
    StorageDevice,
    WORD_BYTES,
    words_for,
)


def test_words_for_rounds_up():
    assert words_for(0) == 0
    assert words_for(1) == 1
    assert words_for(4) == 1
    assert words_for(5) == 2
    # oracle: count 4-byte chunks directly
    for n in range(0, 64):
        assert words_for(n) == len(range(0, n, WORD_BYTES))


@pytest.mark.parametrize("value", [-5.0, -1e-9, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["power_milliwatts", "word_transfer_seconds"])
def test_an_energy_model_refuses_a_negative_or_non_finite_value(field, value):
    with pytest.raises(ConfigInvalidError, match=field):
        EnergyModel(**{field: value})


def test_an_energy_model_of_zero_costs_nothing():
    assert EnergyModel(0.0, 0.0).energy_uj(516) == 0.0


def test_read_write_round_trip_and_meter():
    dev = SimulatedNvm(1024)
    dev.write(100, b"hello world!")  # 12 B -> 3 words
    assert dev.read(100, 12) == b"hello world!"
    assert dev.cost_meter.words_written == 3
    assert dev.cost_meter.words_read == 3
    assert dev.cost_meter.words_total == 6


def test_unaligned_partial_word_transfers_count_one_word():
    dev = SimulatedNvm(1024)
    dev.write(7, b"ab")
    assert dev.cost_meter.words_written == 1
    dev.read(3, 1)
    assert dev.cost_meter.words_read == 1


def test_zero_length_transfers_are_free():
    dev = SimulatedNvm(1024)
    dev.write(10, b"")
    assert dev.read(10, 0) == b""
    assert dev.cost_meter.words_total == 0


def test_bounds_are_enforced():
    dev = SimulatedNvm(64)
    with pytest.raises(OutOfRangeError):
        dev.read(60, 5)
    with pytest.raises(OutOfRangeError):
        dev.write(64, b"x")
    with pytest.raises(OutOfRangeError):
        dev.read(-1, 1)


def test_meter_reset_and_snapshot():
    dev = SimulatedNvm(64)
    dev.write(0, b"abcd")
    assert dev.cost_meter.snapshot() == (0, 1)
    dev.cost_meter.reset()
    assert dev.cost_meter.snapshot() == (0, 0)


class TestPowerFailureInjection:
    def test_budget_counts_down_per_word(self):
        dev = SimulatedNvm(1024)
        dev.arm_power_failure(3)
        dev.write(0, b"x" * 8)  # 2 words
        assert dev.remaining_budget_words == 1
        dev.read(0, 4)  # 1 word
        assert dev.remaining_budget_words == 0

    def test_a_negative_budget_is_a_precondition_error(self):
        dev = SimulatedNvm(1024)
        with pytest.raises(PreconditionError):
            dev.arm_power_failure(-1)
        assert not dev.armed

    def test_failure_fires_on_the_word_after_the_budget(self):
        dev = SimulatedNvm(1024)
        dev.write(0, bytes(16))
        dev.arm_power_failure(2)
        with pytest.raises(PowerFailureInjected):
            dev.write(0, b"A" * 16)  # 4 words, budget for 2

    def test_durable_prefix_is_exactly_the_budget(self):
        """The first ``budget`` words land; the failing word is untouched."""
        dev = SimulatedNvm(1024)
        dev.write(0, b"." * 16)
        dev.arm_power_failure(2)
        with pytest.raises(PowerFailureInjected):
            dev.write(0, b"ABCDEFGHIJKLMNOP")
        dev.disarm_power_failure()
        assert dev.read(0, 16) == b"ABCDEFGH" + b"." * 8

    def test_word_writes_are_atomic_never_torn(self):
        # A failure can only fall between words; re-check every cut point.
        for budget in range(4):
            dev = SimulatedNvm(64)
            dev.write(0, b"...." * 4)
            dev.arm_power_failure(budget)
            try:
                dev.write(0, b"WXYZ" * 4)
            except PowerFailureInjected:
                pass
            dev.disarm_power_failure()
            got = dev.read(0, 16)
            for w in range(4):
                chunk = got[w * 4 : w * 4 + 4]
                assert chunk in (b"WXYZ", b"...."), (budget, got)
            assert got == b"WXYZ" * budget + b"...." * (4 - budget)

    def test_reads_consume_budget_too(self):
        dev = SimulatedNvm(1024)
        dev.arm_power_failure(1)
        dev.read(0, 4)
        with pytest.raises(PowerFailureInjected):
            dev.read(0, 4)

    def test_disarm_restores_bulk_behaviour(self):
        dev = SimulatedNvm(1024)
        dev.arm_power_failure(0)
        dev.disarm_power_failure()
        dev.write(0, b"x" * 128)
        assert not dev.armed
        assert dev.remaining_budget_words is None

    def test_armed_unaligned_transfers_move_exactly_the_budget(self):
        """Words count from the transfer's own offset, not from word-aligned
        addresses; the durable prefix is the first ``budget`` of them."""
        data = b"ABCDEFGHIJKLMN"  # 14 B at offset 5: 4 words, the last partial
        for budget in range(6):
            dev = SimulatedNvm(64)
            dev.write(0, b"." * 64)
            dev.arm_power_failure(budget)
            if budget < 4:
                with pytest.raises(PowerFailureInjected):
                    dev.write(5, data)
            else:
                dev.write(5, data)
            assert dev.remaining_budget_words == max(budget - 4, 0)
            assert dev.cost_meter.words_written == 16 + min(budget, 4)
            kept = data[: budget * WORD_BYTES]
            dev.disarm_power_failure()
            assert dev.read(0, 64) == b"." * 5 + kept + b"." * (59 - len(kept))

            dev.cost_meter.reset()
            dev.arm_power_failure(budget)
            if budget < 4:
                with pytest.raises(PowerFailureInjected):
                    dev.read(5, len(data))
            else:
                assert dev.read(5, len(data)) == data
            assert dev.remaining_budget_words == max(budget - 4, 0)
            assert dev.cost_meter.words_read == min(budget, 4)

    def test_metering_stops_at_the_failure(self):
        dev = SimulatedNvm(1024)
        dev.arm_power_failure(2)
        with pytest.raises(PowerFailureInjected):
            dev.write(0, bytes(16))
        assert dev.cost_meter.words_written == 2


@pytest.mark.parametrize("kind", ["simulated", "file"])
def test_power_failed_is_set_by_a_cut_and_cleared_only_by_reopen(kind, tmp_path):
    def make():
        if kind == "simulated":
            return SimulatedNvm(256)
        return FileBackedNvm(tmp_path / "nvm.img", capacity_bytes=256)

    dev = make()
    dev.arm_power_failure(0)
    assert not dev.power_failed
    dev.disarm_power_failure()
    assert not dev.power_failed

    for cut in (lambda d: d.read(0, 8), lambda d: d.write(0, bytes(8))):
        dev = make()
        dev.arm_power_failure(1)
        with pytest.raises(PowerFailureInjected):
            cut(dev)
        assert dev.power_failed
        dev.disarm_power_failure()
        assert dev.power_failed
        dev = dev.reopen()
        assert not dev.power_failed
        if kind == "file":
            dev.close()


def test_simulated_reopen_preserves_bytes_fresh_meter():
    dev = SimulatedNvm(256)
    dev.write(12, b"persist me")
    dev2 = dev.reopen()
    assert dev2.cost_meter.words_total == 0
    assert dev2.read(12, 10) == b"persist me"
    # reopened device is an independent snapshot
    dev2.write(12, b"XXXXXXXXXX")
    assert dev.read(12, 10) == b"persist me"


def test_file_backed_round_trip(tmp_path):
    path = tmp_path / "nvm.img"
    dev = FileBackedNvm(path, capacity_bytes=4096)
    dev.write(1000, b"durable")
    dev.close()
    dev2 = FileBackedNvm(path, capacity_bytes=4096)
    assert dev2.read(1000, 7) == b"durable"
    dev2.close()


def test_file_backed_zero_extends_short_image(tmp_path):
    path = tmp_path / "short.img"
    path.write_bytes(b"\xff" * 10)
    dev = FileBackedNvm(path, capacity_bytes=128)
    assert dev.read(0, 10) == b"\xff" * 10
    assert dev.read(10, 118) == bytes(118)
    dev.close()


def test_file_backed_longer_image_wins_capacity(tmp_path):
    path = tmp_path / "long.img"
    path.write_bytes(bytes(2000) + b"tail")
    dev = FileBackedNvm(path, capacity_bytes=128)
    assert dev.capacity_bytes == 2004
    assert dev.read(2000, 4) == b"tail"
    dev.write(2000, b"TAIL")
    dev.close()
    assert path.read_bytes() == bytes(2000) + b"TAIL"


def test_file_backed_writes_reach_the_file_by_close_and_by_reopen(tmp_path):
    """The device maps its image: what it stores is in the file, as a plain
    read sees it, once the device is closed or rebooted."""
    path = tmp_path / "nvm.img"
    dev = FileBackedNvm(path, capacity_bytes=64)
    dev.write(8, b"closed")
    dev.close()
    assert path.read_bytes() == bytes(8) + b"closed" + bytes(50)
    dev = FileBackedNvm(path, capacity_bytes=64)
    dev.write(20, b"reopened")
    dev2 = dev.reopen()
    with open(path, "rb") as f:
        assert f.read() == bytes(8) + b"closed" + bytes(6) + b"reopened" + bytes(36)
    assert dev2.read(20, 8) == b"reopened"
    dev2.close()


def test_a_transfer_on_a_closed_file_device_raises_and_meters_nothing(tmp_path):
    dev = FileBackedNvm(tmp_path / "nvm.img", capacity_bytes=64)
    dev.close()
    dev.close()  # closing twice is harmless
    with pytest.raises(PreconditionError):
        dev.read(0, 4)
    with pytest.raises(PreconditionError):
        dev.write(0, b"abcd")
    assert dev.cost_meter.snapshot() == (0, 0)


def test_one_transfer_path_serves_every_device():
    """``read`` and ``write`` live in ``StorageDevice`` alone; a device
    supplies only its buffer."""
    for cls in (SimulatedNvm, FileBackedNvm):
        assert "read" not in vars(cls) and "write" not in vars(cls)
        assert cls.read is StorageDevice.read and cls.write is StorageDevice.write


# -- the transfer contract: any byte buffer in, read during the call only ------------

@pytest.fixture(params=["simulated", "file"])
def device(request, tmp_path):
    if request.param == "simulated":
        yield SimulatedNvm(256)
    else:
        dev = FileBackedNvm(tmp_path / "nvm.img", capacity_bytes=256)
        yield dev
        dev.close()


BUFFERS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(bytearray(data)),
}


@pytest.mark.parametrize("kind", list(BUFFERS))
def test_write_takes_any_byte_buffer(device, kind):
    """bytes, a bytearray and a 'B' memoryview land the same bytes and
    meter the same words, unaligned and partial-word too."""
    data = bytes(range(1, 15))  # 14 B at offset 5: 4 words
    device.write(5, BUFFERS[kind](data))
    assert device.cost_meter.words_written == 4
    assert device.read(0, 24) == bytes(5) + data + bytes(5)


@pytest.mark.parametrize("kind", ["bytearray", "memoryview"])
def test_a_buffer_changed_after_write_returns_leaves_the_device_alone(device, kind):
    backing = bytearray(b"ABCDEFGH")
    device.write(8, backing if kind == "bytearray" else memoryview(backing))
    backing[:] = b"xxxxxxxx"
    assert device.read(8, 8) == b"ABCDEFGH"


@pytest.mark.parametrize("kind", list(BUFFERS))
def test_an_armed_write_of_a_buffer_lands_exactly_its_durable_prefix(device, kind):
    device.write(0, b"." * 16)
    device.arm_power_failure(2)
    with pytest.raises(PowerFailureInjected):
        device.write(0, BUFFERS[kind](b"ABCDEFGHIJKLMNOP"))
    device.disarm_power_failure()
    assert device.cost_meter.words_written == 4 + 2
    assert device.read(0, 16) == b"ABCDEFGH" + b"." * 8


def test_read_returns_bytes(device):
    device.write(0, bytearray(b"abcd"))
    got = device.read(0, 4)
    assert type(got) is bytes and got == b"abcd"
    assert type(device.read(0, 0)) is bytes


@pytest.mark.parametrize("budget", [None, 1, 8])
@pytest.mark.parametrize("items", [[1, 2], [1, 2, 3, 4, 5]])
def test_a_buffer_the_store_refuses_is_a_precondition_error_that_moves_nothing(device, items, budget):
    """A memoryview of another format than 'B' has ``len`` in elements, not
    bytes. Unarmed, armed with room, or armed to cut it (1 word of 2), the
    write raises PreconditionError, meters no word, spends no budget and
    stores nothing."""
    device.write(0, b"." * 32)
    if budget is not None:
        device.arm_power_failure(budget)
    with pytest.raises(PreconditionError):
        device.write(4, memoryview(array("I", items)))
    assert device.cost_meter.snapshot() == (0, 8)
    assert device.remaining_budget_words == budget
    assert not device.power_failed
    device.disarm_power_failure()
    assert device.read(0, 32) == b"." * 32
