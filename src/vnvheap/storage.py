"""Simulated non-volatile storage with a word-granular cost and failure model.

Every transfer moves 4-byte words: reading or writing ``n`` bytes costs
``ceil(n / 4)`` words, mirroring a transport that issues one bus transaction
per word. Word writes are atomic. A device can be armed with a transfer
budget; the transfer after the budget is exhausted raises
:class:`~vnvheap.errors.PowerFailureInjected`, leaving every word written
before it durable and the failing word untouched. The device then reports
``power_failed`` until ``reopen()``, the reboot, hands out a fresh one.

There is one transfer path, in :class:`StorageDevice`: ``write`` stores into
``_buf``, the device's bytes (a ``bytearray``, or the ``mmap`` of a file),
and ``read`` slices ``_view``, a memoryview of them. A transfer costs one
host copy. ``write`` takes any byte buffer (``bytes``, ``bytearray`` or a
``'B'`` memoryview) and reads it only during the call, so a caller may reuse
or mutate its buffer once ``write`` returns. ``read`` returns a fresh ``bytes``.

Each device's :class:`CostMeter` counts the words it moved, and
:class:`EnergyModel` is the one formula that turns words into time and
energy: the CSV columns and a persist's worst-case energy both use it.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass

from .errors import ConfigInvalidError, OutOfRangeError, PowerFailureInjected, PreconditionError

WORD_BYTES = 4

DEFAULT_CAPACITY_BYTES = 512 * 1024


def words_for(length_bytes: int) -> int:
    """Number of word transfers needed to move ``length_bytes`` bytes."""
    return (length_bytes + WORD_BYTES - 1) // WORD_BYTES


@dataclass(slots=True)
class CostMeter:
    """Counts word transfers performed by one device."""

    words_read: int = 0
    words_written: int = 0

    @property
    def words_total(self) -> int:
        return self.words_read + self.words_written

    def reset(self) -> None:
        self.words_read = 0
        self.words_written = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.words_read, self.words_written)


@dataclass(frozen=True)
class EnergyModel:
    """Worst-case transfer parameters, and the one words -> time -> energy formula."""

    power_milliwatts: float = 132.0
    word_transfer_seconds: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("power_milliwatts", "word_transfer_seconds"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigInvalidError(f"{name} must be finite and not negative, got {value}")

    def time_us(self, words: int) -> float:
        return words * self.word_transfer_seconds * 1e6

    def energy_uj(self, words: int) -> float:
        return self.time_us(words) * self.power_milliwatts / 1000.0  # mW * us = nJ


def wcec_millijoules(words: int, model: EnergyModel = EnergyModel()) -> float:
    """Energy to move ``words`` at the model's transfer latency and power."""
    return model.energy_uj(words) / 1000.0


class StorageDevice:
    """Bounds checks, metering, fault injection and the one transfer path. A
    subclass sets ``_buf``, ``capacity_bytes`` of writable bytes, and
    ``_view``, a memoryview of it that stays live while the device is open."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise OutOfRangeError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.cost_meter = CostMeter()
        self._budget_words: int | None = None
        # Set by the one transfer a power failure cuts; nothing clears it.
        self.power_failed = False

    # -- fault plan -------------------------------------------------------

    def arm_power_failure(self, budget_words: int) -> None:
        """Permit exactly ``budget_words`` further word transfers."""
        if budget_words < 0:
            raise PreconditionError("budget_words must be >= 0")
        self._budget_words = budget_words

    def disarm_power_failure(self) -> None:
        self._budget_words = None

    @property
    def armed(self) -> bool:
        return self._budget_words is not None

    @property
    def remaining_budget_words(self) -> int | None:
        return self._budget_words

    # -- transfers --------------------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        """Raise for a transfer outside the device. ``read`` and ``write``
        call this only when their inline bounds test fails."""
        if length < 0:
            raise OutOfRangeError(f"negative length {length}")
        if offset < 0 or offset + length > self.capacity_bytes:
            raise OutOfRangeError(
                f"[{offset}, {offset + length}) outside capacity {self.capacity_bytes}"
            )

    def read(self, offset: int, length: int) -> bytes:
        if length < 0 or offset < 0 or offset + length > self.capacity_bytes:
            self._check_range(offset, length)
        try:
            data = self._view[offset : offset + length].tobytes()
        except ValueError:  # the view of a closed device is released
            raise PreconditionError("device is closed") from None
        words = -(-length // 4)  # words_for(length), inline; a word is 4 bytes
        budget = self._budget_words
        if budget is not None:
            if budget < words:
                # The first ``budget`` words were read before the power died;
                # their bytes go nowhere, so only the meter sees them.
                self.cost_meter.words_read += budget
                raise self._exhausted("reading", offset, length)
            self._budget_words = budget - words
        self.cost_meter.words_read += words
        return data

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Store ``data``, any byte buffer (``bytes``, ``bytearray`` or a
        ``'B'`` memoryview), at ``offset``, metering ``len(data)`` bytes.
        A buffer the store refuses, such as a memoryview of another format,
        raises :class:`~vnvheap.errors.PreconditionError` with no word
        metered and none of the budget spent.

        The buffer is read only during the call, never kept: the store into
        the device's buffer is the one host copy, and the caller may change
        the buffer once this returns. An armed write that the budget cuts
        stores exactly the buffer's durable prefix.
        """
        length = len(data)
        end = offset + length
        if offset < 0 or end > self.capacity_bytes:
            self._check_range(offset, length)
        words = -(-length // 4)  # words_for(length), inline; a word is 4 bytes
        budget = self._budget_words
        if budget is not None and budget < words:
            # The durable prefix lands whole; the failing word and every
            # word after it stay untouched.
            data = data[: budget * WORD_BYTES]
            end = offset + len(data)
        # Store first, so that a buffer the store refuses is metered nowhere.
        # The live view keeps a bytearray from being resized, so a buffer
        # whose byte length is not ``len(data)`` is refused too.
        try:
            self._buf[offset:end] = data
        except (BufferError, IndexError, TypeError, ValueError) as exc:
            raise PreconditionError(f"cannot store {type(data).__name__}: {exc}") from None
        if budget is not None:
            if budget < words:
                self.cost_meter.words_written += budget
                raise self._exhausted("writing", offset, length)
            self._budget_words = budget - words
        self.cost_meter.words_written += words

    def _exhausted(self, verb: str, offset: int, length: int) -> PowerFailureInjected:
        """Spend the rest of the budget, record the failure and name the
        word that failed."""
        pos = offset + self._budget_words * WORD_BYTES
        self._budget_words = 0
        self.power_failed = True
        end = min(pos + WORD_BYTES, offset + length)
        return PowerFailureInjected(f"transfer budget exhausted {verb} [{pos}, {end})")


class SimulatedNvm(StorageDevice):
    """In-memory device. Deterministic, zero-filled at creation."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        super().__init__(capacity_bytes)
        self._buf = bytearray(capacity_bytes)
        self._view = memoryview(self._buf)

    def reopen(self) -> "SimulatedNvm":
        """Simulate a reboot: same bytes, fresh meter, no armed failure."""
        dev = SimulatedNvm(self.capacity_bytes)
        dev._buf[:] = self._buf
        return dev


class FileBackedNvm(StorageDevice):
    """Device persisted as a raw byte image on disk (no header), mapped into
    memory with ``mmap``: a store reaches the file through the shared mapping,
    and ``close()`` flushes it to disk.

    A missing or short file is zero-extended to the requested capacity; an
    existing longer file keeps its full size as the capacity. After
    ``close()`` every transfer raises :class:`~vnvheap.errors.PreconditionError`
    and meters nothing.
    """

    def __init__(self, path: str | os.PathLike, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        self.path = os.fspath(path)
        existing = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        super().__init__(max(capacity_bytes, existing))
        with open(self.path, "r+b" if existing else "w+b") as file:
            if existing < self.capacity_bytes:
                file.truncate(self.capacity_bytes)
            # The mapping keeps its own handle, so the file can close now.
            self._buf = mmap.mmap(file.fileno(), self.capacity_bytes)
        self._view = memoryview(self._buf)

    def close(self) -> None:
        if not self._buf.closed:
            # A map with a live view cannot be closed.
            self._view.release()
            self._buf.flush()
            self._buf.close()

    def reopen(self) -> "FileBackedNvm":
        self.close()
        return FileBackedNvm(self.path, self.capacity_bytes)

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            self.close()
        except Exception:
            pass
