"""Comparison systems the benchmarks measure against.

Three deliberately simple designs:

* ManagedStatePool  - page-granular dirty tracking over a fixed RAM buffer.
  Applications bracket every access with open/close tokens; writes mark whole
  pages dirty, and a configurable number of dirty pages is enforced by
  writing back the least-recently-dirtied pages. Metadata costs one byte per
  page. No swapping: the pool can only hold what fits in RAM.
* ModuleSwapApp     - a manually partitioned application that keeps exactly
  one fixed-size module in RAM and swaps whole modules to reach anything
  else, whatever the size of the object actually touched.
* UnmanagedRam      - no tracking at all; a checkpoint copies the entire RAM
  region, every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DirtyBudgetUnsatisfiableError,
    GuardReleasedError,
    OutOfRangeError,
    PreconditionError,
)
from .storage import StorageDevice, words_for

MS_PAGE_SIZES = (32, 64, 128, 256, 512)


@dataclass
class MsToken:
    """Access token handed out by :meth:`ManagedStatePool.open`."""

    offset: int
    length: int
    writable: bool
    _pool: "ManagedStatePool"
    _closed: bool = field(default=False, repr=False)

    def _check(self) -> None:
        if self._closed:
            raise GuardReleasedError("token was already closed")

    def read(self, at: int = 0, length: int | None = None) -> bytes:
        self._check()
        if length is None:
            length = self.length - at
        if at < 0 or length < 0 or at + length > self.length:
            raise OutOfRangeError("read outside the opened region")
        base = self.offset + at
        return bytes(self._pool.ram[base : base + length])

    def write(self, data: bytes | bytearray | memoryview, at: int = 0) -> None:
        self._check()
        if not self.writable:
            raise PreconditionError("token was opened read-only")
        data = bytes(data)  # a slice store must not resize the pool's RAM
        if at < 0 or at + len(data) > self.length:
            raise OutOfRangeError("write outside the opened region")
        base = self.offset + at
        self._pool.ram[base : base + len(data)] = data

    def close(self) -> None:
        self._check()
        self._closed = True

    def __enter__(self):
        self._check()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.close()


class ManagedStatePool:
    """Page-granular dirty tracking with a hard cap on dirty pages.

    The device region mirrors the RAM buffer page for page, followed by the
    one-byte-per-page dirty metadata. ``open(write)`` marks every overlapping
    page dirty; when that would exceed ``dirty_page_limit``, the least-
    recently-dirtied pages are written back first. Re-dirtying a page
    refreshes its position in that order.
    """

    def __init__(self, device: StorageDevice, ram_bytes: int, page_size: int,
                 dirty_page_limit: int) -> None:
        if page_size not in MS_PAGE_SIZES:
            raise PreconditionError(f"page size must be one of {MS_PAGE_SIZES}")
        if dirty_page_limit < 1:
            raise PreconditionError("dirty_page_limit must be >= 1")
        self.device = device
        self.ram = bytearray(ram_bytes)
        self.page_size = page_size
        self.page_count = -(-ram_bytes // page_size)
        self.dirty_page_limit = dirty_page_limit
        self._meta_offset = self.page_count * page_size
        # page -> dirty sequence number; insertion order is the LRD order
        self._dirty: dict[int, None] = {}

    @property
    def metadata_bytes(self) -> int:
        return self.page_count  # one byte per page

    @property
    def dirty_pages(self) -> list[int]:
        return list(self._dirty)

    def open(self, offset: int, length: int, mode: str = "read") -> MsToken:
        if mode not in ("read", "write"):
            raise PreconditionError(f"unknown access mode {mode!r}")
        if offset < 0 or length < 0 or offset + length > len(self.ram):
            raise OutOfRangeError("region outside the pool")
        if mode == "write" and length > 0:
            first = offset // self.page_size
            last = (offset + length - 1) // self.page_size
            self._dirty_pages(range(first, last + 1))
        return MsToken(offset, length, mode == "write", self)

    def _dirty_pages(self, pages) -> None:
        fresh = [p for p in pages if p not in self._dirty]
        if len(fresh) > self.dirty_page_limit:
            raise DirtyBudgetUnsatisfiableError(
                f"a single access dirties {len(fresh)} pages; the limit is "
                f"{self.dirty_page_limit}"
            )
        while len(self._dirty) + len(fresh) > self.dirty_page_limit:
            self._write_back(next(iter(self._dirty)))
        for p in pages:
            # a repeat write refreshes the page's least-recently-dirtied slot
            self._dirty.pop(p, None)
            self._dirty[p] = None

    def _write_back(self, page: int) -> None:
        lo = page * self.page_size
        self.device.write(lo, self.ram[lo : lo + self.page_size])
        del self._dirty[page]

    def checkpoint(self) -> int:
        """Write every dirty page plus the per-page metadata; returns words."""
        before = self.device.cost_meter.words_written
        for page in sorted(self._dirty):
            lo = page * self.page_size
            self.device.write(lo, self.ram[lo : lo + self.page_size])
        self._dirty.clear()
        self.device.write(self._meta_offset, bytes(self.page_count))
        return self.device.cost_meter.words_written - before

    def checkpoint_bound_words(self) -> int:
        return words_for(self.dirty_page_limit * self.page_size + self.page_count)


class ModuleSwapApp:
    """One module of RAM; touching anything else swaps 2 x MODULE_SIZE."""

    MODULE_SIZE = 1024

    def __init__(self, device: StorageDevice, module_count: int) -> None:
        self.device = device
        self.module_count = module_count
        self.ram = bytearray(self.MODULE_SIZE)
        self.active = 0

    def _module_base(self, module: int) -> int:
        if not 0 <= module < self.module_count:
            raise OutOfRangeError(f"module {module} does not exist")
        return module * self.MODULE_SIZE

    def ensure_active(self, module: int) -> None:
        """Swap ``module`` in if needed."""
        base = self._module_base(module)
        if module == self.active:
            return
        self.device.write(self._module_base(self.active), self.ram)
        self.ram[:] = self.device.read(base, self.MODULE_SIZE)
        self.active = module

    def read(self, module: int, offset: int, length: int) -> bytes:
        self.ensure_active(module)
        if offset < 0 or offset + length > self.MODULE_SIZE:
            raise OutOfRangeError("read outside the module")
        return bytes(self.ram[offset : offset + length])

    def write(self, module: int, offset: int, data: bytes | bytearray | memoryview) -> None:
        self.ensure_active(module)
        data = bytes(data)  # a slice store must not resize the module
        if offset < 0 or offset + len(data) > self.MODULE_SIZE:
            raise OutOfRangeError("write outside the module")
        self.ram[offset : offset + len(data)] = data


class UnmanagedRam:
    """The do-nothing baseline: checkpoints copy all of RAM, always."""

    def __init__(self, device: StorageDevice, ram_bytes: int) -> None:
        self.device = device
        self.ram = bytearray(ram_bytes)

    def checkpoint(self) -> int:
        before = self.device.cost_meter.words_written
        self.device.write(0, self.ram)
        return self.device.cost_meter.words_written - before
