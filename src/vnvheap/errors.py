"""Exception types raised by the heap, the storage layer, and the workloads."""

from __future__ import annotations


class VnvHeapError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigInvalidError(VnvHeapError):
    """Heap or device configuration that can never satisfy its invariants."""


class OutOfRangeError(VnvHeapError):
    """Storage access outside the device's capacity."""


class PowerFailureInjected(VnvHeapError):
    """Raised by a device whose armed transfer budget is exhausted.

    The transfer that raised did not happen; all words before it are durable.
    """


class OutOfNvmError(VnvHeapError):
    """No free extent, table slot, handle id or epoch left for the request."""


class ObjectTooLargeError(VnvHeapError):
    """Payload plus its in-cache metadata cannot fit the cache even when empty."""


class DirtyBudgetUnsatisfiableError(VnvHeapError):
    """The modified-state limit cannot be met, even by syncing every victim."""


class CachePressureUnresolvableError(VnvHeapError):
    """Not enough evictable (unpinned) residents to make room in the cache."""


class GuardActiveError(VnvHeapError):
    """Operation requires exclusive access but some guard is still live."""


class WriteGuardActiveError(GuardActiveError):
    """A live write guard blocks shared read access."""


class StillPinnedError(VnvHeapError):
    """Object cannot be deallocated or unloaded while a guard pins it."""


class GuardReleasedError(VnvHeapError):
    """Use (or second release) of a guard after it was released."""


class StaleHandleError(VnvHeapError):
    """Handle of a deallocated object, or a handle from a different heap."""


class PreconditionError(VnvHeapError):
    """Explicit operation precondition violated (e.g. sync of a clean object)."""


class NoValidCheckpointError(VnvHeapError):
    """Restore found no committed checkpoint on the device."""


class HeapPoisonedError(VnvHeapError):
    """Heap state is unusable because a persist was interrupted mid-flight."""


class QueueEmptyError(VnvHeapError):
    """Pop from an empty queue."""


class RamCapacityExceededError(VnvHeapError):
    """RAM-only queue backend grew past its fixed capacity."""


class KeyNotFoundError(VnvHeapError, KeyError):
    """Unknown key in a key-value store."""


class SizeMismatchError(VnvHeapError):
    """Value length does not match the stored object's fixed size."""
