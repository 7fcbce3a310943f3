"""The package surface: the public names and the module each lives in."""

import importlib

import pytest

import vnvheap

PUBLIC_NAMES = [
    "CachePressureUnresolvableError", "ConfigInvalidError", "CostMeter",
    "DirtyBudgetUnsatisfiableError", "EnergyModel", "FileBackedNvm",
    "GuardActiveError", "GuardReleasedError", "HEADER_CHARGE_BYTES", "HeapConfig",
    "HeapPoisonedError", "HeapStats", "KeyNotFoundError", "META_CHARGE_BYTES",
    "NoValidCheckpointError", "ObjectHandle", "ObjectInfo", "ObjectTooLargeError",
    "OutOfNvmError", "OutOfRangeError", "PersistReport", "PowerFailureInjected",
    "PreconditionError", "QueueEmptyError", "RamCapacityExceededError", "ReadGuard",
    "SimulatedNvm", "SizeMismatchError", "StaleHandleError", "StillPinnedError",
    "StorageDevice", "VnvHeap", "VnvHeapError", "WORD_BYTES", "WriteGuard",
    "WriteGuardActiveError", "persist", "persist_bound", "restore",
    "wcec_millijoules", "words_for",
]


def test_the_public_names_are_pinned_and_resolve():
    assert sorted(vnvheap.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(vnvheap, name) is not None


@pytest.mark.parametrize("name, module", [
    ("persist", "vnvheap.heap"),
    ("restore", "vnvheap.heap"),
    ("persist_bound", "vnvheap.heap"),
    ("PersistReport", "vnvheap.heap"),
    ("EnergyModel", "vnvheap.storage"),
    ("wcec_millijoules", "vnvheap.storage"),
    ("CostMeter", "vnvheap.storage"),
])
def test_checkpointing_lives_in_the_heap_and_energy_beside_the_cost_meter(name, module):
    assert getattr(vnvheap, name).__module__ == module
    assert getattr(importlib.import_module(module), name) is getattr(vnvheap, name)


def test_no_persistence_module_remains():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("vnvheap.persistence")
