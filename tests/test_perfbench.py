"""A smoke test of the benchmark harness in ``perfbench/`` over this package.

The harness is imported in-process and runs one traced pass of each workload,
whose spans are folded into its per-layer sums, as ``run.py --trace 1`` does.
That reads the package surface the harness depends on: ``heap.layout``,
``heap.tables.metadata_bytes_written``, the ``(heap, handles)`` of
``restore`` and ``ReadGuard.release`` called on a write guard. Only the
harness's ``main()`` writes files; this test writes nothing under
``perfbench/``, not even bytecode caches.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _files():
    return sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


@pytest.fixture(scope="module")
def harness():
    """``(run, scenarios, tracing)``, imported from ``perfbench/`` as
    ``run.py`` imports them, without writing a bytecode cache."""
    names = ("scenarios", "tracing")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        scenarios, tracing = (importlib.import_module(name) for name in names)
        yield run, scenarios, tracing
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
        for name in names:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["kv-unequal-evict", "sensor-checkpoint", "churn-powerfail"])
def test_one_traced_pass_of_each_workload_folds_into_layer_stats(harness, name):
    run, scenarios, tracing = harness
    before = _files()
    workload = scenarios.WORKLOADS[name]
    stream = workload.generate(SEED * workload.SUBSTREAMS)  # substream 0 of the seed
    tracer = tracing.Tracer()
    rec = run.run_pass(workload, stream, tracer)
    layers = tracing.LayerStats()
    layers.add(tracer, rec.attempted)
    assert rec.attempted == layers.ops > 0
    # Table words (the epoch word at least) and payload words were both
    # written while traced, told apart at heap.layout.object_offset.
    writes = {flags & tracing.PAYLOAD for span_name, *_, flags in tracer.spans
              if span_name == "storage.write"}
    assert writes == {0, tracing.PAYLOAD}
    if name != "churn-powerfail":
        # Churn's restores can still disagree with its shadow: restore does
        # not yet return exactly the last commit's payloads (ROADMAP item 1).
        assert rec.read_mismatches == rec.bound_violations == rec.restore_mismatches == 0
    assert _files() == before
