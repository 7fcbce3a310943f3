"""vnvheap benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload kv-unequal-evict --seed 1 --seconds 10 --trace 0

Run from the repository root; the heap is imported from ``src/``. The op
streams for ``--seed`` and for a held-out seed are generated before timing.
Passes (fresh set-up, then the whole stream, then the oracle) repeat until
``--seconds`` have elapsed, at least twice; every pass of one stream must give
identical word and count results, or the run fails.

``--trace 0`` times with tracing off and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the spans, plus the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object. See
``perfbench/README.md`` for every metric, its unit, and what should move it.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

HELDOUT_SEED_OFFSET = 1_000_003

# Gated end-to-end metrics: present on every listed workload, never zero, and
# steady enough across runs on a shared host to carry a regression bound.
END_TO_END = {
    "ops_per_s": "1/s", "op_p50_us": "us", "persist_p50_us": "us", "setup_s": "s",
    "words_per_op": "words", "persist_words_max": "words",
}
# Printed by name but not gated: the latency tails, which host-speed drift and
# the seed move most; metrics absent where they do not apply (restore_*); and
# counts that are zero whenever the program is correct.
REPORTED = {
    "op_p99_us": "us", "persist_p90_us": "us", "restore_p50_us": "us", "restore_words": "words",
    "bound_violations": "count", "restore_mismatches": "count", "failed_frac": "ratio",
}
# Per-layer metrics of the traced run. PER_LAYER is the set in the result line
# (BENCHMARK.json); the churn-only ones are printed but read 0 on the other
# workloads, which never allocate, arm the device or restore.
PER_LAYER = {
    "heap.access.miss_frac": "ratio",
    "heap.access.load_words_per_miss": "words",
    "heap.access.sync_words_per_op": "words",
    "storage.busy_us_per_op": "us",
    "storage.read.calls_per_op": "count",
    "storage.write.calls_per_op": "count",
    "persistence.persist.self_us_p50": "us",
    "persistence.persist.bound_util_max": "ratio",
    "persistence.persist.payload_words": "words",
    "persistence.persist.objects_synced": "count",
    "layout.persist.metadata_words": "words",
    "freelist.nvm_free_bytes_end": "B",
    "freelist.cache_free_bytes_end": "B",
    "heap.get_ref.us_p50": "us",
    "heap.get_mut.us_p50": "us",
    "heap.guard_release.us_p50": "us",
    "workloads.kv_get.us_p50": "us",
    "workloads.kv_update.us_p50": "us",
    "heap.dirty_headroom_min_bytes": "B",
    "bench.ops_per_s_untraced": "1/s",
    "bench.ops_per_s_traced": "1/s",
    "bench.trace_overhead_frac": "ratio",
    "bench.ref_loop_us": "us",
}
CHURN_LAYER = {
    "storage.armed_us_per_word": "us",
    "storage.power_failures": "count",
    "persistence.restore.us_p50": "us",
    "persistence.restore.words_read": "words",
    "heap.alloc.us_p50": "us",
    "heap.dealloc.us_p50": "us",
    "layout.alloc.metadata_words": "words",
    "layout.dealloc.metadata_words": "words",
    "heap.refused.OutOfNvmError": "count",
    "heap.refused.CachePressureUnresolvableError": "count",
    "heap.refused.DirtyBudgetUnsatisfiableError": "count",
    "heap.refused.GuardActiveError": "count",
    "heap.refused.StillPinnedError": "count",
    "heap.refused.HeapPoisonedError": "count",
    "heap.refused.other": "count",
}
DETERMINISTIC = ("words_per_op", "persist_words_max", "restore_words",
                 "bound_violations", "restore_mismatches", "failed_frac")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_pass(workload, stream, tracer):
    from scenarios import Recorder
    rec = Recorder(tracer)
    t0 = perf_counter()
    state = workload.setup(stream, tracer)
    rec.setup_s = perf_counter() - t0
    if tracer is not None:
        tracer.reset()
    workload.run(state, stream, rec)
    workload.finish(state, rec)
    return rec


def substreams(workload, seed: int) -> list:
    """The run's op streams: ``workload.SUBSTREAMS`` independent draws from
    ``seed``, so one run's figures average over several layouts of object
    sizes, keys and op mixes."""
    n = workload.SUBSTREAMS
    return [workload.generate(seed * n + j) for j in range(n)]


def fastest(runs) -> list:
    """Element-wise minimum over repeated, identical sample sequences."""
    return [min(samples) for samples in zip(*runs)]


def timing(groups) -> dict:
    """Host-time metrics of the passes in ``groups``, one group per substream;
    None where there are no samples.

    Every pass of a substream replays the same deterministic ops on the same
    state, so each op, persist, restore and set-up is timed once per pass and
    only its fastest repeat counts. On a shared host that keeps a slow spell
    out of the figures, as long as one repeat of each op missed it."""
    op, persist, restore, setup = [], [], [], []
    completed = 0
    for group in groups:
        op += fastest(r.op_ns for r in group)
        persist += fastest(r.persist_ns for r in group)
        restore += fastest(r.restore_ns for r in group)
        setup.append(min(r.setup_s for r in group))
        completed += group[0].attempted - group[0].failed
    return {
        "ops_per_s": completed / ((sum(op) + sum(persist) + sum(restore)) / 1e9),
        "op_p50_us": percentile(op, 50) / 1e3,
        "op_p99_us": percentile(op, 99) / 1e3,
        "persist_p50_us": percentile(persist, 50) / 1e3,
        "persist_p90_us": percentile(persist, 90) / 1e3,
        "setup_s": statistics.median(setup),
        "restore_p50_us": percentile(restore, 50) / 1e3 if restore else None,
        "samples": (len(op), len(persist), len(restore)),
    }


def word_metrics(recs) -> dict:
    """The deterministic metrics of one pass over each substream."""
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    restore_words = [w for r in recs for w in r.restore_words]
    return {
        "words_per_op": sum(r.words for r in recs) / attempted,
        "persist_words_max": max(w for r in recs for w in r.persist_words),
        "restore_words": statistics.median(restore_words) if restore_words else None,
        "bound_violations": sum(r.bound_violations for r in recs),
        "restore_mismatches": sum(r.restore_mismatches for r in recs),
        "failed_frac": failed / attempted,
        "ops_attempted": attempted,
        "ops_failed": failed,
    }


def per_layer(untraced_groups, traced_groups, layers, bound: int) -> dict:
    from scenarios import REFUSAL_CLASSES

    def p50_us(name):
        samples = layers.self_ns.get(name)
        return percentile(samples, 50) / 1e3 if samples else 0.0

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def metadata_words_per_call(name):
        calls = layers.count[name]
        return layers.metadata_words[name] / calls if calls else 0.0

    traced = [r for group in traced_groups for r in group]
    reports = [rep for r in traced for rep in r.persist_reports]
    restore_words = [w for r in traced for w in r.restore_words]
    ops = layers.ops
    untraced_rate = timing(untraced_groups)["ops_per_s"]
    traced_rate = timing(traced_groups)["ops_per_s"]
    last = traced[-1]
    out = {
        "heap.access.miss_frac": layers.misses / layers.accesses if layers.accesses else 0.0,
        "heap.access.load_words_per_miss": layers.load_words / layers.misses if layers.misses else 0.0,
        "heap.access.sync_words_per_op": layers.sync_words / ops,
        "storage.busy_us_per_op": layers.storage_ns / 1e3 / ops,
        "storage.read.calls_per_op": layers.count["storage.read"] / ops,
        "storage.write.calls_per_op": layers.count["storage.write"] / ops,
        "storage.armed_us_per_word": layers.armed_ns / 1e3 / layers.armed_words if layers.armed_words else 0.0,
        "storage.power_failures": layers.power_failures,
        "persistence.persist.self_us_p50": p50_us("persistence.persist"),
        "persistence.persist.bound_util_max": max(w for r in traced for w in r.persist_words) / bound,
        "persistence.persist.payload_words": mean(
            rep.words_transferred - rep.metadata_bytes_written // 4 for rep in reports),
        "persistence.persist.objects_synced": mean(rep.objects_synced for rep in reports),
        "layout.persist.metadata_words": mean(rep.metadata_bytes_written // 4 for rep in reports),
        "persistence.restore.us_p50": p50_us("persistence.restore"),
        "persistence.restore.words_read": statistics.median(restore_words) if restore_words else 0,
        "heap.alloc.us_p50": p50_us("heap.alloc"),
        "heap.dealloc.us_p50": p50_us("heap.dealloc"),
        "layout.alloc.metadata_words": metadata_words_per_call("heap.alloc"),
        "layout.dealloc.metadata_words": metadata_words_per_call("heap.dealloc"),
        "heap.get_ref.us_p50": p50_us("heap.get_ref"),
        "heap.get_mut.us_p50": p50_us("heap.get_mut"),
        "heap.guard_release.us_p50": p50_us("heap.guard_release"),
        "workloads.kv_get.us_p50": p50_us("workloads.kv_get"),
        "workloads.kv_update.us_p50": p50_us("workloads.kv_update"),
        "heap.dirty_headroom_min_bytes": min(r.headroom_min for r in traced if r.headroom_min is not None),
        "freelist.nvm_free_bytes_end": last.end_stats.nvm_free_bytes,
        "freelist.cache_free_bytes_end": last.end_stats.cache_free_bytes,
        "bench.ops_per_s_untraced": untraced_rate,
        "bench.ops_per_s_traced": traced_rate,
        "bench.trace_overhead_frac": (untraced_rate - traced_rate) / untraced_rate,
    }
    for cls in REFUSAL_CLASSES + ("other",):
        out[f"heap.refused.{cls}"] = sum(r.refused[cls] for r in traced)
    return out


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vnvheap" / "__init__.py").is_file():
        print(f"error: no vnvheap sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from scenarios import WORKLOADS
    from tracing import LayerStats, Tracer
    from vnvheap import persist_bound, HeapConfig

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    streams = substreams(workload, args.seed)
    heldout_seed = args.seed + HELDOUT_SEED_OFFSET
    heldout_streams = substreams(workload, heldout_seed)
    # The streams live for the whole run; keep the collector from rescanning
    # them, so its pauses track the program's own allocations only.
    gc.collect()
    gc.freeze()

    # Host time comes from the first ``workload.TIMED`` substreams only, so
    # that each of their ops is repeated many times over the whole run: the
    # host alternates between a fast and a slow speed, and the fastest repeat
    # of an op is its time at the fast speed only when enough repeats are
    # spread over the run. Pass i replays timed substream (i // per_stream) % n;
    # in a traced run every substream gets an untraced pass and then a traced one.
    per_stream = 2 if args.trace else 1
    timed = streams[:workload.TIMED]
    n = len(timed)
    by_stream: list[list] = [[] for _ in timed]
    layers = LayerStats()
    last_tracer = None
    deadline = perf_counter() + args.seconds
    i = 0
    while i < 2 * n * per_stream or perf_counter() < deadline:
        sub = (i // per_stream) % n
        tracer = Tracer() if args.trace and i % 2 else None
        rec = run_pass(workload, timed[sub], tracer)
        by_stream[sub].append(rec)
        if tracer is not None:
            layers.add(tracer, rec.attempted)
            rec.tracer = None   # keep only the last pass's spans in memory
            last_tracer = tracer
        i += 1
    # The word and count metrics are deterministic and need no repeats: the
    # other substreams run once each and widen them over more layouts.
    untimed = [run_pass(workload, stream, None) for stream in streams[n:]]
    heldout = [run_pass(workload, stream, None) for stream in heldout_streams]

    for sub, group in enumerate(by_stream):
        prints = {rec.fingerprint() for rec in group}
        if len(prints) != 1:
            print(f"error: {len(group)} passes of substream {sub} of seed {args.seed} "
                  f"gave {len(prints)} different word/count results; "
                  "the program is not deterministic", file=sys.stderr)
            return 1

    untraced = [[r for r in group if not r.traced] for group in by_stream]
    traced = [[r for r in group if r.traced] for group in by_stream]
    passes = [r for group in by_stream for r in group] + untimed
    correct = all(r.read_mismatches == 0 and r.restore_mismatches == 0
                  and r.bound_violations == 0 for r in passes + heldout)
    metrics = {**timing(untraced), **word_metrics([group[0] for group in by_stream] + untimed)}
    tag = f"{workload.name} seed={args.seed}"
    units = {**END_TO_END, **REPORTED}
    for name in list(END_TO_END) + list(REPORTED):
        print(f"{tag} {name} {fmt(metrics.get(name))} {units[name]}")
    print(f"{tag} samples op {metrics['samples'][0]} persist {metrics['samples'][1]} "
          f"restore {metrics['samples'][2]}")
    print(f"{tag} ops_attempted {metrics['ops_attempted']} ops_failed {metrics['ops_failed']} "
          f"read_mismatches {sum(r.read_mismatches for r in passes)} passes {len(passes)}")
    held = word_metrics(heldout)
    print(f"{workload.name} heldout_seed={heldout_seed} " + " ".join(
        f"{name} {fmt(held[name])}" for name in DETERMINISTIC + ("ops_attempted", "ops_failed")))
    # The host's speed, as a pure-Python loop timed throughout the run sees it.
    ref_us = statistics.median(x for r in passes for x in r.ref_us)
    print(f"{tag} bench.ref_loop_us {fmt(ref_us)} us")

    if args.trace:
        bound = persist_bound(HeapConfig(workload.CACHE, workload.DIRTY, workload.MAX_OBJECTS))
        layer = per_layer(untraced, traced, layers, bound)
        layer["bench.ref_loop_us"] = ref_us
        units = {**PER_LAYER, **CHURN_LAYER}
        for name, value in layer.items():
            print(f"{tag} {name} {fmt(value)} {units[name]}")
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.tsv"
        with open(spans_path, "w") as f:
            f.write("name\top_id\tparent\tt0_ns\tt1_ns\tvalue\tflags\n")
            for span in last_tracer.spans:
                f.write("\t".join(map(str, span)) + "\n")
        print(f"{tag} spans of the last traced pass written to {spans_path.relative_to(ROOT)}")
        result = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
