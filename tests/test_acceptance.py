"""Acceptance gate: every documented behavioral claim, one test each.

Each docstring's first line is the claim; the conftest hook prints it with a
PASS/FAIL verdict in the terminal summary. Tolerances are stated inline —
everything not marked as a tolerance is exact arithmetic.
"""

import time

import pytest

from vnvheap import bench
from vnvheap.oracle import TraceMachine
from vnvheap.storage import words_for
from vnvheap.workloads import PATTERNS


@pytest.fixture(scope="module")
def invariant_suite():
    start = time.monotonic()
    report = bench.run_dirty_limit_suite(seed=101, traces=10, ops=10_000)
    return report, time.monotonic() - start


def test_dirty_limit_invariant(invariant_suite):
    """dirty bytes never exceed the limit over 10x10^4 random ops with guards held, in under 10 s"""
    report, elapsed = invariant_suite
    assert report.ok, report.failures[:3]
    assert report.checks >= 100_000
    assert elapsed < 10.0, f"suite took {elapsed:.1f} s"


def test_persist_bound_invariant(invariant_suite):
    """every persist, armed at exactly persist_bound words, writes exactly its dry run"""
    report, _ = invariant_suite
    assert report.ok, report.failures[:3]


def test_persist_cost_flat_in_ram_size():
    """persist words are constant across RAM sizes; unmanaged baseline grows as ceil(RAM/4)"""
    records = bench.run_persist_bench("vary_ram")
    vnv = [r.words_written for r in records if r.params["system"] == "vnv"]
    base = [(r.params["ram"], r.words_written) for r in records
            if r.params["system"] == "unmanaged"]
    assert len(set(vnv)) == 1, f"persist cost varied with RAM size: {vnv}"
    assert all(words == words_for(ram) for ram, words in base)
    increments = [words for _, words in base]
    assert increments == sorted(set(increments)), "baseline not strictly increasing"


def test_persist_cost_grows_with_dirty_limit():
    """persist words rise with the dirty limit, capped by the unmanaged baseline (+4 header words)"""
    records = bench.run_persist_bench("vary_limit")
    vnv = [(r.params["dirty_limit"], r.words_written) for r in records
           if r.params["system"] == "vnv"]
    baseline = next(r.words_written for r in records
                    if r.params["system"] == "unmanaged")
    header_words = words_for(16)
    words = [w for _, w in sorted(vnv)]
    assert words == sorted(set(words)), f"not strictly increasing: {words}"
    assert all(w <= baseline + header_words for w in words)
    at_full_limit = dict(vnv)[4096]
    assert abs(at_full_limit - baseline) <= header_words


def test_bad_and_worst_case_vs_module_swapping():
    """32 B bad-case access beats module swapping by >=93%; 1024 B worst case within 5%"""
    vnv_bad = bench.run_access_bench("bad", 32, "vnv").words_total
    module_bad = bench.run_access_bench("bad", 32, "module").words_total
    assert vnv_bad == 8 and module_bad == 512
    assert 1 - vnv_bad / module_bad >= 0.93
    vnv_worst = bench.run_access_bench("worst", 1024, "vnv").words_total
    module_worst = bench.run_access_bench("worst", 1024, "module").words_total
    assert abs(vnv_worst - module_worst) / module_worst <= 0.05


def test_best_case_is_free_and_cases_are_ordered():
    """best-case access moves 0 words and best < bad < worst for every object size"""
    for size in bench.ACCESS_SIZES:
        best, bad, worst = (bench.run_access_bench(case, size, "vnv").words_total
                            for case in ("best", "bad", "worst"))
        assert best == 0
        assert best < bad < worst, f"size {size}: {best}, {bad}, {worst}"


def test_metadata_arithmetic():
    """768 B object metadata vs paged baselines {1856,928,464,232,116} B and their ratios"""
    expected_ms = {32: 1856, 64: 928, 128: 464, 256: 232, 512: 116}
    expected_ratio_pct = {32: -59, 64: -17, 128: 66, 256: 231, 512: 562}
    vnv = bench.run_kvs_bench("vnv", "sequential", seed=1, n_ops=1)
    assert vnv.params["metadata_bytes"] == 768
    for page, ms_bytes in expected_ms.items():
        rec = bench.run_kvs_bench("ms", "sequential", seed=1, page_size=page,
                                  n_ops=1)
        assert rec.params["metadata_bytes"] == ms_bytes
        ratio_pct = (768 - ms_bytes) / ms_bytes * 100
        assert abs(ratio_pct - expected_ratio_pct[page]) <= 1.0  # rounding only


def test_kvs_cost_crossover():
    """per-update cost beats 512 B pages and stays within 25% of 32 B pages, all patterns"""
    start = time.monotonic()
    for pattern in PATTERNS:
        per_op = {}
        per_op["vnv"] = bench.run_kvs_bench("vnv", pattern, seed=7)
        per_op["ms32"] = bench.run_kvs_bench("ms", pattern, seed=7, page_size=32)
        per_op["ms512"] = bench.run_kvs_bench("ms", pattern, seed=7, page_size=512)
        cost = {k: r.words_total / r.reps for k, r in per_op.items()}
        assert cost["vnv"] < cost["ms512"], f"{pattern}: {cost}"
        assert abs(cost["vnv"] - cost["ms32"]) <= 0.25 * cost["ms32"], \
            f"{pattern}: {cost}"
    assert time.monotonic() - start < 60.0


def test_queue_backends():
    """queue cycles are free up to length 12, cost no more than raw NVM at 4x RAM capacity"""
    with pytest.raises(Exception) as exc_info:
        bench.run_queue_bench(16, "ram")
    assert "RAM queue" in str(exc_info.value)
    ram_capacity = 15

    assert bench.run_queue_bench(12, "vnv").words_total == 0
    long_len = 4 * ram_capacity
    vnv = bench.run_queue_bench(long_len, "vnv")
    nvm = bench.run_queue_bench(long_len, "nvm")
    vnv_cost = vnv.words_total / vnv.reps
    nvm_cost = nvm.words_total / nvm.reps
    assert vnv_cost <= nvm_cost, (vnv_cost, nvm_cost)
    nvm_short = bench.run_queue_bench(12, "nvm")
    assert nvm_short.words_total / nvm_short.reps == nvm_cost


def test_crash_suite():
    """100 persist/reboot/restore round trips agree with the shadow map; every power cut restores the last commit's ids and untouched payloads"""
    report = bench.run_crash_suite(seed=2024, iterations=100)
    assert report.ok, report.failures[:3]
    assert report.checks == 100


def test_guard_contract():
    """no illegal guard grant, no post-release use, no guarded object moved in 10^4 oracle steps"""
    machine = TraceMachine(31337, **bench._SUITE_TRACE)
    machine.run(10_000)  # the full check after every step
    # The trace must reach each refusal, or the fold could pass by never
    # asking for a guard it should refuse.
    refusals = machine.refusals
    assert refusals["get_ref"] >= 10, refusals
    assert refusals["get_mut"] >= 25, refusals
    assert refusals["replace"] >= 10, refusals
    assert refusals["released"] >= 300, refusals


def test_unequal_pattern_statistics():
    """10^6 weighted draws match the sin^4 weights within 1% total variation"""
    report = bench.run_pattern_suite(draws=1_000_000)
    assert report.ok, report.failures
    assert report.checks == 1_000_000
