"""Command-line entry point: run the benchmarks and property checks.

Benchmark subcommands print CSV (``benchmark,params,words_read,words_written,
time_us,energy_uj,reps``); ``crash`` and ``check`` print one verdict line per
suite and exit nonzero on any failure (2 under ``python -O``, which strips
the asserts the suites check with). A stdout closed by its reader ends any
command with status 1 and no traceback. Identical arguments always produce
identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from . import bench
from .baselines import MS_PAGE_SIZES
from .errors import PreconditionError, VnvHeapError
from .storage import EnergyModel
from .workloads import PATTERNS, RamQueue


def _count(text: str) -> int:
    """argparse type of the count flags: an integer that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _add_csv_flags(parser: argparse.ArgumentParser) -> None:
    """The energy model and output path of the four CSV subcommands."""
    default = EnergyModel()
    parser.add_argument("--word-latency-us", type=float,
                        default=default.word_transfer_seconds * 1e6,
                        help="time to move one 4-byte word (microseconds)")
    parser.add_argument("--power-mw", type=float, default=default.power_milliwatts,
                        help="device power while transferring (milliwatts)")
    parser.add_argument("--out", default="-",
                        help="CSV output path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnvheap",
        description="benchmarks and property checks for the vnvheap package")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("access", help="guarded object access cost by staging")
    p.add_argument("--case", choices=(*bench.ACCESS_CASES, "all"), default="all")
    p.add_argument("--object-size", type=int, default=0,
                   help=f"bytes; 0 sweeps {bench.ACCESS_SIZES}")
    p.add_argument("--system", choices=("vnv", "module", "both"), default="both")
    _add_csv_flags(p)

    p = sub.add_parser("queue", help="FIFO queue push+pop cost by backend")
    p.add_argument("--backend", choices=("vnv", "nvm", "ram", "all"),
                   default="all")
    p.add_argument("--length", type=_count, default=0,
                   help=f"steady queue length; 0 sweeps {bench.QUEUE_LENGTH_SWEEP}")
    p.add_argument("--reps", type=_count, default=64)
    _add_csv_flags(p)

    p = sub.add_parser("persist", help="checkpoint cost sweeps")
    p.add_argument("--mode", choices=("vary_ram", "vary_limit", "both"),
                   default="both")
    _add_csv_flags(p)

    p = sub.add_parser("kvs", help="key-value store update cost by backend")
    p.add_argument("--backend", choices=("vnv", "ms", "all"), default="all")
    p.add_argument("--pattern", choices=(*PATTERNS, "all"), default="all")
    p.add_argument("--page-size", type=int, default=0,
                   help=f"ms backend page size; 0 sweeps {MS_PAGE_SIZES}")
    p.add_argument("--n-ops", type=_count, default=4096)
    p.add_argument("--seed", type=_count, default=42)  # numpy's PCG64 takes no negative seed
    _add_csv_flags(p)

    p = sub.add_parser("crash", help="checkpoint/restore round-trip suite")
    p.add_argument("--iterations", type=_count, default=100)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("check", help="run every property suite")
    p.add_argument("--quick", action="store_true",
                   help="scaled-down suites for a fast sanity pass")
    p.add_argument("--seed", type=int, default=42)

    return parser


def _run_benchmarks(args) -> list[bench.BenchRecord]:
    records: list[bench.BenchRecord] = []
    if args.command == "access":
        cases = bench.ACCESS_CASES if args.case == "all" else (args.case,)
        sizes = bench.ACCESS_SIZES if args.object_size == 0 else (args.object_size,)
        systems = ("vnv", "module") if args.system == "both" else (args.system,)
        for size in sizes:
            for case in cases:
                for system in systems:
                    records.append(bench.run_access_bench(case, size, system))
    elif args.command == "queue":
        backends = ("ram", "nvm", "vnv") if args.backend == "all" else (args.backend,)
        lengths = bench.QUEUE_LENGTH_SWEEP if args.length == 0 else (args.length,)
        ram_capacity = RamQueue().capacity
        for length in lengths:
            for backend in backends:
                if (args.backend == "all" and backend == "ram"
                        and length > ram_capacity):
                    continue  # this backend cannot reach the operating point
                records.append(bench.run_queue_bench(length, backend, reps=args.reps))
    elif args.command == "persist":
        modes = ("vary_ram", "vary_limit") if args.mode == "both" else (args.mode,)
        for mode in modes:
            records.extend(bench.run_persist_bench(mode))
    elif args.command == "kvs":
        backends = ("vnv", "ms") if args.backend == "all" else (args.backend,)
        patterns = PATTERNS if args.pattern == "all" else (args.pattern,)
        for pattern in patterns:
            for backend in backends:
                if backend == "ms":
                    page_sizes = (MS_PAGE_SIZES if args.page_size == 0
                                  else (args.page_size,))
                    for page in page_sizes:
                        records.append(bench.run_kvs_bench(
                            backend, pattern, args.seed, page_size=page, n_ops=args.n_ops))
                else:
                    records.append(bench.run_kvs_bench(
                        backend, pattern, args.seed, n_ops=args.n_ops))
    return records


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``vnvheap check | head -1``). Point
        # stdout at devnull, so the interpreter's own flush at exit does not
        # raise again, and fail without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(args) -> int:
    if args.command in ("crash", "check"):
        try:
            reports = (bench.run_check(args.seed, quick=args.quick) if args.command == "check"
                       else [bench.run_crash_suite(args.seed, iterations=args.iterations)])
        except PreconditionError as exc:  # python -O strips the asserts the suites check with
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        # The model is built and the output opened first, so a bad value
        # or path costs no benchmark run.
        try:
            model = EnergyModel(power_milliwatts=args.power_mw,
                                word_transfer_seconds=args.word_latency_us * 1e-6)
            out = (nullcontext(sys.stdout) if args.out == "-"
                   else open(args.out, "w", newline=""))
        except (OSError, VnvHeapError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with out as fh:
            try:
                records = _run_benchmarks(args)
            except VnvHeapError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            bench.write_csv(records, model, fh)
        return 0

    ok = True
    for report in reports:
        print(report.line())
        for failure in report.failures[:20]:
            print(f"  {failure}")
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
