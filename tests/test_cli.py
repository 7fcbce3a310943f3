"""The command-line interface: CSV schema, determinism, exit codes."""

import csv
import hashlib
import io
import os
import subprocess
import sys

import pytest

from vnvheap import bench
from vnvheap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "no CSV rows produced"
    return rows


def test_csv_schema(capsys):
    code, out = run_cli(capsys, "access", "--object-size", "128")
    assert code == 0
    reader = csv.reader(io.StringIO(out))
    assert next(reader) == ["benchmark", "params", "words_read",
                            "words_written", "time_us", "energy_uj", "reps"]
    for row in reader:
        assert len(row) == 7
        int(row[2]); int(row[3]); float(row[4]); float(row[5]); int(row[6])
        assert all(("=" in kv) for kv in row[1].split())


def test_same_arguments_reproduce_identical_output(capsys):
    args = ("kvs", "--backend", "vnv", "--pattern", "random",
            "--seed", "7", "--n-ops", "256")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_access_sweep_covers_all_cases(capsys):
    code, out = run_cli(capsys, "access")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4 * 3 * 2  # sizes x cases x systems
    best = [r for r in rows if "case=best" in r["params"]
            and "system=vnv" in r["params"]]
    assert all(int(r["words_read"]) + int(r["words_written"]) == 0 for r in best)


def test_queue_sweep_and_backends(capsys):
    code, out = run_cli(capsys, "queue", "--length", "12", "--reps", "16")
    assert code == 0
    rows = {}
    for r in parse_csv(out):
        backend = dict(kv.split("=") for kv in r["params"].split())["backend"]
        rows[backend] = int(r["words_read"]) + int(r["words_written"])
    assert rows["ram"] == 0
    assert rows["vnv"] == 0
    assert rows["nvm"] > 0


def test_queue_ram_backend_over_capacity_exits_nonzero(capsys):
    code = main(["queue", "--backend", "ram", "--length", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert "RAM queue" in captured.err


def test_queue_default_sweep_skips_unreachable_ram_lengths(capsys):
    code, out = run_cli(capsys, "queue", "--reps", "8")
    assert code == 0
    rows = parse_csv(out)
    by_backend = {}
    for r in rows:
        params = dict(kv.split("=") for kv in r["params"].split())
        by_backend.setdefault(params["backend"], []).append(int(params["length"]))
    assert by_backend["ram"] == [4, 12]          # capacity is 15
    assert by_backend["vnv"] == [4, 12, 20, 60]
    assert by_backend["nvm"] == [4, 12, 20, 60]


def test_persist_modes(capsys):
    code, out = run_cli(capsys, "persist")
    assert code == 0
    rows = parse_csv(out)
    vary_ram = [r for r in rows if "mode=vary_ram" in r["params"]]
    vary_limit = [r for r in rows if "mode=vary_limit" in r["params"]]
    assert len(vary_ram) == 8   # 4 sweep points x (vnv + unmanaged)
    assert len(vary_limit) == 5  # 4 vnv points + one baseline
    vnv_words = [int(r["words_written"]) for r in vary_ram
                 if "system=vnv" in r["params"]]
    assert len(set(vnv_words)) == 1  # flat in RAM size


def test_kvs_page_size_flag(capsys):
    code, out = run_cli(capsys, "kvs", "--backend", "ms", "--page-size", "64",
                        "--pattern", "sequential", "--n-ops", "64")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert "page_size=64" in rows[0]["params"]


def test_energy_model_flags_scale_derived_columns(capsys):
    base_args = ("access", "--object-size", "1024", "--case", "worst",
                 "--system", "vnv")
    _, out1 = run_cli(capsys, *base_args)
    _, out2 = run_cli(capsys, *base_args, "--power-mw", "264")
    _, out3 = run_cli(capsys, *base_args, "--word-latency-us", "2.0")
    r1, r2, r3 = (parse_csv(o)[0] for o in (out1, out2, out3))
    assert r1["words_read"] == r2["words_read"] == r3["words_read"]
    assert float(r2["energy_uj"]) == pytest.approx(2 * float(r1["energy_uj"]))
    assert float(r3["time_us"]) == pytest.approx(2 * float(r1["time_us"]))
    assert float(r3["energy_uj"]) == pytest.approx(2 * float(r1["energy_uj"]))


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, out = run_cli(capsys, "persist", "--mode", "vary_limit",
                        "--out", str(path))
    assert code == 0
    assert out == ""
    assert parse_csv(path.read_text())


def test_crash_subcommand(capsys):
    code, out = run_cli(capsys, "crash", "--iterations", "5", "--seed", "21")
    assert code == 0
    assert out.startswith("PASS crash")


def test_check_quick(capsys):
    code, out = run_cli(capsys, "check", "--quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)


def run_python(*argv, **kwargs):
    """Run a child interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *argv], env=env, text=True, timeout=60, **kwargs)


def test_suites_refuse_to_run_without_asserts():
    """Under ``python -O`` the oracle's asserts are gone, so a suite would
    pass without checking anything: ``check`` exits 2 instead."""
    run = run_python("-O", "-m", "vnvheap", "check", "--quick")
    assert run.returncode == 2
    assert run.stdout == ""
    assert "without python -O" in run.stderr


def test_suite_functions_refuse_to_run_without_asserts():
    """Called from Python under ``python -O``, each suite that checks with
    the oracle's asserts raises a typed error instead of passing unchecked."""
    run = run_python("-O", "-c", """
from vnvheap import bench
from vnvheap.errors import VnvHeapError
for call in (lambda: bench.run_crash_suite(1, iterations=3),
             lambda: bench.run_dirty_limit_suite(1, traces=1, ops=10),
             lambda: bench.run_check(1, quick=True)):
    try:
        call()
    except VnvHeapError as exc:
        print(type(exc).__name__, exc)
    else:
        print("ran")
""")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PreconditionError ") and "without python -O" in line
               for line in lines), lines


@pytest.mark.parametrize("argv", [
    ("check", "--quick"),
    ("access", "--object-size", "32"),
], ids=" ".join)
def test_a_closed_stdout_fails_without_a_traceback(argv):
    """The reader of stdout has gone before the first line is written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = run_python("-m", "vnvheap", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == ""


def test_the_cli_does_not_load_numpy():
    """Only the kvs benchmark and the pattern suite use numpy, and they
    import it when they run, so start-up does not pay for it."""
    run = run_python("-c", "import sys, vnvheap.cli; print('numpy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


# SHA-256 of the CSV each command prints. The words are the heap's behaviour,
# so a change that only restructures the code or makes it faster leaves every
# digest as it is; a change that moves words on purpose updates the digest
# and says why in CHANGES.md.
CSV_SHA256 = {
    ("access",): "1a84d0bd4f1e2af239cf0a11135e02eb2c83df8b10191d88d85f3a72251c0e69",
    ("queue",): "c0639819146a28ab4729da639fb0c901eacb27edb7a074736e8e13155e11e303",
    ("persist", "--mode", "both"):
        "6c20ca92219745773eae8903ac354b959fca0b0330941dbe1c8d75d3238a4e11",
    ("kvs", "--n-ops", "512"):
        "56abbe6b85c434df4f695e23332f68600f0d3fbd5cfbd6f3412b16adca3d793d",
    ("access", "--power-mw", "66", "--word-latency-us", "2.5"):
        "00e696eef54aa421dc59da5c8398c95aefbdf21a751ef145d1063720a050cdf2",
}


@pytest.mark.parametrize("argv", list(CSV_SHA256), ids=" ".join)
def test_csv_output_is_unchanged(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CSV_SHA256[argv]


# SHA-256 of the verdict lines the property-suite commands print, computed
# like CSV_SHA256: a change that moves no word and draws no other random
# number leaves them as they are.
SUITE_SHA256 = {
    ("check", "--quick"):
        "cc79ac5442e61c1c7830642ffc902ae899b0d7cc22b916b5bb212daef8acd76d",
    ("crash", "--iterations", "100"):
        "2d62a0c82bc3132154d22ff158e9b8ff104a4f408886ae40ae9aa9b4d7472a23",
}


@pytest.mark.parametrize("argv", list(SUITE_SHA256), ids=" ".join)
def test_suite_output_is_unchanged(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256[argv]


@pytest.mark.parametrize("argv", [
    ("access", "--seed", "9"),
    ("persist", "--nvm-capacity", "4"),
    ("queue", "--cache-size", "8192"),
    ("kvs", "--nvm-capacity", "4"),
    ("crash", "--power-mw", "66"),
    ("check", "--out", "x.csv"),
], ids=" ".join)
def test_a_flag_the_subcommand_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("kvs", "--n-ops", "-5"),
    ("crash", "--iterations", "-2"),
    ("queue", "--reps", "-1"),
    ("queue", "--length", "-3"),
    ("kvs", "--seed", "-1"),
], ids=" ".join)
def test_a_negative_count_is_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: must not be negative" in captured.err


def test_a_raw_nvm_queue_too_long_for_its_state_word_is_an_error(capsys):
    # Length 32768 asks for a 65536-element ring, one more than a u16 counts.
    code = main(["queue", "--backend", "nvm", "--length", "32768", "--reps", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "65535" in captured.err
    assert "Traceback" not in captured.err


def test_an_unwritable_out_path_fails_before_any_benchmark(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(bench, "run_persist_bench", lambda mode: ran.append(mode) or [])
    code = main(["persist", "--out", str(tmp_path / "missing" / "x.csv")])
    captured = capsys.readouterr()
    assert code != 0
    assert ran == []
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [
    ("--power-mw", "-5"),
    ("--word-latency-us", "-1", "--power-mw", "nan"),
], ids=" ".join)
def test_an_impossible_energy_model_fails_before_any_benchmark(tmp_path, capsys, monkeypatch,
                                                                flags):
    ran = []
    monkeypatch.setattr(bench, "run_access_bench", lambda *args: ran.append(args))
    out = tmp_path / "x.csv"
    code = main(["access", "--case", "worst", "--object-size", "32", "--system", "vnv",
                 *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert ran == [] and not out.exists()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
