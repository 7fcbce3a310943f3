"""Comparison-flip mutation audit: which comparisons do the tests judge?

Each mutant flips one comparison operator in one function of one module:
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in``. The flip is a text edit of that operator alone, so
every other byte and every line number of the module stay as they are. Each
mutant runs the chosen pytest selection with ``-x`` on a temporary copy of
the repository, so the working tree is never edited. A mutant is *killed*
when the run fails or outlasts five times the unmutated run (a minute at
least), and *survives* when it passes. The unmutated copy must pass first.

Usage, from the repository root::

    python tools/mutate.py src/vnvheap/freelist.py
    python tools/mutate.py src/vnvheap/heap.py --function VnvHeap._make_room -- tests/test_heap.py
    python tools/mutate.py src/vnvheap/layout.py --list

``--function`` takes a function's name or its dotted qualified name, and may
be repeated; without it, every function of the module is mutated. Arguments
after ``--`` select the tests (all of ``tests`` by default). The audit uses
the standard library only and is not part of the test suite: a module of 25
mutants over the whole suite takes a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FLIPS = {
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
    ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is", ast.In: "not in",
    ast.NotIn: "in",
}
# The operator between two operands; the longest forms first.
_OPERATOR = re.compile(rb"<=|>=|==|!=|<|>|\bis\s+not\b|\bnot\s+in\b|\bis\b|\bin\b")


@dataclass(frozen=True)
class Mutant:
    function: str
    line: int
    start: int  # byte offsets of the operator in the module's source
    end: int
    old: str
    new: str

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.new.encode() + source[self.end :]

    def __str__(self) -> str:
        return f"{self.function}:{self.line} {self.old} -> {self.new}"


def _functions(tree: ast.Module):
    """Yield ``(qualified name, node)`` for every function, nested or not."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            stack.extend((name + ".", child) for child in node.body)


def _own_nodes(func: ast.AST):
    """The nodes of ``func``'s body, but not of the functions and classes
    defined in it: :func:`_functions` yields those itself."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def mutants(source: bytes, wanted: set[str]) -> list[Mutant]:
    """Every comparison flip in the functions named in ``wanted`` (every
    function when it is empty), in source order."""
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        return line_starts[lineno - 1] + col

    found: dict[int, Mutant] = {}
    for name, func in _functions(ast.parse(source)):
        if wanted and name not in wanted and name.rsplit(".", 1)[-1] not in wanted:
            continue
        for node in _own_nodes(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, before, after in zip(node.ops, operands, operands[1:]):
                lo = offset(before.end_lineno, before.end_col_offset)
                hi = offset(after.lineno, after.col_offset)
                match = _OPERATOR.search(source, lo, hi)
                old = " ".join(match.group().decode().split())
                found[match.start()] = Mutant(
                    name, source.count(b"\n", 0, match.start()) + 1,
                    match.start(), match.end(), old, FLIPS[type(op)])
    return [found[key] for key in sorted(found)]


def _run(copy: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """Run the selection in the copy; True when it passes."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    began = time.monotonic()
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - began
    return done.returncode == 0, time.monotonic() - began


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tests: list[str] = []
    if "--" in argv:
        at = argv.index("--")
        argv, tests = argv[:at], argv[at + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module to mutate, from the repository root")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only this function (repeatable)")
    parser.add_argument("--list", action="store_true", help="list the mutants and run nothing")
    args = parser.parse_args(argv)
    try:  # relative to the root, so that only the copy's module is written
        module = Path(args.module).resolve().relative_to(ROOT)
    except ValueError:
        parser.error(f"{args.module} is outside the repository")
    source = (ROOT / module).read_bytes()
    found = mutants(source, set(args.function))
    if not found:
        print("no comparison to flip", file=sys.stderr)
        return 2
    if args.list:
        for mutant in found:
            print(f"{module.name}:{mutant}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        target = copy / module
        passed, seconds = _run(copy, tests, timeout=None)
        if not passed:
            print("the unmutated copy fails the selection; nothing to judge", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * seconds)  # a flip can turn a loop endless
        tally: dict[str, list[int]] = {}
        for mutant in found:
            target.write_bytes(mutant.apply(source))
            killed = not _run(copy, tests, timeout)[0]
            target.write_bytes(source)
            tally.setdefault(mutant.function, [0, 0])[not killed] += 1
            print(f"{'killed  ' if killed else 'SURVIVED'} {module.name}:{mutant}", flush=True)

    print(f"\n{'function':40} killed survived")
    for name, (killed, survived) in tally.items():
        print(f"{name:40} {killed:6} {survived:8}")
    total_killed = sum(k for k, _ in tally.values())
    print(f"{'total':40} {total_killed:6} {len(found) - total_killed:8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
