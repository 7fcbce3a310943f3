"""Device-write logging, exact bytecode counts and C-call counts for the
tests.

The randomized trace machine the tests drive lives in :mod:`vnvheap.oracle`.
"""

import sys
from collections import Counter


def log_writes(dev, log=None):
    """Record every public write of ``dev`` as (offset, bytes), in a new list
    or appended to ``log``, so that one list can follow a trace across
    reboots."""
    if log is None:
        log = []
    write = dev.write

    def logged(offset, data):
        log.append((offset, bytes(data)))
        return write(offset, data)

    dev.write = logged
    return log


def count_bytecodes(fn, *args):
    """Run ``fn(*args)`` and return the number of bytecodes it executed, over
    every Python frame it entered. Unlike a timer, the count is exact and
    repeatable, so a test can assert that a cost does not grow."""
    return sum(count_bytecodes_by_function(fn, *args).values())


def count_bytecodes_by_function(fn, *args):
    """``count_bytecodes``, broken down by the qualified name of the function
    (``co_qualname``) whose frame executed each bytecode, so that a test
    whose bound is exceeded can name the function that grew."""
    executed = Counter()

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            executed[frame.f_code.co_qualname] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return executed


def count_c_calls(fn, *args):
    """Run ``fn(*args)`` and count the calls its Python frames made to C
    functions, builtins and methods of builtin types, by qualified name
    (``"sorted"``, ``"list.sort"``). ``count_bytecodes`` cannot see the work
    done inside such a call, such as a sort, but this sees the call."""
    calls = Counter()
    tracing = True

    def profile(frame, event, arg):
        if event == "c_call" and tracing:
            calls[arg.__qualname__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        tracing = False
        sys.setprofile(previous)
    return calls
