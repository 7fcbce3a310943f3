"""Device-write logging and exact bytecode counts for the tests.

The randomized trace machine the tests drive lives in :mod:`vnvheap.oracle`.
"""

import sys


def log_writes(dev):
    """Record every public write of ``dev`` as (offset, bytes)."""
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
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        frame.f_trace_opcodes = True
        if event == "opcode":
            executed += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return executed
