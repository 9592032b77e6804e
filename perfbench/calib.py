"""Host-speed calibration by a pure-Python spin loop the benchmark owns.

On a shared host the interpreter's speed differs from process to process
and swings within a process, so every timed call is bracketed by two spin
samples and its time is rescaled to what it would have been had each
sample taken ``SPIN_REF_S``: the host time at a fixed reference speed.
This module imports nothing from the simulator, so it can time the
simulator's imports too.
"""

import time

_CLOCK = time.perf_counter

#: Spin-loop iterations per calibration sample.
SPIN_ITERS = 40_000

#: Seconds one spin sample takes at the reference speed.
SPIN_REF_S = 0.010


def spin():
    """One calibration sample: seconds for a fixed dict-and-int loop,
    the same kind of interpreter work the simulator does."""
    start = _CLOCK()
    table = {}
    acc = 0
    for i in range(SPIN_ITERS):
        key = i & 255
        acc = (acc + table.get(key, i) * 3) & 0xFFFF
        table[key] = acc ^ i
    return _CLOCK() - start


def factor(before, after):
    """Reference-speed factor of a call between two spin samples."""
    return SPIN_REF_S / ((before + after) / 2.0)


def timed(fn, *args):
    """Run ``fn`` between two spin samples; returns ``(value, seconds,
    factor)`` where ``seconds * factor`` is the time at reference speed."""
    before = spin()
    start = _CLOCK()
    value = fn(*args)
    seconds = _CLOCK() - start
    return value, seconds, factor(before, spin())
