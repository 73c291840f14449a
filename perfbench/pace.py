"""Machine pace: every timed sample is scaled to a fixed reference speed.

On a shared VM the speed of one vCPU drifts by up to 2x in spells of
seconds to minutes, and thread CPU time drifts with it, so neither wall nor
CPU time of the same code is steady across runs.  The reference is timed in
thread CPU time, like the samples.  The drift acts alike on
all pure-Python work, so the benchmark times a fixed reference computation
right before and right after each request and scales the request's time by
``NOMINAL_NS`` over the mean of the two.  A mark after a long request runs
the reference longer, for about a hundredth of the request's time, so that
it averages the pace over more than an instant.  Over two minutes in which
the raw time of one 64 B record moved between 0.75 and 1.34 ms, its ratio
to the reference moved by about 2 %.

The reference is code of the benchmark, not of the program, so a change to
the program moves only the scaled times, never the reference.
"""

from __future__ import annotations

import statistics
import time

# the reference's time on a quiet 2.1 GHz Xeon vCPU under CPython 3.11, so
# scaled times read about as wall times on that machine when it is idle
NOMINAL_NS = 50_000.0
REPS = 3                                  # reference runs per mark, least
MARK_SHARE = 0.01                         # of the request's time, at most

_P = 2**256 - 2**224 + 2**192 + 2**96 - 1  # the secp256r1 field prime
_TABLE = [(i * 7 + 99) % 256 for i in range(256)]

_clock_ns = time.thread_time_ns


def reference() -> bytes:
    """Fixed work in the program's mix: 256-bit modular products, then
    byte-table lookups over a 16-byte state."""
    x = 0x1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef
    y = x ^ 0xffff
    for _ in range(60):
        x = x * y % _P
        y = (y + x) % _P
    state = list(range(16))
    for r in range(6):
        state = [_TABLE[(b + r) & 255] ^ state[(i + 1) & 15]
                 for i, b in enumerate(state)]
    return bytes(state) + x.to_bytes(32, "big")


def mark(reps: int = REPS) -> float:
    """The median time of reps reference runs, in ns."""
    times = []
    for _ in range(reps):
        t0 = _clock_ns()
        reference()
        times.append(_clock_ns() - t0)
    return statistics.median(times)


class Pace:
    """Marks the machine's speed between requests."""

    def __init__(self):
        mark()                  # the interpreter specialises the first runs
        self.last = mark()

    def scale(self, seconds: float) -> float:
        """Mark again and return the factor for the request of the given
        seconds that ran since the previous mark: NOMINAL_NS over the mean
        of the two marks."""
        now = mark(max(REPS, int(seconds * 1e9 * MARK_SHARE / NOMINAL_NS)))
        factor = 2 * NOMINAL_NS / (self.last + now)
        self.last = now
        return factor
