"""Operation counters: per-scope tallies of the primitive operations executed.

Every counted primitive calls :func:`record`, or :func:`record_all` with the
whole price of a formula; a recorder collects tallies only while it sits on
the active stack, so nested scopes sum into their parents naturally.  No
process-global counter exists: with no scope active, recording is a no-op.
"""

from __future__ import annotations

import threading
from typing import Optional

_local = threading.local()


class ScopeError(Exception):
    """Unbalanced or misused counter scope."""


# Operation kinds whose order of execution is captured in a trace (when a
# tracing scope is active).  These are the scalar-visible operations used by
# the uniform-trace checks.
TRACED_KINDS = frozenset({
    "mod_mul",
    "mod_inv_euclid",
    "mod_inv_fermat",
    "point_add",
    "point_double",
})

class OpCounters(dict):
    """Tally of operation kinds -> counts.  Plain dict with arithmetic helpers."""

    def __missing__(self, key: str) -> int:
        return 0

    def __add__(self, other: "OpCounters") -> "OpCounters":
        out = OpCounters(self)
        for k, v in other.items():
            out[k] = out.get(k, 0) + v
        return out

    def diff(self, earlier: "OpCounters") -> "OpCounters":
        """Return self - earlier, dropping zero entries.  Keys keep their
        first-appearance order, self's keys first, so an energy estimate of
        the result sums in the same order in every process."""
        out = OpCounters()
        for k in list(self) + [k for k in earlier if k not in self]:
            d = self.get(k, 0) - earlier.get(k, 0)
            if d:
                out[k] = d
        return out

    def copy(self) -> "OpCounters":
        return OpCounters(self)


class Recorder:
    """A counting scope.  Accumulates while entered; re-entrant per call site."""

    def __init__(self, label: str = "", trace: bool = False):
        self.label = label
        self.counters = OpCounters()
        self.trace: Optional[list] = [] if trace else None

    def __enter__(self) -> "Recorder":
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _stack()
        if not stack or stack[-1] is not self:
            raise ScopeError("scope %r exited out of order" % self.label)
        stack.pop()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def scope(label: str = "", trace: bool = False) -> Recorder:
    """Open a counting scope; use as a context manager."""
    return Recorder(label, trace=trace)


def record(kind: str, n: int = 1) -> None:
    """Add n to kind in every active scope."""
    record_all((((kind, n),), (kind,) if kind in TRACED_KINDS else ()))


def record_all(cost: tuple) -> None:
    """Add a `PrimeModulus.cost` price to every active scope (hot path)."""
    stack = getattr(_local, "stack", None)
    if not stack:
        return
    items, traced = cost
    for rec in stack:
        c = rec.counters
        for kind, n in items:
            c[kind] = c.get(kind, 0) + n
        if traced and rec.trace is not None:
            rec.trace.extend(traced)


class isolated:
    """Temporarily detach all active scopes (calibration runs must not leak
    their operation counts into whatever scope happens to be open)."""

    def __enter__(self) -> None:
        self._saved = getattr(_local, "stack", [])
        _local.stack = []

    def __exit__(self, *exc) -> None:
        _local.stack = self._saved
