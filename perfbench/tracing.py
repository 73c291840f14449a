"""Span tracer for the benchmark's traced run.

Wrappers are installed around public ecdtls functions only while a traced
request runs, and removed afterwards, so untraced requests execute the
program exactly as shipped.  Each name is patched in every module that looks
it up: a ``from .field import mul_int`` binds the function into the importing
module, so patching ``field.mul_int`` alone would miss those callers.

Two kinds of wrapper share one call stack, so every frame knows how much of
its time its wrapped callees took (self time = duration - children):

* span wrappers record (name, start, end, parent, request id) per call;
* hot wrappers (field kernels, ``counters.record``, point formulas, SHA-256
  internals: about 10^5 calls per handshake) only add to a per-request
  aggregate of call count, total time and child time.

Spans and aggregates stay in memory and are written out by ``write``.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Tuple

from ecdtls import (counters, curve, drbg, ecdsa, field, handshake, keyagree,
                    record, scalarmult, sha256, wire, x509)

_perf = time.perf_counter_ns

# (owner, attribute, span name, hot).  The owner is where the name is looked
# up at call time; one function may appear under several owners.
_TARGETS: List[Tuple[object, str, str, bool]] = []


def _target(owners, attr: str, name: str, hot: bool = False) -> None:
    for owner in owners:
        _TARGETS.append((owner, attr, name, hot))


# field kernels: called through field's own globals and imported by name
for _fn in ("mul_int", "add_int", "sub_int", "inv_euclid_int",
            "inv_fermat_int"):
    _target([m for m in (field, curve, scalarmult, ecdsa) if hasattr(m, _fn)],
            _fn, "field." + _fn, hot=True)
_target([counters], "record", "counters.record", hot=True)
for _fn in ("point_add", "point_double"):
    _target([m for m in (curve, scalarmult, ecdsa, keyagree)
             if hasattr(m, _fn)], _fn, "curve." + _fn, hot=True)
for _fn in ("update", "digest", "copy", "_compress"):
    _target([sha256.Sha256], _fn, "sha256." + _fn.lstrip("_"), hot=True)
_target([sha256.HmacKey], "__init__", "sha256.hmac_key", hot=True)
_target([sha256.HmacKey], "mac", "sha256.hmac", hot=True)

_target([scalarmult], "comb_precompute", "scalarmult.comb_precompute")
_target([scalarmult, ecdsa, keyagree], "ecsm_comb", "scalarmult.ecsm_comb")
_target([handshake, x509], "ecdsa_sign", "ecdsa.sign")
_target([handshake, x509], "ecdsa_verify", "ecdsa.verify")
_target([handshake], "ecdhe_shared", "keyagree.ecdhe")
_target([handshake], "x509_parse", "x509.parse")
_target([handshake], "x509_verify", "x509.verify")
_target([handshake], "tls_prf_sha256", "prf.tls_prf_sha256")
_target([drbg.HmacDrbg], "generate", "drbg.generate")
_target([record], "aes_gcm_seal", "aesgcm.seal")
_target([record], "aes_gcm_open", "aesgcm.open")
_target([record.RecordLayer], "encode", "record.encode")
_target([record.RecordLayer], "decode", "record.decode")
_target([handshake.HandshakeSession], "__init__", "handshake.session_init")
_target([handshake.HandshakeSession], "client_step", "handshake.client_step")
_target([handshake.HandshakeSession], "server_step", "handshake.server_step")
for _fn in sorted(vars(wire)):
    if (_fn.startswith(("build_", "parse_", "pack_"))
            or _fn in ("tls_curve_id", "server_key_exchange_signed_data")):
        _target([wire], _fn, "wire." + _fn)


class Tracer:
    """Collects spans and hot-path aggregates for traced requests."""

    def __init__(self):
        # [name, start, end, parent, request, child_ns]
        self.spans: List[list] = []
        # request -> name -> [calls, total_ns, child_ns]
        self.requests: Dict[str, Dict[str, list]] = {}
        self._stack: List[list] = []      # frames: [child_ns, span index]
        self._req = None
        self._agg: Dict[str, list] = {}
        self._wrappers: Dict[Tuple[int, str], object] = {}

    # -- requests ---------------------------------------------------------

    @contextlib.contextmanager
    def traced(self, req: str) -> Iterator[None]:
        """Install the wrappers, attribute what runs inside to req, and
        restore every patched name on the way out."""
        self.request(req)
        self._stack = [[0, -1]]
        saved = []
        try:
            for owner, attr, name, hot in _TARGETS:
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(fn, name, hot))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._req = None

    def request(self, req: str) -> None:
        """Attribute what follows to req, with the wrappers in place."""
        self._req = req
        self._agg = self.requests.setdefault(req, {})

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, fn, name: str, hot: bool):
        key = (id(fn), name)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            wrapper = self._hot(fn, name) if hot else self._span(fn, name)
            self._wrappers[key] = wrapper
        return wrapper

    def _hot(self, fn, name: str):
        tracer = self

        def hot(*args, **kwargs):
            stack = tracer._stack
            frame = [0, stack[-1][1]]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                stack[-1][0] += dt
                agg = tracer._agg.get(name)
                if agg is None:
                    agg = tracer._agg[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[0]

        return hot

    def _span(self, fn, name: str):
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            index = len(spans)
            record = [name, 0, 0, stack[-1][1], tracer._req, 0]
            spans.append(record)
            frame = [0, index]
            stack.append(frame)
            record[1] = t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = t1 = _perf()
                stack.pop()
                stack[-1][0] += t1 - t0
                record[5] = frame[0]

        return span

    # -- results ----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, int]]:
        """name -> {calls, total_ns, self_ns} over every traced request."""
        out: Dict[str, Dict[str, int]] = {}

        def add(name, calls, total, child):
            t = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            t["calls"] += calls
            t["total_ns"] += total
            t["self_ns"] += total - child

        for name, start, end, _parent, _req, child in self.spans:
            add(name, 1, end - start, child)
        for aggregates in self.requests.values():
            for name, (calls, total, child) in aggregates.items():
                add(name, calls, total, child)
        return out

    def write(self, path: str) -> None:
        """Spans as [name, start_ns, end_ns, parent, request, self_ns], the
        parent an index into the spans or -1; aggregates as request -> name
        -> [calls, total_ns, child_ns]."""
        spans = [[n, s, e, p, r, e - s - c] for n, s, e, p, r, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "aggregates": self.requests}, fh)
