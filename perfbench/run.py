#!/usr/bin/env python3
"""ecdtls benchmark: DTLS 1.2 ECDHE-ECDSA handshakes and app data on
secp256r1, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload hs-full-cold --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Human-readable lines (provenance, every metric with its unit, the client
counter vector) come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones listed in BENCHMARK.json,
with ``--trace 1`` the per-layer ones, and the spans are written to
``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "ecdtls", "__init__.py")):
    sys.exit("perfbench: no ecdtls package under %s" % SRC)
sys.path.insert(0, SRC)

from ecdtls.counters import OpCounters  # noqa: E402

import tracing  # noqa: E402
from pace import Pace  # noqa: E402
from workloads import (CURVE, WORKLOADS, CountingInterceptor,  # noqa: E402
                       Tally, end_to_end, request, set_up)

_perf = time.perf_counter


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics


def measure(name: str, seed: int, seconds: float, curve: str):
    """Repeat the workload's round until the given seconds have passed.
    Returns the tally, the end-to-end metrics and the client counters of
    the first request of each kind."""
    workload = WORKLOADS[name]
    pace = Pace()
    fixture, link, setup = set_up(workload, seed, curve, pace)
    tally = Tally()
    vectors = {}
    start = _perf()
    while _perf() - start < seconds:
        for kind in workload.round:
            before = link.client.session_counters \
                if kind not in vectors else None
            hs = request(kind, fixture, link, tally, pace)
            if before is None:
                continue
            if hs is None:
                vectors[kind] = link.client.session_counters.diff(before)
            elif hs.ok:
                vectors[kind] = hs.client.handshake_counters
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, end_to_end(tally, setup, fixture, rss), setup, vectors


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics


def _state(hs) -> OpCounters:
    """Both ends' op counters, plus their record-layer drops as
    ``drop.<reason>`` kinds."""
    out = hs.client.session_counters + hs.server.session_counters
    for records in (hs.client.records, hs.server.records):
        for reason, n in records.drop_counts.items():
            out["drop." + reason] += n
    return out


def measure_traced(name: str, seed: int, seconds: float, curve: str):
    """Repeat the workload's round, running each request of a traced kind
    (handshakes on hs-*, every kind on appdata-echo) once untraced and once
    traced.  Per-layer numbers come from the traced ones, per handshake on
    hs-* and per record on appdata-echo; the untraced ones give the tracing
    overhead."""
    workload = WORKLOADS[name]
    pace = Pace()
    fixture, link, _ = set_up(workload, seed, curve, pace)
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    kinds = [k for k in workload.round if k in workload.traced]
    spent = {False: 0.0, True: 0.0}
    counts = OpCounters()
    start = _perf()
    while _perf() - start < seconds:
        for kind in kinds:
            t0 = _perf()
            request(kind, fixture, link, plain, pace)
            spent[False] += _perf() - t0
            before = _state(link)
            interceptor = CountingInterceptor(traced) \
                if kind == "handshake" else None
            with tracer.traced("%s-%d" % (kind, len(tracer.requests))):
                t0 = _perf()
                hs = request(kind, fixture, link, traced, pace, tracer,
                             interceptor)
                spent[True] += _perf() - t0
            if hs is None:
                counts += _state(link).diff(before)
            elif hs.client is not None:
                counts += _state(hs)
                traced.loopback_iterations += hs.iterations
    n = traced.handshakes if workload.per_handshake else traced.records
    metrics = per_layer(tracer.totals(), counts, traced, n,
                        spent[True] / spent[False])
    plain.add(traced)
    return plain, metrics, tracer


def per_layer(totals: dict, counts: OpCounters, tally: Tally, n: int,
              overhead: float) -> dict:
    """name -> (value, unit), each per traced request."""
    n = max(n, 1)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def total_ms(name):
        return totals.get(name, {}).get("total_ns", 0) / 1e6 / n

    def self_ms(prefix):
        return sum(t["self_ns"] for name, t in totals.items()
                   if name.startswith(prefix)) / 1e6 / n

    def count(*kinds):
        return sum(counts[k] for k in kinds) / n

    def ratio(hit, other):
        return hit / (hit + other) if hit + other else 0.0

    hits, misses = counts["comb_cache_hit"], counts["comb_cache_miss"]
    precompute = total_ms("scalarmult.comb_precompute")
    return {
        "field.mod_mul": (count("mod_mul"), "count"),
        "field.mod_inv": (count("mod_inv_euclid", "mod_inv_fermat"), "count"),
        "field.self_ms": (self_ms("field."), "ms"),
        "curve.point_add": (count("point_add"), "count"),
        "curve.point_double": (count("point_double"), "count"),
        "curve.self_ms": (self_ms("curve."), "ms"),
        "counters.record_calls": (calls("counters.record") / n, "count"),
        "counters.self_ms": (self_ms("counters."), "ms"),
        "scalarmult.comb_hit": (hits / n, "count"),
        "scalarmult.comb_miss": (misses / n, "count"),
        "scalarmult.comb_hit_ratio": (ratio(hits, misses), "ratio"),
        "scalarmult.precompute_ms": (precompute, "ms"),
        "scalarmult.ecsm_ms": (total_ms("scalarmult.ecsm_comb") - precompute,
                               "ms"),
        "handshake.session_init_ms": (total_ms("handshake.session_init"),
                                      "ms"),
        "ecdsa.sign_ms": (total_ms("ecdsa.sign"), "ms"),
        "ecdsa.verify_ms": (total_ms("ecdsa.verify"), "ms"),
        "keyagree.ecdhe_ms": (total_ms("keyagree.ecdhe"), "ms"),
        "x509.parse_ms": (total_ms("x509.parse"), "ms"),
        "x509.verify_ms": (total_ms("x509.verify"), "ms"),
        "x509.cert_cache_hit_ratio": (ratio(counts["cert_cache_hit"],
                                            calls("x509.verify")), "ratio"),
        "sha256.compress": (count("sha_compress"), "count"),
        "sha256.self_ms": (self_ms("sha256."), "ms"),
        "prf.ms": (total_ms("prf.tls_prf_sha256"), "ms"),
        "drbg.ms": (total_ms("drbg.generate"), "ms"),
        "wire.self_ms": (self_ms("wire."), "ms"),
        "aesgcm.aes_block": (count("aes_block"), "count"),
        "aesgcm.ghash_block": (count("ghash_block"), "count"),
        "aesgcm.seal_ms": (total_ms("aesgcm.seal"), "ms"),
        "aesgcm.open_ms": (total_ms("aesgcm.open"), "ms"),
        "record.encode_self_ms": (self_ms("record.encode"), "ms"),
        "record.decode_self_ms": (self_ms("record.decode"), "ms"),
        "record.drops.replay": (count("drop.replay"), "count"),
        "record.drops.auth_fail": (count("drop.auth_fail"), "count"),
        "record.overhead_B": (tally.overhead_bytes / n, "B"),
        "transport.datagrams": (tally.datagrams / n, "count"),
        "transport.wire_bytes": (tally.wire_bytes / n, "B"),
        "transport.loopback_iterations": (tally.loopback_iterations / n,
                                          "count"),
        "handshake.client_step_ms": (total_ms("handshake.client_step"), "ms"),
        "handshake.server_step_ms": (total_ms("handshake.server_step"), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ---------------------------------------------------------------------------
# Provenance and output


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    """SHA-256 over the program sources, for checkouts without .git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "ecdtls")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance() -> dict:
    return {"python": platform.python_version(), "cpu": _cpu_model(),
            "nproc": os.cpu_count(), "commit": _git_commit(),
            "src_sha256": _src_digest()}


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None, curve: str = CURVE, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def say(line):
        print(line, file=out)

    say("# ecdtls benchmark: workload=%s seed=%d seconds=%g trace=%d "
        "curve=%s" % (args.workload, args.seed, args.seconds, args.trace,
                      curve))
    say("# provenance %s" % json.dumps(provenance()))
    if args.trace:
        tally, metrics, tracer = measure_traced(args.workload, args.seed,
                                                args.seconds, curve)
        wanted = declared("per_layer")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(ROOT, ".bench_out", "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        tracer.write(trace_path)
        say("# spans: %d, written to %s" % (len(tracer.spans),
                                            os.path.relpath(trace_path, ROOT)))
    else:
        tally, metrics, setup, vectors = measure(args.workload, args.seed,
                                                 args.seconds, curve)
        say("# set-up: fit %.4f s, repetitions %s s" % (
            setup[0], " ".join("%.4f" % t for t in setup[1])))
        wanted = declared("end_to_end")
    say("# attempted %d handshakes and %d records; failed %d and %d"
        % (tally.handshakes, tally.records, tally.handshakes_failed,
           tally.records_failed))
    for failure in tally.failures[:10]:
        say("# FAILED %s" % failure)
    say("# times are scaled by the pace; the median scale was %.4f, from "
        "%.4f to %.4f" % (statistics.median(tally.scales), min(tally.scales),
                          max(tally.scales)))
    for name, (value, unit) in metrics.items():
        say("  %-30s %14.6g %-6s%s" % (name, value, unit,
                                       "" if name in wanted else
                                       "  (not in BENCHMARK.json)"))
    if not args.trace:
        for kind, vector in vectors.items():
            say("# client counters, first %s request: %s"
                % (kind, json.dumps(dict(sorted(vector.items())))))

    result = {}
    for name, unit in wanted.items():
        value, have = metrics[name]
        if have != unit:
            raise ValueError("%s is in %s, BENCHMARK.json says %s"
                             % (name, have, unit))
        result[name] = {"value": value, "unit": unit}
    say(json.dumps({"correct": tally.failed == 0,
                    "attempted": tally.attempted, "failed": tally.failed,
                    "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
