#!/usr/bin/env python3
"""Fast self-test of the benchmark: a tiny run of every workload.

    python3 perfbench/selftest.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit and passes its correctness gates, and that a corrupted handshake
datagram is counted as a failed handshake instead of crashing the run.
The tiny runs use secp160r1 to stay fast; the numbers they print are not
measurements.
"""

from __future__ import annotations

import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_CURVE = "secp160r1"

PRINTED_METRICS = ("setup_s", "peak_rss_MiB", "handshake_ms.p50",
                   "handshakes_per_s", "handshake_uJ", "handshake_fail_ratio",
                   "record_ms.p50.small", "record_ms.p99.small",
                   "goodput_KiBps.large", "appdata_nJ_per_B",
                   "record_fail_ratio")


def tiny_run(workload: str, trace: int):
    out = io.StringIO()
    code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                     "0.05", "--trace", str(trace)], curve=TINY_CURVE, out=out)
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


class TinyRuns(unittest.TestCase):

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = run.declared(kind)
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, report, result = tiny_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], report)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        declared)
                    if not trace:
                        table = {line.split()[0]: line.split()[2]
                                 for line in report
                                 if not line.startswith("#")}
                        for name in PRINTED_METRICS:
                            self.assertIn(name, table)
                        for name, unit in declared.items():
                            self.assertEqual(table[name], unit)

    def test_corrupted_handshake_datagram_is_a_failed_attempt(self):
        calls = []
        real = workloads.run_loopback

        def corrupt_once(role, datagrams):
            """Flip a byte inside the server certificate of the first
            server flight that carries one."""
            if corrupt_once.done or role != "server" or len(datagrams) < 2:
                return datagrams
            corrupt_once.done = True
            cert = bytearray(datagrams[1])
            cert[len(cert) // 2] ^= 0x01
            return [datagrams[0], bytes(cert)] + datagrams[2:]
        corrupt_once.done = False

        def run_loopback(client, server, interceptor=None):
            calls.append(1)
            # the first call after the set-up handshake is the first timed
            if len(calls) == workloads.SETUP_REPS + 1:
                interceptor = corrupt_once
            return real(client, server, interceptor)

        workloads.run_loopback = run_loopback
        try:
            code, report, result = tiny_run("hs-full-cold", 0)
        finally:
            workloads.run_loopback = real
        self.assertEqual(code, 0)
        self.assertTrue(corrupt_once.done)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("FAILED handshake" in line for line in report))
        table = {line.split()[0]: float(line.split()[1]) for line in report
                 if not line.startswith("#")}
        self.assertGreater(table["handshake_fail_ratio"], 0.0)
        self.assertEqual(table["record_fail_ratio"], 0.0)


if __name__ == "__main__":
    unittest.main()
