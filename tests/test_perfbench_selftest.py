"""The benchmark's own self-test, a tiny run of every workload, in a
subprocess under a timeout: a change to what perfbench/ uses of the package
(`CombCache`, `SessionConfig(comb_cache=)` and the rest) fails here.  It
takes about 2 s and writes only under the git-ignored .bench_out/."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
