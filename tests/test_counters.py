import json
import os
import pathlib
import subprocess
import sys

import pytest

from ecdtls.counters import OpCounters

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Diffs a record's session tally against the handshake's; prints key order.
PROBE = """
import json
from ecdtls.counters import OpCounters
later = OpCounters(aes_block=4, ghash_block=5, bytes_sealed=64, mod_mul=9)
print(json.dumps(list(later.diff(OpCounters(mod_mul=2)))))
"""


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_diff_key_order_independent_of_hash_seed(hashseed):
    """energy.estimate sums in key order, so the order of a diff must not
    change with the string hash of the process."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["aes_block", "ghash_block", "bytes_sealed",
                               "mod_mul"]


def test_diff_values_and_order():
    later = OpCounters(point_add=3, mod_mul=7, hmac=1)
    earlier = OpCounters(hmac=1, sha_compress=2, mod_mul=4)
    got = later.diff(earlier)
    assert list(got.items()) == [("point_add", 3), ("mod_mul", 3),
                                 ("sha_compress", -2)]
