"""ecdtls's primality check against the `openssl prime` command, an
independent implementation: the pseudoprime corpus of test_field.py, every
modulus of the builtin registry, and each odd number from 36 seeded starts
of 16 to 256 bits up to the next prime, must get the same verdict from
both.

The file skips when no `openssl` binary is on the PATH; the package itself
never runs it.
"""

import re
import shutil
import subprocess

import pytest

from ecdtls.field import _is_probable_prime
from conftest import registered_names
from test_field import PSEUDOPRIMES, seeded_odd_numbers

OPENSSL = shutil.which("openssl")
pytestmark = pytest.mark.skipif(OPENSSL is None, reason="no openssl binary")

# "<hex> (<decimal>) is prime" or "... is not prime", one line per number
VERDICT = re.compile(r"^[0-9A-F]+ \((\d+)\) is (not )?prime$")


def openssl_verdicts(numbers):
    run = subprocess.run([OPENSSL, "prime"] + [str(n) for n in numbers],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    verdicts = {}
    for line in run.stdout.splitlines():
        match = VERDICT.match(line)
        assert match, line
        verdicts[int(match.group(1))] = match.group(2) is None
    return verdicts


def seeded_runs(seed, count):
    """Every odd number from each of `count` seeded starts up to the first
    one our check accepts: mostly composites, and `count` primes."""
    numbers = []
    for n in seeded_odd_numbers(seed, count):
        while not _is_probable_prime(n):
            numbers.append(n)
            n += 2
        numbers.append(n)
    return numbers


def test_verdicts_equal_openssl(registry):
    moduli = [m for name in registered_names(registry)
              for m in (registry.get(name).mod.p, registry.get(name).n)]
    runs = seeded_runs(7, 36)
    numbers = list(PSEUDOPRIMES) + moduli + runs
    theirs = openssl_verdicts(numbers)
    assert set(theirs) == set(numbers)
    assert {n: _is_probable_prime(n) for n in numbers} == theirs
    assert all(theirs[m] for m in moduli)
    assert not any(theirs[n] for n in PSEUDOPRIMES)
    assert sum(theirs[n] for n in runs) == 36
