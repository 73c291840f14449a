import os
import random

import pytest
from hypothesis import settings

from ecdtls import curve, handshake
from ecdtls.curve import AffinePoint, builtin_registry

# every property draws the same examples on every run, with no example
# database and no per-example deadline
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")

CURVE_NAMES = ["secp160r1", "secp192r1", "secp224r1", "secp256r1"]

with open(os.path.join(os.path.dirname(curve.__file__), "data", "curves.txt"),
          encoding="utf-8") as _fh:
    SHIPPED_TEXT = _fh.read()


def registered_names(registry):
    """The ids of every curve registry holds, proved or pending, in the
    order they were added (the shipped file's, for the builtin registry),
    for tests that run over all of them; the package looks curves up one at
    a time."""
    return list(registry._curves)


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


@pytest.fixture(scope="session")
def curves(registry):
    return {name: registry.get(name) for name in CURVE_NAMES}


@pytest.fixture(scope="session")
def toy(registry):
    return registry.get("toy59")


@pytest.fixture
def fresh_endpoints(monkeypatch, registry):
    """An empty endpoint store, and on every registered curve a G of the
    test's own, without rows, so that what the test provisions is seen."""
    monkeypatch.setattr(handshake, "_ENDPOINTS", {})
    for name in registered_names(registry):
        c = registry.get(name)
        monkeypatch.setattr(c, "_generator", AffinePoint(c, c.gx, c.gy))


@pytest.fixture
def rng():
    return random.Random(0xDE)
