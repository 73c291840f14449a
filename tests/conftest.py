import random

import pytest
from hypothesis import settings

from ecdtls import scalarmult
from ecdtls.curve import builtin_registry

# every property draws the same examples on every run, with no example
# database and no per-example deadline
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")

CURVE_NAMES = ["secp160r1", "secp192r1", "secp224r1", "secp256r1"]


def registered_names(registry):
    """The ids of every curve registry holds, in registration order, for
    tests that run over all of them; the package looks curves up one at a
    time."""
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
def fresh_rows(monkeypatch):
    """An empty process-wide store of resident bases' rows for the test."""
    monkeypatch.setattr(scalarmult, "_RESIDENT_ROWS", {})


@pytest.fixture
def rng():
    return random.Random(0xDE)
