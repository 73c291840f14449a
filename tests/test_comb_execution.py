"""The fixed-base comb and the Jacobian step kernel that run every
multiplication, checked for what makes them fast (the shape of the
schedule) and against the independent double-and-add reference.  No test
here times anything."""

import random

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import builtin_registry
from ecdtls.scalarmult import CombCache, pin_trust_anchor
from conftest import registered_names
from reference_engines import double_and_add, scalar_mul_unchecked


@pytest.fixture
def schedules(monkeypatch):
    """The steps each run of the kernel is handed, in call order."""
    seen = []
    execute = scalarmult._execute

    def spy(curve, steps):
        seen.append(list(steps))
        return execute(curve, seen[-1])

    monkeypatch.setattr(scalarmult, "_execute", spy)
    return seen


def reference(curve, k, P):
    return scalarmult._point(curve, double_and_add(curve, k, P.x, P.y))


def process_rows(P):
    """P's process-wide rows: G's, a pinned anchor's, or None."""
    return scalarmult._fixed_rows(P, scalarmult.point_identity(P))


class TestCombShape:
    def test_p256_tables_and_schedule(self, curves, schedules):
        # 8 teeth of d = 32 bits in 4 blocks of e = 8: 4 tables of the 255
        # non-empty tooth sums, and e steps, the first on the identity, so
        # at most 7 doublings and one addition per block and step
        c = curves["secp256r1"]
        G = c.generator()
        rows = process_rows(G)
        assert scalarmult._comb_geometry(c) == (32, 8)
        assert [len(table) for table in rows] == [255] * 4
        rng = random.Random("p256-schedule")
        top = (1 << 256) - 1                        # every column 255
        for k in [1, c.n - 1, top] + [rng.randrange(1, c.n)
                                      for _ in range(20)]:
            scalarmult._fixed_base(c, rows, k)
            steps = schedules[-1]
            additions = sum(map(len, steps))
            assert len(steps) == 8 and additions <= 32
            assert k != top or additions == 32

    def test_entries_are_tooth_sums(self, toy):
        # table b, entry j - 1: sum(bit_i(j) 2^(i*d + b*e)) P; on toy59 the
        # sums wrap mod n, so building them doubles and cancels too
        G = toy.generator()
        d, e = scalarmult._comb_geometry(toy)
        rows = scalarmult._rows(toy, G.x, G.y)
        for b, table in enumerate(rows):
            for j in range(1, 256):
                m = sum(1 << i * d + b * e for i in range(8) if j >> i & 1)
                want = scalar_mul_unchecked(m, G)
                got = table[j - 1]
                assert (got is None) == (want is None)
                assert got is None or got == (want.x, want.y)


@pytest.fixture
def no_anchors(monkeypatch):
    monkeypatch.setattr(scalarmult, "_ANCHOR_ROWS", {})


@pytest.mark.parametrize("name", registered_names(builtin_registry()))
def test_executors_agree_with_double_and_add(registry, name, no_anchors):
    # G's tables, a pinned anchor's, and those of a base built on its first
    # cache hit, each on seeded scalars and on the largest the comb takes
    c = registry.get(name)
    G = c.generator()
    anchor = scalar_mul_unchecked(c.n // 3, G)
    pin_trust_anchor(anchor)
    other = scalar_mul_unchecked(c.n // 5, G)
    cache = CombCache()
    assert cache.get_or_build(other) is None                  # miss
    bases = {G: process_rows(G), anchor: process_rows(anchor),
             other: cache.get_or_build(other)}                # first hit
    assert all(rows is not None for rows in bases.values())
    d, _ = scalarmult._comb_geometry(c)
    rng = random.Random(name)
    scalars = [rng.randrange(1, c.n) for _ in range(40)]
    for P, rows in bases.items():
        top = (1 << 8 * d) - 1
        assert scalarmult._point(c, scalarmult._fixed_base(c, rows, top)) \
            == reference(c, top, P)
        for k in scalars:
            want = reference(c, k, P)
            assert scalarmult._point(c, scalarmult._fixed_base(c, rows, k)) \
                == want
            assert scalarmult._point(c, scalarmult._wnaf(c, k, P.x, P.y)) \
                == want


def test_execution_records_nothing(curves, monkeypatch):
    # building tables and running the kernel, under an open scope
    c = curves["secp256r1"]
    G = c.generator()
    calls = []
    for fn in ("record", "record_all"):
        real = getattr(counters, fn)
        monkeypatch.setattr(counters, fn, lambda *a, real=real:
                            calls.append(a) or real(*a))
    k = c.n * 2 // 3
    with counters.scope(trace=True) as sc:
        rows = scalarmult._rows(c, G.x, G.y)
        scalarmult._fixed_base(c, rows, k)
        scalarmult._wnaf(c, k, G.x, G.y)
        scalarmult._execute(c, [[(G.x, G.y)]] * 3)
    assert calls == [] and sc.counters == {} and sc.trace == []
