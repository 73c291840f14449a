"""The double-and-add engines the tests hold the package to.

The package runs every multiplication on the comb or wNAF kernel
`scalarmult._execute`, which inlines the a = -3 doubling and the mixed
addition.  These engines run plain left-to-right double-and-add on the
kernel's out-of-line `_jdouble` and `_jadd` alone, so their results are an
independent reference for the kernel's inline formulas.  Each is priced as
the package once priced it: `scalar_mul_unchecked` as double-and-add on the
affine law, and `ecsm_jacobian` as `scalarmult.jacobian_price`, the energy
fit's projective baseline, whose count comes with it.  Each price is
computed only while a counter scope is open, and recorded in one call.  No
`AffinePoint` is the identity, so these engines return None for it, as the
tests' affine oracles do.

The package's private helpers are read through the module at call time, so
a test that patches one of them patches these engines too.
"""

from ecdtls import counters, scalarmult
from ecdtls.curve import AffinePoint


def double_and_add(curve, k: int, x: int, y: int) -> tuple:
    """k*(x, y) as a Jacobian triple, left to right."""
    acc = scalarmult._IDENTITY
    for i in range(k.bit_length() - 1, -1, -1):
        acc = scalarmult._jdouble(curve, *acc)
        if (k >> i) & 1:
            acc = scalarmult._jadd(curve, *acc, x, y)
    return acc


def affine(curve, triple: tuple):
    """The AffinePoint of a Jacobian triple, None for the identity."""
    xy = scalarmult._to_affine(curve, [triple])[0]
    return None if xy is None else AffinePoint(curve, *xy)


def scalar_mul_unchecked(k: int, P: AffinePoint):
    """k*P for any k >= 0, None for the identity, priced as double-and-add
    on the affine law."""
    curve = P.curve
    if counters._stack():   # a scope is open, so the price counts
        counters.record_all(curve.mod.cost(scalarmult._walk_events(
            curve, map(int, bin(k)[2:]))))
    return affine(curve, double_and_add(curve, k, P.x, P.y))


def ecsm_jacobian(k: int, P: AffinePoint):
    """k*P for k in [1, n), None for the identity, priced as the
    projective baseline, its `ecsm_jacobian` count included."""
    curve = P.curve
    scalarmult._check_range(k, curve)
    if counters._stack():   # a scope is open, so the price counts
        counters.record_all(scalarmult.jacobian_price(curve, k))
    return affine(curve, double_and_add(curve, k, P.x, P.y))
