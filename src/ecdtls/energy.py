"""Energy model: joules per counted operation, and the modeled total of a
counter vector.

The model prices field work per interleaved-multiplier iteration and per
Euclid-inversion bit, with the two weights fitted once so that a default
256-bit comb multiplication (cache hit) costs exactly the reference ECSM
energy and the Jacobian-plus-Fermat baseline lands at the reference
affine-versus-projective ratio.  Symmetric primitives are priced per block
from their reference energies.  Everything is a model over counted
operations, not a measurement.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from . import counters
from .counters import OpCounters
from .curve import CurveParams, get_curve
from .scalarmult import CombCache, ecsm_comb, ecsm_jacobian

# Reference calibration anchors (all energies in joules)
CAL_ECSM_256B_J = 6.34e-6        # one 256-bit scalar multiplication
CAL_AES_BLOCK_J = 6.21e-9        # one AES-128 block operation
CAL_SHA_COMPRESS_J = 24.3e-9     # one SHA-256 64-byte compression
CAL_AFFINE_VS_JACOBIAN = 1.93    # projective/affine ECSM energy ratio
CAL_HANDSHAKE_J = 44.08e-6       # reference whole-handshake energy
CAL_APPDATA_J_PER_BYTE = 0.89e-9  # reference per-byte application data cost

# Every counter kind the model prices; most weigh nothing, but a kind missing
# here is an error, so a new counter cannot silently cost zero.
PRICED_KINDS = (
    "mod_add", "mod_sub", "mod_mul", "mul_iter", "mod_inv_euclid",
    "inv_work", "mod_inv_fermat", "point_add", "point_double", "ecsm_comb",
    "ecsm_jacobian", "comb_precompute",
    "comb_cache_hit", "comb_cache_miss", "ecdsa_sign", "ecdsa_verify",
    "aes_block", "ghash_block", "sha_compress", "sha_message", "hmac",
    "drbg_generate", "cert_cache_hit", "cert_cache_miss", "x509_parse",
    "bytes_sealed", "bytes_opened",
)


class EnergyModelError(Exception):
    pass


class EnergyEstimate(NamedTuple):
    total: float  # joules


class EnergyModel:
    """Weight table over counter kinds; weights are joules per counted unit."""

    def __init__(self, weights: Dict[str, float]):
        for kind, w in weights.items():
            if w < 0:
                raise EnergyModelError("negative weight for %s" % kind)
        self.weights = weights

    def estimate(self, counts: OpCounters) -> EnergyEstimate:
        unknown = sorted(k for k in counts if k not in self.weights)
        if unknown:
            raise EnergyModelError(
                "no weight for counter kind(s): %s" % ", ".join(unknown))
        # one kind at a time in the counters' order: float addition does not
        # associate, so another order or a compensated sum (such as sum() on
        # Python 3.12+) would move totals in their last digit
        total = 0.0
        for kind, count in counts.items():
            total += self.weights[kind] * count
        return EnergyEstimate(total)


_default_model: Optional[EnergyModel] = None


def default_model() -> EnergyModel:
    """The paper-calibrated model; the sub-ECSM weight fit runs once."""
    global _default_model
    if _default_model is None:
        _default_model = _fit_default_model()
    return _default_model


_FIT_CURVE = "secp256r1"


def calibration_scalar(curve: CurveParams) -> int:
    """The fixed odd scalar, about 2n/3, that the fit multiplies by."""
    return (curve.n * 2 // 3) | 1


def _measure_calibration_counts() -> Tuple[OpCounters, OpCounters]:
    curve = get_curve(_FIT_CURVE)
    G = curve.generator()
    k_cal = calibration_scalar(curve)
    with counters.isolated():
        cache = CombCache()
        ecsm_comb(k_cal, G, cache)  # the miss stays outside the measurement
        with counters.scope() as hit:
            ecsm_comb(k_cal, G, cache)
        with counters.scope() as jac:
            ecsm_jacobian(k_cal, G)
    return hit.counters, jac.counters


def _mul_equivalents(counts: OpCounters) -> Tuple[float, float]:
    """(iteration-units, inversion-bit-units): adds and subs cost one
    multiplier iteration each."""
    a = counts.get("mul_iter", 0) + counts.get("mod_add", 0) + \
        counts.get("mod_sub", 0)
    b = counts.get("inv_work", 0)
    return float(a), float(b)


def _fit_default_model() -> EnergyModel:
    hit, jac = _measure_calibration_counts()
    a1, b1 = _mul_equivalents(hit)
    a2, b2 = _mul_equivalents(jac)
    target_hit = CAL_ECSM_256B_J
    target_jac = CAL_AFFINE_VS_JACOBIAN * CAL_ECSM_256B_J
    # two linear equations in (w_iter, w_invbit)
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise EnergyModelError("degenerate calibration system")
    w_iter = (target_hit * b2 - target_jac * b1) / det
    w_inv = (a1 * target_jac - a2 * target_hit) / det
    if w_iter <= 0 or w_inv <= 0:
        raise EnergyModelError("calibration produced non-positive weights")
    weights = dict.fromkeys(PRICED_KINDS, 0.0)
    weights["mul_iter"] = w_iter
    weights["mod_add"] = w_iter
    weights["mod_sub"] = w_iter
    weights["inv_work"] = w_inv
    weights["aes_block"] = CAL_AES_BLOCK_J
    weights["sha_compress"] = CAL_SHA_COMPRESS_J
    # GHASH runs on the same datapath scale as one AES block pass (model choice)
    weights["ghash_block"] = CAL_AES_BLOCK_J
    return EnergyModel(weights)
