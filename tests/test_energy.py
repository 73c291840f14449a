"""The energy model: the fit meets its two anchors, every counted kind is
priced, bad inputs are refused, and a handshake's modeled energy holds still
to the last digit."""

import pytest

from ecdtls import counters
from ecdtls.counters import OpCounters
from ecdtls.energy import (CAL_AFFINE_VS_JACOBIAN, CAL_ECSM_256B_J,
                           EnergyModel, EnergyModelError, calibration_scalar,
                           default_model)
from ecdtls.scalarmult import CombCache, ecsm_comb, ecsm_jacobian

from test_golden_counters import (ECSM_SECP160R1, HANDSHAKE_COUNTERS,
                                  handshake_scenario)


def test_fit_meets_both_anchors(curves):
    curve = curves["secp256r1"]
    G = curve.generator()
    k = calibration_scalar(curve)
    cache = CombCache()
    ecsm_comb(k, G, cache)
    with counters.scope() as hit:
        ecsm_comb(k, G, cache)
    with counters.scope() as jac:
        ecsm_jacobian(k, G)
    model = default_model()
    assert model.estimate(hit.counters).total == \
        pytest.approx(CAL_ECSM_256B_J, rel=1e-12)
    assert model.estimate(jac.counters).total == \
        pytest.approx(CAL_AFFINE_VS_JACOBIAN * CAL_ECSM_256B_J, rel=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(EnergyModelError):
        default_model().estimate(OpCounters(mod_mul=1, no_such_kind=1))


def test_negative_weight_rejected():
    with pytest.raises(EnergyModelError):
        EnergyModel({"mul_iter": 1e-12, "aes_block": -1e-9})


def test_every_golden_kind_is_priced():
    vectors = list(HANDSHAKE_COUNTERS.values()) + \
        list(ECSM_SECP160R1.values())
    kinds = set().union(*vectors)
    assert kinds - set(default_model().weights) == set()


def test_secp160r1_full_client_handshake_energy():
    client, _ = handshake_scenario("secp160r1", "full")
    uJ = default_model().estimate(client.handshake_counters).total * 1e6
    assert uJ == 41.92138178147595
