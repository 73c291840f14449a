"""The energy model: the fit meets its two anchors, every counted kind is
priced, bad inputs are refused, and a handshake's modeled energy holds still
to the last digit."""

import pytest

from ecdtls import counters, energy, scalarmult
from ecdtls.counters import OpCounters
from ecdtls.energy import (CAL_AFFINE_VS_JACOBIAN, CAL_ECSM_256B_J,
                           EnergyModel, EnergyModelError, calibration_scalar,
                           default_model)
from ecdtls.scalarmult import CombCache, ecsm_comb

from reference_engines import ecsm_jacobian
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


def test_fit_prices_the_executed_counts(curves):
    # the fit's two vectors, priced from the scalar, are the counts of the
    # two multiplications run: a comb cache hit and the Jacobian baseline
    curve = curves["secp256r1"]
    G = curve.generator()
    k = calibration_scalar(curve)
    cache = CombCache()
    ecsm_comb(k, G, cache)
    with counters.scope() as hit:
        ecsm_comb(k, G, cache)
    with counters.scope() as jac:
        ecsm_jacobian(k, G)
    with counters.scope() as outer:
        priced = energy._measure_calibration_counts()
    assert [list(c.items()) for c in priced] == \
        [list(hit.counters.items()), list(jac.counters.items())]
    assert outer.counters == {}


def test_fit_runs_nothing(registry, monkeypatch):
    def refuse(*args):
        raise AssertionError("the fit executed a multiplication")

    for name in ("_execute", "_rows", "_wnaf", "_fixed_base", "_jdouble",
                 "_jadd"):
        monkeypatch.setattr(scalarmult, name, refuse)
    weights = energy._fit_default_model().weights
    assert weights["mul_iter"] == 1.15455999396121e-11
    assert weights["inv_work"] == 1.4975626405928432e-10


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
    assert uJ == 35.60012788127589
