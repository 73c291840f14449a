"""The energy model: the fit meets its two anchors, every counted kind is
priced, bad inputs are refused, and a handshake's modeled energy holds still
to the last digit."""

import pytest

from ecdtls import counters, energy, scalarmult
from ecdtls.counters import OpCounters
from ecdtls.energy import (CAL_AFFINE_VS_JACOBIAN, CAL_APPDATA_J_PER_BYTE,
                           CAL_ECSM_256B_J, CAL_HANDSHAKE_J, EnergyModel,
                           EnergyModelError, calibration_scalar,
                           default_model)
from ecdtls.record import MAX_PLAINTEXT
from ecdtls.scalarmult import ecsm_comb

from reference_engines import ecsm_jacobian
from test_golden_counters import (ECSM_SECP160R1, HANDSHAKE_COUNTERS,
                                  handshake_scenario)


def test_fit_meets_both_anchors(curves):
    curve = curves["secp256r1"]
    G = curve.generator()
    k = calibration_scalar(curve)
    with counters.scope() as hit:
        ecsm_comb(k, G)
    with counters.scope() as jac:
        ecsm_jacobian(k, G)
    model = default_model()
    assert model.estimate(hit.counters).total == \
        pytest.approx(CAL_ECSM_256B_J, rel=1e-12)
    assert model.estimate(jac.counters).total == \
        pytest.approx(CAL_AFFINE_VS_JACOBIAN * CAL_ECSM_256B_J, rel=1e-12)


def test_fit_prices_the_executed_counts(curves):
    # the fit's two vectors, priced from the scalar, are the counts of the
    # two multiplications run: a resident base's walk and the Jacobian
    # baseline
    curve = curves["secp256r1"]
    G = curve.generator()
    k = calibration_scalar(curve)
    with counters.scope() as hit:
        ecsm_comb(k, G)
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
    assert uJ == 23.45254220895971


def test_reconciliation_with_the_paper_anchors():
    """The modeled client against the paper's own anchors, under stated
    assumptions: a secp256r1 client; G and the trust anchor's key resident,
    their comb tables provisioned with the credential; the golden tests'
    PKI, entropy and fixed clock (`handshake_scenario`).  Cold full is a
    first handshake in full mode; warm cached finds the server's leaf in
    its certificate cache, verified by an earlier session; app data is the
    client's seal and open of one 16 KiB record each way, per byte, as the
    benchmark's `appdata_nJ_per_B` counts it.  Against `CAL_HANDSHAKE_J`
    the model reads +24.3 % cold and -13.2 % warm cached, and against
    `CAL_APPDATA_J_PER_BYTE` -12.7 %.  The weights are fitted from the
    ECSM anchors alone and none is touched here, so the gaps are reported,
    not tuned away."""
    model = default_model()
    cold, _ = handshake_scenario("secp256r1", "full")
    warm, server = handshake_scenario("secp256r1", "cached")
    payload = bytes(range(256)) * (MAX_PLAINTEXT // 256)
    before = warm.session_counters
    echoed = server.seal_app_data(server.open_app_data(
        warm.seal_app_data(payload)))
    assert warm.open_app_data(echoed) == payload
    appdata = warm.session_counters.diff(before)
    cold_uJ = model.estimate(cold.handshake_counters).total * 1e6
    warm_uJ = model.estimate(warm.handshake_counters).total * 1e6
    nJ_per_B = model.estimate(appdata).total * 1e9 / (2 * len(payload))
    assert (cold_uJ, warm_uJ, nJ_per_B) == \
        (54.780914061552835, 38.248011506160545, 0.7773870849609376)
    assert (CAL_HANDSHAKE_J, CAL_APPDATA_J_PER_BYTE) == (44.08e-6, 0.89e-9)
    gaps = [round(100 * (x / anchor - 1), 1) for x, anchor in (
        (cold_uJ, CAL_HANDSHAKE_J * 1e6), (warm_uJ, CAL_HANDSHAKE_J * 1e6),
        (nJ_per_B, CAL_APPDATA_J_PER_BYTE * 1e9))]
    assert gaps == [24.3, -13.2, -12.7]
