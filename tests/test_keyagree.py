import pytest

from ecdtls.curve import AffinePoint, CurveError, PointDecodeError
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import KeyPair
from ecdtls.keyagree import KeyAgreementError, ecdhe_shared
from reference_engines import scalar_mul_unchecked

# RFC 5903 section 8.1: ECDH P-256 known answer
RFC5903 = dict(
    i=0xC88F01F510D9AC3F70A292DAA2316DE544E9AAB8AFE84049C62A9C57862D1433,
    gix=0xDAD0B65394221CF9B051E1FECA5787D098DFE637FC90B9EF945D0C3772581180,
    giy=0x5271A0461CDB8252D61F1C456FA3E59AB1F45B33ACCF5F58389E0577B8990BB3,
    r=0xC6EF9C5D78AE012A011164ACB397CE2088685D8F06BF9BE0B283AB46476BEE53,
    grx=0xD12DFB5289C8D4F81208B70270398C342296970A0BCCB74C736FC7554494BF63,
    gry=0x56FBF3CA366CC23E8157854C13C58D6AAC23F046ADA30F8353E74F33039872AB,
    girx=0xD6840F6B42F6EDAFD13116E0E12565202FEF8E9ECE7DCE03812464D04B9442DE,
)


class TestEcdhe:
    def test_rfc5903_known_answer(self, curves):
        c = curves["secp256r1"]
        alice = KeyPair(RFC5903["i"], c)
        assert (alice.Q.x, alice.Q.y) == (RFC5903["gix"], RFC5903["giy"])
        bob = KeyPair(RFC5903["r"], c)
        assert (bob.Q.x, bob.Q.y) == (RFC5903["grx"], RFC5903["gry"])
        shared = ecdhe_shared(alice, bob.Q)
        assert shared == RFC5903["girx"].to_bytes(32, "big")

    @pytest.mark.parametrize("name", ["secp160r1", "secp192r1", "secp224r1",
                                      "secp256r1"])
    def test_symmetry(self, curves, name):
        c = curves[name]
        drbg = HmacDrbg(name.encode() + b"#" * 32)
        a = KeyPair.generate(c, drbg)
        b = KeyPair.generate(c, drbg)
        assert ecdhe_shared(a, b.Q) == ecdhe_shared(b, a.Q)

    def test_infinity_peer_rejected(self, curves):
        # a peer's point arrives as bytes; SEC1's identity encoding does not
        # decode, so no identity reaches ecdhe_shared
        c = curves["secp256r1"]
        with pytest.raises(PointDecodeError):
            AffinePoint.decode(b"\x00", c)

    def test_off_curve_peer_rejected(self, curves):
        c = curves["secp256r1"]
        with pytest.raises(CurveError):
            AffinePoint(c, c.gx, (c.gy + 1) % c.mod.p)
        data = bytearray(c.generator().encode())
        data[-1] ^= 1
        with pytest.raises(PointDecodeError, match="point not on curve"):
            AffinePoint.decode(bytes(data), c)

    def test_peer_on_another_curve_rejected(self, curves):
        a = KeyPair(7, curves["secp256r1"])
        with pytest.raises(KeyAgreementError):
            ecdhe_shared(a, curves["secp192r1"].generator())

    def test_matches_double_and_add_oracle(self, curves, rng):
        c = curves["secp256r1"]
        d1, d2 = rng.randrange(1, c.n), rng.randrange(1, c.n)
        a = KeyPair(d1, c)
        peer = scalar_mul_unchecked(d2, c.generator())
        want = scalar_mul_unchecked(d1, peer)
        assert ecdhe_shared(a, peer) == want.x.to_bytes(32, "big")

    @pytest.mark.parametrize("name,d,width", [("secp160r1", 130, 20),
                                              ("toy59", 17, 1)])
    def test_secret_is_x_at_field_width(self, registry, name, d, width):
        """The secret is x of d * peer, big-endian at the byte width of p.
        On secp160r1, 130 * G has an x below 2^152, so a variable-width
        encoding would drop the zero top byte."""
        c = registry.get(name)
        G = c.generator()
        shared = ecdhe_shared(KeyPair(d, c), G)
        want = scalar_mul_unchecked(d, G).x
        assert len(shared) == width == c.mod.byte_len
        assert shared == want.to_bytes(width, "big")
        assert shared == ecdhe_shared(KeyPair(1, c), KeyPair(d, c).Q)
        if name == "secp160r1":
            assert shared[0] == 0
