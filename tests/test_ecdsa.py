import hashlib

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import CurveError
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import (EcdsaSignature, KeyPair, SignatureError,
                          digest_to_scalar, ecdsa_sign, ecdsa_verify,
                          rfc6979_nonces)
from ecdtls.field import inv_euclid_int, mul_int
from ecdtls.scalarmult import CombCache, ScalarRangeError, ecsm_comb, \
    ecsm_window
from ecdtls.sha256 import sha256
from test_formula_prices import oracle_add

# RFC 6979 A.2.5, P-256 with SHA-256, message "sample"
RFC6979_KEY = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_UX = 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
RFC6979_UY = 0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299
RFC6979_SAMPLE = dict(
    k=0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
    r=0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
    s=0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
)
RFC6979_TEST = dict(
    k=0xD16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0,
    r=0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
    s=0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
)

# The first four RFC 6979 candidates for k and the signature made without a
# DRBG, per (curve, private key, message), computed with §3.2's K/V steps
# written out, so they check the HMAC_DRBG form of §3.3.  On toy59, d = 1
# and "msg-1", the first candidate gives r = 0, so signing takes the second.
RFC6979_CANDIDATES = [
    ("secp256r1", RFC6979_KEY, b"sample",
     [0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
      0x8E83DC490BC5FC4D5992BD63CD87F254ADFFCB930F8A8011702A88870F638FDB,
      0x7B8DC9AD8CE159ABCA1B9915FC1470E91D5AD2443B3032557E78F47E180AB702,
      0x0C2161730A70227DA55C7D16DF1B6E1302E751BAB0CAF723FF830F7BA60A30AD],
     RFC6979_SAMPLE["r"], RFC6979_SAMPLE["s"]),
    ("secp256r1", 7, b"msg-1",
     [0xD8C09EA2FD81895626214C5DA9D231ACD7730D43FFC75AC58001D89BD210D145,
      0xF5AE24C0E4DB65578E0DF18B4BBFEE79368EFE561F284F7DF53A02243D916933,
      0x32F6968961C621889712F40ED763BCE00B9F774E7888FAFD4C7539C7FFDE5241,
      0x7A02F2E729061B60CCDEFFF708A0BAB1980A9FBF5D6FF451451C8EB8967E3397],
     0xF9E14AB35B091EE93ABCF6466A328F7629FC2EB3624D82C7F26FA44D3CB934A9,
     0x505AA6663AAE6B4FB3BEC71F764D8E9DD3F16C256EA02321203521FD5BCD8FE0),
    ("toy59", 1, b"msg-1", [0x08, 0x22, 0x0F, 0x2E], 0x1E, 0x14),
    ("toy59", 17, b"sample", [0x19, 0x12, 0x14, 0x04], 0x31, 0x34),
]

# RFC 4754 section 8.1 (ECDSA-256, message "abc", fixed k)
RFC4754 = dict(
    w=0xDC51D3866A15BACDE33D96F992FCA99DA7E6EF0934E7097559C27F1614C88A7F,
    k=0x9E56F509196784D963D1C0A401510EE7ADA3DCC5DEE04B154BF61AF1D5A6DECE,
    r=0xCB28E0999B9C7715FD0A80D8E47A77079716CBBF917DD72E97566EA1C066957C,
    s=0x86FA3BB4E26CAD5BF90B7F81899256CE7594BB1EA0C89212748BFF3B3D5B0315,
)


class TestRfc6979Deterministic:
    def test_public_key_derivation(self, curves):
        key = KeyPair(RFC6979_KEY, curves["secp256r1"])
        assert key.Q.x == RFC6979_UX
        assert key.Q.y == RFC6979_UY

    @pytest.mark.parametrize("msg,vec", [(b"sample", RFC6979_SAMPLE),
                                         (b"test", RFC6979_TEST)])
    def test_published_vectors(self, curves, msg, vec):
        c = curves["secp256r1"]
        digest = sha256(msg)
        assert digest == hashlib.sha256(msg).digest()
        assert next(rfc6979_nonces(RFC6979_KEY, digest, c)) == vec["k"]
        key = KeyPair(RFC6979_KEY, c)
        sig = ecdsa_sign(key, digest)
        assert (sig.r, sig.s) == (vec["r"], vec["s"])

    @pytest.mark.parametrize("name,d,msg,ks,r,s", RFC6979_CANDIDATES,
                             ids=["p256-sample", "p256-d7", "toy59-r0",
                                  "toy59-d17"])
    def test_candidates_and_signature_pinned(self, registry, name, d, msg,
                                             ks, r, s):
        c = registry.get(name)
        digest = sha256(msg)
        nonces = rfc6979_nonces(d, digest, c)
        assert [next(nonces) for _ in ks] == ks
        sig = ecdsa_sign(KeyPair(d, c), digest)
        assert (sig.r, sig.s) == (r, s)

    def test_deterministic_signatures_repeat(self, curves):
        key = KeyPair(1234567, curves["secp224r1"])
        digest = sha256(b"fixed message")
        a = ecdsa_sign(key, digest)
        b = ecdsa_sign(key, digest)
        assert a == b


class TestRfc4754KnownK:
    def test_signature_with_fixed_nonce(self, curves):
        # bypass nonce generation: r,s computed directly from the fixed k
        c = curves["secp256r1"]
        from ecdtls.ecdsa import digest_to_scalar
        from ecdtls.field import inv_euclid_int, mul_int
        from ecdtls.scalarmult import ecsm_comb
        digest = sha256(b"abc")
        z = digest_to_scalar(digest, c)
        R = ecsm_comb(RFC4754["k"], c.generator())
        r = R.x % c.n
        s = mul_int(inv_euclid_int(RFC4754["k"], c.n_mod),
                    (z + mul_int(r, RFC4754["w"], c.n_mod)) % c.n, c.n_mod)
        assert r == RFC4754["r"]
        assert s == RFC4754["s"]


class TestSignVerify:
    @pytest.mark.parametrize("name", ["secp160r1", "secp192r1", "secp224r1",
                                      "secp256r1"])
    def test_round_trip_every_curve(self, curves, name):
        c = curves[name]
        drbg = HmacDrbg(b"seed" * 8, name.encode())
        cache = CombCache()
        key = KeyPair.generate(c, drbg)
        digest = sha256(b"message for " + name.encode())
        sig = ecdsa_sign(key, digest, drbg)
        assert ecdsa_verify(key.Q, digest, sig, cache)

    def test_flipped_digest_bit_rejects(self, curves):
        c = curves["secp256r1"]
        drbg = HmacDrbg(b"x" * 32)
        key = KeyPair.generate(c, drbg)
        digest = bytearray(sha256(b"payload"))
        sig = ecdsa_sign(key, bytes(digest), drbg)
        digest[5] ^= 0x10
        assert not ecdsa_verify(key.Q, bytes(digest), sig)

    def test_malleated_s_still_accepts(self, curves):
        # plain X9.62: (r, n - s) is algebraically valid; low-s is not enforced
        c = curves["secp256r1"]
        drbg = HmacDrbg(b"y" * 32)
        key = KeyPair.generate(c, drbg)
        digest = sha256(b"malleability")
        sig = ecdsa_sign(key, digest, drbg)
        assert ecdsa_verify(key.Q, digest, EcdsaSignature(sig.r, c.n - sig.s))

    def test_out_of_range_components_reject_not_raise(self, curves):
        c = curves["secp256r1"]
        drbg = HmacDrbg(b"z" * 32)
        key = KeyPair.generate(c, drbg)
        digest = sha256(b"m")
        assert not ecdsa_verify(key.Q, digest, EcdsaSignature(0, 5))
        assert not ecdsa_verify(key.Q, digest, EcdsaSignature(5, c.n))

    def test_verify_counter(self, curves):
        c = curves["secp192r1"]
        drbg = HmacDrbg(b"w" * 32)
        key = KeyPair.generate(c, drbg)
        digest = sha256(b"count me")
        sig = ecdsa_sign(key, digest, drbg)
        # u1*G walks G's resident table; u2*Q walks too when Q's table is
        # resident, and is one-shot otherwise
        for resident, engines in ((False, (1, 1)), (True, (2, 0))):
            with counters.scope() as sc:
                ecdsa_verify(key.Q, digest, sig, resident=resident)
            assert sc.counters["ecdsa_verify"] == 1
            assert (sc.counters["ecsm_comb"], sc.counters["ecsm_window"]) \
                == engines

    def test_toy_curve_round_trip(self, toy, rng):
        drbg = HmacDrbg(b"toy" * 12)
        for _ in range(20):
            key = KeyPair.generate(toy, drbg)
            digest = sha256(b"toy message %d" % rng.randrange(1000))
            sig = ecdsa_sign(key, digest, drbg)
            assert ecdsa_verify(key.Q, digest, sig)


class TestKeyPair:
    def test_mismatched_public_point_rejected(self, curves):
        c = curves["secp192r1"]
        with pytest.raises(CurveError):
            KeyPair(5, c, Q=c.generator())

    def test_scalar_out_of_range_rejected(self, curves):
        # the comb's range check refuses d before any work is priced
        c = curves["secp192r1"]
        for d in (0, c.n):
            with counters.scope() as sc:
                with pytest.raises(ScalarRangeError):
                    KeyPair(d, c)
            assert sc.counters == {}

    def test_der_signature_round_trip(self, rng):
        for _ in range(20):
            sig = EcdsaSignature(rng.randrange(1, 2**255),
                                 rng.randrange(1, 2**255))
            assert EcdsaSignature.from_der(sig.to_der()) == sig


class TestStrictDerSignature:
    """DER (X.690 10.1, 8.3.2) allows exactly one encoding of a signature;
    every other spelling of (r, s) = (1, 0x80) must be refused."""

    def test_minimal_encoding_round_trips(self):
        good = bytes.fromhex("300702010102020080")
        assert EcdsaSignature(1, 0x80).to_der() == good
        assert EcdsaSignature.from_der(good) == EcdsaSignature(1, 0x80)

    @pytest.mark.parametrize("hexder", [
        # long-form SEQUENCE length where the short form fits
        "30810702010102020080",
        # long-form length with a leading zero octet
        "3082000702010102020080",
        # long-form INTEGER length
        "30080281010102020080",
        # INTEGERs padded with a zero octet they do not need
        "30080202000102020080",
        "30080201010203000080",
        # negative INTEGERs
        "3006020181020101",
        "30060201010201ff",
    ])
    def test_lax_encodings_rejected(self, hexder):
        with pytest.raises(SignatureError):
            EcdsaSignature.from_der(bytes.fromhex(hexder))

    @pytest.mark.parametrize("hexder", [
        "3006020002020080",            # empty INTEGER
        "3080020101020200800000",      # indefinite length
        "30070201010202008000",        # trailing byte after the SEQUENCE
        "3009020101020200800500",      # trailing element inside it
        "310702010102020080",          # SET, not SEQUENCE
    ])
    def test_malformed_encodings_rejected(self, hexder):
        with pytest.raises(SignatureError):
            EcdsaSignature.from_der(bytes.fromhex(hexder))

    def test_truncated_encodings_rejected(self):
        der = EcdsaSignature(2**255 - 19, 2**160 + 7).to_der()
        for cut in range(len(der)):
            with pytest.raises(SignatureError):
                EcdsaSignature.from_der(der[:cut])


def affine_verify(pub, digest, sig, resident=False, seen=None):
    """The verify as it was before the projective x comparison: both
    products made affine, u2*pub by `ecsm_comb` when its table is resident
    and by `ecsm_window` when it is one-shot, and summed by `oracle_add`.
    Adds to seen the branch the sum took, and whether an accepted x was
    r + n."""
    curve = pub.curve
    n = curve.n
    if not sig.in_range(n):
        return False
    counters.record("ecdsa_verify")
    n_mod = curve.n_mod
    z = digest_to_scalar(digest, curve)
    sinv = inv_euclid_int(sig.s, n_mod)
    u1 = mul_int(z % n, sinv, n_mod)
    u2 = mul_int(sig.r % n, sinv, n_mod)
    times_pub = ecsm_comb if resident else ecsm_window
    if u1 == 0:
        branch = "u1 = 0"
        R = times_pub(u2, pub)
    else:
        A, B = ecsm_comb(u1, curve.generator()), times_pub(u2, pub)
        branch = "add" if A.x != B.x else "double" if A == B else "cancel"
        R = oracle_add(A, B)
    if seen is not None:
        seen.add(branch)
    if R is None:
        return False
    if seen is not None and R.x == sig.r + n:
        seen.add("x = r + n")
    return R.x % n == sig.r


def scalar_digest(z, curve):
    """A SHA-256-sized digest whose scalar is z."""
    return (z << 256 - curve.n_bits).to_bytes(32, "big")


class TestProjectiveVerify:
    # toy59 has p = 59 > n = 53, so an x in [53, 59) reduces to r = x - 53
    @pytest.mark.parametrize("q,cached", [(7, False), (52, True)])
    def test_every_signature_against_affine_oracle(self, toy, q, cached):
        # for every r and s: a plain digest, the digests that make
        # u1*G = +-u2*Q (z = +-q*r) and the one that makes u1 = 0; cached,
        # Q's table is resident and its rows are in a comb cache, else Q is
        # one-shot
        n = toy.n
        Q = KeyPair(q, toy).Q
        cache = CombCache() if cached else None
        seen = set()
        for r in range(1, n):
            for z in (q + 5, q * r % n, -q * r % n, 0):
                digest = scalar_digest(z, toy)
                for s in range(1, n):
                    sig = EcdsaSignature(r, s)
                    with counters.scope(trace=True) as want:
                        accept = affine_verify(Q, digest, sig, cached, seen)
                    with counters.scope(trace=True) as got:
                        assert ecdsa_verify(Q, digest, sig, cache, cached) \
                            == accept
                    assert list(got.counters.items()) == \
                        list(want.counters.items())
                    assert got.trace == want.trace
        assert seen == {"add", "double", "cancel", "u1 = 0", "x = r + n"}

    def test_resident_bases_make_nothing_affine(self, curves, monkeypatch):
        c = curves["secp160r1"]
        key = KeyPair(0xC0FFEE, c)
        digest = sha256(b"resident")
        sig = ecdsa_sign(key, digest)
        cache = CombCache()
        for _ in range(2):   # Q's first use, then its second builds rows
            ecdsa_verify(key.Q, digest, sig, cache, resident=True)
        calls = []
        to_affine = scalarmult._to_affine
        monkeypatch.setattr(scalarmult, "_to_affine",
                            lambda *a: calls.append(a) or to_affine(*a))
        with counters.scope() as sc:
            assert ecdsa_verify(key.Q, digest, sig, cache, resident=True)
        assert sc.counters["comb_cache_hit"] == 2
        assert calls == []
