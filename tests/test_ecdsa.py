import hashlib
import random

import pytest

from ecdtls import counters, scalarmult
from ecdtls.curve import AffinePoint, CurveError
from ecdtls.drbg import HmacDrbg
from ecdtls.ecdsa import (EcdsaSignature, KeyPair, SignatureError,
                          digest_to_scalar, ecdsa_sign, ecdsa_verify,
                          rfc6979_nonces)
from ecdtls.field import PrimeModulus, inv_euclid_int, mul_int
from ecdtls.scalarmult import CombCache, ScalarRangeError, ecsm_comb
from ecdtls.sha256 import sha256
from test_engine_prices import oracle_columns, oracle_comb
from test_formula_prices import (inv_euclid, mul, oracle_add, oracle_double,
                                 oracle_jadd_mixed, oracle_jdouble,
                                 oracle_negate, oracle_window, window_recode)

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


class JointOracle:
    """u1*G + u2*Q walked point by point on the counted formulas of
    `test_formula_prices`, as the joint schedule of Q's class.  Each base
    runs on k' = min(k, n - k), its terms and tail negated where k' is
    n - k; each step negates its terms' entries, doubles, then adds Q's
    term and G's.  Adds to seen the branch of each addition of two points
    where the accumulator already holds a term of the other base: "add",
    "double" or "cancel"."""

    def __init__(self, curve, seen):
        self.curve, self.seen = curve, seen
        self.parts = set()

    def branch(self, operands, base, same_x, same_y):
        """Note the branch of an addition to an acc of base's term, where
        neither operand is the identity (operands)."""
        if self.seen is not None and operands and self.parts - {base}:
            self.seen.add("double" if same_x and same_y else
                          "cancel" if same_x else "add")
        self.parts.add(base)

    def add(self, acc, P, base):
        """acc + P on the affine law."""
        self.branch(acc and P, base, acc and P and acc.x == P.x,
                    acc and P and acc.y == P.y)
        return oracle_add(acc, P)

    def jadd(self, acc, P, base):
        """Jacobian acc + affine P, nothing for P the identity."""
        if P is None:
            return acc
        X, Y, Z = acc
        p = self.curve.mod.p
        self.branch(Z, base, (P.x * Z * Z - X) % p == 0,
                    (P.y * Z * Z * Z - Y) % p == 0)
        return oracle_jadd_mixed(self.curve, *acc, P.x, P.y)

    def comb(self, k, P):
        """(the sign k' selects, c, and each column's signed term)."""
        kp, c, columns = oracle_columns(k, P)
        flip = 1 if kp == k else -1
        return flip, c, [entry if top * flip == 1 else neg
                         for entry, top in columns
                         for neg in [oracle_negate(entry)]]

    def tail(self, P, c, flip, dbl):
        corr = P if c == 1 else dbl
        neg = oracle_negate(corr)
        return neg if flip == 1 else corr

    def resident(self, u1, u2, Q):
        G = self.curve.generator()
        counters.record("ecsm_comb")
        counters.record("ecsm_comb")
        acc = None
        columns = [self.comb(u2, Q), self.comb(u1, G)]
        # the terms' negations were computed in `comb`, column by column
        for term_q, term_g in zip(columns[0][2], columns[1][2]):
            acc = self.add(oracle_double(acc), term_q, "Q")
            acc = self.add(acc, term_g, "G")
        for P, (flip, c, _), base in ((Q, columns[0], "Q"),
                                      (G, columns[1], "G")):
            acc = self.add(acc, self.tail(P, c, flip, oracle_double(P)),
                           base)
        return acc

    def one_shot(self, u1, u2, Q):
        curve = self.curve
        n, mod = curve.n, curve.mod
        G = curve.generator()
        counters.record("ecsm_comb")
        counters.record("ecsm_window")
        two = oracle_double(Q)
        table = [Q]
        for _ in range(7):
            table.append(oracle_add(table[-1], two))
        kp = min(u2, n - u2)
        c, flip = 1 + kp % 2, 1 if kp == u2 else -1
        digits = window_recode(kp + c, -(-curve.n_bits // 4))
        flip_g, c_g, g_terms = self.comb(u1, G)
        chain = 4 * len(digits)
        acc = (1, 1, 0)
        for t in range(chain):
            acc = oracle_jdouble(curve, *acc)
            if t % 4 == 3:
                digit = digits[t // 4] * flip
                entry = table[abs(digit) // 2]
                neg = oracle_negate(entry)
                acc = self.jadd(acc, entry if digit > 0 else neg, "Q")
            if t >= chain - len(g_terms):
                acc = self.jadd(acc, g_terms[t - chain + len(g_terms)], "G")
        acc = self.jadd(acc, self.tail(Q, c, flip, two), "Q")
        acc = self.jadd(acc, self.tail(G, c_g, flip_g, oracle_double(G)),
                        "G")
        X, Y, Z = acc
        if Z == 0:
            return None
        zinv = inv_euclid(Z, mod)
        zz = mul(zinv, zinv, mod)
        return AffinePoint(curve, mul(X, zz, mod),
                           mul(Y, mul(zz, zinv, mod), mod))


def oracle_verify(pub, digest, sig, resident=False, seen=None, walks=None):
    """ecdsa_verify point by point: u1 and u2 by the counted scalar
    kernels, then at u1 = 0 u2*pub by its engine's oracle, `oracle_comb`
    for a resident pub and `oracle_window` for a one-shot one, and else the
    `JointOracle` of pub's class.  Adds to seen the joint steps' branches,
    "u1 = 0", and whether an accepted x was r + n.  Given walks, a dict,
    the walk of each (u1, u2) runs once, and its result, counts and trace
    are replayed for every later signature that gives the same pair."""
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
    if walks is not None and (u1, u2) in walks:
        R, items, trace = walks[u1, u2]
        counters.record_all((items, trace))
    else:
        with counters.scope(trace=True) as walk:
            if u1 == 0:
                if seen is not None:
                    seen.add("u1 = 0")
                R = (oracle_comb if resident else oracle_window)(u2, pub)
            else:
                joint = JointOracle(curve, seen)
                R = (joint.resident if resident else joint.one_shot)(
                    u1, u2, pub)
        if walks is not None:
            walks[u1, u2] = R, tuple(walk.counters.items()), \
                tuple(walk.trace)
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
        # Q is priced resident and runs its rows in a comb cache from its
        # second use; else Q is one-shot and runs wNAF.  G runs the rows an
        # endpoint would provision
        scalarmult.provision(toy.generator())
        n = toy.n
        Q = KeyPair(q, toy).Q
        cache = CombCache() if cached else None
        seen, walks = set(), {}
        for r in range(1, n):
            for z in (q + 5, q * r % n, -q * r % n, 0):
                digest = scalar_digest(z, toy)
                for s in range(1, n):
                    sig = EcdsaSignature(r, s)
                    with counters.scope(trace=True) as want:
                        accept = oracle_verify(Q, digest, sig, cached, seen,
                                               walks)
                    with counters.scope(trace=True) as got:
                        assert ecdsa_verify(Q, digest, sig, cache, cached) \
                            == accept
                    assert list(got.counters.items()) == \
                        list(want.counters.items())
                    assert got.trace == want.trace
        assert seen == {"add", "double", "cancel", "u1 = 0", "x = r + n"}

    def test_resident_bases_make_nothing_affine(self, curves, monkeypatch):
        # G provisioned, as an endpoint does, and Q's rows in the cache
        c = curves["secp160r1"]
        scalarmult.provision(c.generator())
        key = KeyPair(0xC0FFEE, c)
        digest = sha256(b"resident")
        sig = ecdsa_sign(key, digest)
        cache = CombCache()
        for _ in range(2):   # Q's second use builds its rows in the cache
            ecdsa_verify(key.Q, digest, sig, cache, resident=True)
        calls = []
        to_affine = scalarmult._to_affine
        monkeypatch.setattr(scalarmult, "_to_affine",
                            lambda *a: calls.append(a) or to_affine(*a))
        with counters.scope() as sc:
            assert ecdsa_verify(key.Q, digest, sig, cache, resident=True)
        assert sc.counters["ecsm_comb"] == 2
        assert calls == []

    @pytest.mark.parametrize("resident", [False, True])
    @pytest.mark.parametrize("name", ["secp160r1", "secp256r1"])
    def test_seeded_signatures_against_the_joint_oracle(self, curves, name,
                                                        resident):
        # seeded keys, digests and signatures, valid and random: each
        # verdict, count and trace is the joint oracle's, where the price
        # is the memoised one of every q but a few
        c = curves[name]
        n = c.n
        rng = random.Random("joint-%s-%s" % (name, resident))
        for valid in (True, False, True):
            key = KeyPair(rng.randrange(1, n), c)
            digest = rng.randbytes(32)
            sig = ecdsa_sign(key, digest) if valid else \
                EcdsaSignature(rng.randrange(1, n), rng.randrange(1, n))
            with counters.scope(trace=True) as want:
                accept = oracle_verify(key.Q, digest, sig, resident)
            with counters.scope(trace=True) as got:
                assert ecdsa_verify(key.Q, digest, sig, None, resident) \
                    == accept == valid
            assert list(got.counters.items()) == \
                list(want.counters.items())
            assert got.trace == want.trace

    def test_equal_columns_take_the_doubling_the_price_narrows_away(
            self, curves):
        # the narrowing the joint price states: on secp160r1 with Q = G
        # (d = 1) and z = r, u1 = u2, so every column's two comb terms are
        # equal; the oracle's first joint addition doubles, while the price
        # recorded is the memoised one of the branch every other q takes,
        # and the verdict is the oracle's
        c = curves["secp160r1"]
        n = c.n
        key = KeyPair(1, c)
        assert key.Q == c.generator()
        k = 0xC0FFEE
        r = ecsm_comb(k, c.generator()).x % n
        sig = EcdsaSignature(r, 2 * r * pow(k, -1, n) % n)
        digest = scalar_digest(r, c)
        branches = Branches()
        with counters.scope(trace=True) as exact:
            accept = oracle_verify(key.Q, digest, sig, True, branches)
        assert branches[0] == "double"
        with counters.scope(trace=True) as got:
            assert ecdsa_verify(key.Q, digest, sig, None, resident=True) \
                == accept is True
        other = KeyPair(0xBEEF, c)
        other_digest = sha256(b"generic")
        other_sig = ecdsa_sign(other, other_digest)
        with counters.scope(trace=True) as generic:
            assert ecdsa_verify(other.Q, other_digest, other_sig, None,
                                resident=True)
        assert got.counters == generic.counters and \
            got.trace == generic.trace
        assert got.counters != exact.counters

    @pytest.mark.parametrize("resident", [False, True])
    def test_a_second_verification_counts_nothing(self, curves, resident,
                                                  monkeypatch):
        # the joint price is memoised per curve and class: a second
        # verification counts no letters, and records its price in one call
        c = curves["secp256r1"]
        n = c.n
        key = KeyPair(0xC0FFEE, c)
        rng = random.Random("memo-%s" % resident)
        for i in range(2):
            u1, u2 = rng.randrange(1, n), rng.randrange(1, n)
            costs, calls = [], []
            if i:
                cost, record_all = PrimeModulus.cost, counters.record_all
                monkeypatch.setattr(PrimeModulus, "cost", lambda *a:
                                    costs.append(a) or cost(*a))
                monkeypatch.setattr(counters, "record_all", lambda price:
                                    calls.append(price) or record_all(price))
            with counters.scope():
                scalarmult.comb_sum_x_matches(u1, u2, key.Q, 1, None,
                                              resident)
        assert costs == [] and len(calls) == 1
        assert (("ecsm_window", 1) in calls[0][0]) == (not resident)


class Branches(list):
    """The branches a `JointOracle` notes, in order."""
    add = list.append
