/**
 * @file
 * Unit and property tests for the multiprecision / prime-field substrate.
 * Known-answer vectors were generated independently with Python bignums.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ff/batch_inverse.hpp"
#include "ff/bigint.hpp"
#include "ff/fq.hpp"
#include "ff/fr.hpp"
#include "ff/rng.hpp"
#include "field_oracle.hpp"

using namespace zkphire::ff;

TEST(BigInt, HexRoundTrip)
{
    auto x = BigInt<4>::fromHex(
        "0x123456789abcdef0fedcba9876543210deadbeefcafebabe0123456789abcdef");
    EXPECT_EQ(x.toHex(),
        "0x123456789abcdef0fedcba9876543210deadbeefcafebabe0123456789abcdef");
    EXPECT_EQ(BigInt<4>(0).toHex(),
        "0x0000000000000000000000000000000000000000000000000000000000000000");
}

TEST(BigInt, AddSubCarryChains)
{
    BigInt<4> all_ones;
    for (auto &l : all_ones.limb)
        l = ~0ull;
    BigInt<4> x = all_ones;
    EXPECT_EQ(x.addInPlace(BigInt<4>(1)), 1u); // full carry out
    EXPECT_TRUE(x.isZero());
    x = BigInt<4>(0);
    EXPECT_EQ(x.subInPlace(BigInt<4>(1)), 1u); // full borrow
    EXPECT_EQ(x, all_ones);
}

TEST(BigInt, ComparisonAndBits)
{
    auto a = BigInt<4>::fromHex("0x10000000000000000"); // 2^64
    auto b = BigInt<4>::fromHex("0xffffffffffffffff");
    EXPECT_TRUE(b < a);
    EXPECT_TRUE(a > b);
    EXPECT_EQ(a.bitLength(), 65u);
    EXPECT_EQ(b.bitLength(), 64u);
    EXPECT_TRUE(a.bit(64));
    EXPECT_FALSE(a.bit(63));
    // bits() crossing a limb boundary.
    EXPECT_EQ(a.bits(60, 8), 0x10u);
}

TEST(BigInt, ShiftOps)
{
    auto x = BigInt<4>::fromHex("0x8000000000000000");
    BigInt<4> y = x;
    EXPECT_EQ(y.shl1InPlace(), 0u);
    EXPECT_TRUE(y.bit(64));
    y.shr1InPlace();
    EXPECT_EQ(y, x);
}

TEST(Fr, KnownMultiplication)
{
    Fr a = Fr::fromHex(
        "0x123456789abcdef0fedcba9876543210deadbeefcafebabe0123456789abcdef");
    Fr b = Fr::fromHex(
        "0x0fedcba987654321123456789abcdef0cafebabedeadbeeffedcba9876543210");
    EXPECT_EQ((a * b).toBig().toHex(),
        "0x007dadaa8790026a9580da1a4b7bcc5f9ffce5121bb51c7cd55c1125b063a0a1");
    EXPECT_EQ((a + b).toBig().toHex(),
        "0x22222222222222121111111111111101a9ac79aea9ac79adffffffffffffffff");
    EXPECT_EQ(a.inverse().toBig().toHex(),
        "0x3fb466b99da54c20aa7c1db7b3b562b69e44a05d46bd22cff3aa78032d23094f");
}

TEST(Fq, KnownMultiplication)
{
    Fq a = Fq::fromHex(
        "0x123456789abcdef0fedcba9876543210deadbeefcafebabe0123456789abcdef");
    Fq b = Fq::fromHex(
        "0x13a1c0513e6381774882bbb2842a999f374aa195d6a6926d2ca019e5d13632cd"
        "43697e23d1b017d8d2af7b80aaffac3e");
    EXPECT_EQ((a * b).toBig().toHex(),
        "0x0e797d135e79fceade963c917e300ccdeb5a418a038fb1f21d27ee0a88823b53"
        "626e464cc601744af358fbd3e52d9fb8");
}

TEST(Fr, Identities)
{
    EXPECT_TRUE(Fr::zero().isZero());
    EXPECT_TRUE(Fr::one().isOne());
    EXPECT_EQ(Fr::one() * Fr::one(), Fr::one());
    EXPECT_EQ(Fr::fromU64(5) + Fr::fromU64(7), Fr::fromU64(12));
    EXPECT_EQ(Fr::fromU64(5) * Fr::fromU64(7), Fr::fromU64(35));
    EXPECT_EQ(Fr::fromI64(-3) + Fr::fromU64(3), Fr::zero());
    EXPECT_EQ(Fr::fromU64(6).dbl(), Fr::fromU64(12));
    EXPECT_EQ(Fr::fromU64(2).pow(10), Fr::fromU64(1024));
    EXPECT_EQ(Fr::modulusBits(), 255u);
    EXPECT_EQ(Fq::modulusBits(), 381u);
}

TEST(Fr, CanonicalRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        Fr x = Fr::random(rng);
        EXPECT_EQ(Fr::fromBig(x.toBig()), x);
        EXPECT_TRUE(x.toBig() < Fr::modulus());
    }
}

class FrAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrAlgebra, FieldAxioms)
{
    Rng rng(GetParam());
    Fr a = Fr::random(rng), b = Fr::random(rng), c = Fr::random(rng);
    // Commutativity / associativity / distributivity.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    // Inverses.
    EXPECT_EQ(a + a.neg(), Fr::zero());
    EXPECT_EQ(a - b + b, a);
    if (!a.isZero()) {
        EXPECT_EQ(a * a.inverse(), Fr::one());
    }
    // Squaring and doubling shortcuts.
    EXPECT_EQ(a.square(), a * a);
    EXPECT_EQ(a.dbl(), a + a);
    // Fermat: a^p == a.
    EXPECT_EQ(a.pow(Fr::modulus()), a);
}

TEST_P(FrAlgebra, FqFieldAxioms)
{
    Rng rng(GetParam() + 1000);
    Fq a = Fq::random(rng), b = Fq::random(rng);
    EXPECT_EQ(a * (b + b), a * b + a * b);
    if (!a.isZero()) {
        EXPECT_EQ(a * a.inverse(), Fq::one());
    }
    EXPECT_EQ(a.pow(Fq::modulus()), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrAlgebra,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19));

TEST(Fr, HashBytesBelowModulus)
{
    Rng rng(42);
    for (int i = 0; i < 100; ++i) {
        std::uint8_t bytes[32];
        for (auto &byte : bytes)
            byte = std::uint8_t(rng.next());
        Fr x = Fr::fromHashBytes(bytes);
        EXPECT_TRUE(x.toBig() < Fr::modulus());
        // Masked to 252 bits.
        EXPECT_LE(x.toBig().bitLength(), 252u);
    }
}

TEST(Fr, SerializationRoundTrip)
{
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        Fr x = Fr::random(rng);
        std::uint8_t bytes[32];
        x.toBytesLe(bytes);
        EXPECT_EQ(Fr::fromBig(BigInt<4>::fromBytesLe(bytes)), x);
    }
}

TEST(BatchInverse, MatchesIndividualInverses)
{
    Rng rng(77);
    std::vector<Fr> xs;
    for (int i = 0; i < 97; ++i)
        xs.push_back(Fr::random(rng));
    std::vector<Fr> expect;
    for (const Fr &x : xs)
        expect.push_back(x.inverse());
    batchInverseInPlace(std::span<Fr>(xs));
    EXPECT_EQ(xs, expect);
}

TEST(BatchInverse, EmptyAndSingle)
{
    std::vector<Fr> empty;
    batchInverseInPlace(std::span<Fr>(empty));
    std::vector<Fr> one{Fr::fromU64(4)};
    batchInverseInPlace(std::span<Fr>(one));
    EXPECT_EQ(one[0] * Fr::fromU64(4), Fr::one());
}

TEST(BatchInverse, SerialIntoLeavesInputsIntact)
{
    // Sizes on both sides of the laned sweep's 32-element threshold, into
    // one reused output buffer that starts larger than some batches.
    Rng rng(78);
    std::vector<Fq> out(40, Fq::one());
    for (std::size_t n : {0u, 1u, 5u, 31u, 32u, 33u, 97u, 12u}) {
        std::vector<Fq> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(Fq::random(rng));
        const std::vector<Fq> before = xs;
        batchInverseSerialInto(std::span<const Fq>(xs), out);
        EXPECT_EQ(xs, before) << "n=" << n;
        ASSERT_GE(out.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], xs[i].inverse()) << "n=" << n << " i=" << i;
    }
}

namespace {

/**
 * pow and inverse against the bit-by-bit ladder: random exponents of every
 * length up to the limb width, and the exponents 0, 1, p - 2, (p - 1) / 2
 * and all ones (every window nonzero, including the top limb's).
 */
template <class F>
void
expectPowMatchesLadder(std::uint64_t seed)
{
    using Big = typename F::Big;
    Rng rng(seed);
    Big pm2 = F::modulus(), half = F::modulus();
    pm2.subInPlace(Big(2));
    half.subInPlace(Big(1));
    half.shr1InPlace();
    Big all_ones;
    for (auto &limb : all_ones.limb)
        limb = ~std::uint64_t(0);
    std::vector<Big> exps = {Big(0), Big(1), pm2, half, all_ones};
    for (std::size_t bits = 1; bits <= 64 * F::numLimbs; bits += 13) {
        Big e;
        for (auto &limb : e.limb)
            limb = rng.next();
        for (std::size_t i = bits; i < 64 * F::numLimbs; ++i)
            e.limb[i / 64] &= ~(std::uint64_t(1) << (i % 64));
        exps.push_back(e);
    }
    std::vector<F> bases = {F::zero(), F::one(), F::one().neg()};
    for (int i = 0; i < 4; ++i)
        bases.push_back(F::random(rng));
    for (const F &x : bases) {
        for (const Big &e : exps)
            EXPECT_EQ(x.pow(e), zkphire::oracle::powLadder(x, e))
                << F::name() << " e = " << e.toHex();
        if (!x.isZero()) {
            EXPECT_EQ(x.inverse(), zkphire::oracle::powLadder(x, pm2))
                << F::name();
            EXPECT_EQ(x.inverse() * x, F::one()) << F::name();
        }
    }
}

} // namespace

TEST(Fr, PowMatchesBitLadder)
{
    expectPowMatchesLadder<Fr>(91);
}

TEST(Fq, PowMatchesBitLadder)
{
    expectPowMatchesLadder<Fq>(92);
}

namespace {

template <class F>
class Inverse : public ::testing::Test
{
};

/** Names the typed tests by field: Inverse/Fr, Inverse/Fq. */
struct FieldName {
    template <class F>
    static std::string
    GetName(int)
    {
        return F::name();
    }
};

using InverseFields = ::testing::Types<Fr, Fq>;
TYPED_TEST_SUITE(Inverse, InverseFields, FieldName);

} // namespace

/**
 * inverse() (the safegcd) against the Fermat power x^(p-2) of the
 * bit-by-bit ladder, on the edges of its signed-62 and Montgomery
 * representations and on 10^4 random values; x * x^{-1} must be 1.
 */
TYPED_TEST(Inverse, MatchesFermatOracle)
{
    using F = TypeParam;
    using Big = typename F::Big;
    const Big p = F::modulus();
    Big pm2 = p;
    pm2.subInPlace(Big(2));
    const auto fermat = [&](const F &x) {
        return zkphire::oracle::powLadder(x, pm2);
    };

    Big half_down = p, half_up = p; // (p - 1) / 2 and (p + 1) / 2
    half_down.shr1InPlace();
    half_up.shr1InPlace();
    half_up.addInPlace(Big(1));
    const F r_mod_p = F::fromBig(F::one().raw()); // R mod p
    const F r_inv = fermat(r_mod_p);              // Montgomery limbs 1
    ASSERT_EQ(r_inv.raw(), Big(1));
    std::vector<F> xs = {F::one(),
                         F::one().neg(),
                         F::fromU64(2),
                         F::fromBig(half_down),
                         F::fromBig(half_up),
                         r_mod_p,
                         r_inv};
    // 2^k and p - 2^k at the 62- and 64-bit limb edges, as canonical
    // values and as Montgomery limbs (2^k R^{-1} has limbs 2^k).
    for (const std::size_t width : {62, 64}) {
        for (std::size_t edge = width; edge + 2 < F::modulusBits();
             edge += width) {
            for (const std::size_t k : {edge - 1, edge, edge + 1}) {
                Big two_k;
                two_k.limb[k / 64] = std::uint64_t(1) << (k % 64);
                Big p_minus = p;
                p_minus.subInPlace(two_k);
                for (const F &x : {F::fromBig(two_k), F::fromBig(p_minus)}) {
                    xs.push_back(x);
                    xs.push_back(x * r_inv);
                }
            }
        }
    }
    const std::size_t edges = xs.size();
    Rng rng(97);
    for (int i = 0; i < 10000; ++i)
        xs.push_back(F::random(rng));

    for (std::size_t i = 0; i < xs.size(); ++i) {
        const F inv = xs[i].inverse();
        ASSERT_EQ(inv, fermat(xs[i]))
            << F::name() << (i < edges ? " edge " : " random ") << i
            << ": x = " << xs[i].toHexString();
        ASSERT_EQ(inv * xs[i], F::one()) << F::name() << " x = "
                                         << xs[i].toHexString();
    }
}

namespace {

/** The value of signed-62 limbs in W-limb two's complement. */
template <std::size_t W, std::size_t L>
BigInt<W>
twosComplement(safegcd::Signed62<L> d)
{
    safegcd::carry62(d);
    BigInt<W> acc;
    for (auto &limb : acc.limb)
        limb = d.v[L - 1] < 0 ? ~u64(0) : 0;
    acc.limb[0] = u64(d.v[L - 1]);
    for (std::size_t i = L - 1; i-- > 0;) {
        for (int b = 0; b < 62; ++b)
            acc.shl1InPlace();
        acc.addInPlace(BigInt<W>(u64(d.v[i])));
    }
    return acc;
}

/** Sign of a W-limb two's complement value: -1, 0 or 1. */
template <std::size_t W>
int
signOf(const BigInt<W> &x)
{
    if (x.limb[W - 1] >> 63)
        return -1;
    return x.isZero() ? 0 : 1;
}

} // namespace

/**
 * One Bezout update of the safegcd, (d, e) <- (t (d, e) + p (md, me)) /
 * 2^62, from the edges of its input range (-2p, p) and of the transition
 * matrices (|u| + |v| <= 2^62): the outputs stay in (-2p, p) with limbs
 * below the top one in [0, 2^62), and 2^62 d' = u d + v e mod p. Without
 * either sign term of md or me, an input near -2p leaves the range.
 */
TYPED_TEST(Inverse, BezoutUpdateStaysInRange)
{
    using F = TypeParam;
    using Big = typename F::Big;
    constexpr std::size_t N = F::numLimbs, L = (64 * N + 61) / 62;
    constexpr std::size_t W = N + 1;
    using S = safegcd::Signed62<L>;
    const safegcd::Modulus<L> m = safegcd::makeModulus<L>(F::modulus());
    const F two62 = F::fromU64(u64(1) << 62);
    const auto toField = [&](const S &d) {
        F acc = F::zero();
        for (std::size_t i = L; i-- > 0;)
            acc = acc * two62 + F::fromI64(d.v[i]);
        return acc;
    };
    // a - k p for a canonical a, with the limbs carried back into range.
    const auto shifted = [&](const Big &a, int k) {
        S d = safegcd::toSigned62<L>(a);
        for (std::size_t i = 0; i < L; ++i)
            d.v[i] -= k * m.mod.v[i];
        safegcd::carry62(d);
        return d;
    };
    BigInt<W> p_w, two_p_w;
    for (std::size_t i = 0; i < N; ++i)
        p_w.limb[i] = F::modulus().limb[i];
    two_p_w = p_w;
    two_p_w.addInPlace(p_w);
    const auto inRange = [&](const S &d) {
        const BigInt<W> v = twosComplement<W>(d);
        BigInt<W> below_p = p_w, above = v;
        below_p.subInPlace(v); // p - d > 0
        above.addInPlace(two_p_w); // d + 2p > 0
        for (std::size_t i = 0; i + 1 < L; ++i)
            if (d.v[i] < 0 || u64(d.v[i]) > safegcd::kMask62)
                return false;
        return signOf(below_p) > 0 && signOf(above) > 0;
    };

    Big pm1 = F::modulus();
    pm1.subInPlace(Big(1));
    Rng rng(101);
    std::vector<S> ds = {shifted(Big(1), 2), shifted(pm1, 2),
                         shifted(pm1, 0), shifted(Big(0), 0),
                         shifted(Big(0), 1), shifted(Big(1), 1)};
    for (int i = 0; i < 60; ++i)
        ds.push_back(shifted(F::random(rng).raw(), int(rng.next() % 3)));
    const std::int64_t top = std::int64_t(1) << 62;
    std::vector<std::pair<std::int64_t, std::int64_t>> rows = {
        {top, 0}, {-top, 0}, {0, top}, {0, -top}, {top / 2, top / 2},
        {top / 2, -top / 2}, {-top / 2, -top / 2}, {1, 0}, {0, 0}};
    for (int i = 0; i < 12; ++i) {
        const std::int64_t a = std::int64_t(rng.next() % u64(top));
        const std::int64_t b = std::int64_t(rng.next() % u64(top - a + 1));
        rows.push_back({rng.next() & 1 ? a : -a, rng.next() & 1 ? b : -b});
    }

    std::size_t checked = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        for (std::size_t j = 0; j < ds.size(); j += 7) {
            for (std::size_t r = 0; r < rows.size(); ++r) {
                const auto &[u, v] = rows[r];
                const auto &[q, rr] = rows[(r + i) % rows.size()];
                const safegcd::Trans t{u, v, q, rr};
                S d = ds[i], e = ds[j];
                ASSERT_TRUE(inRange(d) && inRange(e));
                safegcd::updateDE(d, e, t, m);
                const F fd = toField(ds[i]), fe = toField(ds[j]);
                ASSERT_TRUE(inRange(d) && inRange(e))
                    << F::name() << " d " << i << " e " << j << " row " << r;
                ASSERT_EQ(toField(d) * two62,
                          F::fromI64(u) * fd + F::fromI64(v) * fe);
                ASSERT_EQ(toField(e) * two62,
                          F::fromI64(q) * fd + F::fromI64(rr) * fe);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), b.next());
    double d = Rng(5).nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
}
