/**
 * @file
 * Unit and property tests for the multiprecision / prime-field substrate.
 * Known-answer vectors were generated independently with Python bignums.
 */
#include <gtest/gtest.h>

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

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), b.next());
    double d = Rng(5).nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
}
