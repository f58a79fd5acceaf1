/**
 * @file
 * GLV endomorphism tests: lattice-decomposition properties (round-trip,
 * half-width bounds, edge scalars), the curve endomorphism phi(x,y) =
 * (beta*x, y) acting as multiplication by lambda, GLV-vs-plain MSM
 * equivalence on both bucket pipelines, the GLV-split fixed-base
 * multiplier, the G1 subgroup check, and batch affine normalization.
 */
#include <gtest/gtest.h>

#include "curve_points.hpp"
#include "ec/fixed_base.hpp"
#include "ec/glv.hpp"
#include "ec/msm.hpp"
#include "ff/rng.hpp"
#include "msm_oracle.hpp"

using namespace zkphire;
using namespace zkphire::ec;
using zkphire::ff::BigInt;
using zkphire::ff::Fr;
using zkphire::oracle::msmNaive;
using zkphire::ff::Rng;

namespace {

/** k1 + lambda*k2 == k in Fr, and both halves fit kHalfBits. */
void
expectDecomposes(const BigInt<4> &k)
{
    BigInt<4> k1, k2;
    glv::decompose(k, k1, k2);
    EXPECT_LE(k1.bitLength(), glv::kHalfBits) << k.toHex();
    EXPECT_LE(k2.bitLength(), glv::kHalfBits) << k.toHex();
    const Fr recomposed =
        Fr::fromBig(k1) + glv::params().lambdaFr * Fr::fromBig(k2);
    EXPECT_EQ(recomposed, Fr::fromBig(k)) << k.toHex();
}

} // namespace

TEST(Glv, ParamsSelfCheckPasses)
{
    ASSERT_TRUE(glv::available());
    const glv::Params &p = glv::params();
    // lambda is a nontrivial cube root of unity mod r of half width.
    EXPECT_LE(p.lambda.bitLength(), glv::kHalfBits);
    EXPECT_FALSE(p.lambdaFr.isOne());
    EXPECT_TRUE(
        (p.lambdaFr.square() + p.lambdaFr + Fr::one()).isZero());
    // beta is a nontrivial cube root of unity in Fq.
    EXPECT_FALSE(p.beta.isOne());
    EXPECT_TRUE((p.beta * p.beta * p.beta).isOne());
}

TEST(Glv, DecomposeEdgeScalars)
{
    expectDecomposes(BigInt<4>(0));
    expectDecomposes(BigInt<4>(1));
    expectDecomposes(BigInt<4>(2));
    BigInt<4> rm1 = Fr::modulus();
    rm1.subInPlace(BigInt<4>(1));
    expectDecomposes(rm1); // r - 1
    expectDecomposes(glv::params().lambda);
    BigInt<4> lm1 = glv::params().lambda;
    lm1.subInPlace(BigInt<4>(1));
    expectDecomposes(lm1);
    BigInt<4> lp1 = glv::params().lambda;
    lp1.addInPlace(BigInt<4>(1));
    expectDecomposes(lp1);
    // 2^128 - 1: the largest value whose k2 could still be zero.
    BigInt<4> low128;
    low128.limb[0] = ~std::uint64_t(0);
    low128.limb[1] = ~std::uint64_t(0);
    expectDecomposes(low128);
}

TEST(Glv, DecomposeRandomRoundTrip)
{
    Rng rng(31337);
    for (int i = 0; i < 10000; ++i)
        expectDecomposes(Fr::random(rng).toBig());
}

TEST(Glv, EndomorphismIsMulByLambda)
{
    Rng rng(4242);
    for (int i = 0; i < 8; ++i) {
        const G1Affine p = randomG1(rng);
        const G1Jacobian lp =
            G1Jacobian::fromAffine(p).mulScalar(glv::params().lambdaFr);
        EXPECT_EQ(G1Jacobian::fromAffine(glv::endomorphism(p)), lp);
        EXPECT_EQ(glv::endomorphism(G1Jacobian::fromAffine(p)), lp);
    }
    // Identity maps to identity.
    EXPECT_TRUE(glv::endomorphism(G1Affine{}).infinity);
    EXPECT_TRUE(glv::endomorphism(G1Jacobian::identity()).isIdentity());
}

/**
 * The windowed GLV mulScalar (joint Shamir walk over {P, phi(P),
 * P + phi(P)}) must be bit-identical to the plain double-and-add oracle
 * after affine normalization, including the edge scalars the
 * decomposition treats specially.
 */
TEST(Glv, MulScalarGlvMatchesPlainOracle)
{
    ASSERT_TRUE(glv::available());
    Rng rng(7331);
    const G1Jacobian id = G1Jacobian::identity();

    std::vector<Fr> scalars = {Fr::zero(), Fr::one(), Fr::fromU64(2),
                               glv::params().lambdaFr,
                               Fr::zero() - Fr::one()}; // r - 1
    for (int i = 0; i < 16; ++i)
        scalars.push_back(Fr::random(rng));

    for (const Fr &k : scalars) {
        const G1Jacobian p = G1Jacobian::fromAffine(randomG1(rng));
        const G1Affine glv_path = p.mulScalar(k).toAffine();
        const G1Affine plain = p.mulScalarPlain(k).toAffine();
        EXPECT_EQ(glv_path, plain) << k.toBig().toHex();
        EXPECT_EQ(glv_path.infinity, plain.infinity);
        if (!plain.infinity) {
            // Affine coordinates are canonical: compare raw limbs too so a
            // non-normalized representative can't sneak through ==.
            EXPECT_EQ(glv_path.x.toBig().toHex(), plain.x.toBig().toHex());
            EXPECT_EQ(glv_path.y.toBig().toHex(), plain.y.toBig().toHex());
        }
        // Identity point stays identity along both paths.
        EXPECT_TRUE(id.mulScalar(k).isIdentity());
        EXPECT_TRUE(id.mulScalarPlain(k).isIdentity());
    }
}

TEST(Glv, MsmGlvMatchesPlainAndNaive)
{
    Rng rng(555);
    // Mixed scalar population: dense, zero, one.
    for (std::size_t n : {std::size_t(64), std::size_t(700)}) {
        std::vector<Fr> scalars(n);
        std::vector<G1Affine> points(n);
        for (std::size_t i = 0; i < n; ++i) {
            const int r = int(rng.next() % 8);
            scalars[i] = r == 0   ? Fr::zero()
                         : r == 1 ? Fr::one()
                                  : Fr::random(rng);
            points[i] = randomG1(rng);
        }
        const G1Jacobian a = msmPippenger(scalars, points, {.glv = true});
        const G1Jacobian b = msmPippenger(scalars, points, {.glv = false});
        EXPECT_EQ(a, b);
        EXPECT_EQ(a.toAffine(), b.toAffine());
        if (n <= 64) {
            EXPECT_EQ(a, msmNaive(scalars, points));
        }
    }
}

TEST(Glv, ProfitabilityRuleHasACrossover)
{
    // The split wins at prover-typical sizes and turns itself off once the
    // window cap binds (see msmGlvProfitable); the sim model consults the
    // same rule, so this locks kernel/model agreement, not exact numbers.
    EXPECT_TRUE(msmGlvProfitable(std::size_t(1) << 14));
    EXPECT_FALSE(msmGlvProfitable(std::size_t(1) << 24));
}

TEST(Glv, FixedBaseMulMatchesMulScalar)
{
    Rng rng(777);
    const G1Affine base = randomG1(rng);
    const FixedBaseMul fb(base);
    const G1Jacobian jb = G1Jacobian::fromAffine(base);
    const auto hex = [](const char *h) {
        return Fr::fromBig(BigInt<4>::fromHex(h));
    };
    const Fr lambda = glv::params().lambdaFr;
    std::vector<Fr> cases = {Fr::zero(), Fr::one(), Fr::fromU64(2), lambda,
                             Fr::zero() - Fr::one()}; // r - 1
    // 8-bit window boundaries: the largest positive digit (128), the first
    // digits that borrow (129, 255) and carry into the next window (256),
    // and the edges of the 128-bit GLV halves.
    for (std::uint64_t k : {127, 128, 129, 255, 256})
        cases.push_back(Fr::fromU64(k));
    cases.push_back(hex("0x80000000000000000000000000000000"));  // 2^127
    cases.push_back(hex("0xffffffffffffffffffffffffffffffff"));  // 2^128 - 1
    cases.push_back(hex("0x100000000000000000000000000000000")); // 2^128
    cases.push_back(lambda - Fr::one());
    cases.push_back(lambda + Fr::one());
    for (int i = 0; i < 200; ++i)
        cases.push_back(Fr::random(rng));
    for (const Fr &k : cases)
        EXPECT_EQ(fb.mul(k), jb.mulScalar(k)) << k.toBig().toHex();
}

TEST(Glv, SubgroupCheckMatchesOrderOracle)
{
    // The cofactor (z - 1)^2 / 3, written with lambda = z^2 - 1 and
    // BLS12-381's negative z = -0xd201000000010000.
    const Fr lambda = glv::params().lambdaFr;
    const Fr absZ = Fr::fromU64(0xd201000000010000ull);
    const Fr cofactor =
        (lambda + absZ + absZ + Fr::fromU64(2)) * Fr::fromU64(3).inverse();
    const BigInt<4> knownCofactor =
        BigInt<4>::fromHex("0x396c8c005555e1568c00aaab0000aaab");
    EXPECT_EQ(cofactor.toBig().toHex(), knownCofactor.toHex());

    EXPECT_TRUE(G1Affine{}.isInSubgroup());
    const G1Affine order3{ff::Fq::zero(), ff::Fq::fromU64(2), false};
    ASSERT_TRUE(order3.isOnCurve());
    EXPECT_FALSE(oracle::orderDividesR(order3));
    EXPECT_FALSE(order3.isInSubgroup());

    Rng rng(999);
    for (int i = 0; i < 40; ++i) {
        const G1Affine p = oracle::curvePointFrom(ff::Fq::random(rng));
        ASSERT_TRUE(p.isOnCurve());
        EXPECT_FALSE(oracle::orderDividesR(p));
        EXPECT_FALSE(p.isInSubgroup()) << "off-subgroup point " << i;
        const G1Affine cleared =
            G1Jacobian::fromAffine(p).mulScalarPlain(cofactor).toAffine();
        EXPECT_TRUE(oracle::orderDividesR(cleared));
        EXPECT_TRUE(cleared.isInSubgroup()) << "cleared point " << i;
    }
}

TEST(Glv, BatchToAffineMatchesPerPoint)
{
    Rng rng(888);
    std::vector<G1Jacobian> pts;
    pts.push_back(G1Jacobian::identity());
    for (int i = 0; i < 40; ++i) {
        G1Jacobian p = G1Jacobian::fromAffine(randomG1(rng));
        // Non-trivial Z coordinates: scale through a doubling.
        pts.push_back(p.dbl().add(p));
        if (i % 7 == 0)
            pts.push_back(G1Jacobian::identity());
    }
    const std::vector<G1Affine> aff = batchToAffine(pts);
    ASSERT_EQ(aff.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const G1Affine expect = pts[i].toAffine();
        EXPECT_EQ(aff[i].infinity, expect.infinity);
        if (!expect.infinity) {
            EXPECT_EQ(aff[i].x, expect.x);
            EXPECT_EQ(aff[i].y, expect.y);
        }
    }
}
