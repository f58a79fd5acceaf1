/**
 * @file
 * BLS12-381 G1 group-law and MSM tests. The doubled-generator vector was
 * computed independently with Python bignums.
 */
#include <gtest/gtest.h>

#include "ec/batch_add.hpp"
#include "ec/bucket_ifma_x86.hpp"
#include "ec/g1.hpp"
#include "ec/glv.hpp"
#include "ec/msm.hpp"
#include "ec/recode.hpp"
#include "ff/mul_ifma_x86.hpp"
#include "ifma_skip.hpp"
#include "msm_oracle.hpp"
#include "recode_oracle.hpp"
#include "rt/parallel.hpp"

using namespace zkphire::ec;
using zkphire::ff::kernels::ScopedAsmKernels;
using zkphire::ff::kernels::ScopedGenericKernels;
using zkphire::oracle::bucketSumSerial;
using zkphire::oracle::msmNaive;
using zkphire::testutil::ifmaSkipReason;
using zkphire::ff::Fq;
using zkphire::ff::Fr;
using zkphire::ff::Rng;

TEST(G1, GeneratorOnCurve)
{
    EXPECT_TRUE(g1Generator().isOnCurve());
    EXPECT_FALSE(g1Generator().infinity);
}

TEST(G1, KnownDouble)
{
    G1Affine two_g =
        G1Jacobian::fromAffine(g1Generator()).dbl().toAffine();
    EXPECT_TRUE(two_g.isOnCurve());
    EXPECT_EQ(two_g.x.toBig().toHex(),
        "0x0572cbea904d67468808c8eb50a9450c9721db309128012543902d0ac358a62a"
        "e28f75bb8f1c7c42c39a8c5529bf0f4e");
    EXPECT_EQ(two_g.y.toBig().toHex(),
        "0x166a9d8cabc673a322fda673779d8e3822ba3ecb8670e461f73bb9021d5fd76a"
        "4c56d9d4cd16bd1bba86881979749d28");
}

TEST(G1, AddEqualsDouble)
{
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    EXPECT_EQ(g.add(g), g.dbl());
    EXPECT_EQ(g.addMixed(g1Generator()), g.dbl());
}

TEST(G1, IdentityLaws)
{
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    G1Jacobian id = G1Jacobian::identity();
    EXPECT_EQ(g.add(id), g);
    EXPECT_EQ(id.add(g), g);
    EXPECT_EQ(id.dbl(), id);
    EXPECT_EQ(g.add(g.neg()), id);
    EXPECT_TRUE(id.toAffine().infinity);
    EXPECT_EQ(id.addMixed(g1Generator()), g);
}

TEST(G1, GroupOrderAnnihilates)
{
    // r * G == identity: a strong end-to-end check of field + curve code.
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    // r = modulus of Fr; multiply by r via (r - 1) * G + G.
    Fr r_minus_1 = Fr::zero() - Fr::one();
    G1Jacobian almost = g.mulScalar(r_minus_1);
    EXPECT_TRUE(almost.add(g).isIdentity());
    // And (r-1) * G == -G.
    EXPECT_EQ(almost, g.neg());
}

TEST(G1, ScalarMulSmallValues)
{
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    G1Jacobian acc = G1Jacobian::identity();
    for (std::uint64_t k = 0; k <= 8; ++k) {
        EXPECT_EQ(g.mulScalar(Fr::fromU64(k)), acc) << "k=" << k;
        acc = acc.add(g);
    }
}

TEST(G1, ScalarMulDistributes)
{
    Rng rng(61);
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ(g.mulScalar(a).add(g.mulScalar(b)), g.mulScalar(a + b));
    EXPECT_EQ(g.mulScalar(a).mulScalar(b), g.mulScalar(a * b));
}

TEST(G1, AssociativityOnRandomPoints)
{
    Rng rng(62);
    G1Jacobian p = G1Jacobian::fromAffine(randomG1(rng));
    G1Jacobian q = G1Jacobian::fromAffine(randomG1(rng));
    G1Jacobian r = G1Jacobian::fromAffine(randomG1(rng));
    EXPECT_EQ(p.add(q).add(r), p.add(q.add(r)));
    EXPECT_EQ(p.add(q), q.add(p));
}

TEST(G1, AffineRoundTrip)
{
    Rng rng(63);
    G1Jacobian p = G1Jacobian::fromAffine(randomG1(rng));
    // Rescale Z to a random value; affine normalization must agree.
    Fq z = Fq::random(rng);
    G1Jacobian q{p.X * z.square(), p.Y * z.square() * z, p.Z * z};
    EXPECT_EQ(p, q);
    EXPECT_EQ(p.toAffine(), q.toAffine());
    EXPECT_TRUE(p.toAffine().isOnCurve());
}

class MsmSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MsmSizes, PippengerMatchesNaive)
{
    const std::size_t n = GetParam();
    Rng rng(1000 + n);
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(randomG1(rng));
    }
    G1Jacobian expect = msmNaive(scalars, points);
    EXPECT_EQ(msmPippenger(scalars, points), expect);
    // Explicit window sizes must agree too.
    EXPECT_EQ(msmPippenger(scalars, points, {.windowBits = 4}), expect);
    EXPECT_EQ(msmPippenger(scalars, points, {.windowBits = 9}), expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MsmSizes,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 64));

TEST(Msm, SparseScalarsFastPath)
{
    Rng rng(71);
    const std::size_t n = 64;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        // ~90% of scalars in {0,1}, like witness MSMs in the paper.
        double u = rng.nextDouble();
        scalars.push_back(u < 0.6   ? Fr::zero()
                          : u < 0.9 ? Fr::one()
                                    : Fr::random(rng));
        points.push_back(randomG1(rng));
    }
    MsmStats stats;
    G1Jacobian got = msmPippenger(scalars, points, {}, &stats);
    EXPECT_EQ(got, msmNaive(scalars, points));
    EXPECT_GT(stats.trivialScalars, n / 2);
    EXPECT_EQ(stats.trivialScalars + stats.denseScalars, n);
}

TEST(Msm, EmptyAndZeroInputs)
{
    EXPECT_TRUE(msmPippenger({}, {}).isIdentity());
    std::vector<Fr> scalars(5, Fr::zero());
    std::vector<G1Affine> points;
    Rng rng(72);
    for (int i = 0; i < 5; ++i)
        points.push_back(randomG1(rng));
    EXPECT_TRUE(msmPippenger(scalars, points).isIdentity());
}

TEST(Msm, StatsCountBucketWork)
{
    Rng rng(73);
    const std::size_t n = 32;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng) + Fr::fromU64(2)); // force dense
        points.push_back(randomG1(rng));
    }
    MsmStats stats;
    msmPippenger(scalars, points, {.windowBits = 8}, &stats);
    EXPECT_EQ(stats.denseScalars, n);
    // 255-bit scalars, c=8 -> 32 windows; each dense scalar contributes at
    // most one bucket add per window.
    EXPECT_LE(stats.pointAdds, n * 32 + 32 * (2 * 255 + 1));
    EXPECT_GT(stats.pointDoubles, 0u);
}

namespace {

using Big = zkphire::ff::BigInt<Fr::numLimbs>;

/** Reconstruct sum_w d_w * 2^(c*w) from signed digits, top window down. */
Big
reconstructFromDigits(const std::vector<std::int32_t> &digits, unsigned c)
{
    Big acc;
    for (std::size_t w = digits.size(); w-- > 0;) {
        for (unsigned s = 0; s < c; ++s) {
            zkphire::ff::u64 carry = acc.shl1InPlace();
            EXPECT_EQ(carry, 0u) << "reconstruction overflowed";
        }
        std::int32_t d = digits[w];
        if (d >= 0) {
            acc.addInPlace(Big(zkphire::ff::u64(d)));
        } else {
            // Top-down partial sums of a balanced recoding are the scalar's
            // truncated prefixes plus the incoming carry, so they never go
            // negative: the subtraction must not borrow.
            zkphire::ff::u64 borrow =
                acc.subInPlace(Big(zkphire::ff::u64(-d)));
            EXPECT_EQ(borrow, 0u) << "negative partial sum";
        }
    }
    return acc;
}

std::vector<std::int32_t>
recode(const Fr &s, unsigned c)
{
    const std::size_t nw = signedDigitWindows(Fr::modulusBits(), c);
    std::vector<std::int32_t> digits(nw);
    recodeSignedDigits(s.toBig(), c, nw, digits.data(), 1);
    return digits;
}

} // namespace

TEST(Recode, SignedDigitsRoundTrip)
{
    Rng rng(80);
    std::vector<Fr> scalars = {Fr::zero(), Fr::one(), Fr::fromU64(2),
                               Fr::zero() - Fr::one(), // p - 1: dense bits
                               Fr::fromU64(0xffffffffffffffffull)};
    for (int i = 0; i < 24; ++i)
        scalars.push_back(Fr::random(rng));
    for (unsigned c : {1u, 2u, 5u, 8u, 13u, 16u}) {
        const std::int64_t half = std::int64_t(1) << (c - 1);
        for (const Fr &s : scalars) {
            auto digits = recode(s, c);
            for (std::int32_t d : digits) {
                EXPECT_GE(d, -half);
                EXPECT_LE(d, half);
            }
            EXPECT_EQ(reconstructFromDigits(digits, c), s.toBig())
                << "c=" << c << " s=" << s.toHexString();
        }
    }
}

TEST(Recode, BoundaryDigitStaysPositive)
{
    // A window value of exactly 2^(c-1) must not borrow (it has a bucket of
    // its own); only values above it carry into the next window.
    for (unsigned c : {2u, 8u}) {
        auto digits = recode(Fr::fromU64(1ull << (c - 1)), c);
        EXPECT_EQ(digits[0], std::int32_t(1) << (c - 1));
        for (std::size_t w = 1; w < digits.size(); ++w)
            EXPECT_EQ(digits[w], 0);
    }
}

TEST(Recode, TopWindowAbsorbsCarry)
{
    // p - 1 has a long run of high bits; with small c the carry ripples all
    // the way up and must terminate inside the allotted window count (the
    // recoder asserts this internally; the round-trip checks the value).
    Fr top = Fr::zero() - Fr::one();
    for (unsigned c : {2u, 3u, 4u})
        EXPECT_EQ(reconstructFromDigits(recode(top, c), c), top.toBig());
}

TEST(Recode, BranchlessMatchesBranchyOracle)
{
    // Digits equal to the branchy recoder's for every window width, at the
    // GLV half width and the full scalar width: random scalars, lambda - 1,
    // and scalars built window by window from the values around the carry
    // threshold (0, 1, 2^(c-1) - 1, 2^(c-1), 2^(c-1) + 1, all ones), so
    // every window meets each of them with and without an incoming carry.
    Rng rng(81);
    Big lambdaMinus1 = zkphire::ec::glv::params().lambda;
    lambdaMinus1.subInPlace(Big(1));
    for (const std::size_t bits : {zkphire::ec::glv::kHalfBits,
                                   Fr::modulusBits()}) {
        const auto truncate = [bits](Big b) {
            for (std::size_t i = 0; i < b.limb.size(); ++i) {
                const std::size_t lo = 64 * i;
                if (lo >= bits)
                    b.limb[i] = 0;
                else if (bits - lo < 64)
                    b.limb[i] &= (zkphire::ff::u64(1) << (bits - lo)) - 1;
            }
            return b;
        };
        for (unsigned c = 1; c <= 16; ++c) {
            const zkphire::ff::u64 half = zkphire::ff::u64(1) << (c - 1);
            const zkphire::ff::u64 patterns[] = {
                0, 1, half - 1, half, half + 1, 2 * half - 1};
            std::vector<Big> scalars = {Big(), lambdaMinus1};
            for (int i = 0; i < 24; ++i)
                scalars.push_back(Fr::random(rng).toBig());
            Big allOnes;
            for (auto &l : allOnes.limb)
                l = ~zkphire::ff::u64(0);
            scalars.push_back(allOnes);
            for (int i = 0; i < 24; ++i) {
                Big b;
                for (std::size_t lo = 0; lo < bits; lo += c) {
                    const zkphire::ff::u64 v = patterns[rng.next() % 6];
                    for (unsigned k = 0; k < c && lo + k < 256; ++k)
                        if ((v >> k) & 1)
                            b.limb[(lo + k) / 64] |= zkphire::ff::u64(1)
                                                     << ((lo + k) % 64);
                }
                scalars.push_back(b);
            }
            const std::size_t nw = signedDigitWindows(bits, c);
            for (const Big &raw : scalars) {
                const Big s = truncate(raw);
                std::vector<std::int32_t> got(nw), want(nw);
                recodeSignedDigits(s, c, nw, got.data(), 1);
                zkphire::testutil::recodeSignedDigitsOracle(s, c, nw,
                                                           want.data(), 1);
                EXPECT_EQ(got, want) << "bits=" << bits << " c=" << c;
                EXPECT_EQ(reconstructFromDigits(got, c), s)
                    << "bits=" << bits << " c=" << c;
            }
        }
    }
}

TEST(BatchAffine, SegmentSumsMatchJacobianOracle)
{
    Rng rng(81);
    G1Affine p = randomG1(rng);
    G1Affine q = randomG1(rng);
    G1Affine neg_p{p.x, p.y.neg(), false};
    // Segments exercising every pair class: empty, singleton, generic adds,
    // doubling (duplicate points), cancellation (P then -P), identity
    // entries in every position, and an odd-length tail.
    std::vector<std::vector<G1Affine>> segments = {
        {},
        {p},
        {p, q},
        {p, p},          // doubling
        {p, neg_p},      // cancellation -> identity
        {G1Affine{}, p}, // identity lhs
        {p, G1Affine{}}, // identity rhs
        {G1Affine{}, G1Affine{}},
        {p, q, p},       // odd tail
        {p, p, p, p},    // repeated doublings
        {p, neg_p, p, neg_p, q},
    };
    for (int i = 0; i < 3; ++i) { // and a few random fat segments
        std::vector<G1Affine> seg;
        for (int j = 0; j < 9 + i; ++j)
            seg.push_back(j % 4 == 0 ? p : randomG1(rng));
        segments.push_back(std::move(seg));
    }

    std::vector<G1Affine> buf;
    std::vector<std::uint32_t> off = {0};
    for (const auto &seg : segments) {
        buf.insert(buf.end(), seg.begin(), seg.end());
        off.push_back(std::uint32_t(buf.size()));
    }
    std::vector<G1Affine> sums(segments.size());
    BatchAffineScratch scratch;
    BatchAffineStats stats;
    batchAffineSegmentSums(buf, off, sums, scratch, &stats);
    EXPECT_GT(stats.affineAdds, 0u);
    EXPECT_GT(stats.batchInversions, 0u);

    for (std::size_t s = 0; s < segments.size(); ++s) {
        G1Jacobian expect = G1Jacobian::identity();
        for (const G1Affine &a : segments[s])
            expect = expect.addMixed(a);
        EXPECT_EQ(G1Jacobian::fromAffine(sums[s]), expect) << "segment " << s;
    }
}

TEST(BatchAffine, IndexedSegmentSumsMatchMaterialized)
{
    // The MSM hot path: entry e names points[e >> 1], negated when e & 1.
    // Each pair class is placed so that it meets round 0 (read through the
    // encoded entries) and a later round (over materialized points).
    Rng rng(83);
    std::vector<G1Affine> points;
    for (int i = 0; i < 6; ++i)
        points.push_back(randomG1(rng));
    points.push_back(G1Affine{}); // an identity entry in the point table
    const auto pos = [](std::uint32_t i) { return i << 1; };
    const auto neg = [](std::uint32_t i) { return (i << 1) | 1u; };
    const std::uint32_t p = 0, q = 1, r = 2, s = 3, id = 6;
    std::vector<std::vector<std::uint32_t>> segments = {
        {},                            // empty
        {pos(p)},                      // length 1
        {neg(p)},                      // length 1, negated
        {neg(id)},                     // length 1, negated identity
        {pos(p), pos(p)},              // round-0 doubling
        {neg(q), neg(q)},              // round-0 doubling of a negation
        {pos(p), neg(p)},              // round-0 cancellation
        {neg(p), pos(p)},              // ... in the other order
        {pos(id), pos(q)},             // identity lhs
        {pos(q), neg(id)},             // negated identity rhs
        {pos(id), neg(id)},            // two identities
        {pos(p), pos(q), pos(r)},      // odd tail
        {pos(p), pos(id), pos(p), pos(id)},   // round-1 doubling
        {pos(p), pos(q), neg(p), neg(q)},     // round-1 cancellation
        {pos(p), pos(id), neg(id), neg(p)},   // round-1 cancellation
        {pos(p), neg(p), pos(q), pos(r)},     // round-1 identity lhs
        {pos(p), pos(q), pos(r), pos(s), pos(p)},          // odd, 3 rounds
        {pos(q), pos(q), pos(q), pos(q), pos(q), pos(q), pos(q)},
        {pos(p), pos(id), pos(id), pos(id), pos(p), pos(id), neg(id),
         pos(id)},                                         // round-2 doubling
        {pos(p), pos(q), pos(id), pos(id), neg(p), neg(q), neg(id),
         pos(id)},                                         // round-2 cancel
    };
    // Long random segments put enough slopes in one round for the laned
    // batch inversion, with every entry kind mixed in.
    for (int i = 0; i < 24; ++i) {
        std::vector<std::uint32_t> seg;
        const int len = 5 + (i * 7) % 23;
        for (int j = 0; j < len; ++j)
            seg.push_back(std::uint32_t(rng.next() % (2 * points.size())));
        segments.push_back(std::move(seg));
    }

    std::vector<std::uint32_t> enc;
    std::vector<std::uint32_t> off = {0};
    for (const auto &seg : segments) {
        enc.insert(enc.end(), seg.begin(), seg.end());
        off.push_back(std::uint32_t(enc.size()));
    }
    const auto decode = [&](std::uint32_t e) {
        const G1Affine &a = points[e >> 1];
        return (e & 1) && !a.infinity ? G1Affine{a.x, a.y.neg(), false} : a;
    };

    std::vector<G1Affine> buf;
    for (std::uint32_t e : enc)
        buf.push_back(decode(e));
    std::vector<G1Affine> want(segments.size());
    BatchAffineScratch want_scratch;
    BatchAffineStats want_stats;
    batchAffineSegmentSums(buf, off, want, want_scratch, &want_stats);

    // Run twice on one scratch: the second call must not see the first's
    // leftovers.
    BatchAffineScratch scratch;
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<G1Affine> got(segments.size());
        BatchAffineStats stats;
        batchAffineSegmentSumsIndexed(points, enc, off, got, scratch, &stats);
        EXPECT_EQ(stats.affineAdds, want_stats.affineAdds);
        EXPECT_EQ(stats.batchInversions, want_stats.batchInversions);
        for (std::size_t k = 0; k < segments.size(); ++k) {
            EXPECT_EQ(got[k].infinity, want[k].infinity) << "segment " << k;
            EXPECT_EQ(got[k].x, want[k].x) << "segment " << k;
            EXPECT_EQ(got[k].y, want[k].y) << "segment " << k;
            G1Jacobian expect = G1Jacobian::identity();
            for (std::uint32_t e : segments[k])
                expect = expect.addMixed(decode(e));
            EXPECT_EQ(G1Jacobian::fromAffine(got[k]), expect)
                << "segment " << k;
        }
    }
    EXPECT_GE(want_stats.batchInversions, 4u);
}

TEST(Msm, ModesAgreeWithNaive)
{
    Rng rng(82);
    const std::size_t n = 200;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(i % 9 == 0 ? Fr::one()
                          : i % 10 == 0 ? Fr::zero()
                                        : Fr::random(rng));
        // Repeated points drive doubling/cancellation in shared buckets.
        points.push_back(i % 4 == 0 ? base : randomG1(rng));
    }
    G1Jacobian expect = msmNaive(scalars, points);

    for (unsigned c : {0u, 4u, 9u})
        EXPECT_EQ(msmPippenger(scalars, points, {.windowBits = c}), expect)
            << "c = " << c;
}

TEST(Msm, BatchAffineCountsAffineAdds)
{
    // Every size takes batched-affine buckets, the small MSMs of mKZG
    // opening chains (n = 200) as well as the large ones.
    Rng rng(83);
    for (const std::size_t n : {std::size_t(200), std::size_t(600)}) {
        std::vector<Fr> scalars;
        std::vector<G1Affine> points;
        G1Affine base = randomG1(rng);
        for (std::size_t i = 0; i < n; ++i) {
            scalars.push_back(Fr::random(rng) + Fr::fromU64(2));
            points.push_back(i % 8 == 0 ? randomG1(rng) : base);
        }
        MsmStats stats;
        G1Jacobian got = msmPippenger(scalars, points, {}, &stats);
        EXPECT_EQ(got, msmNaive(scalars, points)) << "n = " << n;
        EXPECT_GT(stats.affineAdds, 0u) << "n = " << n;
        EXPECT_GT(stats.batchInversions, 0u) << "n = " << n;
        EXPECT_EQ(stats.denseScalars, n);
    }
}

TEST(Msm, BatchMatchesIndependentColumns)
{
    Rng rng(84);
    const std::size_t n = 320;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);
    points[7] = G1Affine{}; // identity point among the inputs

    // Column shapes: dense, sparse 0/1-heavy (selector-like), all-zero.
    std::vector<std::vector<Fr>> cols(3, std::vector<Fr>(n));
    for (std::size_t i = 0; i < n; ++i) {
        cols[0][i] = Fr::random(rng);
        double u = rng.nextDouble();
        cols[1][i] = u < 0.5 ? Fr::zero() : u < 0.85 ? Fr::one()
                                                     : Fr::random(rng);
        cols[2][i] = Fr::zero();
    }
    std::vector<std::span<const Fr>> spans(cols.begin(), cols.end());

    auto batch = msmBatch(spans, points);
    ASSERT_EQ(batch.size(), cols.size());
    for (std::size_t j = 0; j < cols.size(); ++j) {
        G1Jacobian solo = msmPippenger(cols[j], points);
        // Bit-identical, not just equal as curve points: a batch run
        // must replay each column's exact serial operation sequence.
        EXPECT_EQ(batch[j].X, solo.X) << "col " << j;
        EXPECT_EQ(batch[j].Y, solo.Y) << "col " << j;
        EXPECT_EQ(batch[j].Z, solo.Z) << "col " << j;
    }
}

TEST(Msm, BatchSparseColumnKeepsSoloPath)
{
    // A sparse column batched alongside dense ones walks the union of
    // the batch's dense indices, shares its batch inversions, and has its
    // windows reduced one at a time where its solo run reduces them all
    // in one call. Its bucket sums are affine, hence canonical, so its
    // result stays bit-identical to an independent run.
    Rng rng(87);
    const std::size_t n = 700;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);

    std::vector<std::vector<Fr>> cols(3, std::vector<Fr>(n));
    for (std::size_t i = 0; i < n; ++i) {
        cols[0][i] = Fr::random(rng);
        cols[1][i] = Fr::random(rng);
        // ~44 dense entries: inline and round-synchronized on its own.
        cols[2][i] = i % 16 == 3 ? Fr::random(rng) : Fr::zero();
    }
    std::vector<std::span<const Fr>> spans(cols.begin(), cols.end());
    auto batch = msmBatch(spans, points);
    MsmStats stats;
    msmBatch(spans, points, MsmOptions{}, &stats);
    EXPECT_GT(stats.affineAdds, 0u);
    for (std::size_t j = 0; j < cols.size(); ++j) {
        G1Jacobian solo = msmPippenger(cols[j], points);
        EXPECT_EQ(batch[j].X, solo.X) << "col " << j;
        EXPECT_EQ(batch[j].Y, solo.Y) << "col " << j;
        EXPECT_EQ(batch[j].Z, solo.Z) << "col " << j;
    }
}

TEST(Msm, BatchEdgeCases)
{
    Rng rng(85);
    // k = 0.
    EXPECT_TRUE(msmBatch({}, {}).empty());
    // n = 0.
    std::vector<Fr> empty_col;
    std::vector<std::span<const Fr>> cols = {empty_col};
    EXPECT_TRUE(msmBatch(cols, {})[0].isIdentity());
    // n = 1.
    std::vector<Fr> one_col = {Fr::random(rng)};
    std::vector<G1Affine> one_point = {randomG1(rng)};
    cols = {one_col};
    EXPECT_EQ(msmBatch(cols, one_point)[0], msmNaive(one_col, one_point));
    // All-identity points.
    std::vector<Fr> scalars;
    std::vector<G1Affine> inf_points(40, G1Affine{});
    for (int i = 0; i < 40; ++i)
        scalars.push_back(Fr::random(rng));
    cols = {scalars};
    EXPECT_TRUE(msmBatch(cols, inf_points)[0].isIdentity());
}

TEST(Msm, ParallelMatchesSerial)
{
    Rng rng(74);
    const std::size_t n = 512;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);
    }
    G1Jacobian serial = msmPippenger(scalars, points);
    for (unsigned threads : {4u, 1u, 24u}) {
        zkphire::rt::ScopedConfig scope(
            zkphire::rt::Config{.threads = threads});
        EXPECT_EQ(msmPippenger(scalars, points), serial)
            << "threads " << threads;
    }
}

// ---------------------------------------------------------------------------
// The IFMA point kernels (ec/bucket_ifma_x86.hpp) against the scalar code:
// the fused round finish and the bucket-aggregation tiles must give the
// same coordinates bit for bit. ScopedAsmKernels(false) turns IFMA off.
// ---------------------------------------------------------------------------

namespace {

/** n affine points Q + i * D for random Q and D, normalized together. */
std::vector<G1Affine>
pointRun(std::size_t n, Rng &rng)
{
    const G1Jacobian d = G1Jacobian::fromAffine(randomG1(rng));
    std::vector<G1Jacobian> jac;
    G1Jacobian q = G1Jacobian::fromAffine(randomG1(rng));
    for (std::size_t i = 0; i < n; ++i) {
        jac.push_back(q);
        q = q.add(d);
    }
    return batchToAffine(jac);
}

G1Affine
negate(const G1Affine &p)
{
    return p.infinity ? p : G1Affine{p.x, p.y.neg(), false};
}

void
expectSameCoordinates(const std::vector<G1Affine> &a,
                      const std::vector<G1Affine> &b, const char *what,
                      std::size_t pairs)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string at = std::string(what) + ", " +
                               std::to_string(pairs) + " pairs, slot " +
                               std::to_string(i);
        EXPECT_EQ(a[i].infinity, b[i].infinity) << at;
        EXPECT_EQ(a[i].x, b[i].x) << at;
        EXPECT_EQ(a[i].y, b[i].y) << at;
    }
}

} // namespace

TEST(BatchAffine, SlotsBitIdenticalIfmaOnOff)
{
    if (const char *why = ifmaSkipReason())
        GTEST_SKIP() << why;
    ScopedGenericKernels fixed(false); // IFMA runs under every oracle flag
    Rng rng(86);
    std::vector<G1Affine> pool = pointRun(2048, rng);
    const std::uint32_t id = std::uint32_t(pool.size()) << 1;
    pool.push_back(G1Affine{});
    std::vector<std::size_t> counts;
    for (std::size_t n = 0; n <= 33; ++n)
        counts.push_back(n);
    counts.push_back(1000);
    for (const bool all_doublings : {false, true}) {
        for (const std::size_t pairs : counts) {
            // Round 0 stages exactly `pairs` slope pairs (adds, or
            // doublings), with pairs that resolve at staging between them
            // so slot indices and pair indices differ. A trailing segment
            // whose round-0 pairs all meet the identity gives rounds 1
            // and 2 slope pairs too.
            std::vector<std::uint32_t> enc, off = {0};
            for (std::size_t i = 0; i < pairs; ++i) {
                const std::uint32_t a = std::uint32_t(2 * i);
                enc.push_back(a << 1);
                enc.push_back(all_doublings ? a << 1 : (a + 1) << 1);
                off.push_back(std::uint32_t(enc.size()));
                if (i % 5 == 2) { // cancellation
                    enc.push_back(std::uint32_t(2 * i + 1) << 1);
                    enc.push_back((std::uint32_t(2 * i + 1) << 1) | 1u);
                    off.push_back(std::uint32_t(enc.size()));
                }
            }
            for (std::uint32_t e : {0u, 4u, 8u, 0u}) {
                enc.push_back(e);
                enc.push_back(id);
            }
            off.push_back(std::uint32_t(enc.size()));
            std::vector<G1Affine> buf;
            for (std::uint32_t e : enc)
                buf.push_back((e & 1) ? negate(pool[e >> 1]) : pool[e >> 1]);

            const std::size_t segs = off.size() - 1;
            std::vector<G1Affine> got[2], got_indexed[2];
            BatchAffineStats stats[2];
            for (const bool ifma : {false, true}) {
                ScopedAsmKernels scope(ifma);
                std::vector<G1Affine> b = buf;
                BatchAffineScratch scratch, scratch_indexed;
                got[ifma].resize(segs);
                got_indexed[ifma].resize(segs);
                batchAffineSegmentSums(b, off, got[ifma], scratch,
                                       &stats[ifma]);
                batchAffineSegmentSumsIndexed(pool, enc, off,
                                              got_indexed[ifma],
                                              scratch_indexed);
            }
            // The trailing segment adds two slope pairs in round 1 and one
            // in round 2.
            EXPECT_EQ(stats[0].affineAdds, pairs + 3);
            EXPECT_EQ(stats[1].affineAdds, pairs + 3);
            expectSameCoordinates(got[1], got[0], "materialized", pairs);
            expectSameCoordinates(got_indexed[1], got[0], "indexed", pairs);
            for (std::size_t i = 0; i < segs; ++i) {
                G1Jacobian want = G1Jacobian::identity();
                for (std::uint32_t k = off[i]; k < off[i + 1]; ++k)
                    want = want.addMixed(buf[k]);
                EXPECT_EQ(G1Jacobian::fromAffine(got[1][i]), want)
                    << pairs << " pairs, segment " << i;
            }
        }
    }
}

namespace {

/** The bucket arrays of the aggregation tests, B buckets each. */
std::vector<std::pair<const char *, std::vector<G1Affine>>>
bucketArrays(std::size_t num, Rng &rng)
{
    const std::vector<G1Affine> run = pointRun(num, rng);
    const G1Affine p = run[0];
    std::vector<std::pair<const char *, std::vector<G1Affine>>> out;
    out.emplace_back("random", run);
    std::vector<G1Affine> holes = run;
    for (std::size_t b = 0; b < num; b += 3)
        holes[b] = G1Affine{};
    out.emplace_back("every third empty", holes);
    out.emplace_back("all equal", std::vector<G1Affine>(num, p));
    std::vector<G1Affine> alternating(num);
    for (std::size_t b = 0; b < num; ++b)
        alternating[b] = b % 2 ? negate(p) : p;
    out.emplace_back("P and -P alternating", alternating);
    out.emplace_back("all empty", std::vector<G1Affine>(num));
    return out;
}

void
expectSameJacobian(const G1Jacobian &a, const G1Jacobian &b,
                   const std::string &what)
{
    EXPECT_EQ(a.X, b.X) << what;
    EXPECT_EQ(a.Y, b.Y) << what;
    EXPECT_EQ(a.Z, b.Z) << what;
}

} // namespace

TEST(Aggregate, TiledSumMatchesSerialSuffixSum)
{
    Rng rng(87);
    for (const std::size_t num : {64u, 128u, 1024u, 4096u}) {
        for (const auto &[name, buckets] : bucketArrays(num, rng)) {
            BatchAffineStats stats;
            const G1Jacobian got = aggregateBuckets(buckets, &stats);
            EXPECT_EQ(got, bucketSumSerial(buckets))
                << name << ", B = " << num;
            // 2B chain adds, 3T - 2 to combine the tiles, log2 L doublings.
            EXPECT_EQ(stats.pointAdds, 2 * num + 3 * kAggregateTiles - 2);
            EXPECT_EQ(std::size_t(1) << stats.pointDoubles,
                      num / kAggregateTiles);
        }
    }
    // Below the tile threshold the chain is the serial suffix sum itself.
    const std::vector<G1Affine> short_chain = pointRun(32, rng);
    BatchAffineStats stats;
    expectSameJacobian(aggregateBuckets(short_chain, &stats),
                       bucketSumSerial(short_chain), "B = 32");
    EXPECT_EQ(stats.pointAdds, 64u);
    EXPECT_EQ(stats.pointDoubles, 0u);
}

TEST(Aggregate, IfmaTilesMatchScalarTiles)
{
    if (const char *why = ifmaSkipReason())
        GTEST_SKIP() << why;
    ScopedGenericKernels fixed(false); // IFMA runs under every oracle flag
    Rng rng(88);
    for (const std::size_t num : {64u, 128u, 1024u, 4096u}) {
        for (const auto &[name, buckets] : bucketArrays(num, rng)) {
            BucketTiles scalar, ifma;
            detail::bucketTilesScalar(buckets, scalar);
#if ZKPHIRE_HAVE_X86_IFMA
            bucketTilesIfma(buckets.data(), buckets.size(), ifma);
#endif
            const std::string what =
                std::string(name) + ", B = " + std::to_string(num);
            for (std::size_t t = 0; t < kAggregateTiles; ++t) {
                expectSameJacobian(ifma.total[t], scalar.total[t],
                                   what + ", R_" + std::to_string(t));
                expectSameJacobian(ifma.weighted[t], scalar.weighted[t],
                                   what + ", W_" + std::to_string(t));
            }
            G1Jacobian with_ifma, without;
            {
                ScopedAsmKernels scope(true);
                ASSERT_TRUE(zkphire::ff::kernels::ifmaSelected());
                with_ifma = aggregateBuckets(buckets);
            }
            {
                ScopedAsmKernels scope(false);
                without = aggregateBuckets(buckets);
            }
            expectSameJacobian(with_ifma, without, what);
        }
    }
}

TEST(Msm, AllPointsEqualWideWindowMatchesNaive)
{
    // Every bucket holds a multiple of one point, so the aggregation's
    // running and weighted sums keep meeting equal x coordinates: the
    // doubling and cancellation cases of every tile lane.
    Rng rng(89);
    const std::size_t n = 300;
    const G1Affine p = randomG1(rng);
    std::vector<G1Affine> points(n, p);
    std::vector<Fr> scalars;
    for (std::size_t i = 0; i < n; ++i)
        scalars.push_back(Fr::random(rng));
    const G1Jacobian want = msmNaive(scalars, points);
    for (const unsigned c : {7u, 8u, 11u}) {
        const MsmOptions opts{.windowBits = c};
        EXPECT_EQ(msmPippenger(scalars, points, opts), want) << "c = " << c;
        const MsmOptions no_glv{.windowBits = c, .glv = false};
        EXPECT_EQ(msmPippenger(scalars, points, no_glv), want)
            << "c = " << c << ", no GLV";
    }
}

TEST(Msm, JacobianOutputsIdenticalIfmaOnOff)
{
    if (const char *why = ifmaSkipReason())
        GTEST_SKIP() << why;
    ScopedGenericKernels fixed(false); // IFMA runs under every oracle flag
    Rng rng(90);
    const std::size_t n = 1500;
    const std::vector<G1Affine> run = pointRun(64, rng);
    std::vector<G1Affine> points;
    std::vector<Fr> col_a, col_b;
    for (std::size_t i = 0; i < n; ++i) {
        points.push_back(i % 7 == 0 ? G1Affine{} : run[i % run.size()]);
        col_a.push_back(Fr::random(rng));
        col_b.push_back(i % 3 == 0 ? Fr::one() : Fr::random(rng));
    }
    const std::vector<std::span<const Fr>> cols = {col_a, col_b};
    const G1Jacobian want_a = msmNaive(col_a, points);
    for (const unsigned c : {0u, 6u, 9u}) {
        const MsmOptions opts{.windowBits = c};
        std::vector<G1Jacobian> got[2];
        MsmStats stats[2];
        for (const bool ifma : {false, true}) {
            ScopedAsmKernels scope(ifma);
            got[ifma] = msmBatch(cols, points, opts, &stats[ifma]);
        }
        for (std::size_t j = 0; j < cols.size(); ++j)
            expectSameJacobian(got[1][j], got[0][j],
                               "c = " + std::to_string(c) + ", column " +
                                   std::to_string(j));
        EXPECT_EQ(stats[1].pointAdds, stats[0].pointAdds);
        EXPECT_EQ(stats[1].pointDoubles, stats[0].pointDoubles);
        EXPECT_EQ(stats[1].affineAdds, stats[0].affineAdds);
        EXPECT_EQ(got[1][0], want_a) << "c = " << c;
    }
}
