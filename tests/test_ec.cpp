/**
 * @file
 * BLS12-381 G1 group-law and MSM tests. The doubled-generator vector was
 * computed independently with Python bignums.
 */
#include <gtest/gtest.h>

#include "ec/batch_add.hpp"
#include "ec/g1.hpp"
#include "ec/msm.hpp"
#include "ec/recode.hpp"
#include "msm_oracle.hpp"
#include "rt/parallel.hpp"

using namespace zkphire::ec;
using zkphire::oracle::msmNaive;
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

    MsmOptions signed_jac{.batchAffine = false};
    MsmOptions signed_ba{.batchAffine = true, .batchAffineMinPoints = 0};
    for (unsigned c : {0u, 4u, 9u}) {
        signed_jac.windowBits = signed_ba.windowBits = c;
        EXPECT_EQ(msmPippenger(scalars, points, signed_jac), expect);
        EXPECT_EQ(msmPippenger(scalars, points, signed_ba), expect);
    }
}

TEST(Msm, BatchAffineCountsAffineAdds)
{
    Rng rng(83);
    const std::size_t n = 600; // above the default batch-affine floor
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng) + Fr::fromU64(2));
        points.push_back(i % 8 == 0 ? randomG1(rng) : base);
    }
    MsmStats stats;
    G1Jacobian got = msmPippenger(scalars, points, {}, &stats);
    EXPECT_EQ(got, msmNaive(scalars, points));
    EXPECT_GT(stats.affineAdds, 0u);
    EXPECT_GT(stats.batchInversions, 0u);
    EXPECT_EQ(stats.denseScalars, n);
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

    for (const MsmOptions &opts :
         {MsmOptions{}, MsmOptions{.batchAffineMinPoints = 0}}) {
        auto batch = msmBatch(spans, points, opts);
        ASSERT_EQ(batch.size(), cols.size());
        for (std::size_t j = 0; j < cols.size(); ++j) {
            G1Jacobian solo = msmPippenger(cols[j], points, opts);
            // Bit-identical, not just equal as curve points: a batch run
            // must replay each column's exact serial operation sequence.
            EXPECT_EQ(batch[j].X, solo.X) << "col " << j;
            EXPECT_EQ(batch[j].Y, solo.Y) << "col " << j;
            EXPECT_EQ(batch[j].Z, solo.Z) << "col " << j;
        }
    }
}

TEST(Msm, BatchSparseColumnKeepsSoloPath)
{
    // A sparse column batched alongside dense ones must take the same
    // bucket path (Jacobian, below the batch-affine floor) its solo run
    // takes — the per-column gate, not the union of dense indices,
    // decides — so results stay bit-identical to independent runs even
    // when the batch as a whole is large.
    Rng rng(87);
    const std::size_t n = 700; // dense cols above the default floor of 512
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);

    std::vector<std::vector<Fr>> cols(3, std::vector<Fr>(n));
    for (std::size_t i = 0; i < n; ++i) {
        cols[0][i] = Fr::random(rng);
        cols[1][i] = Fr::random(rng);
        // ~40 dense entries: far below the floor on its own.
        cols[2][i] = i % 16 == 3 ? Fr::random(rng) : Fr::zero();
    }
    std::vector<std::span<const Fr>> spans(cols.begin(), cols.end());
    auto batch = msmBatch(spans, points);
    MsmStats stats;
    msmBatch(spans, points, MsmOptions{}, &stats);
    EXPECT_GT(stats.affineAdds, 0u); // dense columns did use batch-affine
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
    // All-identity points, forced batched-affine.
    std::vector<Fr> scalars;
    std::vector<G1Affine> inf_points(40, G1Affine{});
    for (int i = 0; i < 40; ++i)
        scalars.push_back(Fr::random(rng));
    cols = {scalars};
    EXPECT_TRUE(
        msmBatch(cols, inf_points, MsmOptions{.batchAffineMinPoints = 0})[0]
            .isIdentity());
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
