/**
 * @file
 * Property suite for the fixed-limb Montgomery kernels (ff/mul_impl.hpp):
 * every unrolled operation is cross-checked against the generic
 * loop-over-limbs oracle on 10k random operand pairs plus the edge
 * operands that stress carry chains and reductions, for both Fr (4 limbs)
 * and Fq (6 limbs). A transcript regression proves a full HyperPlonk proof
 * is byte-identical with the kernels on and off, at 1 and N threads.
 */
#include <gtest/gtest.h>

#include "engine/context.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/fq.hpp"
#include "ff/fq8_ifma_x86.hpp"
#include "ff/fr.hpp"
#include "ff/mul_asm_x86.hpp"
#include "ff/mul_ifma_x86.hpp"
#include "ff/mul_impl.hpp"
#include "ff/rng.hpp"
#include "ff/vec_ops.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "ifma_skip.hpp"
#include "pcs/srs.hpp"
#include "rt/parallel.hpp"

using namespace zkphire;
using ff::kernels::ScopedGenericKernels;

namespace {

/**
 * Canonical edge operands for a field F: boundary values of the reduction
 * (0, 1, p-1, p-2), the Montgomery radix residues (R mod p, R-1), and
 * all-ones limb patterns below p that maximize carry propagation.
 */
template <class F>
std::vector<F>
edgeOperands()
{
    using Big = typename F::Big;
    std::vector<F> out;
    out.push_back(F::zero());
    out.push_back(F::one());
    out.push_back(F::fromU64(2));

    Big pm1 = F::modulus();
    pm1.subInPlace(Big(1));
    out.push_back(F::fromBig(pm1)); // p - 1
    Big pm2 = pm1;
    pm2.subInPlace(Big(1));
    out.push_back(F::fromBig(pm2)); // p - 2

    // R mod p and R-1 mod p as canonical values: one() holds R in raw
    // Montgomery form, i.e. its raw limbs are the canonical value R mod p.
    Big r_mod_p = F::one().raw();
    out.push_back(F::fromBig(r_mod_p));
    Big r_minus_1 = r_mod_p;
    if (r_minus_1.isZero())
        r_minus_1 = pm1;
    else
        r_minus_1.subInPlace(Big(1));
    out.push_back(F::fromBig(r_minus_1));

    // All-ones limb patterns masked below p: saturate one limb at a time,
    // then as many low limbs as fit under the modulus.
    for (std::size_t l = 0; l < F::numLimbs; ++l) {
        Big b;
        b.limb[l] = ~std::uint64_t(0);
        while (b >= F::modulus())
            b.shr1InPlace();
        out.push_back(F::fromBig(b));
    }
    Big all;
    for (auto &limb : all.limb)
        limb = ~std::uint64_t(0);
    while (all >= F::modulus())
        all.shr1InPlace();
    out.push_back(F::fromBig(all)); // 2^(bits-1) - 1 style saturation
    return out;
}

/**
 * Compare every arithmetic op under the unrolled kernels against the
 * generic oracle for one operand pair. Equality on PrimeField compares raw
 * Montgomery limbs, so this locks bit-identity, not just field equality.
 */
template <class F>
void
expectOpsMatch(const F &a, const F &b)
{
    ScopedGenericKernels oracle(true);
    const F g_mul = a * b;
    const F g_sq = a.square();
    const F g_add = a + b;
    const F g_sub = a - b;
    const F g_dbl = a.dbl();
    const F g_neg = a.neg();
    ScopedGenericKernels fixed(false);
    EXPECT_EQ(a * b, g_mul);
    EXPECT_EQ(a.square(), g_sq);
    EXPECT_EQ(a + b, g_add);
    EXPECT_EQ(a - b, g_sub);
    EXPECT_EQ(a.dbl(), g_dbl);
    EXPECT_EQ(a.neg(), g_neg);
}

template <class F>
void
runKernelPropertySuite(std::uint64_t seed)
{
    ASSERT_TRUE(ff::kernels::kHasFixedKernel<F::numLimbs>);

    const std::vector<F> edges = edgeOperands<F>();
    for (const F &a : edges)
        for (const F &b : edges)
            expectOpsMatch(a, b);

    ff::Rng rng(seed);
    for (int i = 0; i < 10000; ++i) {
        const F a = F::random(rng);
        const F b = F::random(rng);
        {
            ScopedGenericKernels oracle(true);
            const F g = a * b;
            ScopedGenericKernels fixed(false);
            ASSERT_EQ(a * b, g) << "mul mismatch at i=" << i;
        }
        // Cheap structural identities under the fixed kernels only; any
        // failure here is a kernel bug the mul cross-check may not see.
        ASSERT_EQ(a.square(), a * a);
        ASSERT_EQ(a.dbl(), a + a);
        ASSERT_EQ(a - b + b, a);
        ASSERT_EQ(a + a.neg(), F::zero());
    }
    // Edge x random: carries against boundary operands.
    for (const F &e : edges)
        for (int i = 0; i < 50; ++i)
            expectOpsMatch(e, F::random(rng));
}

} // namespace

TEST(FfKernels, FrUnrolledMatchesGenericOracle)
{
    runKernelPropertySuite<ff::Fr>(2024);
}

TEST(FfKernels, FqUnrolledMatchesGenericOracle)
{
    runKernelPropertySuite<ff::Fq>(4048);
}

/**
 * Three-way bit-identity: the ADX/BMI2 assembly kernel, the unrolled C++
 * kernel, and the generic oracle must produce identical raw Montgomery
 * limbs for mul and square on 10k random pairs plus every edge pair.
 * Skipped (not failed) on hosts without ADX+BMI2, matching the runtime
 * dispatch: such hosts never execute the assembly path.
 */
template <class F>
void
runAsmKernelSuite(std::uint64_t seed)
{
    if (!ff::kernels::cpuSupportsAdxBmi2())
        GTEST_SKIP() << "host lacks ADX/BMI2; asm path never dispatched";

    auto expect_three_way = [](const F &a, const F &b) {
        F g_mul, g_sq;
        {
            ScopedGenericKernels oracle(true);
            g_mul = a * b;
            g_sq = a.square();
        }
        {
            ff::kernels::ScopedAsmKernels no_asm(false);
            ASSERT_EQ(a * b, g_mul);
            ASSERT_EQ(a.square(), g_sq);
        }
        {
            ff::kernels::ScopedAsmKernels with_asm(true);
            ASSERT_EQ(a * b, g_mul);
            ASSERT_EQ(a.square(), g_sq);
        }
    };

    const std::vector<F> edges = edgeOperands<F>();
    for (const F &a : edges)
        for (const F &b : edges)
            expect_three_way(a, b);
    ff::Rng rng(seed);
    for (int i = 0; i < 10000; ++i)
        expect_three_way(F::random(rng), F::random(rng));
    for (const F &e : edges)
        for (int i = 0; i < 50; ++i)
            expect_three_way(e, F::random(rng));

    // In-place aliasing: the asm kernel writes through a local buffer, so
    // out == a == b must still be exact.
    ff::kernels::ScopedAsmKernels with_asm(true);
    for (const F &e : edges) {
        F x = e;
        x *= x;
        ASSERT_EQ(x, e.square());
    }
}

TEST(FfKernels, FrAsmMatchesUnrolledAndGeneric)
{
    runAsmKernelSuite<ff::Fr>(1234);
}

TEST(FfKernels, FqAsmMatchesUnrolledAndGeneric)
{
    runAsmKernelSuite<ff::Fq>(5678);
}

TEST(FfKernels, AsmScopeRoundTrips)
{
    // Enabling is clamped by CPU/build support (a no-asm build or
    // non-ADX host silently keeps the portable kernels selected). The
    // switch carries the IFMA batch kernels with it, clamped the same way.
    const bool avail = ff::kernels::cpuSupportsAdxBmi2();
    const bool ifma = ff::kernels::cpuSupportsIfma();
    const bool ambient = ff::kernels::asmKernelsEnabled();
    const bool ambient_ifma = ff::kernels::ifmaKernelsEnabled();
    {
        ff::kernels::ScopedAsmKernels on(true);
        EXPECT_EQ(ff::kernels::asmKernelsEnabled(), avail);
        EXPECT_EQ(ff::kernels::ifmaKernelsEnabled(), ifma);
        {
            ff::kernels::ScopedAsmKernels off(false);
            EXPECT_FALSE(ff::kernels::asmKernelsEnabled());
            EXPECT_FALSE(ff::kernels::ifmaKernelsEnabled());
            EXPECT_FALSE(ff::kernels::ifmaSelected());
        }
        EXPECT_EQ(ff::kernels::asmKernelsEnabled(), avail);
        EXPECT_EQ(ff::kernels::ifmaKernelsEnabled(), ifma);
        // The generic oracle wins over the IFMA kernels too.
        ScopedGenericKernels oracle(true);
        EXPECT_FALSE(ff::kernels::ifmaSelected());
    }
    EXPECT_EQ(ff::kernels::asmKernelsEnabled(), ambient);
    EXPECT_EQ(ff::kernels::ifmaKernelsEnabled(), ambient_ifma);
}

// ---------------------------------------------------------------------------
// The AVX-512 IFMA lane multiplier (ff/fq8_ifma_x86.hpp) and batched Fq
// kernels (ff/mul_ifma_x86.hpp) against the scalar kernels: IFMA == ADX ==
// unrolled == generic, element for element.
// Skipped (not failed) on hosts and builds without IFMA, which never
// dispatch to them.
// ---------------------------------------------------------------------------

namespace {

using testutil::ifmaSkipReason;

/** n operands cycling through the edge operands, then random ones: every
 *  edge pair meets in the first edges^2 positions of a (i % e) x (i / e)
 *  layout when n is that large. */
std::vector<ff::Fq>
fqOperands(std::size_t n, bool second, ff::Rng &rng)
{
    const std::vector<ff::Fq> edges = edgeOperands<ff::Fq>();
    const std::size_t e = edges.size();
    std::vector<ff::Fq> v;
    for (std::size_t i = 0; i < n; ++i) {
        if (i < e * e)
            v.push_back(second ? edges[(i / e) % e] : edges[i % e]);
        else
            v.push_back(ff::Fq::random(rng));
    }
    return v;
}

/** Per-element products under each scalar kernel, which must agree. */
std::vector<ff::Fq>
scalarProducts(const std::vector<ff::Fq> &a, const std::vector<ff::Fq> &b)
{
    const std::size_t n = a.size();
    std::vector<ff::Fq> generic(n), unrolled(n), adx(n);
    {
        ScopedGenericKernels oracle(true);
        for (std::size_t i = 0; i < n; ++i)
            generic[i] = a[i] * b[i];
    }
    ScopedGenericKernels fixed(false);
    {
        ff::kernels::ScopedAsmKernels no_asm(false);
        for (std::size_t i = 0; i < n; ++i)
            unrolled[i] = a[i] * b[i];
    }
    {
        ff::kernels::ScopedAsmKernels with_asm(true);
        for (std::size_t i = 0; i < n; ++i)
            adx[i] = a[i] * b[i];
    }
    EXPECT_EQ(unrolled, generic);
    EXPECT_EQ(adx, generic);
    return generic;
}

#if ZKPHIRE_HAVE_X86_IFMA
/** dst[i] = a[i] * b[i] by ifma::montMul8, one full vector of eight
 *  consecutive elements at a time. @pre n % 8 == 0. */
__attribute__((target("avx512f,avx512ifma"))) void
montMul8Products(const ff::Fq *a, const ff::Fq *b, ff::Fq *dst,
                 std::size_t n)
{
    using namespace ff::ifma;
    const __m512i idx = consecutive();
    for (std::size_t i = 0; i < n; i += 8)
        scatter8(dst + i, idx,
                 montMul8(gather8(a + i, idx), gather8(b + i, idx)));
}
#endif

} // namespace

TEST(FfKernels, FqIfmaMontMul8MatchesScalarKernels)
{
    // The lane multiplier that the batch inversion and the bucket-round
    // point kernels share, on every ordered pair of edge operands and then
    // random pairs. Masked tails are the batch inversion's, checked with
    // sentinels by FqIfmaBatchInverseMatchesPerElementInverse.
    if (const char *why = ifmaSkipReason())
        GTEST_SKIP() << why;
#if ZKPHIRE_HAVE_X86_IFMA
    ff::Rng rng(52);
    const std::size_t e = edgeOperands<ff::Fq>().size();
    const std::size_t n = (e * e + 1000 + 7) / 8 * 8;
    const std::vector<ff::Fq> a = fqOperands(n, false, rng);
    const std::vector<ff::Fq> b = fqOperands(n, true, rng);
    const std::vector<ff::Fq> expect = scalarProducts(a, b);
    std::vector<ff::Fq> got(n);
    montMul8Products(a.data(), b.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], expect[i])
            << "operand pair " << i << (i < e * e ? " (edge pair)" : "");
#endif
}

TEST(FfKernels, FqIfmaBatchInverseMatchesPerElementInverse)
{
    if (const char *why = ifmaSkipReason())
        GTEST_SKIP() << why;
#if ZKPHIRE_HAVE_X86_IFMA
    ff::Rng rng(53);
    std::vector<ff::Fq> edges;
    for (const ff::Fq &x : edgeOperands<ff::Fq>())
        if (!x.isZero())
            edges.push_back(x);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 64; ++n)
        lengths.push_back(n);
    lengths.push_back(1000);
    lengths.push_back(4097);
    for (const std::size_t n : lengths) {
        std::vector<ff::Fq> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(i % 3 == 0 ? edges[(i / 3) % edges.size()]
                                    : ff::Fq::random(rng));
        std::vector<ff::Fq> expect(n);
        {
            ScopedGenericKernels oracle(true);
            for (std::size_t i = 0; i < n; ++i)
                expect[i] = xs[i].inverse();
        }

        const ff::Fq sentinel = ff::Fq::fromU64(0x5e47);
        std::vector<ff::Fq> out(n + 16, sentinel);
        ff::kernels::batchInverseFqIfma(xs.data(), out.data(), n);
        EXPECT_EQ(std::vector<ff::Fq>(out.begin(), out.begin() + n), expect)
            << "n = " << n;
        EXPECT_EQ(std::vector<ff::Fq>(out.begin() + n, out.end()),
                  std::vector<ff::Fq>(16, sentinel))
            << "n = " << n;

        // The scalar lanes on the ADX and the unrolled multiplier, and the
        // dispatching entry point, agree.
        ScopedGenericKernels fixed(false);
        std::vector<ff::Fq> adx(n), unrolled(n), via_dispatch(n);
        {
            ff::kernels::ScopedAsmKernels no_asm(false);
            ff::detail::batchInverseLanes<ff::Fq>(xs, unrolled);
        }
        EXPECT_EQ(unrolled, expect) << "unrolled lanes, n = " << n;
        ff::kernels::ScopedAsmKernels with_asm(true);
        ff::detail::batchInverseLanes<ff::Fq>(xs, adx);
        EXPECT_EQ(adx, expect) << "ADX lanes, n = " << n;
        ff::detail::batchInverseSerial<ff::Fq>(xs, via_dispatch);
        EXPECT_EQ(via_dispatch, expect) << "dispatch, n = " << n;
    }
#endif
}

/**
 * Full-prover byte identity with the IFMA kernels on and off: every Fq
 * batch of the MSM bucket rounds, commitments and openings runs on IFMA
 * in one proof and on the scalar kernels in the other.
 * ScopedAsmKernels(false) turns IFMA off along with the ADX multiplier.
 */
TEST(FfKernels, HyperPlonkTranscriptIdenticalIfmaOnOff)
{
    if (const char *why = ifmaSkipReason())
        GTEST_SKIP() << why;
    ff::Rng rng(5219);
    pcs::Srs srs = pcs::Srs::generate(9, rng);
    engine::ProverContext ctx(srs);
    hyperplonk::Circuit circuit = hyperplonk::randomVanillaCircuit(8, rng);
    const hyperplonk::Keys &keys = ctx.preprocess(circuit);

    ScopedGenericKernels fixed(false);
    auto prove_bytes = [&](bool asm_on, unsigned threads) {
        ff::kernels::ScopedAsmKernels asm_scope(asm_on);
        EXPECT_EQ(ff::kernels::ifmaSelected(), asm_on);
        rt::ScopedThreads pin(threads);
        auto proof = ctx.prove(keys.pk, circuit);
        return hyperplonk::serializeProof(proof);
    };
    const std::vector<std::uint8_t> reference = prove_bytes(false, 1);
    EXPECT_EQ(prove_bytes(true, 1), reference);
    EXPECT_EQ(prove_bytes(false, 4), reference);
    EXPECT_EQ(prove_bytes(true, 4), reference);
}

TEST(FfKernels, SquareKernelMatchesMulOnEdges)
{
    for (const ff::Fq &e : edgeOperands<ff::Fq>()) {
        EXPECT_EQ(e.square(), e * e);
        ScopedGenericKernels oracle(true);
        EXPECT_EQ(e.square(), e * e);
    }
}

TEST(FfKernels, VecOpsMatchScalarLoops)
{
    using ff::Fr;
    ff::Rng rng(99);
    constexpr std::size_t n = 257; // odd length: exercises any tail handling
    std::vector<Fr> a, b;
    for (std::size_t i = 0; i < n; ++i) {
        a.push_back(Fr::random(rng));
        b.push_back(Fr::random(rng));
    }
    std::vector<Fr> dst(n), expect(n);
    for (std::size_t i = 0; i < n; ++i)
        expect[i] = a[i] * b[i];
    ff::mulVec(dst.data(), a.data(), b.data(), n);
    EXPECT_EQ(dst, expect);

    // Aliased dst == a.
    std::vector<Fr> aliased = a;
    ff::mulVec(aliased.data(), aliased.data(), b.data(), n);
    EXPECT_EQ(aliased, expect);

    std::vector<Fr> acc(n, Fr::one());
    ff::addVec(acc.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(acc[i], Fr::one() + a[i]);

    const Fr c = Fr::fromU64(7);
    acc.assign(n, Fr::zero());
    ff::addMulVec(acc.data(), c, a.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(acc[i], c * a[i]);
}

TEST(FfKernels, ForceGenericRoundTrips)
{
    // The ambient value may be either (ZKPHIRE_FF_GENERIC=1 runs the whole
    // suite on the oracle); scopes must nest and restore it exactly.
    const bool ambient = ff::kernels::genericKernelsForced();
    {
        ScopedGenericKernels on(true);
        EXPECT_TRUE(ff::kernels::genericKernelsForced());
        {
            ScopedGenericKernels off(false);
            EXPECT_FALSE(ff::kernels::genericKernelsForced());
        }
        EXPECT_TRUE(ff::kernels::genericKernelsForced());
    }
    EXPECT_EQ(ff::kernels::genericKernelsForced(), ambient);
}

/**
 * Transcript bit-identity: a full HyperPlonk proof must serialize to the
 * same bytes with the unrolled kernels on and off, at every thread count —
 * the kernels change instruction sequences, never values.
 */
TEST(FfKernels, HyperPlonkTranscriptIdenticalKernelsOnOff)
{
    ff::Rng rng(7117);
    pcs::Srs srs = pcs::Srs::generate(7, rng);
    engine::ProverContext ctx(srs);
    hyperplonk::Circuit circuit = hyperplonk::randomVanillaCircuit(5, rng);
    const hyperplonk::Keys &keys = ctx.preprocess(circuit);

    auto prove_bytes = [&](bool generic, unsigned threads) {
        ScopedGenericKernels scope(generic);
        rt::ScopedThreads pin(threads);
        auto proof = hyperplonk::prove(keys.pk, circuit, nullptr);
        return hyperplonk::serializeProof(proof);
    };

    const std::vector<std::uint8_t> fixed1 = prove_bytes(false, 1);
    const std::vector<std::uint8_t> generic1 = prove_bytes(true, 1);
    EXPECT_EQ(fixed1, generic1);

    const std::vector<std::uint8_t> fixed3 = prove_bytes(false, 3);
    const std::vector<std::uint8_t> generic3 = prove_bytes(true, 3);
    EXPECT_EQ(fixed3, fixed1);
    EXPECT_EQ(generic3, fixed1);
}

/**
 * PR 7 regression matrix: the proof bytes must not move under any of the
 * new speed knobs — {asm on/off} x {GLV on/off} x {1, 4 threads}. On
 * non-ADX hosts "asm on" silently stays on the unrolled kernel (the
 * dispatch never arms), which still exercises the GLV/thread axes.
 */
TEST(FfKernels, HyperPlonkTranscriptIdenticalAsmGlvThreadMatrix)
{
    ff::Rng rng(9218);
    pcs::Srs srs = pcs::Srs::generate(7, rng);
    engine::ProverContext ctx(srs);
    hyperplonk::Circuit circuit = hyperplonk::randomVanillaCircuit(5, rng);
    const hyperplonk::Keys &keys = ctx.preprocess(circuit);

    auto prove_bytes = [&](bool asm_on, bool glv_on, unsigned threads) {
        ff::kernels::ScopedAsmKernels asm_scope(asm_on);
        rt::ScopedThreads pin(threads);
        hyperplonk::ProveOptions opts;
        opts.plans = &ctx.plans();
        opts.msm.glv = glv_on;
        auto proof = hyperplonk::prove(keys.pk, circuit, nullptr, opts);
        return hyperplonk::serializeProof(proof);
    };

    const std::vector<std::uint8_t> reference = prove_bytes(false, false, 1);
    for (bool asm_on : {false, true})
        for (bool glv_on : {false, true})
            for (unsigned threads : {1u, 4u})
                EXPECT_EQ(prove_bytes(asm_on, glv_on, threads), reference)
                    << "asm=" << asm_on << " glv=" << glv_on
                    << " threads=" << threads;
}
