/**
 * @file
 * Kernel microbenchmarks (google-benchmark): field arithmetic, hashing,
 * curve operations, MSM, MLE folding, and SumCheck rounds on the host CPU.
 * These ground the CPU baseline model's fitted constants (ns per modular
 * multiplication, ns per point addition, streaming bandwidth).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>

#include "ec/batch_add.hpp"
#include "ec/bucket_ifma_x86.hpp"
#include "ec/msm.hpp"
#include "engine/service.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/mul_asm_x86.hpp"
#include "ff/mul_ifma_x86.hpp"
#include "ff/mul_impl.hpp"
#include "ff/vec_ops.hpp"
#include "gates/gate_library.hpp"
#include "hash/keccak.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/serialize.hpp"
#include "pcs/srs.hpp"
#include "poly/gate_plan.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/opencheck.hpp"
#include "sumcheck/prover.hpp"

#include "../tests/field_oracle.hpp"
#include "../tests/msm_oracle.hpp"
#include "../tests/sumcheck_oracle.hpp"

using namespace zkphire;
using ff::Fr;
using ff::Rng;

static void
BM_FrMul(benchmark::State &state)
{
    Rng rng(1);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    for (auto _ : state) {
        a *= b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FrMul);

static void
BM_FrAdd(benchmark::State &state)
{
    Rng rng(2);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    for (auto _ : state) {
        a += b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FrAdd);

// BM_{Fr,Fq}Inverse: one constant-time safegcd inversion
// (ff/safegcd.hpp), each feeding the next. The _Fermat variants time the
// test oracle, x^(p-2) by the bit-by-bit ladder (tests/field_oracle.hpp),
// the price of the Fermat inversion the safegcd replaced.
template <class F>
static void
BM_Inverse(benchmark::State &state)
{
    Rng rng(3);
    F a = F::random(rng);
    for (auto _ : state) {
        a = a.inverse();
        benchmark::DoNotOptimize(a);
    }
}

template <class F>
static void
BM_InverseFermat(benchmark::State &state)
{
    Rng rng(3);
    F a = F::random(rng);
    typename F::Big pm2 = F::modulus();
    pm2.subInPlace(typename F::Big(2));
    for (auto _ : state) {
        a = oracle::powLadder(a, pm2);
        benchmark::DoNotOptimize(a);
    }
}

BENCHMARK(BM_Inverse<Fr>)->Name("BM_FrInverse");
BENCHMARK(BM_Inverse<ff::Fq>)->Name("BM_FqInverse");
BENCHMARK(BM_InverseFermat<Fr>)->Name("BM_FrInverse_Fermat");
BENCHMARK(BM_InverseFermat<ff::Fq>)->Name("BM_FqInverse_Fermat");

static void
BM_FqMul(benchmark::State &state)
{
    Rng rng(4);
    ff::Fq a = ff::Fq::random(rng), b = ff::Fq::random(rng);
    for (auto _ : state) {
        a *= b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FqMul);

// ---------------------------------------------------------------------------
// BM_FieldMul family: the unrolled fixed-limb kernels against the generic
// loop-over-limbs oracle, measured as an element-wise loop over a span of
// scalar products (the Fr span kernels' IFMA lanes are BM_FieldMulVec_Fr's).
// Items processed = field multiplications, so the items/sec counter reads
// as mul throughput; the Unrolled/Generic ratio is the kernel-overhaul
// speedup. The BM_*Square variants isolate the dedicated squaring kernel
// (EC point ops are squaring-heavy).
// ---------------------------------------------------------------------------

/** asm_mode: -1 inherits the ambient dispatch, 0 forces the unrolled C++
 *  kernel, 1 forces the asm switch on (skipped on non-ADX): the ADX/BMI2
 *  assembly kernel, in both fields. */
template <class F>
static void
fieldMulBench(benchmark::State &state, bool generic, bool square,
              int asm_mode = -1)
{
    if (asm_mode == 1 && !ff::kernels::cpuSupportsAdxBmi2()) {
        state.SkipWithError("host lacks ADX/BMI2");
        return;
    }
    constexpr std::size_t kSpan = 1024;
    Rng rng(16);
    std::vector<F> a, b, dst(kSpan);
    for (std::size_t i = 0; i < kSpan; ++i) {
        a.push_back(F::random(rng));
        b.push_back(F::random(rng));
    }
    ff::kernels::ScopedGenericKernels oracle(generic);
    ff::kernels::ScopedAsmKernels asm_scope(
        asm_mode == -1 ? ff::kernels::asmKernelsEnabled() : asm_mode == 1);
    for (auto _ : state) {
        if (square)
            for (std::size_t i = 0; i < kSpan; ++i)
                dst[i] = a[i].square();
        else
            for (std::size_t i = 0; i < kSpan; ++i)
                dst[i] = a[i] * b[i];
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kSpan);
}

static void
BM_FieldMul_FrGeneric(benchmark::State &state)
{
    fieldMulBench<Fr>(state, /*generic=*/true, /*square=*/false);
}

static void
BM_FieldMul_FrUnrolled(benchmark::State &state)
{
    fieldMulBench<Fr>(state, /*generic=*/false, /*square=*/false,
                      /*asm_mode=*/0);
}

static void
BM_FieldMul_FrAsm(benchmark::State &state)
{
    fieldMulBench<Fr>(state, /*generic=*/false, /*square=*/false,
                      /*asm_mode=*/1);
}

static void
BM_FieldMul_FqGeneric(benchmark::State &state)
{
    fieldMulBench<ff::Fq>(state, /*generic=*/true, /*square=*/false);
}

static void
BM_FieldMul_FqUnrolled(benchmark::State &state)
{
    fieldMulBench<ff::Fq>(state, /*generic=*/false, /*square=*/false,
                          /*asm_mode=*/0);
}

static void
BM_FieldMul_FqAsm(benchmark::State &state)
{
    fieldMulBench<ff::Fq>(state, /*generic=*/false, /*square=*/false,
                          /*asm_mode=*/1);
}

static void
BM_FieldSquare_FrUnrolled(benchmark::State &state)
{
    fieldMulBench<Fr>(state, /*generic=*/false, /*square=*/true,
                      /*asm_mode=*/0);
}

static void
BM_FieldSquare_FrAsm(benchmark::State &state)
{
    fieldMulBench<Fr>(state, /*generic=*/false, /*square=*/true,
                      /*asm_mode=*/1);
}

static void
BM_FieldSquare_FqUnrolled(benchmark::State &state)
{
    fieldMulBench<ff::Fq>(state, /*generic=*/false, /*square=*/true,
                          /*asm_mode=*/0);
}

static void
BM_FieldSquare_FqAsm(benchmark::State &state)
{
    fieldMulBench<ff::Fq>(state, /*generic=*/false, /*square=*/true,
                          /*asm_mode=*/1);
}

BENCHMARK(BM_FieldMul_FrGeneric);
BENCHMARK(BM_FieldMul_FrUnrolled);
BENCHMARK(BM_FieldMul_FrAsm);
BENCHMARK(BM_FieldMul_FqGeneric);
BENCHMARK(BM_FieldMul_FqUnrolled);
BENCHMARK(BM_FieldMul_FqAsm);
BENCHMARK(BM_FieldSquare_FrUnrolled);
BENCHMARK(BM_FieldSquare_FrAsm);
BENCHMARK(BM_FieldSquare_FqUnrolled);
BENCHMARK(BM_FieldSquare_FqAsm);

// ---------------------------------------------------------------------------
// BM_BatchInverse_Fq: the batched Fq inversion of the MSM bucket rounds,
// each kernel called directly. `Asm` runs the 8-lane scalar Montgomery
// trick on the ADX multiplier, `Ifma` the AVX-512 IFMA kernel that
// batchInverseSerial<Fq> dispatches to on hosts that have it (skipped
// elsewhere). Items = field elements, including the one true inversion,
// which dominates at 64 elements.
// ---------------------------------------------------------------------------

namespace {

bool
skipWithoutAdx(benchmark::State &state)
{
    if (ff::kernels::cpuSupportsAdxBmi2())
        return false;
    state.SkipWithError("host lacks ADX/BMI2");
    return true;
}

bool
skipWithoutIfma(benchmark::State &state)
{
    if (ff::kernels::cpuSupportsIfma())
        return false;
    state.SkipWithError("host or build lacks AVX-512 IFMA");
    return true;
}

std::vector<ff::Fq>
randomFq(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<ff::Fq> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(ff::Fq::random(rng));
    return v;
}

} // namespace

static void
BM_BatchInverse_FqAsm(benchmark::State &state)
{
    if (skipWithoutAdx(state))
        return;
    const std::size_t n = std::size_t(state.range(0));
    const std::vector<ff::Fq> xs = randomFq(n, 20);
    std::vector<ff::Fq> out(n);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        ff::detail::batchInverseLanes<ff::Fq>(xs, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}

static void
BM_BatchInverse_FqIfma(benchmark::State &state)
{
    if (skipWithoutIfma(state))
        return;
#if ZKPHIRE_HAVE_X86_IFMA
    const std::size_t n = std::size_t(state.range(0));
    const std::vector<ff::Fq> xs = randomFq(n, 20);
    std::vector<ff::Fq> out(n);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        ff::kernels::batchInverseFqIfma(xs.data(), out.data(), n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
#endif
}

BENCHMARK(BM_BatchInverse_FqAsm)->Arg(64)->Arg(4096);
BENCHMARK(BM_BatchInverse_FqIfma)->Arg(64)->Arg(4096);

// ---------------------------------------------------------------------------
// The Fr span kernels, each called directly: `Asm` runs the scalar loop on
// the ADX multiplier (what every host without IFMA runs), `Ifma` the
// AVX-512 IFMA lanes that ff::mulVec<Fr> and ff::foldVec<Fr> dispatch to
// on hosts that have them (skipped elsewhere). BM_FieldMulVec_Fr: items =
// products over a 1024-element span; BM_Fold_Fr: items = fold outputs of
// a 2^mu-entry table folded into a second buffer.
// ---------------------------------------------------------------------------

namespace {

std::vector<Fr>
randomFr(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Fr> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(Fr::random(rng));
    return v;
}

} // namespace

static void
BM_FieldMulVec_FrAsm(benchmark::State &state)
{
    if (skipWithoutAdx(state))
        return;
    constexpr std::size_t kSpan = 1024;
    const std::vector<Fr> a = randomFr(kSpan, 21), b = randomFr(kSpan, 22);
    std::vector<Fr> dst(kSpan);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        for (std::size_t i = 0; i < kSpan; ++i)
            dst[i] = a[i] * b[i];
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kSpan);
}

static void
BM_FieldMulVec_FrIfma(benchmark::State &state)
{
    if (skipWithoutIfma(state))
        return;
#if ZKPHIRE_HAVE_X86_IFMA
    constexpr std::size_t kSpan = 1024;
    const std::vector<Fr> a = randomFr(kSpan, 21), b = randomFr(kSpan, 22);
    std::vector<Fr> dst(kSpan);
    for (auto _ : state) {
        ff::kernels::mulVecFrIfma(dst.data(), a.data(), b.data(), kSpan);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kSpan);
#endif
}
BENCHMARK(BM_FieldMulVec_FrAsm);
BENCHMARK(BM_FieldMulVec_FrIfma);

static void
BM_Fold_FrAsm(benchmark::State &state)
{
    if (skipWithoutAdx(state))
        return;
    const std::size_t half = (std::size_t(1) << state.range(0)) / 2;
    const std::vector<Fr> src = randomFr(2 * half, 23);
    const Fr r = randomFr(1, 24)[0];
    std::vector<Fr> dst(half);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        for (std::size_t j = 0; j < half; ++j)
            dst[j] = src[2 * j] + r * (src[2 * j + 1] - src[2 * j]);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * half);
}

static void
BM_Fold_FrIfma(benchmark::State &state)
{
    if (skipWithoutIfma(state))
        return;
#if ZKPHIRE_HAVE_X86_IFMA
    const std::size_t half = (std::size_t(1) << state.range(0)) / 2;
    const std::vector<Fr> src = randomFr(2 * half, 23);
    const Fr r = randomFr(1, 24)[0];
    std::vector<Fr> dst(half);
    for (auto _ : state) {
        ff::kernels::foldVecFrIfma(dst.data(), src.data(), r, half);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * half);
#endif
}
BENCHMARK(BM_Fold_FrAsm)->Arg(12)->Arg(16);
BENCHMARK(BM_Fold_FrIfma)->Arg(12)->Arg(16);

// ---------------------------------------------------------------------------
// BM_FieldAddSub family: modular add, sub, neg and dbl for Fr and Fq, in two
// shapes. `Span` applies the op element-wise over 1024 operands (throughput:
// independent ops overlap); `Chain` feeds each result into the next op
// (latency: the whole carry chain and its reduction are on the critical
// path). Every batched-affine bucket add spends about six subtractions next
// to its multiplies, so the chain price is the one the MSM feels. The
// `s/op` counter reads as the time per operation.
// ---------------------------------------------------------------------------

template <class F, class Op>
static void
fieldAddSubBench(benchmark::State &state, Op op, bool chain)
{
    constexpr std::size_t kSpan = 1024;
    Rng rng(17);
    std::vector<F> a, b, dst(kSpan);
    for (std::size_t i = 0; i < kSpan; ++i) {
        a.push_back(F::random(rng));
        b.push_back(F::random(rng));
    }
    F x = a[0];
    for (auto _ : state) {
        if (chain) {
            // y never escapes inside the loop, so it stays in registers
            // and each op waits only on the previous one.
            F y = x;
            const F c = b[0];
            for (std::size_t i = 0; i < kSpan; ++i)
                y = op(y, c);
            x = y;
            benchmark::DoNotOptimize(x);
        } else {
            for (std::size_t i = 0; i < kSpan; ++i)
                dst[i] = op(a[i], b[i]);
            benchmark::DoNotOptimize(dst.data());
            benchmark::ClobberMemory();
        }
    }
    state.SetItemsProcessed(state.iterations() * kSpan);
    state.counters["s/op"] = benchmark::Counter(
        double(kSpan), benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}

template <class F>
static void
registerFieldAddSub(const std::string &field)
{
    const auto reg = [&](const std::string &name, auto op) {
        for (bool chain : {false, true})
            benchmark::RegisterBenchmark(
                ("BM_FieldAddSub_" + field + name + (chain ? "Chain" : "Span"))
                    .c_str(),
                [op, chain](benchmark::State &state) {
                    fieldAddSubBench<F>(state, op, chain);
                });
    };
    reg("Add", [](const F &x, const F &y) { return x + y; });
    reg("Sub", [](const F &x, const F &y) { return x - y; });
    reg("Neg", [](const F &x, const F &) { return x.neg(); });
    reg("Dbl", [](const F &x, const F &) { return x.dbl(); });
}

[[maybe_unused]] static const bool kFieldAddSubRegistered = [] {
    registerFieldAddSub<Fr>("Fr");
    registerFieldAddSub<ff::Fq>("Fq");
    return true;
}();

static void
BM_Sha3_256(benchmark::State &state)
{
    std::vector<std::uint8_t> msg(std::size_t(state.range(0)), 0xa5);
    for (auto _ : state) {
        auto d = hash::sha3_256(msg);
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha3_256)->Arg(32)->Arg(1024);

static void
BM_G1AddMixed(benchmark::State &state)
{
    Rng rng(5);
    ec::G1Jacobian p = ec::G1Jacobian::fromAffine(ec::randomG1(rng));
    ec::G1Affine q = ec::randomG1(rng);
    for (auto _ : state) {
        p = p.addMixed(q);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_G1AddMixed);

static void
BM_G1Double(benchmark::State &state)
{
    Rng rng(6);
    ec::G1Jacobian p = ec::G1Jacobian::fromAffine(ec::randomG1(rng));
    for (auto _ : state) {
        p = p.dbl();
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_G1Double);

// ---------------------------------------------------------------------------
// The two point kernels of the MSM bucket phase, scalar code on the ADX
// multiplier against the IFMA lanes (skipped without IFMA), each called
// directly.
//
// BM_BucketAggregate_*/B: one (window, column) chain of B affine bucket
// sums to its window sum. `Scalar` and `Ifma` run the kAggregateTiles tile
// recurrences (ec::detail::bucketTilesScalar, ec::bucketTilesIfma) and the
// tile combine; `Serial` is the untiled suffix sum (the test oracle) for
// reference. Items = buckets.
//
// BM_BatchAffineRound_*/n: the finish of one batched-affine round over n
// staged slope pairs, every eighth a doubling, whose slots are every other
// element of a 2n-point array: the batch inversion of the denominators and
// the fused slope-and-point pass (ec::detail::finishSlopePairsScalar,
// ec::finishSlopePairsIfma). Items = slope pairs.
// ---------------------------------------------------------------------------

namespace {

/** B distinct affine points Q + i * D, normalized together. */
std::vector<ec::G1Affine>
benchBuckets(std::size_t num)
{
    Rng rng(24);
    const ec::G1Jacobian d = ec::G1Jacobian::fromAffine(ec::randomG1(rng));
    ec::G1Jacobian q = ec::G1Jacobian::fromAffine(ec::randomG1(rng));
    std::vector<ec::G1Jacobian> jac;
    for (std::size_t i = 0; i < num; ++i) {
        jac.push_back(q);
        q = q.add(d);
    }
    return ec::batchToAffine(jac);
}

template <class Tiles>
void
bucketAggregateBench(benchmark::State &state, Tiles &&tiles_fn)
{
    const std::size_t num = std::size_t(state.range(0));
    const std::vector<ec::G1Affine> buckets = benchBuckets(num);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        ec::BucketTiles tiles;
        tiles_fn(buckets, tiles);
        auto r = ec::detail::combineBucketTiles(tiles,
                                                num / ec::kAggregateTiles);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * num);
}

/** Staged slope pairs for BM_BatchAffineRound_*. */
struct RoundFixture {
    std::vector<ec::G1Affine> slots;
    std::vector<std::uint32_t> slot;
    std::vector<ff::Fq> numer, denom, inv;

    explicit RoundFixture(std::size_t n)
        : numer(randomFq(n, 25)), denom(randomFq(n, 26)), inv(n)
    {
        const std::vector<ec::G1Affine> pts = benchBuckets(256);
        for (std::size_t i = 0; i < 2 * n; ++i)
            slots.push_back(pts[i % pts.size()]);
        for (std::size_t j = 0; j < n; ++j)
            slot.push_back(std::uint32_t(2 * j) |
                           (j % 8 == 7 ? ec::kSlotDoubling : 0u));
    }
};

} // namespace

static void
BM_BucketAggregate_Serial(benchmark::State &state)
{
    if (skipWithoutAdx(state))
        return;
    const std::size_t num = std::size_t(state.range(0));
    const std::vector<ec::G1Affine> buckets = benchBuckets(num);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        auto r = oracle::bucketSumSerial(buckets);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * num);
}

static void
BM_BucketAggregate_Scalar(benchmark::State &state)
{
    if (skipWithoutAdx(state))
        return;
    bucketAggregateBench(state, [](const auto &buckets, auto &tiles) {
        ec::detail::bucketTilesScalar(buckets, tiles);
    });
}

static void
BM_BucketAggregate_Ifma(benchmark::State &state)
{
    if (skipWithoutIfma(state))
        return;
#if ZKPHIRE_HAVE_X86_IFMA
    bucketAggregateBench(state, [](const auto &buckets, auto &tiles) {
        ec::bucketTilesIfma(buckets.data(), buckets.size(), tiles);
    });
#endif
}

static void
BM_BatchAffineRound_Scalar(benchmark::State &state)
{
    if (skipWithoutAdx(state))
        return;
    const std::size_t n = std::size_t(state.range(0));
    RoundFixture f(n);
    ff::kernels::ScopedGenericKernels fixed(false);
    ff::kernels::ScopedAsmKernels asm_scope(true);
    for (auto _ : state) {
        ff::detail::batchInverseLanes<ff::Fq>(f.denom, f.inv);
        ec::detail::finishSlopePairsScalar(f.slots.data(), f.slot.data(),
                                           f.numer.data(), f.inv.data(),
                                           f.denom.data(), n);
        benchmark::DoNotOptimize(f.slots.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}

static void
BM_BatchAffineRound_Ifma(benchmark::State &state)
{
    if (skipWithoutIfma(state))
        return;
#if ZKPHIRE_HAVE_X86_IFMA
    const std::size_t n = std::size_t(state.range(0));
    RoundFixture f(n);
    for (auto _ : state) {
        ff::kernels::batchInverseFqIfma(f.denom.data(), f.inv.data(), n);
        ec::finishSlopePairsIfma(f.slots.data(), f.slot.data(),
                                 f.numer.data(), f.inv.data(),
                                 f.denom.data(), n);
        benchmark::DoNotOptimize(f.slots.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
#endif
}

BENCHMARK(BM_BucketAggregate_Serial)->Arg(64)->Arg(1024)->Arg(4096);
BENCHMARK(BM_BucketAggregate_Scalar)->Arg(64)->Arg(1024)->Arg(4096);
BENCHMARK(BM_BucketAggregate_Ifma)->Arg(64)->Arg(1024)->Arg(4096);
BENCHMARK(BM_BatchAffineRound_Scalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_BatchAffineRound_Ifma)->Arg(4096)->Arg(65536);

static void
BM_MsmPippenger(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    Rng rng(7);
    std::vector<Fr> scalars;
    std::vector<ec::G1Affine> points;
    ec::G1Affine base = ec::randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        // Cheap point variety: reuse a handful of random points.
        points.push_back(i % 8 == 0 ? ec::randomG1(rng) : base);
    }
    for (auto _ : state) {
        auto r = ec::msmPippenger(scalars, points);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MsmPippenger)->Arg(256)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// BM_Msm family: the MSM pipeline variants head to head — batched-affine
// buckets without the GLV split, the full default pipeline (from 16
// points, the small MSMs that end mKZG opening chains, to 2^18), and the
// multi-column msmBatch against k independent MSMs on the witness-commit
// shape. Points are a tiled pool of random points so the 2^18 fixtures
// build quickly; every variant sees identical inputs.
// ---------------------------------------------------------------------------

static const std::vector<ec::G1Affine> &
msmBenchPoints(std::size_t n)
{
    static std::map<std::size_t, std::vector<ec::G1Affine>> cache;
    auto it = cache.find(n);
    if (it != cache.end())
        return it->second;
    Rng rng(21);
    std::vector<ec::G1Affine> pool;
    for (int i = 0; i < 256; ++i)
        pool.push_back(ec::randomG1(rng));
    std::vector<ec::G1Affine> pts(n);
    for (std::size_t i = 0; i < n; ++i)
        pts[i] = pool[i % pool.size()];
    return cache.emplace(n, std::move(pts)).first->second;
}

static std::vector<Fr>
msmBenchScalars(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Fr> scalars;
    scalars.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        scalars.push_back(Fr::random(rng));
    return scalars;
}

static void
msmVariantBench(benchmark::State &state, const ec::MsmOptions &opts)
{
    const std::size_t n = std::size_t(state.range(0));
    const auto &points = msmBenchPoints(n);
    const std::vector<Fr> scalars = msmBenchScalars(n, 22);
    for (auto _ : state) {
        auto r = ec::msmPippenger(scalars, points, opts);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * n);
}

static void
BM_Msm_SignedBatchAffine(benchmark::State &state)
{
    msmVariantBench(state, {.glv = false});
}

/** Full default pipeline: signed digits + batched affine + GLV split
 *  (the split still defers to msmGlvProfitable at each size). */
static void
BM_Msm_Glv(benchmark::State &state)
{
    msmVariantBench(state, {});
}

BENCHMARK(BM_Msm_SignedBatchAffine)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 18);
BENCHMARK(BM_Msm_Glv)->RangeMultiplier(4)->Range(1 << 4, 1 << 18);

static constexpr std::size_t kMsmBenchColumns = 4;

static void
BM_Msm_BatchColumns(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const auto &points = msmBenchPoints(n);
    std::vector<std::vector<Fr>> cols;
    for (std::size_t j = 0; j < kMsmBenchColumns; ++j)
        cols.push_back(msmBenchScalars(n, 23 + j));
    std::vector<std::span<const Fr>> spans(cols.begin(), cols.end());
    for (auto _ : state) {
        auto r = ec::msmBatch(spans, points);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * n * kMsmBenchColumns);
}

static void
BM_Msm_IndependentColumns(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const auto &points = msmBenchPoints(n);
    std::vector<std::vector<Fr>> cols;
    for (std::size_t j = 0; j < kMsmBenchColumns; ++j)
        cols.push_back(msmBenchScalars(n, 23 + j));
    for (auto _ : state) {
        for (const auto &col : cols) {
            auto r = ec::msmPippenger(col, points);
            benchmark::DoNotOptimize(r);
        }
    }
    state.SetItemsProcessed(state.iterations() * n * kMsmBenchColumns);
}

BENCHMARK(BM_Msm_BatchColumns)->RangeMultiplier(4)->Range(1 << 12, 1 << 16);
BENCHMARK(BM_Msm_IndependentColumns)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 16);

static void
BM_MleFold(benchmark::State &state)
{
    Rng rng(8);
    poly::Mle m = poly::Mle::random(unsigned(state.range(0)), rng);
    Fr r = Fr::random(rng);
    for (auto _ : state) {
        poly::Mle copy = m;
        copy.fixFirstVarInPlace(r);
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * (m.size() / 2));
}
BENCHMARK(BM_MleFold)->Arg(12)->Arg(16);

static void
BM_EqTableBuild(benchmark::State &state)
{
    Rng rng(9);
    std::vector<Fr> point;
    for (int i = 0; i < state.range(0); ++i)
        point.push_back(Fr::random(rng));
    for (auto _ : state) {
        auto t = poly::Mle::eqTable(point);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_EqTableBuild)->Arg(12)->Arg(16);

static void
BM_SrsLevel(benchmark::State &state)
{
    // The SRS share of one proof size's set-up, on one thread: a fresh SRS
    // (its fixed-base table included) builds level mu, which the keys are
    // committed under, and then mu + 1, which every proof's v commit needs.
    // Preprocessing builds both, in this order.
    const unsigned mu = unsigned(state.range(0));
    rt::ScopedConfig scope(rt::Config{.threads = 1});
    Rng rng(10);
    for (auto _ : state) {
        const pcs::Srs srs = pcs::Srs::generate(mu + 1, rng);
        srs.basesFor(mu);
        benchmark::DoNotOptimize(&srs.basesFor(mu + 1));
    }
}
BENCHMARK(BM_SrsLevel)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

static void
BM_SumcheckProver(benchmark::State &state)
{
    const unsigned mu = unsigned(state.range(0));
    Rng rng(10);
    gates::Gate gate = gates::tableIGate(int(state.range(1)));
    auto tables = gate.randomTables(mu, rng);
    for (auto _ : state) {
        hash::Transcript tr("bench");
        auto out = sumcheck::prove(
            poly::VirtualPoly(gate.expr, tables), tr);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * (1u << mu));
}
BENCHMARK(BM_SumcheckProver)
    ->Args({12, 20}) // Vanilla ZeroCheck polynomial
    ->Args({12, 22}) // Jellyfish ZeroCheck polynomial
    ->Args({14, 1}); // Spartan

// ---------------------------------------------------------------------------
// BM_OpenCheck: the two OpenChecks of a Vanilla mu = 14 proof, through the
// by-value sumcheck::proveOpen on one thread, with an arena installed as a
// ProverContext installs one.
//   A: 15 claims on 2 random points over 12 distinct tables (the three
//      witness tables are claimed at both points, as copies);
//   B: 5 claims on one (mu+1)-variable table, at (1, z), (z, 0), (z, 1),
//      (0, z) and the grand-product root (1, .., 1, 0).
// The claim copies are made with the timer paused. The bench uses only
// interfaces that predate the grouped OpenCheck prover, so one source
// times both sides of that change.
// ---------------------------------------------------------------------------
static void
BM_OpenCheck(benchmark::State &state, bool b_shape)
{
    constexpr unsigned kMu = 14;
    rt::ScopedConfig scope(rt::Config{.threads = 1});
    poly::BufferArena arena;
    poly::ScopedArena arena_scope(&arena);
    Rng rng(12);
    auto randomPoint = [&](unsigned n) {
        std::vector<Fr> z(n);
        for (Fr &v : z)
            v = Fr::random(rng);
        return z;
    };
    std::vector<sumcheck::EvalClaim> claims;
    auto claim = [&](const poly::Mle &table, std::vector<Fr> point) {
        sumcheck::EvalClaim c;
        c.value = table.evaluate(point);
        c.table = table;
        c.point = std::move(point);
        claims.push_back(std::move(c));
    };
    if (!b_shape) {
        std::vector<poly::Mle> tables;
        for (int t = 0; t < 12; ++t)
            tables.push_back(poly::Mle::random(kMu, rng));
        const std::vector<Fr> z_g = randomPoint(kMu);
        const std::vector<Fr> z_p = randomPoint(kMu);
        // Selectors and witnesses at z_g; witnesses, sigmas, phi at z_p.
        for (int t = 0; t < 8; ++t)
            claim(tables[t], z_g);
        for (int t = 5; t < 12; ++t)
            claim(tables[t], z_p);
    } else {
        const poly::Mle v = poly::Mle::random(kMu + 1, rng);
        const std::vector<Fr> z = randomPoint(kMu);
        std::vector<Fr> pt{Fr::one()};
        pt.insert(pt.end(), z.begin(), z.end());
        claim(v, pt);
        pt.assign(z.begin(), z.end());
        pt.push_back(Fr::zero());
        claim(v, pt);
        pt.back() = Fr::one();
        claim(v, pt);
        pt.assign(1, Fr::zero());
        pt.insert(pt.end(), z.begin(), z.end());
        claim(v, pt);
        claim(v, sumcheck::rootProductPoint(kMu));
    }
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<sumcheck::EvalClaim> batch = claims;
        state.ResumeTiming();
        hash::Transcript tr("bench");
        auto out = sumcheck::proveOpen(std::move(batch), tr);
        benchmark::DoNotOptimize(out);
    }
    state.SetLabel(std::to_string(claims.size()) + " claims");
}
BENCHMARK_CAPTURE(BM_OpenCheck, A, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OpenCheck, B, true)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Naive-vs-plan round evaluation on degree-5+ gates with repeated factors.
// Gate selector >= 0 is a Table I row; a negative selector -d is the masked
// sweep gate q3*w1^(d-1)*w2*f_r — the Rescue-style x^d S-box row shape.
// Runs single-threaded so the ratio measures the GatePlan restructuring
// (shared powers, per-slot extension bounds), not pool scaling; the naive
// side is the test oracle (tests/sumcheck_oracle.hpp), serial by design.
// ---------------------------------------------------------------------------

static gates::Gate
roundEvalGate(int sel)
{
    if (sel >= 0)
        return gates::tableIGate(sel);
    gates::Gate core = gates::sweepGate(unsigned(-sel));
    gates::Gate masked;
    masked.name = core.name + " ZeroCheck";
    masked.expr = core.expr.multipliedBySlot("f_r", nullptr);
    masked.roles = std::move(core.roles);
    masked.roles.push_back(gates::SlotRole::Dense);
    return masked;
}

static void
roundEvalBench(benchmark::State &state, bool naive)
{
    const unsigned mu = unsigned(state.range(0));
    gates::Gate gate = roundEvalGate(int(state.range(1)));
    Rng rng(15);
    auto tables = gate.randomTables(mu, rng);
    for (auto _ : state) {
        hash::Transcript tr("bench");
        auto out = naive ? oracle::naiveProve(gate.expr, tables, tr)
                         : sumcheck::prove(
                               poly::VirtualPoly(gate.expr, tables), tr,
                               rt::Config{.threads = 1});
        benchmark::DoNotOptimize(out);
    }
    poly::GatePlan plan = poly::GatePlan::compile(gate.expr);
    state.counters["muls_per_pair"] = double(
        naive ? plan.naiveMulsPerPair(gate.expr) : plan.mulsPerPair());
    state.SetItemsProcessed(state.iterations() * (1u << mu));
}

static void
BM_RoundEvalNaive(benchmark::State &state)
{
    roundEvalBench(state, /*naive=*/true);
}

static void
BM_RoundEvalPlan(benchmark::State &state)
{
    roundEvalBench(state, /*naive=*/false);
}

BENCHMARK(BM_RoundEvalNaive)
    ->Args({12, 22}) // Jellyfish ZeroCheck, degree 7
    ->Args({12, -5}) // Rescue x^5 S-box row, degree 7
    ->Args({12, -9});// high-degree sweep, degree 11
BENCHMARK(BM_RoundEvalPlan)
    ->Args({12, 22})
    ->Args({12, -5})
    ->Args({12, -9});

/**
 * The GatePlan block loop in isolation: one full first-round
 * accumulatePairs sweep (extension + op list + class accumulation) over a
 * 2^mu-row fixture, without the surrounding SumCheck scaffolding (fold,
 * transcript), on each lane backend: the third argument 0 runs eight
 * scalar elements (the ambient scalar multiplier, ADX where the host has
 * it), 1 the AVX-512 IFMA lanes (skipped without them). Items processed =
 * table pairs.
 */
static void
BM_RoundEvalBlocked(benchmark::State &state)
{
    const bool ifma = state.range(2) != 0;
    if (ifma && skipWithoutIfma(state))
        return;
    const unsigned mu = unsigned(state.range(0));
    gates::Gate gate = roundEvalGate(int(state.range(1)));
    Rng rng(15);
    auto tables = gate.randomTables(mu, rng);
    poly::GatePlan plan = poly::GatePlan::compile(gate.expr);
    const std::size_t pairs = (std::size_t(1) << mu) / 2;
    std::vector<Fr> acc(plan.accSize());
    ff::kernels::ScopedIfmaKernels lanes(ifma);
    for (auto _ : state) {
        std::fill(acc.begin(), acc.end(), Fr::zero());
        plan.accumulatePairs(tables, 0, pairs, acc);
        benchmark::DoNotOptimize(acc.data());
    }
    state.counters["muls_per_pair"] = double(plan.mulsPerPair());
    state.SetItemsProcessed(state.iterations() * pairs);
}

BENCHMARK(BM_RoundEvalBlocked)
    ->Args({12, 22, 0})
    ->Args({12, 22, 1})
    ->Args({12, -9, 0})
    ->Args({12, -9, 1});

// ---------------------------------------------------------------------------
// zkphire::rt thread-scaling benchmarks. The thread count is the benchmark
// argument (an explicit cap, independent of ZKPHIRE_THREADS), so one run
// reports the speedup curve of each parallelized kernel; the proof transcript
// is bit-identical at every point of the curve (asserted in
// tests/test_rt_equivalence.cpp).
// ---------------------------------------------------------------------------

static void
BM_SumcheckProverThreads(benchmark::State &state)
{
    const unsigned mu = 14;
    const unsigned threads = unsigned(state.range(0));
    Rng rng(11);
    gates::Gate gate = gates::tableIGate(20); // Vanilla ZeroCheck polynomial
    auto tables = gate.randomTables(mu, rng);
    for (auto _ : state) {
        hash::Transcript tr("bench");
        auto out = sumcheck::prove(poly::VirtualPoly(gate.expr, tables), tr,
                                   rt::Config{.threads = threads});
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * (1u << mu));
}
BENCHMARK(BM_SumcheckProverThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/** Arguments: points, threads. 256 and 512 points are the small MSMs
 *  whose windows reduce in round-synchronized groups, one per worker. */
static void
BM_MsmPippengerThreads(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const unsigned threads = unsigned(state.range(1));
    Rng rng(12);
    std::vector<Fr> scalars;
    std::vector<ec::G1Affine> points;
    ec::G1Affine base = ec::randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(i % 8 == 0 ? ec::randomG1(rng) : base);
    }
    rt::ScopedConfig scope(rt::Config{.threads = threads});
    for (auto _ : state) {
        auto r = ec::msmPippenger(scalars, points);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MsmPippengerThreads)
    ->ArgsProduct({{256, 512, 4096}, {1, 2, 4}})
    ->UseRealTime();

static void
BM_BatchInverseThreads(benchmark::State &state)
{
    const std::size_t n = std::size_t(1) << 16;
    const unsigned threads = unsigned(state.range(0));
    Rng rng(13);
    std::vector<Fr> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(Fr::random(rng));
    rt::ScopedThreads scope(threads);
    for (auto _ : state) {
        std::vector<Fr> copy = xs;
        ff::batchInverseInPlace(std::span<Fr>(copy));
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchInverseThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void
BM_MleFoldThreads(benchmark::State &state)
{
    const unsigned threads = unsigned(state.range(0));
    Rng rng(14);
    poly::Mle m = poly::Mle::random(18, rng);
    Fr r = Fr::random(rng);
    rt::ScopedThreads scope(threads);
    for (auto _ : state) {
        poly::Mle copy = m;
        copy.fixFirstVarInPlace(r);
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * (m.size() / 2));
}
BENCHMARK(BM_MleFoldThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// End-to-end service throughput: a fixed batch of small HyperPlonk proofs
// pushed through one engine::ProofService, with the lane count (jobs in
// flight) as the benchmark argument. Items processed = proofs, so the
// items-per-second counter reads directly as proofs/sec. Proofs are
// byte-identical at every lane count; only throughput moves.
// ---------------------------------------------------------------------------

static void
BM_ServiceThroughput(benchmark::State &state)
{
    const unsigned lanes = unsigned(state.range(0));
    constexpr std::size_t kBatch = 4;

    // Shared fixture: SRS, context, and preprocessed keys for kBatch small
    // vanilla circuits (2^5 rows each). Static so the MSM-heavy setup runs
    // once across all benchmark repetitions and lane counts.
    static ff::Rng rng(31);
    static pcs::Srs srs = pcs::Srs::generate(6, rng);
    static engine::ProverContext ctx(srs);
    static std::vector<hyperplonk::Circuit> circuits = [] {
        std::vector<hyperplonk::Circuit> cs;
        for (std::size_t i = 0; i < kBatch; ++i)
            cs.push_back(hyperplonk::randomVanillaCircuit(5, rng));
        return cs;
    }();
    static std::vector<const hyperplonk::Keys *> keys = [] {
        std::vector<const hyperplonk::Keys *> ks;
        for (const auto &c : circuits)
            ks.push_back(&ctx.preprocess(c));
        return ks;
    }();

    std::vector<engine::ProofRequest> requests;
    for (std::size_t i = 0; i < kBatch; ++i)
        requests.push_back({&keys[i]->pk, &circuits[i], nullptr});

    engine::ProofService service(ctx, lanes);
    for (auto _ : state) {
        auto results = service.proveAll(requests);
        for (const auto &r : results)
            if (!r.ok)
                state.SkipWithError(r.error.c_str());
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.counters["lane_threads"] = double(service.laneThreadBudget());
}
BENCHMARK(BM_ServiceThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// Lone-proof latency: one mu = 13 Vanilla proof alone on a service whose
// 4-thread context is split over `lanes` lanes — the case lending exists
// for: the idle lanes lend their threads to the proving lane's pool, so
// the proof should run close to the one-lane, four-thread speed. Every
// proof's bytes are checked against a direct ProverContext::prove. Lanes
// get a moment (untimed) between proofs to come back idle.
// ---------------------------------------------------------------------------

static void
BM_ServiceLoneProof(benchmark::State &state)
{
    const unsigned lanes = unsigned(state.range(0));
    static ff::Rng loneRng(53);
    static pcs::Srs loneSrs = pcs::Srs::generate(14, loneRng);
    static engine::ProverContext loneCtx(loneSrs, {.threads = 4});
    static hyperplonk::Circuit loneCircuit =
        hyperplonk::randomVanillaCircuit(13, loneRng);
    static const hyperplonk::Keys *loneKeys = &loneCtx.preprocess(loneCircuit);
    static const std::vector<std::uint8_t> reference =
        hyperplonk::serializeProof(loneCtx.prove(loneKeys->pk, loneCircuit));

    engine::ProofService service(loneCtx, lanes);
    unsigned widest = 1;
    for (auto _ : state) {
        state.PauseTiming();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        state.ResumeTiming();
        engine::ProofResult r =
            service.submit({&loneKeys->pk, &loneCircuit, nullptr}).get();
        if (!r.ok || hyperplonk::serializeProof(r.proof) != reference)
            state.SkipWithError("lone proof differs from the direct proof");
        widest = std::max(widest, r.shardLanes);
    }
    state.counters["lanes_used"] = double(widest);
}
BENCHMARK(BM_ServiceLoneProof)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Mixed-load tail latency: one large proof plus a burst of small proofs per
// iteration on a 2-lane service. Arg 0 is the FIFO-like baseline (equal
// priorities); arg 1 gives the smalls higher priority, so the phase-split
// scheduler can interleave small jobs between the large proof's setup and
// online phases.
// The counter to watch is small_p99_ms: the small-request tail must not be
// held hostage by the large request. Latencies are measured per request by
// a dedicated waiter thread (submit -> future resolution, wall clock).
// ---------------------------------------------------------------------------

static void
BM_ServiceMixedLoad(benchmark::State &state)
{
    const bool prioritized = state.range(0) != 0;
    constexpr int kSmall = 8;

    static ff::Rng mixRng(47);
    static pcs::Srs mixSrs = pcs::Srs::generate(8, mixRng);
    static engine::ProverContext mixCtx(mixSrs, {.threads = 2});
    static hyperplonk::Circuit largeCircuit =
        hyperplonk::randomVanillaCircuit(7, mixRng);
    static hyperplonk::Circuit smallCircuit =
        hyperplonk::randomVanillaCircuit(4, mixRng);
    static const hyperplonk::Keys *largeKeys = &mixCtx.preprocess(largeCircuit);
    static const hyperplonk::Keys *smallKeys = &mixCtx.preprocess(smallCircuit);

    engine::ProofService service(mixCtx, 2);

    engine::SubmitOptions smallSub;
    smallSub.priority = prioritized ? 1 : 0;

    std::vector<double> smallMs;
    std::atomic<bool> failed{false};
    for (auto _ : state) {
        auto largeFut =
            service.submit({&largeKeys->pk, &largeCircuit, nullptr});
        std::array<double, kSmall> lat{};
        std::vector<std::thread> waiters;
        waiters.reserve(kSmall);
        for (int i = 0; i < kSmall; ++i) {
            waiters.emplace_back([&, i] {
                const auto t0 = std::chrono::steady_clock::now();
                engine::ProofResult r =
                    service
                        .submit({&smallKeys->pk, &smallCircuit, nullptr},
                                smallSub)
                        .get();
                lat[i] = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
                if (!r.ok)
                    failed.store(true);
            });
        }
        for (std::thread &t : waiters)
            t.join();
        if (!largeFut.get().ok || failed.load())
            state.SkipWithError("proof failed under mixed load");
        smallMs.insert(smallMs.end(), lat.begin(), lat.end());
    }
    std::sort(smallMs.begin(), smallMs.end());
    if (!smallMs.empty()) {
        const auto at = [&](double q) {
            const std::size_t n = smallMs.size();
            std::size_t idx = std::size_t(std::ceil(q * double(n)));
            return smallMs[std::min(idx == 0 ? 0 : idx - 1, n - 1)];
        };
        state.counters["small_p50_ms"] = at(0.5);
        state.counters["small_p99_ms"] = at(0.99);
    }
    state.SetItemsProcessed(state.iterations() * (kSmall + 1));
}
BENCHMARK(BM_ServiceMixedLoad)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int
main(int argc, char **argv)
{
    // Which kernel the batched Fq inversion and the bucket-round point
    // kernels dispatch to on this host, so every result file says whether
    // its runner had IFMA.
    const char *fq_batch = "unrolled";
    if (ff::kernels::genericKernelsForced())
        fq_batch = "generic";
    else if (ff::kernels::ifmaSelected())
        fq_batch = "ifma";
    else if (ff::kernels::asmKernelsEnabled())
        fq_batch = "adx";
    benchmark::AddCustomContext("fq_batch_kernel", fq_batch);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
