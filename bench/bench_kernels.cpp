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
#include <thread>

#include "ec/msm.hpp"
#include "engine/service.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/mul_asm_x86.hpp"
#include "ff/mul_impl.hpp"
#include "ff/vec_ops.hpp"
#include "gates/gate_library.hpp"
#include "hash/keccak.hpp"
#include "hyperplonk/circuit.hpp"
#include "poly/gate_plan.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"
#include "sumcheck/prover.hpp"

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

static void
BM_FrInverse(benchmark::State &state)
{
    Rng rng(3);
    Fr a = Fr::random(rng);
    for (auto _ : state) {
        a = a.inverse();
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FrInverse);

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
// loop-over-limbs oracle, measured in the deployment shape — element-wise
// span multiplication (ff::mulVec), which is how GatePlan round evaluation
// and the batched-affine slope resolution consume them. Items processed =
// field multiplications, so the items/sec counter reads as mul throughput;
// the Unrolled/Generic ratio is the kernel-overhaul speedup. The BM_*Square
// variants isolate the dedicated squaring kernel (EC point ops are
// squaring-heavy).
// ---------------------------------------------------------------------------

/** asm_mode: -1 inherits the ambient dispatch, 0 forces the unrolled C++
 *  kernel, 1 forces the ADX/BMI2 assembly kernel (skipped on non-ADX). */
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
            ff::sqrVec(dst.data(), a.data(), kSpan);
        else
            ff::mulVec(dst.data(), a.data(), b.data(), kSpan);
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
// BM_Msm family: the MSM pipeline variants head to head — Jacobian buckets,
// batched-affine buckets without the GLV split, the full default pipeline,
// and the multi-column msmBatch against k independent MSMs on the
// witness-commit shape. Points are a tiled pool of random points so the
// 2^18 fixtures build quickly; every variant sees identical inputs.
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
BM_Msm_Signed(benchmark::State &state)
{
    msmVariantBench(state, {.batchAffine = false});
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

BENCHMARK(BM_Msm_Signed)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_Msm_SignedBatchAffine)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 18);
BENCHMARK(BM_Msm_Glv)->RangeMultiplier(4)->Range(1 << 12, 1 << 18);

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
// Naive-vs-plan round evaluation on degree-5+ gates with repeated factors.
// Gate selector >= 0 is a Table I row; a negative selector -d is the masked
// sweep gate q3*w1^(d-1)*w2*f_r — the Rescue-style x^d S-box row shape.
// Runs single-threaded so the ratio measures the GatePlan restructuring
// (shared powers, per-slot extension bounds), not pool scaling.
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
roundEvalBench(benchmark::State &state, sumcheck::EvalPath path)
{
    const unsigned mu = unsigned(state.range(0));
    gates::Gate gate = roundEvalGate(int(state.range(1)));
    Rng rng(15);
    auto tables = gate.randomTables(mu, rng);
    for (auto _ : state) {
        hash::Transcript tr("bench");
        auto out = sumcheck::prove(poly::VirtualPoly(gate.expr, tables), tr,
                                   rt::Config{.threads = 1}, path);
        benchmark::DoNotOptimize(out);
    }
    poly::GatePlan plan = poly::GatePlan::compile(gate.expr);
    state.counters["muls_per_pair"] =
        double(path == sumcheck::EvalPath::Plan
                   ? plan.mulsPerPair()
                   : plan.naiveMulsPerPair(gate.expr));
    state.SetItemsProcessed(state.iterations() * (1u << mu));
}

static void
BM_RoundEvalNaive(benchmark::State &state)
{
    roundEvalBench(state, sumcheck::EvalPath::Naive);
}

static void
BM_RoundEvalPlan(benchmark::State &state)
{
    roundEvalBench(state, sumcheck::EvalPath::Plan);
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
 * The SIMD-blocked GatePlan hot loop in isolation: one full first-round
 * accumulatePairs sweep (extension + op list + class accumulation) over a
 * 2^mu-row fixture, without the surrounding SumCheck scaffolding (fold,
 * transcript). Items processed = table pairs.
 */
static void
BM_RoundEvalBlocked(benchmark::State &state)
{
    const unsigned mu = unsigned(state.range(0));
    gates::Gate gate = roundEvalGate(int(state.range(1)));
    Rng rng(15);
    auto tables = gate.randomTables(mu, rng);
    poly::GatePlan plan = poly::GatePlan::compile(gate.expr);
    const std::size_t pairs = (std::size_t(1) << mu) / 2;
    std::vector<Fr> acc(plan.accSize()), scratch;
    for (auto _ : state) {
        std::fill(acc.begin(), acc.end(), Fr::zero());
        plan.accumulatePairs(tables, 0, pairs, acc, scratch);
        benchmark::DoNotOptimize(acc.data());
    }
    state.counters["muls_per_pair"] = double(plan.mulsPerPair());
    state.SetItemsProcessed(state.iterations() * pairs);
}

BENCHMARK(BM_RoundEvalBlocked)
    ->Args({12, 22})
    ->Args({12, -9});

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

static void
BM_MsmPippengerThreads(benchmark::State &state)
{
    const std::size_t n = 4096;
    const unsigned threads = unsigned(state.range(0));
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
BENCHMARK(BM_MsmPippengerThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

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
// Mixed-load tail latency: one large proof plus a burst of small proofs per
// iteration on a 2-lane service. Arg 0 is the FIFO-like baseline (equal
// priorities, no sharding); arg 1 is the scheduled mode (smalls at higher
// priority, intra-proof sharding on), where the phase-split scheduler can
// interleave small jobs between the large proof's setup and online phases.
// The counter to watch is small_p99_ms: the small-request tail must not be
// held hostage by the large request. Latencies are measured per request by
// a dedicated waiter thread (submit -> future resolution, wall clock).
// ---------------------------------------------------------------------------

static void
BM_ServiceMixedLoad(benchmark::State &state)
{
    const bool scheduled = state.range(0) != 0;
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

    engine::ServiceOptions so;
    so.lanes = 2;
    so.sharding = scheduled;
    so.shardMinRows = std::size_t(1) << 6; // large may shard, smalls never
    engine::ProofService service(mixCtx, so);

    engine::SubmitOptions smallSub;
    smallSub.priority = scheduled ? 1 : 0;

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

BENCHMARK_MAIN();
