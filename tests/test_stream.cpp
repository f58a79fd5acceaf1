/**
 * @file
 * Out-of-core streaming tests: the Mapped FrTable backend, chunk-local eq
 * tables, the chunk-streaming MSM accumulator and commit pipeline, the
 * fused sumcheck fold, arena reuse, and full-prover transcript
 * byte-identity with streaming forced on. Every streamed value must be
 * BIT-identical to its in-RAM oracle — the backend moves bytes around,
 * never changes them.
 */
#include <gtest/gtest.h>

#include "ec/msm.hpp"
#include "engine/context.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "msm_oracle.hpp"
#include "poly/mle.hpp"
#include "poly/mle_store.hpp"
#include "rt/parallel.hpp"
#include "sumcheck/prover.hpp"

using namespace zkphire;
using ff::Fr;
using ff::Rng;
using poly::FrTable;
using poly::Mle;
using poly::StoreKind;

namespace {

const pcs::Srs &
sharedSrs()
{
    static Rng rng(0x57facade);
    static pcs::Srs srs = pcs::Srs::generate(12, rng);
    return srs;
}

/** Config forcing every table onto the Mapped backend with a given chunk. */
rt::Config
streamAll(std::size_t chunkElems)
{
    rt::Config cfg;
    cfg.streamThreshold = 1;
    cfg.streamChunk = chunkElems;
    return cfg;
}

/** Config disabling streaming entirely (the in-RAM oracle). */
rt::Config
ramOnly()
{
    rt::Config cfg;
    cfg.streamThreshold = SIZE_MAX;
    return cfg;
}

/** The chunk shapes every oracle comparison sweeps: two powers of two and
 *  an odd size that never divides a table evenly (exercises the tail). */
constexpr std::size_t kChunks[] = {std::size_t(1) << 10,
                                   std::size_t(1) << 14, 1000};

std::vector<Fr>
randomScalarsSparse(Rng &rng, std::size_t n)
{
    std::vector<Fr> s(n);
    for (auto &v : s) {
        double u = rng.nextDouble();
        if (u < 0.45)
            v = Fr::zero();
        else if (u < 0.9)
            v = Fr::one();
        else
            v = Fr::random(rng);
    }
    return s;
}

} // namespace

TEST(FrTable, MappedBackendHoldsValues)
{
    const std::size_t n = 5000;
    FrTable t = FrTable::make(n, StoreKind::Mapped);
    ASSERT_EQ(t.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(t[i].isZero()) << i;
    Rng rng(1);
    std::vector<Fr> ref(n);
    for (std::size_t i = 0; i < n; ++i)
        t[i] = ref[i] = Fr::random(rng);
    // Advice/release hooks must never change the data: pages come back
    // from the backing file on the next access.
    t.adviseSequential();
    t.releaseWindow(0, n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(t[i], ref[i]) << i;
}

TEST(FrTable, ResizePreservesPrefixAndZeroFillsGrowth)
{
    for (StoreKind kind : {StoreKind::Ram, StoreKind::Mapped}) {
        FrTable t = FrTable::make(100, kind);
        Rng rng(2);
        for (std::size_t i = 0; i < 100; ++i)
            t[i] = Fr::random(rng);
        FrTable ref = t; // deep copy
        t.resize(37);
        EXPECT_EQ(t.size(), 37u);
        for (std::size_t i = 0; i < 37; ++i)
            EXPECT_EQ(t[i], ref[i]);
        t.resize(9000); // past original capacity
        EXPECT_EQ(t.size(), 9000u);
        for (std::size_t i = 0; i < 37; ++i)
            EXPECT_EQ(t[i], ref[i]);
        for (std::size_t i = 37; i < 9000; ++i)
            EXPECT_TRUE(t[i].isZero()) << i;
    }
}

TEST(FrTable, PolicyRoutesByThreshold)
{
    {
        rt::ScopedConfig scope(streamAll(1u << 10));
        EXPECT_TRUE(FrTable::make(64).isMapped());
        Mle m(8);
        EXPECT_TRUE(m.isMapped());
    }
    {
        rt::ScopedConfig scope(ramOnly());
        EXPECT_FALSE(FrTable::make(std::size_t(1) << 16).isMapped());
    }
}

TEST(FrTable, CopyAndEqualityCrossBackend)
{
    Rng rng(3);
    std::vector<Fr> vals(777);
    for (auto &v : vals)
        v = Fr::random(rng);
    FrTable ram = FrTable::adopt(vals);
    FrTable mapped = FrTable::make(vals.size(), StoreKind::Mapped);
    mapped.assign(vals);
    EXPECT_TRUE(ram == mapped);
    mapped[5] += Fr::one();
    EXPECT_FALSE(ram == mapped);
}

TEST(Stream, EqTableChunkedMatchesDoublingOracle)
{
    Rng rng(4);
    const unsigned mu = 12;
    std::vector<Fr> r(mu);
    for (auto &v : r)
        v = Fr::random(rng);

    Mle oracle = [&] {
        rt::ScopedConfig scope(ramOnly()); // one chunk: pure doubling build
        return Mle::eqTable(r);
    }();
    for (std::size_t chunk : kChunks) {
        rt::ScopedConfig scope(streamAll(chunk));
        Mle chunked = Mle::eqTable(r);
        EXPECT_TRUE(chunked.store() == oracle.store()) << "chunk " << chunk;
    }
}

TEST(Stream, MsmAccumulatorMatchesNaive)
{
    // msmBatch is itself a one-chunk MsmAccumulator, so the oracle is the
    // per-point double-and-add reference.
    Rng rng(5);
    const std::size_t n = 1100;
    const std::size_t k = 3;
    std::vector<ec::G1Affine> points(n);
    for (auto &p : points)
        p = ec::randomG1(rng);
    std::vector<std::vector<Fr>> cols(k);
    cols[0] = randomScalarsSparse(rng, n); // trivial-heavy column
    for (std::size_t j = 1; j < k; ++j) {
        cols[j].resize(n);
        for (auto &v : cols[j])
            v = Fr::random(rng);
    }
    std::vector<std::span<const Fr>> spans(k);
    std::vector<ec::G1Affine> ref(k);
    for (std::size_t j = 0; j < k; ++j) {
        spans[j] = cols[j];
        ref[j] = oracle::msmNaive(cols[j], points).toAffine();
    }

    // One chunk, four equal chunks, and chunks with an uneven last one.
    for (std::size_t chunk : {n, n / 4, std::size_t(300)}) {
        ec::MsmAccumulator acc(n, k, ec::currentMsmOptions(), nullptr,
                               chunk);
        std::vector<std::span<const Fr>> cs(k);
        for (std::size_t b = 0; b < n; b += chunk) {
            const std::size_t e = std::min(n, b + chunk);
            for (std::size_t j = 0; j < k; ++j)
                cs[j] = spans[j].subspan(b, e - b);
            acc.add(cs, std::span<const ec::G1Affine>(points).subspan(
                            b, e - b));
        }
        std::vector<ec::G1Jacobian> got = acc.finalize();
        ASSERT_EQ(got.size(), k);
        for (std::size_t j = 0; j < k; ++j)
            EXPECT_EQ(got[j].toAffine(), ref[j])
                << "chunk " << chunk << " col " << j;
    }
}

TEST(Stream, CommitStreamingMatchesRamAcrossChunksAndThreads)
{
    Rng rng(6);
    const unsigned mu = 12;
    Mle f = Mle::random(mu, rng);
    pcs::Commitment oracle = [&] {
        rt::ScopedConfig scope(ramOnly());
        return pcs::commit(sharedSrs(), f);
    }();
    for (std::size_t chunk : kChunks) {
        for (unsigned threads : {1u, 4u}) {
            rt::Config cfg = streamAll(chunk);
            cfg.threads = threads;
            rt::ScopedConfig scope(cfg);
            // Copy onto the mapped backend so the streamed walk is real.
            Mle g(FrTable::make(f.size()));
            g.store().assign(f.evals());
            EXPECT_TRUE(g.isMapped());
            EXPECT_EQ(pcs::commit(sharedSrs(), g), oracle)
                << "chunk " << chunk << " threads " << threads;
        }
    }
}

TEST(Stream, OpenQuotientsMatchUnderStreaming)
{
    Rng rng(8);
    const unsigned mu = 9;
    Mle f = Mle::random(mu, rng);
    std::vector<Fr> z(mu);
    for (auto &v : z)
        v = Fr::random(rng);
    pcs::OpeningProof oracle = [&] {
        rt::ScopedConfig scope(ramOnly());
        return pcs::open(sharedSrs(), f, z);
    }();
    rt::ScopedConfig scope(streamAll(1000));
    pcs::OpeningProof got = pcs::open(sharedSrs(), f, z);
    ASSERT_EQ(got.quotients.size(), oracle.quotients.size());
    for (std::size_t i = 0; i < got.quotients.size(); ++i)
        EXPECT_EQ(got.quotients[i], oracle.quotients[i]) << i;
}

TEST(Stream, MappedEvaluateUnderArenaFoldsIntoHalfSizeTables)
{
    // Mle::evaluate reads the table and folds into half-size arena tables:
    // it allocates less than one table's worth, and a second evaluation
    // allocates nothing. Values equal the in-RAM evaluation.
    Rng rng(13);
    const unsigned mu = 12;
    const Mle ram = Mle::random(mu, rng);
    std::vector<Fr> z(mu);
    for (auto &v : z)
        v = Fr::random(rng);
    const Fr oracle = [&] {
        rt::ScopedConfig scope(ramOnly());
        return ram.evaluate(z);
    }();
    rt::ScopedConfig scope(streamAll(1000));
    FrTable t = FrTable::make(ram.size(), StoreKind::Mapped);
    t.assign(ram.evals());
    const Mle mapped(std::move(t));
    ASSERT_TRUE(mapped.isMapped());

    poly::BufferArena arena;
    poly::ScopedArena arena_scope(&arena);
    auto allocated = [] {
        const poly::StoreCounters c = poly::storeCounters();
        return c.ramBytes + c.mappedBytes;
    };
    const std::uint64_t b0 = allocated();
    EXPECT_EQ(mapped.evaluate(z), oracle);
    const std::uint64_t b1 = allocated();
    EXPECT_EQ(mapped.evaluate(z), oracle);
    const std::uint64_t b2 = allocated();
    EXPECT_GT(b1 - b0, 0u);
    EXPECT_LT(b1 - b0, mapped.size() * sizeof(Fr));
    EXPECT_EQ(b2 - b1, 0u);
    EXPECT_EQ(mapped, ram);
}

TEST(Stream, SumcheckFusedFoldMatchesUnfusedOracle)
{
    Rng rng(9);
    const unsigned mu = 13; // > kFuseMinPairs pairs: RAM run fuses too;
                            // mapped runs fuse from round one regardless
    poly::GateExpr expr("prod3");
    expr.addSlot("a");
    expr.addSlot("b");
    expr.addSlot("c");
    expr.addTerm(Fr::one(),
                 {poly::SlotId(0), poly::SlotId(1), poly::SlotId(2)});
    std::vector<Mle> tables;
    for (int s = 0; s < 3; ++s)
        tables.push_back(Mle::random(mu, rng));

    auto run = [&](const rt::Config &cfg) {
        rt::ScopedConfig scope(cfg);
        std::vector<Mle> copy = tables;
        hash::Transcript tr("stream-test");
        return sumcheck::prove(
            poly::VirtualPoly(expr, std::move(copy)), tr, {});
    };
    sumcheck::ProverOutput oracle = run(ramOnly());
    for (std::size_t chunk : kChunks) {
        for (unsigned threads : {1u, 4u}) {
            rt::Config cfg = streamAll(chunk);
            cfg.threads = threads;
            sumcheck::ProverOutput got = run(cfg);
            EXPECT_EQ(got.proof.claimedSum, oracle.proof.claimedSum);
            ASSERT_EQ(got.proof.roundEvals.size(),
                      oracle.proof.roundEvals.size());
            for (std::size_t r = 0; r < got.proof.roundEvals.size(); ++r)
                EXPECT_EQ(got.proof.roundEvals[r], oracle.proof.roundEvals[r])
                    << "round " << r << " chunk " << chunk << " threads "
                    << threads;
            EXPECT_EQ(got.proof.finalSlotEvals, oracle.proof.finalSlotEvals);
            EXPECT_EQ(got.challenges, oracle.challenges);
        }
    }
}

TEST(Stream, FullProverTranscriptByteIdenticalUnderStreaming)
{
    Rng rng(10);
    hyperplonk::Circuit c = hyperplonk::randomVanillaCircuit(8, rng);
    hyperplonk::Keys keys = hyperplonk::setup(c, sharedSrs());

    hyperplonk::ProveOptions ram;
    ram.rt = ramOnly();
    std::vector<std::uint8_t> oracle = hyperplonk::serializeProof(
        hyperplonk::prove(keys.pk, c, nullptr, ram));

    for (std::size_t chunk : {std::size_t(1) << 10, std::size_t(100)}) {
        for (unsigned threads : {1u, 4u}) {
            hyperplonk::ProveOptions opts;
            opts.rt = streamAll(chunk);
            opts.rt.threads = threads;
            hyperplonk::HyperPlonkProof proof =
                hyperplonk::prove(keys.pk, c, nullptr, opts);
            EXPECT_EQ(hyperplonk::serializeProof(proof), oracle)
                << "chunk " << chunk << " threads " << threads;
            EXPECT_TRUE(hyperplonk::verify(keys.vk, proof).ok);
        }
    }
}

TEST(Stream, ContextArenaRecyclesBuffersAcrossProofs)
{
    Rng rng(11);
    hyperplonk::Circuit c = hyperplonk::randomVanillaCircuit(7, rng);
    engine::ProverContext ctx(sharedSrs());
    const hyperplonk::Keys &keys = ctx.preprocess(c);

    auto allocs = [] {
        poly::StoreCounters sc = poly::storeCounters();
        return sc.ramAllocs + sc.mappedAllocs;
    };
    std::vector<std::uint8_t> first, second;
    const std::uint64_t a0 = allocs();
    first = hyperplonk::serializeProof(ctx.prove(keys.pk, c));
    const std::uint64_t a1 = allocs();
    second = hyperplonk::serializeProof(ctx.prove(keys.pk, c));
    const std::uint64_t a2 = allocs();

    EXPECT_EQ(first, second);
    // The second proof reacquires the first proof's released buffers, so it
    // must hit the arena and allocate strictly fewer fresh tables.
    poly::StoreCounters sc = poly::storeCounters();
    EXPECT_GT(sc.arenaHits, 0u);
    EXPECT_LT(a2 - a1, a1 - a0);
}

TEST(Stream, StreamedProofOnWarmRamArenaAllocatesNoRamTable)
{
    // An in-RAM proof leaves RAM tables in the context's arena, and the
    // proving key's tables are RAM. A proof with every table forced onto
    // the streaming backend must still allocate none in RAM: its copies of
    // the key's tables and its scratch acquisitions go to Mapped storage,
    // not to RAM tables, fresh or pooled.
    Rng rng(12);
    hyperplonk::Circuit c = hyperplonk::randomVanillaCircuit(7, rng);
    engine::ProverContext ctx(sharedSrs(), ramOnly());
    const hyperplonk::Keys &keys = ctx.preprocess(c);
    const std::vector<std::uint8_t> oracle =
        hyperplonk::serializeProof(ctx.prove(keys.pk, c));
    ASSERT_GT(ctx.arena().pooled(), 0u);

    const rt::Config streamed = streamAll(std::size_t(1) << 10);
    const poly::StoreCounters before = poly::storeCounters();
    const std::vector<std::uint8_t> bytes = hyperplonk::serializeProof(
        ctx.prove(keys.pk, c, nullptr, &streamed));
    const poly::StoreCounters after = poly::storeCounters();
    EXPECT_EQ(after.ramAllocs - before.ramAllocs, 0u);
    EXPECT_GT(after.mappedAllocs - before.mappedAllocs, 0u);
    EXPECT_EQ(bytes, oracle);
}
