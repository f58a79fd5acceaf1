/**
 * @file
 * Engine-layer tests: ProverContext + ProofService.
 *
 * The load-bearing property is byte-identity — a proof produced through a
 * context or a service (any lane count, any thread budget, any number of
 * jobs in flight) must serialize to exactly the bytes the one-shot
 * hyperplonk::prove path produces for the same circuit. Plus: per-context
 * plan-cache isolation (two contexts proving concurrently never share plan
 * objects — the regression test for deleting the process-global cache),
 * preprocessing through the context, and verification of every service
 * result.
 */
#include <gtest/gtest.h>

#include <thread>

#include "engine/service.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"

using namespace zkphire;
using namespace zkphire::hyperplonk;
using ff::Fr;
using ff::Rng;

namespace {

const pcs::Srs &
sharedSrs()
{
    static Rng rng(0x5e55104);
    static pcs::Srs srs = pcs::Srs::generate(9, rng);
    return srs;
}

std::vector<std::uint8_t>
proofBytes(const HyperPlonkProof &proof)
{
    return serializeProof(proof);
}

/** N small circuits (mix of both gate systems) with their keys. */
struct Fleet {
    std::vector<Circuit> circuits;
    std::vector<Keys> keys;
    std::vector<std::vector<std::uint8_t>> referenceBytes; // legacy path
};

Fleet
buildFleet(std::size_t n)
{
    Fleet f;
    Rng rng(777);
    for (std::size_t i = 0; i < n; ++i) {
        Circuit c = (i % 2 == 0) ? randomVanillaCircuit(5, rng)
                                 : randomJellyfishCircuit(4, rng);
        f.keys.push_back(setup(c, sharedSrs()));
        f.circuits.push_back(std::move(c));
    }
    for (std::size_t i = 0; i < n; ++i)
        f.referenceBytes.push_back(
            proofBytes(prove(f.keys[i].pk, f.circuits[i])));
    return f;
}

} // namespace

TEST(ProverContext, ProveMatchesLegacyPathByteForByte)
{
    Rng rng(801);
    Circuit c = randomVanillaCircuit(5, rng);
    Keys keys = setup(c, sharedSrs());
    auto reference = proofBytes(prove(keys.pk, c));

    engine::ProverContext ctx(sharedSrs());
    auto viaContext = proofBytes(ctx.prove(keys.pk, c));
    EXPECT_EQ(viaContext, reference);

    // And again with an explicit 1-thread and 3-thread config: the
    // transcript must not depend on the budget.
    engine::ProverContext serial(sharedSrs(), {.threads = 1});
    EXPECT_EQ(proofBytes(serial.prove(keys.pk, c)), reference);
    engine::ProverContext wide(sharedSrs(), {.threads = 3});
    EXPECT_EQ(proofBytes(wide.prove(keys.pk, c)), reference);
}

TEST(ProverContext, PreprocessOwnsKeysAndProves)
{
    Rng rng(802);
    Circuit c = randomJellyfishCircuit(4, rng);
    engine::ProverContext ctx(sharedSrs());
    const Keys &keys = ctx.preprocess(c);

    ProverStats stats;
    HyperPlonkProof proof = ctx.prove(keys.pk, c, &stats);
    auto res = verify(keys.vk, proof);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_GT(stats.totalMs(), 0.0);

    // Keys references stay valid as more circuits are preprocessed.
    Circuit c2 = randomVanillaCircuit(4, rng);
    ctx.preprocess(c2);
    EXPECT_TRUE(verify(keys.vk, ctx.prove(keys.pk, c)).ok);
}

TEST(ProverContext, ArenaPoolStopsGrowingAcrossProofs)
{
    // Each proof hands its sumchecks copies of the selector, witness and
    // permutation tables, and the sumchecks release every table they hold
    // into the context's arena. The copies draw their storage from that
    // arena too, so the pool settles instead of growing with every proof,
    // in RAM and with every table on the streaming backend.
    Rng rng(803);
    const Circuit c = randomVanillaCircuit(10, rng);
    Rng srsRng(0x5e55105);
    const pcs::Srs srs = pcs::Srs::generate(11, srsRng);
    std::vector<std::uint8_t> reference;
    for (const bool streamed : {false, true}) {
        rt::Config cfg;
        if (streamed) {
            cfg.streamThreshold = 1;
            cfg.streamChunk = std::size_t(1) << 12;
        }
        engine::ProverContext ctx(srs, cfg);
        const Keys &keys = ctx.preprocess(c);
        std::size_t pooledAfterThird = 0;
        for (int proof = 1; proof <= 7; ++proof) {
            const auto bytes = proofBytes(ctx.prove(keys.pk, c));
            if (reference.empty())
                reference = bytes;
            EXPECT_EQ(bytes, reference)
                << "proof " << proof << ", streamed " << streamed;
            if (proof == 3)
                pooledAfterThird = ctx.arena().pooled();
        }
        EXPECT_LE(ctx.arena().pooled(), pooledAfterThird)
            << "streamed " << streamed;
    }
}

TEST(ProverContext, PlanCacheIsPerContext)
{
    const gates::Gate vanilla = gates::vanillaCoreGate();
    engine::ProverContext a;
    engine::ProverContext b;
    auto plan_a = a.plans().maskedPlan(vanilla.expr);
    auto plan_b = b.plans().maskedPlan(vanilla.expr);
    // Same structure, but never the same object: contexts own their plans.
    EXPECT_NE(plan_a.get(), plan_b.get());
    // Within one context the plan is compiled exactly once.
    EXPECT_EQ(plan_a.get(), a.plans().maskedPlan(vanilla.expr).get());
}

TEST(ProverContext, ConcurrentContextsNeverShareOrRacePlans)
{
    // Two contexts prove different gate systems concurrently. Run under the
    // ASan/UBSan CI leg (and -DZKPHIRE_TSAN opt-in) this is the regression
    // test that per-context plan ownership introduced no data race — the
    // process-global cache it replaced was the only shared mutable state.
    Rng rng(803);
    Circuit vanilla = randomVanillaCircuit(5, rng);
    Circuit jelly = randomJellyfishCircuit(4, rng);
    Keys vanilla_keys = setup(vanilla, sharedSrs());
    Keys jelly_keys = setup(jelly, sharedSrs());

    engine::ProverContext ctx_v(sharedSrs(), {.threads = 2});
    engine::ProverContext ctx_j(sharedSrs(), {.threads = 2});

    auto ref_v = proofBytes(prove(vanilla_keys.pk, vanilla));
    auto ref_j = proofBytes(prove(jelly_keys.pk, jelly));

    std::vector<std::vector<std::uint8_t>> got_v(2), got_j(2);
    std::thread tv([&] {
        for (auto &bytes : got_v)
            bytes = proofBytes(ctx_v.prove(vanilla_keys.pk, vanilla));
    });
    std::thread tj([&] {
        for (auto &bytes : got_j)
            bytes = proofBytes(ctx_j.prove(jelly_keys.pk, jelly));
    });
    tv.join();
    tj.join();

    for (const auto &bytes : got_v)
        EXPECT_EQ(bytes, ref_v);
    for (const auto &bytes : got_j)
        EXPECT_EQ(bytes, ref_j);

    // Each context compiled its own copy of its core-gate plan.
    EXPECT_NE(ctx_v.plans().maskedPlan(gates::vanillaCoreGate().expr).get(),
              ctx_j.plans().maskedPlan(gates::vanillaCoreGate().expr).get());
    EXPECT_GE(ctx_v.plans().size(), 1u);
    EXPECT_GE(ctx_j.plans().size(), 1u);
}

TEST(ProofService, SerialSubmissionByteIdenticalAndVerified)
{
    Fleet fleet = buildFleet(4);
    engine::ProverContext ctx(sharedSrs());
    engine::ProofService service(ctx, /*lanes=*/1);

    std::vector<engine::ProofRequest> requests;
    for (std::size_t i = 0; i < fleet.circuits.size(); ++i)
        requests.push_back({&fleet.keys[i].pk, &fleet.circuits[i], nullptr});

    auto results = service.proveAll(requests);
    ASSERT_EQ(results.size(), fleet.circuits.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(proofBytes(results[i].proof), fleet.referenceBytes[i])
            << "job " << i;
        auto res = verify(fleet.keys[i].vk, results[i].proof);
        EXPECT_TRUE(res.ok) << "job " << i << ": " << res.error;
        EXPECT_GT(results[i].stats.totalMs(), 0.0);
    }
}

TEST(ProofService, ConcurrentSubmissionByteIdenticalAndVerified)
{
    Fleet fleet = buildFleet(6);
    // 4-thread budget over 3 lanes: 3 jobs in flight, 1-thread sub-budgets.
    engine::ProverContext ctx(sharedSrs(), {.threads = 4});
    engine::ProofService service(ctx, /*lanes=*/3);
    EXPECT_EQ(service.numLanes(), 3u);
    EXPECT_EQ(service.laneThreadBudget(), 1u);

    std::vector<engine::ProofRequest> requests;
    for (std::size_t i = 0; i < fleet.circuits.size(); ++i)
        requests.push_back({&fleet.keys[i].pk, &fleet.circuits[i], nullptr});

    auto results = service.proveAll(requests);
    ASSERT_EQ(results.size(), fleet.circuits.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(proofBytes(results[i].proof), fleet.referenceBytes[i])
            << "job " << i;
        EXPECT_TRUE(verify(fleet.keys[i].vk, results[i].proof).ok)
            << "job " << i;
    }
}

TEST(ProofService, WideLanesMatchReferenceToo)
{
    // Budget wider than lanes: multi-threaded sub-budgets on private pools.
    Fleet fleet = buildFleet(2);
    engine::ProverContext ctx(sharedSrs(), {.threads = 4});
    engine::ProofService service(ctx, /*lanes=*/2);
    EXPECT_EQ(service.laneThreadBudget(), 2u);

    std::vector<engine::ProofRequest> requests;
    for (std::size_t i = 0; i < fleet.circuits.size(); ++i)
        requests.push_back({&fleet.keys[i].pk, &fleet.circuits[i], nullptr});
    auto results = service.proveAll(requests);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(proofBytes(results[i].proof), fleet.referenceBytes[i]);
    }
}

TEST(ProofService, SubmitDeliversFuturesAndStatsSink)
{
    Rng rng(804);
    Circuit c = randomVanillaCircuit(4, rng);
    Keys keys = setup(c, sharedSrs());

    engine::ProverContext ctx(sharedSrs());
    engine::ProofService service(ctx, /*lanes=*/2);

    ProverStats sink;
    auto fut1 = service.submit({&keys.pk, &c, &sink});
    auto fut2 = service.submit({&keys.pk, &c, nullptr});
    engine::ProofResult r1 = fut1.get();
    engine::ProofResult r2 = fut2.get();
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(proofBytes(r1.proof), proofBytes(r2.proof));
    // The caller-owned sink received the same stats as the result.
    EXPECT_EQ(sink.totalMs(), r1.stats.totalMs());
    EXPECT_EQ(sink.msm.pointAdds, r1.stats.msm.pointAdds);
}

TEST(ProofService, BudgetSplitAndOversubscription)
{
    engine::ProverContext ctx(sharedSrs(), {.threads = 5});
    // Uneven split: base 2, one lane picks up the remainder thread.
    engine::ProofService uneven(ctx, 2);
    EXPECT_EQ(uneven.laneThreadBudget(), 2u);

    // More lanes than budget: every lane serial, and jobs still complete.
    engine::ProverContext tiny(sharedSrs(), {.threads = 1});
    engine::ProofService oversub(tiny, 3);
    EXPECT_EQ(oversub.laneThreadBudget(), 1u);
    Rng rng(806);
    Circuit c = randomVanillaCircuit(4, rng);
    Keys keys = setup(c, sharedSrs());
    auto res = oversub.submit({&keys.pk, &c, nullptr}).get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(verify(keys.vk, res.proof).ok);
}

TEST(ProofService, MalformedRequestReportsErrorNotCrash)
{
    engine::ProverContext ctx(sharedSrs());
    engine::ProofService service(ctx, 1);
    engine::ProofResult res = service.submit({nullptr, nullptr, nullptr}).get();
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(Engine, LegacyFreeFunctionStillDeterministic)
{
    // The 3-arg hyperplonk::prove wrapper routes through the default
    // context; repeated calls must stay byte-identical (the plan cache only
    // memoizes, never perturbs).
    Rng rng(805);
    Circuit c = randomVanillaCircuit(4, rng);
    Keys keys = setup(c, sharedSrs());
    auto p1 = proofBytes(prove(keys.pk, c));
    auto p2 = proofBytes(prove(keys.pk, c));
    EXPECT_EQ(p1, p2);
}
