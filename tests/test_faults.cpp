/**
 * @file
 * Fault-tolerance tests: failpoint injection, cooperative cancellation,
 * retry-with-degradation.
 *
 * Five families:
 *   - Failpoint mechanics: schedule parsing, trigger modes (nth / seeded
 *     probability / fire caps), exception-kind mapping, hit counters.
 *   - Slab-store degradation: injected ENOSPC at slab creation falls back
 *     to the Ram backend; injected failure at slab growth migrates the
 *     live data to RAM instead of throwing mid-proof; injected EINTR at
 *     either site retries and the table stays mapped.
 *   - SRS level builds: preprocessing builds both levels a circuit's
 *     proofs need, and a failed build propagates and leaves the level
 *     for a retry to build.
 *   - Service recovery: injected prover throws resolve typed ProverError
 *     without poisoning the lane; cancel(jobId) resolves queued jobs
 *     immediately and running jobs at the next round boundary; deadlines
 *     abort mid-proof; resource-class failures retry under forced
 *     streaming and stay byte-identical to a fault-free run.
 *   - FaultSoak: a randomized failpoint schedule over the 12-job mixed
 *     load — every future must resolve a typed status and every armed
 *     site must be reached (the CI soak leg re-runs this family under
 *     ASan/TSan with a ZKPHIRE_FAILPOINTS schedule from the environment).
 *
 * Failpoints are process-global, so every non-soak test arms its own
 * sites through the FaultTest fixture, which clears them on both sides.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "engine/service.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "pcs/mkzg.hpp"
#include "poly/mle.hpp"
#include "poly/mle_store.hpp"
#include "rt/cancel.hpp"
#include "rt/failpoint.hpp"
#include "rt/parallel.hpp"

using namespace zkphire;
using namespace zkphire::hyperplonk;
using engine::ProofStatus;
using ff::Fr;
using ff::Rng;
using rt::FailKind;
using rt::FailSpec;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

namespace {

const pcs::Srs &
sharedSrs()
{
    static Rng rng(0xfa1fa1);
    static pcs::Srs srs = pcs::Srs::generate(9, rng);
    return srs;
}

std::vector<std::uint8_t>
proofBytes(const HyperPlonkProof &proof)
{
    return serializeProof(proof);
}

/** One circuit + keys + fault-free reference bytes. */
struct Fixture {
    Circuit circuit;
    Keys keys;
    std::vector<std::uint8_t> reference;
};

Fixture
makeFixture(unsigned mu, bool jellyfish, std::uint64_t seed)
{
    Rng rng(seed);
    Circuit circuit = jellyfish ? randomJellyfishCircuit(mu, rng)
                                : randomVanillaCircuit(mu, rng);
    Keys keys = setup(circuit, sharedSrs());
    std::vector<std::uint8_t> reference = proofBytes(prove(keys.pk, circuit));
    return Fixture{std::move(circuit), std::move(keys), std::move(reference)};
}

/** Shared fixtures, built lazily on first use. Always touch these BEFORE
 *  arming failpoints: the reference prove() must run fault-free. */
Fixture &
smallFixture()
{
    static Fixture f = makeFixture(4, false, 7001);
    return f;
}

Fixture &
bigFixture()
{
    static Fixture f = makeFixture(8, true, 7002);
    return f;
}

/** Site names of a ZKPHIRE_FAILPOINTS-format schedule, in entry order. */
std::vector<std::string>
scheduleSites(const std::string &schedule)
{
    std::vector<std::string> sites;
    std::size_t pos = 0;
    while (pos < schedule.size()) {
        const std::size_t semi = std::min(schedule.find(';', pos),
                                          schedule.size());
        const std::size_t eq = schedule.find('=', pos);
        if (eq > pos && eq < semi)
            sites.push_back(schedule.substr(pos, eq - pos));
        pos = semi + 1;
    }
    return sites;
}

/** Clears global failpoint state on both sides of every test. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { rt::clearFailpoints(); }
    void TearDown() override { rt::clearFailpoints(); }
};

} // namespace

// ---------------------------------------------------------------------------
// Failpoint mechanics
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DisarmedSitesAreFree)
{
    EXPECT_NO_THROW(rt::failpoint("no.such.site"));
    EXPECT_EQ(rt::failpointErrno("no.such.site"), 0);
    EXPECT_EQ(rt::failpointHits("no.such.site"), 0u);
}

TEST_F(FaultTest, ScheduleParsingArmsAndSkipsMalformed)
{
    const std::size_t applied = rt::setFailpointsFromSpec(
        "a.site=throw:nth=3;bad entry;b.site=enospc:p=0.5:seed=9;"
        "c.site=bogus_kind;d.site=sleep:ms=1:count=2");
    EXPECT_EQ(applied, 3u); // a.site, b.site, d.site; two malformed skipped
    EXPECT_NO_THROW(rt::failpoint("a.site")); // nth=3: hits 1,2 pass
    EXPECT_NO_THROW(rt::failpoint("a.site"));
    EXPECT_THROW(rt::failpoint("a.site"), rt::InjectedFault);
    EXPECT_NO_THROW(rt::failpoint("a.site")); // nth implies fire-once
    EXPECT_EQ(rt::failpointHits("a.site"), 4u);
    EXPECT_EQ(rt::failpointFires("a.site"), 1u);
}

TEST_F(FaultTest, KindsMapToExceptionAndErrnoStyles)
{
    rt::setFailpoint("k.throw", FailSpec{});
    rt::setFailpoint("k.enomem", FailSpec{.kind = FailKind::Enomem});
    rt::setFailpoint("k.enospc", FailSpec{.kind = FailKind::Enospc});
    rt::setFailpoint("k.eintr", FailSpec{.kind = FailKind::Eintr});

    EXPECT_THROW(rt::failpoint("k.throw"), rt::InjectedFault);
    EXPECT_THROW(rt::failpoint("k.enomem"), std::bad_alloc);
    try {
        rt::failpoint("k.enospc");
        FAIL() << "enospc failpoint did not throw";
    } catch (const std::system_error &e) {
        EXPECT_EQ(e.code().value(), ENOSPC);
    }
    // EINTR only makes sense at a syscall wrapper: throw-style no-op.
    EXPECT_NO_THROW(rt::failpoint("k.eintr"));

    EXPECT_EQ(rt::failpointErrno("k.enomem"), ENOMEM);
    EXPECT_EQ(rt::failpointErrno("k.enospc"), ENOSPC);
    EXPECT_EQ(rt::failpointErrno("k.eintr"), EINTR);
}

TEST_F(FaultTest, SeededProbabilityIsReproducible)
{
    const auto fires = [](std::uint64_t seed) {
        rt::setFailpoint("p.site",
                         FailSpec{.kind = FailKind::Throw, .p = 0.5,
                                  .nth = 0, .maxFires = UINT64_MAX,
                                  .seed = seed});
        std::uint64_t n = 0;
        for (int i = 0; i < 64; ++i) {
            try {
                rt::failpoint("p.site");
            } catch (const rt::InjectedFault &) {
                ++n;
            }
        }
        rt::clearFailpoint("p.site");
        return n;
    };
    const std::uint64_t a = fires(11), b = fires(11), c = fires(12);
    EXPECT_EQ(a, b); // same seed, same draw stream
    EXPECT_GT(a, 8u);
    EXPECT_LT(a, 56u); // p=0.5 over 64 hits stays far from the extremes
    (void)c;
}

TEST_F(FaultTest, MaxFiresCapsInjection)
{
    rt::setFailpoint("cap.site",
                     FailSpec{.kind = FailKind::Throw, .p = 1.0, .nth = 0,
                              .maxFires = 2});
    unsigned thrown = 0;
    for (int i = 0; i < 5; ++i) {
        try {
            rt::failpoint("cap.site");
        } catch (const rt::InjectedFault &) {
            ++thrown;
        }
    }
    EXPECT_EQ(thrown, 2u);
    EXPECT_EQ(rt::failpointFires("cap.site"), 2u);
}

// ---------------------------------------------------------------------------
// Cancellation primitives
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CancelTokenBasics)
{
    rt::CancelToken none;
    EXPECT_FALSE(none.cancelled());
    EXPECT_NO_THROW(none.throwIfCancelled());

    rt::CancelSource src;
    rt::CancelToken tok = src.token();
    EXPECT_FALSE(tok.cancelled());
    src.requestCancel();
    EXPECT_EQ(tok.reason(), rt::CancelReason::Cancelled);
    EXPECT_THROW(tok.throwIfCancelled(), rt::OperationCancelled);

    // Copies share state; reset() detaches to fresh state.
    rt::CancelSource copy = src;
    EXPECT_TRUE(copy.cancelled());
    src.reset();
    EXPECT_FALSE(src.cancelled());
    EXPECT_TRUE(copy.cancelled()); // the old state is untouched
}

TEST_F(FaultTest, CancelTokenDeadlineLatches)
{
    rt::CancelSource src;
    src.setDeadline(steady_clock::now() - milliseconds(1));
    EXPECT_EQ(src.token().reason(), rt::CancelReason::Deadline);
    // An explicit cancel cannot overwrite the latched deadline reason.
    src.requestCancel();
    EXPECT_EQ(src.token().reason(), rt::CancelReason::Deadline);
}

TEST_F(FaultTest, ScopedCancelInstallsAmbientToken)
{
    EXPECT_EQ(rt::cancelReason(), rt::CancelReason::None);
    rt::CancelSource src;
    {
        rt::ScopedCancel scope(src.token());
        EXPECT_FALSE(rt::cancelRequested());
        src.requestCancel();
        EXPECT_TRUE(rt::cancelRequested());
        EXPECT_THROW(rt::checkCancel(), rt::OperationCancelled);
        {
            // The ScopedConfig rule: an invalid token inherits.
            rt::ScopedCancel inherit{rt::CancelToken{}};
            EXPECT_TRUE(rt::cancelRequested());
        }
    }
    EXPECT_EQ(rt::cancelReason(), rt::CancelReason::None);
    EXPECT_NO_THROW(rt::checkCancel());
}

// ---------------------------------------------------------------------------
// Slab-store degradation
// ---------------------------------------------------------------------------

TEST_F(FaultTest, SlabCreateFailureFallsBackToRam)
{
    using poly::FrTable;
    using poly::StoreKind;
    rt::setFailpoint("slab.create", FailSpec{.kind = FailKind::Enospc});
    FrTable t = FrTable::make(std::size_t(1) << 12, StoreKind::Mapped);
#ifdef __linux__
    EXPECT_GE(rt::failpointHits("slab.create"), 1u);
#endif
    // Creation failure degrades, never throws: the table lands on RAM and
    // is fully usable.
    EXPECT_FALSE(t.isMapped());
    ASSERT_EQ(t.size(), std::size_t(1) << 12);
    t[0] = Fr::fromU64(17);
    t[t.size() - 1] = Fr::fromU64(99);
    EXPECT_EQ(t[0], Fr::fromU64(17));
    EXPECT_EQ(t[t.size() - 1], Fr::fromU64(99));
}

TEST_F(FaultTest, SlabGrowFailureMigratesDataToRam)
{
    using poly::FrTable;
    using poly::StoreKind;
    FrTable t = FrTable::make(1024, StoreKind::Mapped);
    if (!t.isMapped())
        GTEST_SKIP() << "no mapped backend on this platform";
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = Fr::fromU64(i + 1);

    rt::setFailpoint("slab.grow", FailSpec{.kind = FailKind::Enospc});
    const std::size_t grown = std::size_t(1) << 15;
    t.resize(grown); // capacity exceeded -> grow path -> injected ENOSPC
    EXPECT_GE(rt::failpointFires("slab.grow"), 1u);

    // The grow failure migrated the table to RAM with the prefix intact
    // and the growth zero-filled — values are backend-independent.
    EXPECT_FALSE(t.isMapped());
    ASSERT_EQ(t.size(), grown);
    for (std::size_t i = 0; i < 1024; ++i)
        ASSERT_EQ(t[i], Fr::fromU64(i + 1));
    EXPECT_EQ(t[1024], Fr::zero());
    EXPECT_EQ(t[grown - 1], Fr::zero());
}

TEST_F(FaultTest, SlabEintrRetriesAndStaysMapped)
{
    // EINTR is the one errno the slab wrappers retry instead of degrading:
    // creation and growth both go ahead, so the table never leaves the
    // mapped backend.
    using poly::FrTable;
    using poly::StoreKind;
    rt::setFailpoint("slab.create", FailSpec{.kind = FailKind::Eintr});
    rt::setFailpoint("slab.grow", FailSpec{.kind = FailKind::Eintr});
    FrTable t = FrTable::make(1024, StoreKind::Mapped);
    if (!t.isMapped())
        GTEST_SKIP() << "no mapped backend on this platform";
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = Fr::fromU64(i + 1);

    const std::size_t grown = std::size_t(1) << 15;
    t.resize(grown); // capacity exceeded -> grow path -> injected EINTR
    EXPECT_GE(rt::failpointFires("slab.create"), 1u);
    EXPECT_GE(rt::failpointFires("slab.grow"), 1u);

    EXPECT_TRUE(t.isMapped());
    ASSERT_EQ(t.size(), grown);
    for (std::size_t i = 0; i < 1024; ++i)
        ASSERT_EQ(t[i], Fr::fromU64(i + 1));
    for (std::size_t i = 1024; i < grown; ++i)
        ASSERT_EQ(t[i], Fr::zero()) << i;
}

TEST_F(FaultTest, PreprocessBuildsBothSrsLevelsAndTheFirstProofNone)
{
    // srs.level is hit once per level build. Preprocessing builds level mu
    // for the keys and level mu + 1 for the proofs' v commit, so the first
    // proof builds nothing.
    Rng rng(0x5e1f);
    const pcs::Srs srs = pcs::Srs::generate(6, rng);
    Rng circuitRng(7003);
    const Circuit c = randomVanillaCircuit(5, circuitRng);
    engine::ProverContext ctx(srs, {.threads = 1});
    rt::setFailpoint("srs.level", FailSpec{.p = 0.0});
    const Keys &keys = ctx.preprocess(c);
    EXPECT_EQ(rt::failpointHits("srs.level"), 2u);
    const HyperPlonkProof proof = ctx.prove(keys.pk, c);
    EXPECT_EQ(rt::failpointHits("srs.level"), 2u);
    EXPECT_TRUE(verify(keys.vk, proof).ok);
}

TEST_F(FaultTest, SrsLevelFaultPropagatesAndPreprocessRetries)
{
    // A failed level build leaves the level unbuilt: the fault reaches the
    // preprocess caller, and a retry builds the same bases and keys as a
    // fault-free run. nth = 1 fails level mu; nth = 2 fails level mu + 1
    // after level mu is built.
    const auto generate = [] {
        Rng rng(0x5e1f);
        return pcs::Srs::generate(6, rng);
    };
    Rng circuitRng(7004);
    const Circuit c = randomVanillaCircuit(5, circuitRng);
    const pcs::Srs cleanSrs = generate();
    engine::ProverContext clean(cleanSrs, {.threads = 1});
    const Keys &reference = clean.preprocess(c);
    const auto referenceProof = proofBytes(clean.prove(reference.pk, c));
    for (const std::uint64_t nth : {1u, 2u}) {
        const pcs::Srs srs = generate();
        engine::ProverContext ctx(srs, {.threads = 1});
        rt::setFailpoint("srs.level", FailSpec{.nth = nth});
        EXPECT_THROW(ctx.preprocess(c), rt::InjectedFault) << "nth " << nth;
        EXPECT_EQ(rt::failpointFires("srs.level"), 1u) << "nth " << nth;
        rt::clearFailpoints();
        const Keys &keys = ctx.preprocess(c);
        EXPECT_EQ(keys.pk.selectorComms, reference.pk.selectorComms);
        EXPECT_EQ(keys.pk.sigmaComms, reference.pk.sigmaComms);
        for (unsigned mu : {5u, 6u})
            EXPECT_EQ(srs.basesFor(mu).suffix, cleanSrs.basesFor(mu).suffix)
                << "nth " << nth << ", level " << mu;
        EXPECT_EQ(proofBytes(ctx.prove(keys.pk, c)), referenceProof)
            << "nth " << nth;
    }
}

// ---------------------------------------------------------------------------
// Service recovery
// ---------------------------------------------------------------------------

TEST_F(FaultTest, InjectedProverThrowResolvesTypedErrorAndLaneSurvives)
{
    Fixture &fx = smallFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Throw, .p = 1.0, .nth = 1});
    auto bad = service.submit({&fx.keys.pk, &fx.circuit, nullptr});
    engine::ProofResult res = bad.get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status, ProofStatus::ProverError);
    EXPECT_NE(res.error.find("injected fault"), std::string::npos);

    // The throw was caught at the lane seam: the same lane must produce a
    // clean, reference-identical proof immediately after.
    rt::clearFailpoints();
    engine::ProofResult good =
        service.submit({&fx.keys.pk, &fx.circuit, nullptr}).get();
    ASSERT_TRUE(good.ok);
    EXPECT_EQ(proofBytes(good.proof), fx.reference);
    EXPECT_EQ(service.metrics().failed, 1u);
    EXPECT_EQ(service.metrics().completed, 1u);
}

TEST_F(FaultTest, CancelQueuedJobResolvesCancelled)
{
    Fixture &blocker = bigFixture();
    Fixture &small = smallFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // Slow every sumcheck round so the blocker holds the lane long enough
    // for the queued victim to be cancelled deterministically.
    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Sleep, .p = 1.0, .nth = 0,
                              .maxFires = UINT64_MAX, .seed = 1,
                              .sleepMs = 10});
    auto fb = service.submit({&blocker.keys.pk, &blocker.circuit, nullptr});
    engine::JobHandle victim =
        service.submitJob({&small.keys.pk, &small.circuit, nullptr});

    EXPECT_FALSE(service.cancel(victim.id + 1000)); // unknown id
    EXPECT_TRUE(service.cancel(victim.id));
    // Resolution is immediate — it must not wait for the blocker's lane.
    ASSERT_EQ(victim.future.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    engine::ProofResult res = victim.future.get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status, ProofStatus::Cancelled);
    EXPECT_FALSE(service.cancel(victim.id)); // already resolved

    rt::clearFailpoints();
    EXPECT_TRUE(fb.get().ok); // the blocker itself is unaffected
    EXPECT_EQ(service.metrics().cancelled, 1u);
}

TEST_F(FaultTest, CancelRunningJobFreesLaneAtRoundBoundary)
{
    Fixture &blocker = bigFixture();
    Fixture &small = smallFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // Widen every round boundary so the cancel lands mid-proof with many
    // rounds (and sleeps) still ahead of it.
    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Sleep, .p = 1.0, .nth = 0,
                              .maxFires = UINT64_MAX, .seed = 1,
                              .sleepMs = 25});
    engine::JobHandle running =
        service.submitJob({&blocker.keys.pk, &blocker.circuit, nullptr});
    // Wait until the prover is demonstrably inside its online phase.
    while (rt::failpointHits("sumcheck.round") < 2)
        std::this_thread::yield();
    EXPECT_TRUE(service.cancel(running.id));
    engine::ProofResult res = running.future.get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status, ProofStatus::Cancelled);

    // The lane was freed at the boundary and is immediately reusable.
    rt::clearFailpoints();
    engine::ProofResult next =
        service.submit({&small.keys.pk, &small.circuit, nullptr}).get();
    ASSERT_TRUE(next.ok);
    EXPECT_EQ(proofBytes(next.proof), small.reference);
}

TEST_F(FaultTest, DeadlineExpiresMidProof)
{
    Fixture &blocker = bigFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // ~25 ms per sumcheck round makes the proof take far longer than the
    // 120 ms deadline, which therefore expires mid-execution (not while
    // queued: the lane is idle and picks the job up immediately).
    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Sleep, .p = 1.0, .nth = 0,
                              .maxFires = UINT64_MAX, .seed = 1,
                              .sleepMs = 25});
    auto fut =
        service.submit({&blocker.keys.pk, &blocker.circuit, nullptr},
                       engine::SubmitOptions::deadlineIn(milliseconds(120)));
    engine::ProofResult res = fut.get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status, ProofStatus::DeadlineExpired);
    EXPECT_EQ(service.metrics().expiredDeadline, 1u);
}

TEST_F(FaultTest, ResourceFailureRetriesDegradedAndStaysByteIdentical)
{
    Fixture &fx = bigFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // First sumcheck round of attempt 1 fails with ENOSPC (resource
    // class); the retry runs under forced streaming and must reproduce
    // the fault-free reference bytes exactly.
    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Enospc, .p = 1.0, .nth = 1});
    engine::SubmitOptions sub;
    sub.retry.maxAttempts = 2;
    sub.retry.backoff = milliseconds(1);
    engine::ProofResult res =
        service.submit({&fx.keys.pk, &fx.circuit, nullptr}, sub).get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(proofBytes(res.proof), fx.reference);

    engine::ServiceMetrics sm = service.metrics();
    EXPECT_EQ(sm.retries, 1u);
    EXPECT_EQ(sm.degradedRetries, 1u);
    EXPECT_EQ(sm.completed, 1u);
    EXPECT_EQ(sm.failed, 0u);
}

TEST_F(FaultTest, InjectedFaultKindIsNeverRetried)
{
    Fixture &fx = smallFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // InjectedFault is deliberately not a resource type: even with retry
    // budget it must resolve ProverError on the first attempt.
    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Throw, .p = 1.0, .nth = 1});
    engine::SubmitOptions sub;
    sub.retry.maxAttempts = 3;
    engine::ProofResult res =
        service.submit({&fx.keys.pk, &fx.circuit, nullptr}, sub).get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status, ProofStatus::ProverError);
    EXPECT_EQ(service.metrics().retries, 0u);
}

TEST_F(FaultTest, ExhaustedRetryBudgetResolvesProverError)
{
    Fixture &fx = smallFixture();
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // Every attempt fails: p=1.0 with no fire cap survives the retry.
    rt::setFailpoint("sumcheck.round",
                     FailSpec{.kind = FailKind::Enomem});
    engine::SubmitOptions sub;
    sub.retry.maxAttempts = 3;
    sub.retry.backoff = milliseconds(1);
    engine::ProofResult res =
        service.submit({&fx.keys.pk, &fx.circuit, nullptr}, sub).get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status, ProofStatus::ProverError);
    engine::ServiceMetrics sm = service.metrics();
    EXPECT_EQ(sm.retries, 2u); // attempts 2 and 3
    EXPECT_EQ(sm.failed, 1u);
}

// ---------------------------------------------------------------------------
// Randomized mixed-load soak
// ---------------------------------------------------------------------------

TEST(FaultSoak, MixedLoadEveryFutureResolvesTyped)
{
    // Build all fixtures (and their fault-free references) BEFORE arming.
    // The clear must come first: with ZKPHIRE_FAILPOINTS in the
    // environment, the lazy first-hit load would otherwise arm the
    // schedule in the middle of the reference prove() below. clear
    // consumes the lazy load; loadFailpointsFromEnv() re-reads it after.
    rt::clearFailpoints();
    std::vector<Fixture> fixtures;
    fixtures.push_back(makeFixture(4, false, 8101));
    fixtures.push_back(makeFixture(5, true, 8102));
    fixtures.push_back(makeFixture(6, false, 8103));
    fixtures.push_back(makeFixture(8, true, 8104));

    // The CI soak leg provides its own ZKPHIRE_FAILPOINTS schedule; local
    // runs arm a representative one covering every site a proof reaches.
    // (slab.grow is not among them: no proof grows a mapped slab, so its
    // EINTR and ENOSPC branches have their own FaultTest cases.)
    const char *env_schedule = std::getenv("ZKPHIRE_FAILPOINTS");
    const std::string schedule =
        env_schedule != nullptr ? env_schedule
                                : "sumcheck.round=throw:p=0.02:seed=1;"
                                  "msm.accum=enomem:p=0.02:seed=2;"
                                  "slab.create=enospc:p=0.3:seed=4;"
                                  "rt.worker=throw:p=0.002:seed=6";
    if (env_schedule == nullptr)
        rt::setFailpointsFromSpec(schedule);
    else
        rt::loadFailpointsFromEnv();

    {
        // streamThreshold=1 pushes every table through the slab store so
        // the slab.create site actually sees traffic; the tiny chunk makes
        // even these test-sized tables span multiple chunks, so
        // commitBatch's chunk walk (msm.accum) does too.
        engine::ProverContext ctx(
            sharedSrs(),
            {.threads = 2, .streamThreshold = 1, .streamChunk = 64});
        engine::ServiceOptions so;
        so.lanes = 2;
        so.queueCapacity = 6;
        so.admission = engine::AdmissionPolicy::Block;
        engine::ProofService service(ctx, so);

        constexpr unsigned kJobs = 12;
        std::vector<engine::JobHandle> handles;
        handles.reserve(kJobs);
        for (unsigned i = 0; i < kJobs; ++i) {
            const Fixture &fx = fixtures[i % fixtures.size()];
            engine::SubmitOptions sub;
            sub.priority = int(i % 3);
            if (i % 4 == 1)
                sub = engine::SubmitOptions::deadlineIn(
                    milliseconds(400 + 150 * i), sub.priority);
            sub.retry.maxAttempts = (i % 2 == 0) ? 3 : 1;
            sub.retry.backoff = milliseconds(1);
            handles.push_back(
                service.submitJob({&fx.keys.pk, &fx.circuit, nullptr}, sub));
        }
        // A couple of cancels land wherever they land — queued, running,
        // or already resolved; all three must be safe.
        service.cancel(handles[2].id);
        service.cancel(handles[7].id);

        unsigned ok = 0;
        for (unsigned i = 0; i < kJobs; ++i) {
            // The hang check: every future must resolve, bounded.
            ASSERT_EQ(handles[i].future.wait_for(std::chrono::minutes(5)),
                      std::future_status::ready)
                << "job " << i << " hung";
            engine::ProofResult res = handles[i].future.get();
            switch (res.status) {
            case ProofStatus::Ok: {
                ASSERT_TRUE(res.ok);
                const Fixture &fx = fixtures[i % fixtures.size()];
                // Whatever mix of faults, retries, degradation, and
                // lending the job saw, Ok means reference bytes.
                EXPECT_EQ(proofBytes(res.proof), fx.reference)
                    << "job " << i;
                ++ok;
                break;
            }
            case ProofStatus::ProverError:
            case ProofStatus::Cancelled:
            case ProofStatus::DeadlineExpired:
            case ProofStatus::QueueFull:
            case ProofStatus::ServiceStopping:
                EXPECT_FALSE(res.ok);
                EXPECT_FALSE(res.error.empty());
                break;
            default:
                FAIL() << "job " << i << ": unexpected status";
            }
        }
        engine::ServiceMetrics sm = service.metrics();
        EXPECT_EQ(sm.submitted, kJobs);
        EXPECT_EQ(sm.inFlight, 0u);
        EXPECT_EQ(sm.queueDepth, 0u);
        EXPECT_EQ(sm.accepted, sm.completed + sm.failed +
                                   sm.expiredDeadline + sm.cancelled);
        EXPECT_EQ(sm.completed, ok);
    }
    // A site the schedule arms but the load never reaches is coverage the
    // soak only claims: every armed site must have been consulted.
    for (const std::string &site : scheduleSites(schedule))
        EXPECT_GT(rt::failpointHits(site), 0u)
            << "the load never reached armed site " << site;
    rt::clearFailpoints();
}
