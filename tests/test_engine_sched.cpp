/**
 * @file
 * ProofService scheduling, admission, sharding, and lifecycle tests.
 *
 * Three families:
 *   - Admission/scheduling semantics: bounded queue under both policies,
 *     typed deadline expiry, priority ordering, budget splits.
 *   - Lifecycle: the submit/shutdown race (every future resolves with a
 *     typed status, never a broken promise), destructor drain.
 *   - Determinism: intra-proof sharding at 1/2/4 lanes produces bytes
 *     identical to the one-shot hyperplonk::prove path — the service may
 *     move work between lanes but may never move the transcript.
 *
 * The lifecycle, hot-swap and SRS-level tests are the TSan targets
 * (-DZKPHIRE_TSAN CI leg runs every test_engine* suite).
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "engine/service.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"

using namespace zkphire;
using namespace zkphire::hyperplonk;
using engine::AdmissionPolicy;
using engine::ProofStatus;
using ff::Rng;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

namespace {

const pcs::Srs &
sharedSrs()
{
    static Rng rng(0xced01e);
    static pcs::Srs srs = pcs::Srs::generate(9, rng);
    return srs;
}

std::vector<std::uint8_t>
proofBytes(const HyperPlonkProof &proof)
{
    return serializeProof(proof);
}

/** One circuit + keys + the legacy-path reference bytes. */
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

/** A big job that keeps a lane busy for at least a few milliseconds. */
Fixture
makeBlocker(std::uint64_t seed)
{
    return makeFixture(/*mu=*/8, /*jellyfish=*/true, seed);
}

} // namespace

TEST(SrsLevels, ConcurrentFirstUseMatchesSerialBuild)
{
    // Two lanes proving a new size for the first time both reach
    // Srs::basesFor for levels nobody has built yet: different levels must
    // build concurrently without a race, and two callers of one level must
    // share a single build.
    const auto generate = [] {
        Rng rng(0x5e1e7);
        return pcs::Srs::generate(7, rng);
    };
    const pcs::Srs serial = generate();
    const pcs::Srs concurrent = generate();
    const unsigned levels[] = {6, 7, 7};
    constexpr std::size_t kCallers = std::size(levels);
    std::array<const pcs::LevelBases *, kCallers> got{};
    std::atomic<bool> go{false};
    {
        std::vector<std::thread> callers;
        for (std::size_t t = 0; t < kCallers; ++t)
            callers.emplace_back([&, t] {
                while (!go.load(std::memory_order_acquire))
                    std::this_thread::yield();
                got[t] = &concurrent.basesFor(levels[t]);
            });
        go.store(true, std::memory_order_release);
        for (std::thread &c : callers)
            c.join();
    }
    EXPECT_EQ(got[1], got[2]) << "one level, one cached copy";
    for (std::size_t t = 0; t < kCallers; ++t)
        EXPECT_EQ(got[t]->suffix, serial.basesFor(levels[t]).suffix)
            << "level " << levels[t];
}

TEST(LatencyHistogram, QuantilesAndMerge)
{
    engine::LatencyHistogram h;
    EXPECT_EQ(h.quantileMs(0.5), 0.0);
    for (int i = 0; i < 90; ++i)
        h.record(1.0); // ~1 ms bucket
    for (int i = 0; i < 10; ++i)
        h.record(50.0); // ~50 ms bucket
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.meanMs(), 5.9, 1e-9);
    EXPECT_EQ(h.maxMs(), 50.0);
    // p50 falls in the 1 ms bucket, p99 in the 50 ms bucket; quantiles are
    // bucket-interpolated so allow a factor-2 envelope, and ordering must
    // always hold.
    EXPECT_LT(h.quantileMs(0.5), 3.0);
    EXPECT_GT(h.quantileMs(0.99), 10.0);
    EXPECT_LE(h.quantileMs(0.99), h.maxMs());
    EXPECT_LE(h.quantileMs(0.5), h.quantileMs(0.99));

    engine::LatencyHistogram other;
    other.record(100.0);
    h.merge(other);
    EXPECT_EQ(h.count(), 101u);
    EXPECT_EQ(h.maxMs(), 100.0);
}

TEST(ProofServiceAdmission, RejectPolicyReturnsTypedQueueFull)
{
    Fixture blocker = makeBlocker(901);
    Fixture small = makeFixture(4, false, 902);

    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ServiceOptions so;
    so.lanes = 1;
    so.queueCapacity = 1;
    so.admission = AdmissionPolicy::Reject;
    engine::ProofService service(ctx, so);

    // Once the lane picks the blocker up (the spin below outlasts lane
    // start-up), one small job fills the single queue slot while the lane
    // is busy; the next submissions must bounce with the typed status
    // instead of piling up.
    auto fb = service.submit({&blocker.keys.pk, &blocker.circuit, nullptr});
    while (service.metrics().queueDepth != 0)
        std::this_thread::yield();
    auto f1 = service.submit({&small.keys.pk, &small.circuit, nullptr});
    std::vector<std::future<engine::ProofResult>> bounced;
    for (int i = 0; i < 3; ++i)
        bounced.push_back(
            service.submit({&small.keys.pk, &small.circuit, nullptr}));

    unsigned rejected = 0;
    for (auto &f : bounced) {
        engine::ProofResult r = f.get();
        if (r.status == ProofStatus::QueueFull) {
            EXPECT_FALSE(r.ok);
            EXPECT_FALSE(r.error.empty());
            ++rejected;
        } else {
            EXPECT_EQ(r.status, ProofStatus::Ok); // lane raced us to the slot
        }
    }
    EXPECT_GE(rejected, 1u);

    engine::ProofResult rb = fb.get();
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_EQ(proofBytes(rb.proof), blocker.reference);
    engine::ProofResult r1 = f1.get();
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(proofBytes(r1.proof), small.reference);

    engine::ServiceMetrics sm = service.metrics();
    EXPECT_EQ(sm.rejectedQueueFull, rejected);
    EXPECT_EQ(sm.submitted, sm.accepted + sm.rejectedQueueFull);
}

TEST(ProofServiceAdmission, BlockPolicyParksSubmitterUntilSpace)
{
    Fixture blocker = makeBlocker(903);
    Fixture small = makeFixture(4, false, 904);

    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ServiceOptions so;
    so.lanes = 1;
    so.queueCapacity = 1;
    so.admission = AdmissionPolicy::Block;
    engine::ProofService service(ctx, so);

    auto fb = service.submit({&blocker.keys.pk, &blocker.circuit, nullptr});
    auto f1 = service.submit({&small.keys.pk, &small.circuit, nullptr});

    std::atomic<bool> returned{false};
    std::future<engine::ProofResult> f2;
    std::thread submitter([&] {
        f2 = service.submit({&small.keys.pk, &small.circuit, nullptr});
        returned.store(true);
    });
    // The queue slot is taken and the lane is grinding the blocker, so the
    // submitter should still be parked shortly after it started.
    std::this_thread::sleep_for(milliseconds(2));
    EXPECT_FALSE(returned.load());
    submitter.join(); // unblocks once the lane pops f1's job

    ASSERT_TRUE(fb.get().ok);
    EXPECT_EQ(proofBytes(f1.get().proof), small.reference);
    EXPECT_EQ(proofBytes(f2.get().proof), small.reference);

    engine::ServiceMetrics sm = service.metrics();
    EXPECT_EQ(sm.rejectedQueueFull, 0u);
    EXPECT_EQ(sm.accepted, 3u);
}

TEST(ProofServiceAdmission, DeadlineExpiryIsTyped)
{
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});

    // Already past at submission: rejected before touching the queue.
    {
        Fixture small = makeFixture(4, false, 905);
        engine::ProofService service(ctx, 1);
        engine::SubmitOptions past;
        past.deadline = steady_clock::now() - milliseconds(1);
        engine::ProofResult r =
            service.submit({&small.keys.pk, &small.circuit, nullptr}, past)
                .get();
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.status, ProofStatus::DeadlineExpired);
        EXPECT_EQ(service.metrics().rejectedDeadline, 1u);
    }

    // Expires while queued behind a blocker: typed at lane pickup. The
    // expiring job runs at lower priority so the blocker's phases always
    // schedule ahead of it.
    {
        Fixture blocker = makeBlocker(906);
        Fixture small = makeFixture(4, false, 907);
        engine::ProofService service(ctx, 1);
        auto fb =
            service.submit({&blocker.keys.pk, &blocker.circuit, nullptr});
        engine::SubmitOptions tight;
        tight.priority = -1;
        tight.deadline = steady_clock::now() + milliseconds(1);
        auto fs =
            service.submit({&small.keys.pk, &small.circuit, nullptr}, tight);

        engine::ProofResult rs = fs.get();
        EXPECT_FALSE(rs.ok);
        EXPECT_EQ(rs.status, ProofStatus::DeadlineExpired);
        EXPECT_FALSE(rs.error.empty());
        ASSERT_TRUE(fb.get().ok);
        EXPECT_EQ(service.metrics().expiredDeadline, 1u);
    }
}

TEST(ProofServiceAdmission, PriorityBeatsArrivalOrder)
{
    Fixture blocker = makeBlocker(908);
    Fixture small = makeFixture(5, false, 909);

    engine::ProverContext ctx(sharedSrs(), {.threads = 1});
    engine::ProofService service(ctx, 1);

    // Occupy the lane, then stack three default-priority jobs and one
    // high-priority job behind it. The high one must finish while every
    // low one is still waiting — under FIFO it would finish last.
    auto fb = service.submit({&blocker.keys.pk, &blocker.circuit, nullptr});
    std::vector<std::future<engine::ProofResult>> lows;
    for (int i = 0; i < 3; ++i)
        lows.push_back(service.submit({&small.keys.pk, &small.circuit, nullptr}));
    engine::SubmitOptions hi;
    hi.priority = 10;
    auto fh = service.submit({&small.keys.pk, &small.circuit, nullptr}, hi);

    engine::ProofResult rh = fh.get();
    ASSERT_TRUE(rh.ok) << rh.error;
    for (auto &f : lows)
        EXPECT_EQ(f.wait_for(milliseconds(0)), std::future_status::timeout)
            << "a default-priority job finished before the high-priority one";

    EXPECT_EQ(proofBytes(rh.proof), small.reference);
    ASSERT_TRUE(fb.get().ok);
    for (auto &f : lows) {
        engine::ProofResult r = f.get();
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(proofBytes(r.proof), small.reference);
    }
}

TEST(ProofServiceLifecycle, DestructorDrainsQueuedJobs)
{
    Fixture small = makeFixture(5, true, 910);
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});

    std::vector<std::future<engine::ProofResult>> futures;
    {
        engine::ProofService service(ctx, 1);
        for (int i = 0; i < 4; ++i)
            futures.push_back(
                service.submit({&small.keys.pk, &small.circuit, nullptr}));
        // Destroyed with (up to) three jobs still queued: the drain must
        // finish them, not drop them.
    }
    for (auto &f : futures) {
        engine::ProofResult r = f.get();
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(proofBytes(r.proof), small.reference);
    }
}

TEST(ProofServiceLifecycle, SubmitShutdownRaceResolvesEveryFuture)
{
    // The regression this locks down: submit() racing the destructor used
    // to enqueue into a queue the lanes had already drained past, so the
    // promise was destroyed unfulfilled and future.get() threw
    // broken_promise. Now the stopping check under the queue lock resolves
    // the future with a typed ServiceStopping instead.
    //
    // Shape: a real job keeps the destructor inside its lane join for
    // milliseconds; the main thread submits malformed requests throughout
    // that window and stops at the first ServiceStopping it observes (which
    // arrives moments after ~ProofService sets the flag, while the drain
    // still has the blocker to finish). Every future must resolve.
    // The blocker proof (tens of ms serial) must dwarf the 2 ms submit
    // window below — that margin is what keeps the raw-pointer submits
    // inside the destructor's drain.
    Fixture blocker = makeFixture(5, true, 911);
    engine::ProverContext ctx(sharedSrs(), {.threads = 1});

    const int iterations = 150;
    for (int it = 0; it < iterations; ++it) {
        auto service =
            std::make_unique<engine::ProofService>(ctx, /*lanes=*/1);
        // Raw handle for the submit loop: the unique_ptr itself belongs to
        // the destroyer thread once it starts (reading it here would race).
        engine::ProofService *svc = service.get();
        auto fb = svc->submit({&blocker.keys.pk, &blocker.circuit, nullptr});

        std::thread destroyer([&] { service.reset(); });

        // Submits must stay inside the destructor's drain window (the lane
        // join blocks on the in-flight blocker, which far outlives this
        // bound), so stop early and stop at the first resolved future.
        std::vector<std::future<engine::ProofResult>> futures;
        const auto giveUp = steady_clock::now() + milliseconds(2);
        while (steady_clock::now() < giveUp) {
            futures.push_back(svc->submit({nullptr, nullptr, nullptr}));
            if (futures.back().wait_for(milliseconds(0)) ==
                std::future_status::ready) {
                break; // stopping was observed (or the lane raced us)
            }
        }
        destroyer.join();

        unsigned stopping = 0, bad = 0;
        for (auto &f : futures) {
            engine::ProofResult r = f.get(); // must never throw
            EXPECT_FALSE(r.ok);
            if (r.status == ProofStatus::ServiceStopping)
                ++stopping;
            else if (r.status == ProofStatus::BadRequest)
                ++bad;
            else
                ADD_FAILURE() << "unexpected status "
                              << int(r.status) << ": " << r.error;
        }
        (void)stopping;
        (void)bad;
        engine::ProofResult rb = fb.get();
        // The blocker either drained to completion or (if it was still
        // queued when stopping was set and its lane exited first) resolved
        // as stopping — both are fine; broken_promise is not.
        EXPECT_TRUE(rb.ok ||
                    rb.status == ProofStatus::ServiceStopping)
            << rb.error;
    }
}

TEST(ProofServiceBudget, LaneBudgetsSumToContextBudget)
{
    engine::ProverContext five(sharedSrs(), {.threads = 5});
    engine::ProofService uneven(five, 2);
    EXPECT_EQ(uneven.laneThreadBudget(), 2u); // the BASE of the split
    ASSERT_EQ(uneven.laneThreadBudgets().size(), 2u);
    EXPECT_EQ(uneven.laneThreadBudgets()[0], 3u); // remainder goes first
    EXPECT_EQ(uneven.laneThreadBudgets()[1], 2u);
    unsigned sum = 0;
    for (unsigned b : uneven.laneThreadBudgets())
        sum += b;
    EXPECT_EQ(sum, 5u);

    // Oversubscribed: every lane serial, no lane starved to zero.
    engine::ProverContext one(sharedSrs(), {.threads = 1});
    engine::ProofService oversub(one, 3);
    EXPECT_EQ(oversub.laneThreadBudget(), 1u);
    for (unsigned b : oversub.laneThreadBudgets())
        EXPECT_EQ(b, 1u);
}

TEST(ProofServiceSharding, ShardedProofBitIdenticalAcrossLaneCounts)
{
    // The tentpole determinism claim: one request sharded across idle lanes
    // serializes to exactly the single-lane (and one-shot legacy) bytes.
    Fixture vanilla = makeFixture(7, false, 912);
    Fixture jelly = makeFixture(6, true, 913);

    for (unsigned lanes : {1u, 2u, 4u}) {
        engine::ProverContext ctx(sharedSrs(), {.threads = 4});
        engine::ServiceOptions so;
        so.lanes = lanes;
        so.sharding = true;
        so.shardMinRows = 1; // force the decision for these small circuits
        engine::ProofService service(ctx, so);
        // Let every lane reach its idle state so the reservation scan can
        // actually see helpers.
        std::this_thread::sleep_for(milliseconds(10));

        for (const Fixture *fx : {&vanilla, &jelly}) {
            engine::ProofResult r =
                service.submit({&fx->keys.pk, &fx->circuit, nullptr}).get();
            ASSERT_TRUE(r.ok) << "lanes=" << lanes << ": " << r.error;
            EXPECT_EQ(proofBytes(r.proof), fx->reference)
                << "lanes=" << lanes;
            EXPECT_TRUE(verify(fx->keys.vk, r.proof).ok);
            if (lanes >= 2) {
                EXPECT_GE(r.shardLanes, 2u)
                    << "sharding never engaged at lanes=" << lanes;
            } else {
                EXPECT_EQ(r.shardLanes, 1u);
            }
        }
        engine::ServiceMetrics sm = service.metrics();
        if (lanes >= 2) {
            EXPECT_GT(sm.shardedPhases, 0u);
            EXPECT_GT(sm.shardHelperLanes, 0u);
        }
    }
}

TEST(ProofServiceSharding, ConcurrentMixStaysByteIdentical)
{
    // Sharding under contention: a burst of mixed jobs on 4 lanes, where
    // groups form and dissolve as the queue drains. Every proof must still
    // match its reference bytes regardless of which phases sharded.
    std::vector<Fixture> fleet;
    fleet.push_back(makeFixture(7, false, 914));
    fleet.push_back(makeFixture(4, true, 915));
    fleet.push_back(makeFixture(6, true, 916));
    fleet.push_back(makeFixture(5, false, 917));

    engine::ProverContext ctx(sharedSrs(), {.threads = 4});
    engine::ServiceOptions so;
    so.lanes = 4;
    so.sharding = true;
    so.shardMinRows = 1;
    engine::ProofService service(ctx, so);

    std::vector<std::future<engine::ProofResult>> futures;
    for (int round = 0; round < 3; ++round)
        for (const Fixture &fx : fleet)
            futures.push_back(
                service.submit({&fx.keys.pk, &fx.circuit, nullptr}));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        engine::ProofResult r = futures[i].get();
        ASSERT_TRUE(r.ok) << "job " << i << ": " << r.error;
        EXPECT_EQ(proofBytes(r.proof), fleet[i % fleet.size()].reference)
            << "job " << i;
    }
}

TEST(ProofServiceSharding, ShardingOffNeverReservesHelpers)
{
    Fixture fx = makeFixture(6, false, 918);
    engine::ProverContext ctx(sharedSrs(), {.threads = 4});
    engine::ServiceOptions so;
    so.lanes = 4;
    so.sharding = false;
    engine::ProofService service(ctx, so);
    std::this_thread::sleep_for(milliseconds(5));
    engine::ProofResult r =
        service.submit({&fx.keys.pk, &fx.circuit, nullptr}).get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.shardLanes, 1u);
    EXPECT_EQ(proofBytes(r.proof), fx.reference);
    EXPECT_EQ(service.metrics().shardedPhases, 0u);
}

TEST(ProofServiceConfig, HotSwapDuringTrafficIsRaceFreeAndDeterministic)
{
    // ProverContext::setConfig used to race the lanes' per-job config read;
    // under -DZKPHIRE_TSAN this test is the regression for the synchronized
    // snapshot. Determinism must also hold: minGrain changes how work is
    // chunked, never what bytes come out.
    Fixture fx = makeFixture(6, true, 919);
    engine::ProverContext ctx(sharedSrs(), {.threads = 2});
    engine::ProofService service(ctx, 2);

    std::atomic<bool> stop{false};
    std::thread swapper([&] {
        std::size_t grain = 1;
        while (!stop.load(std::memory_order_relaxed)) {
            ctx.setConfig({.threads = 2, .minGrain = grain});
            grain = grain >= 4096 ? 1 : grain * 2;
        }
    });

    std::vector<std::future<engine::ProofResult>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(service.submit({&fx.keys.pk, &fx.circuit, nullptr}));
    for (auto &f : futures) {
        engine::ProofResult r = f.get();
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(proofBytes(r.proof), fx.reference);
    }
    stop.store(true);
    swapper.join();
}

TEST(ProofServiceMetrics, SnapshotIsConsistentAfterQuiesce)
{
    Fixture fx = makeFixture(5, false, 920);
    engine::ProverContext ctx(sharedSrs(), {.threads = 2});
    engine::ProofService service(ctx, 2);

    std::vector<engine::ProofRequest> reqs(
        6, {&fx.keys.pk, &fx.circuit, nullptr});
    auto results = service.proveAll(reqs);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;

    engine::ServiceMetrics sm = service.metrics();
    EXPECT_EQ(sm.submitted, 6u);
    EXPECT_EQ(sm.accepted, 6u);
    EXPECT_EQ(sm.completed, 6u);
    EXPECT_EQ(sm.failed, 0u);
    EXPECT_EQ(sm.rejectedQueueFull + sm.rejectedDeadline +
                  sm.rejectedStopping + sm.expiredDeadline,
              0u);
    EXPECT_EQ(sm.queueDepth, 0u);
    EXPECT_EQ(sm.inFlight, 0u);
    // Each proof passes through both phases exactly once.
    EXPECT_EQ(sm.setupMs.count(), 6u);
    EXPECT_EQ(sm.onlineMs.count(), 6u);
    EXPECT_EQ(sm.queueWaitMs.count(), 12u); // one wait per phase
    EXPECT_EQ(sm.totalMs.count(), 6u);
    EXPECT_GT(sm.totalMs.maxMs(), 0.0);
    EXPECT_LE(sm.totalMs.quantileMs(0.5), sm.totalMs.quantileMs(0.99));
    EXPECT_GT(sm.uptimeMs, 0.0);
    EXPECT_GT(sm.proofsPerSec, 0.0);

    // Failure counting: a malformed request lands in failed, not completed.
    engine::ProofResult bad = service.submit({nullptr, nullptr, nullptr}).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.status, ProofStatus::BadRequest);
    EXPECT_EQ(service.metrics().failed, 1u);
}
