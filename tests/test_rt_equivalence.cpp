/**
 * @file
 * Serial-vs-parallel equivalence property tests: every kernel the zkphire::rt
 * pool parallelizes (SumCheck rounds, MLE folds, batch inversion, Pippenger
 * MSM) must produce bit-identical field/curve outputs at 1, 2, and N threads.
 * Thread counts are pinned per run with rt::ScopedThreads / the kernels'
 * explicit `threads` parameters, so the tests are independent of
 * ZKPHIRE_THREADS and of the host's core count.
 */
#include <gtest/gtest.h>

#include <vector>

#include "ec/msm.hpp"
#include "ff/batch_inverse.hpp"
#include "gates/gate_library.hpp"
#include "hash/transcript.hpp"
#include "poly/mle.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"
#include "sumcheck/prover.hpp"

using namespace zkphire;
using ff::Fr;
using ff::Rng;

namespace {

constexpr unsigned kThreadCounts[] = {2, 4, 7};

void
expectProofsIdentical(const sumcheck::ProverOutput &a,
                      const sumcheck::ProverOutput &b)
{
    EXPECT_EQ(a.proof.claimedSum, b.proof.claimedSum);
    ASSERT_EQ(a.proof.roundEvals.size(), b.proof.roundEvals.size());
    for (std::size_t r = 0; r < a.proof.roundEvals.size(); ++r) {
        ASSERT_EQ(a.proof.roundEvals[r].size(), b.proof.roundEvals[r].size());
        for (std::size_t e = 0; e < a.proof.roundEvals[r].size(); ++e)
            EXPECT_EQ(a.proof.roundEvals[r][e], b.proof.roundEvals[r][e])
                << "round " << r << " eval " << e;
    }
    ASSERT_EQ(a.proof.finalSlotEvals.size(), b.proof.finalSlotEvals.size());
    for (std::size_t s = 0; s < a.proof.finalSlotEvals.size(); ++s)
        EXPECT_EQ(a.proof.finalSlotEvals[s], b.proof.finalSlotEvals[s]);
    ASSERT_EQ(a.challenges.size(), b.challenges.size());
    for (std::size_t r = 0; r < a.challenges.size(); ++r)
        EXPECT_EQ(a.challenges[r], b.challenges[r]);
}

} // namespace

TEST(RtEquivalence, SumcheckProofTranscriptIdenticalAcrossThreads)
{
    // Randomized rounds: several gates and sizes, all compared to the
    // 1-thread (serial) proof. Identical round evals force identical
    // Fiat-Shamir challenges, i.e. the whole transcript matches.
    for (int gate_id : {1, 20, 22}) {
        for (unsigned mu : {5u, 11u}) {
            Rng rng(100 + unsigned(gate_id) + mu);
            gates::Gate gate = gates::tableIGate(gate_id);
            auto tables = gate.randomTables(mu, rng);

            hash::Transcript tr_serial("rt-eq");
            auto serial =
                sumcheck::prove(poly::VirtualPoly(gate.expr, tables),
                                tr_serial, rt::Config{.threads = 1});

            for (unsigned threads : kThreadCounts) {
                hash::Transcript tr_par("rt-eq");
                auto par = sumcheck::prove(
                    poly::VirtualPoly(gate.expr, tables), tr_par,
                    rt::Config{.threads = threads});
                expectProofsIdentical(serial, par);
            }
        }
    }
}

TEST(RtEquivalence, MleFoldIdenticalAcrossThreads)
{
    Rng rng(7);
    const unsigned mu = 12; // large enough to cross the parallel threshold
    poly::Mle m = poly::Mle::random(mu, rng);

    for (int round = 0; round < 3; ++round) {
        Fr r = Fr::random(rng);
        poly::Mle serial = m;
        {
            rt::ScopedThreads one(1);
            serial.fixFirstVarInPlace(r);
        }
        for (unsigned threads : kThreadCounts) {
            poly::Mle par = m;
            {
                rt::ScopedThreads t(threads);
                par.fixFirstVarInPlace(r);
            }
            ASSERT_EQ(par.size(), serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i)
                ASSERT_EQ(par[i], serial[i]) << "round " << round << " i=" << i;
        }
        m = serial; // fold further so later rounds test smaller tables too
    }
}

TEST(RtEquivalence, VirtualPolySumAndFoldIdenticalAcrossThreads)
{
    Rng rng(8);
    gates::Gate gate = gates::vanillaCoreGate();
    auto tables = gate.randomTables(11, rng);
    Fr r = Fr::random(rng);

    poly::VirtualPoly serial_vp(gate.expr, tables);
    Fr serial_sum;
    {
        rt::ScopedThreads one(1);
        serial_sum = serial_vp.sumOverHypercube();
        serial_vp.fixFirstVarInPlace(r);
    }
    for (unsigned threads : kThreadCounts) {
        poly::VirtualPoly par_vp(gate.expr, tables);
        rt::ScopedThreads t(threads);
        EXPECT_EQ(par_vp.sumOverHypercube(), serial_sum);
        par_vp.fixFirstVarInPlace(r);
        for (std::size_t s = 0; s < par_vp.numSlots(); ++s) {
            const poly::Mle &a = par_vp.table(poly::SlotId(s));
            const poly::Mle &b = serial_vp.table(poly::SlotId(s));
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i)
                ASSERT_EQ(a[i], b[i]) << "slot " << s << " i=" << i;
        }
    }
}

TEST(RtEquivalence, BatchInverseIdenticalAcrossThreads)
{
    Rng rng(9);
    // Cross the parallel threshold (2048) and use a ragged size so the last
    // chunk is short.
    const std::size_t n = 5000;
    std::vector<Fr> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Fr x = Fr::random(rng);
        while (x.isZero())
            x = Fr::random(rng);
        xs.push_back(x);
    }

    std::vector<Fr> serial = xs;
    {
        rt::ScopedThreads one(1);
        ff::batchInverseInPlace(std::span<Fr>(serial));
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE((serial[i] * xs[i]).isOne()) << "serial inverse wrong";

    for (unsigned threads : kThreadCounts) {
        std::vector<Fr> par = xs;
        {
            rt::ScopedThreads t(threads);
            ff::batchInverseInPlace(std::span<Fr>(par));
        }
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(par[i], serial[i]) << "i=" << i;
    }
}

TEST(RtEquivalence, MsmPippengerBitIdenticalAcrossThreads)
{
    // 256 and 512 points are small MSMs whose windows reduce in groups, one
    // round-synchronized group per worker; 1024 points reduce one window
    // per call on several threads.
    for (const std::size_t n : {256u, 512u, 1024u}) {
        Rng rng(10 + n);
        std::vector<Fr> scalars;
        std::vector<ec::G1Affine> points;
        for (std::size_t i = 0; i < n; ++i) {
            // Mix of zero / one / dense scalars exercises the sparse fast
            // path.
            if (i % 11 == 0)
                scalars.push_back(Fr::zero());
            else if (i % 7 == 0)
                scalars.push_back(Fr::one());
            else
                scalars.push_back(Fr::random(rng));
            points.push_back(ec::randomG1(rng));
        }

        const auto msmAt = [&](unsigned threads) {
            rt::ScopedConfig scope(rt::Config{.threads = threads});
            return ec::msmPippenger(scalars, points);
        };
        ec::G1Jacobian serial = msmAt(1);
        for (unsigned threads : kThreadCounts) {
            ec::G1Jacobian par = msmAt(threads);
            // Stronger than curve-point equality: the window fold replays
            // the serial operation order, so raw Jacobian coordinates must
            // match.
            EXPECT_EQ(par.X, serial.X) << "n = " << n;
            EXPECT_EQ(par.Y, serial.Y) << "n = " << n;
            EXPECT_EQ(par.Z, serial.Z) << "n = " << n;
        }

        // Stats must also be independent of the thread count.
        ec::MsmStats s1, s4;
        {
            rt::ScopedThreads one(1);
            ec::msmPippenger(scalars, points, {}, &s1);
        }
        {
            rt::ScopedThreads four(4);
            ec::msmPippenger(scalars, points, {}, &s4);
        }
        EXPECT_EQ(s1.pointAdds, s4.pointAdds) << "n = " << n;
        EXPECT_EQ(s1.pointDoubles, s4.pointDoubles) << "n = " << n;
        EXPECT_EQ(s1.affineAdds, s4.affineAdds) << "n = " << n;
        EXPECT_EQ(s1.trivialScalars, s4.trivialScalars) << "n = " << n;
        EXPECT_EQ(s1.denseScalars, s4.denseScalars) << "n = " << n;
    }
}

TEST(RtEquivalence, EqTableIdenticalAcrossThreads)
{
    Rng rng(11);
    std::vector<Fr> point;
    for (int i = 0; i < 13; ++i)
        point.push_back(Fr::random(rng));

    poly::Mle serial = [&] {
        rt::ScopedThreads one(1);
        return poly::Mle::eqTable(point);
    }();
    for (unsigned threads : kThreadCounts) {
        rt::ScopedThreads t(threads);
        poly::Mle par = poly::Mle::eqTable(point);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(par[i], serial[i]) << "i=" << i;
    }
}
