/**
 * @file
 * GatePlan property tests: the compiled evaluation plan must be
 * bit-identical to the naive GateExpr walk at every evaluation site and
 * every thread count, for every Table I gate — and its multiplication
 * counts must agree with the hardware scheduler's cost model through the
 * shared decomposition (buildScheduleFromPlan).
 */
#include <gtest/gtest.h>

#include "ff/mul_asm_x86.hpp"
#include "gates/gate_library.hpp"
#include "poly/gate_plan.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"
#include "sim/sumcheck_sched.hpp"
#include "sumcheck/prover.hpp"
#include "sumcheck/verifier.hpp"
#include "sumcheck/zerocheck.hpp"
#include "sumcheck_oracle.hpp"

using namespace zkphire;
using poly::GateExpr;
using poly::GatePlan;
using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;
using ff::Fr;
using ff::Rng;

namespace {

/** All Table I gates plus a few sweep-family members (deg 3..10). */
std::vector<gates::Gate>
allTestGates()
{
    std::vector<gates::Gate> out = gates::tableIGates();
    for (unsigned d = 2; d <= 9; ++d)
        out.push_back(gates::sweepGate(d));
    return out;
}

/** Random expression with repeated factors and non-unit coefficients. */
GateExpr
randomExpr(Rng &rng, unsigned num_slots, unsigned num_terms,
           unsigned max_term_degree)
{
    GateExpr expr("random");
    for (unsigned s = 0; s < num_slots; ++s)
        expr.addSlot("s" + std::to_string(s));
    for (unsigned t = 0; t < num_terms; ++t) {
        unsigned deg = 1 + unsigned(rng.nextBelow(max_term_degree));
        std::vector<SlotId> factors;
        for (unsigned f = 0; f < deg; ++f)
            factors.push_back(SlotId(rng.nextBelow(num_slots)));
        expr.addTerm(Fr::random(rng), std::move(factors));
    }
    return expr;
}

void
expectProofsIdentical(const sumcheck::ProverOutput &a,
                      const sumcheck::ProverOutput &b, const char *what)
{
    EXPECT_EQ(a.proof.claimedSum, b.proof.claimedSum) << what;
    ASSERT_EQ(a.proof.roundEvals.size(), b.proof.roundEvals.size()) << what;
    for (std::size_t r = 0; r < a.proof.roundEvals.size(); ++r)
        EXPECT_EQ(a.proof.roundEvals[r], b.proof.roundEvals[r])
            << what << " round " << r;
    EXPECT_EQ(a.proof.finalSlotEvals, b.proof.finalSlotEvals) << what;
    EXPECT_EQ(a.challenges, b.challenges) << what;
}

} // namespace

TEST(GatePlan, EvaluateMatchesNaiveOnAllGates)
{
    Rng rng(101);
    for (const gates::Gate &gate : allTestGates()) {
        GatePlan plan = GatePlan::compile(gate.expr);
        std::vector<Fr> slot_vals(gate.expr.numSlots());
        for (int rep = 0; rep < 4; ++rep) {
            for (auto &v : slot_vals)
                v = Fr::random(rng);
            EXPECT_EQ(plan.evaluate(slot_vals), gate.expr.evaluate(slot_vals))
                << gate.name;
        }
    }
}

TEST(GatePlan, MulCountsAndExtensionBounds)
{
    for (const gates::Gate &gate : allTestGates()) {
        GatePlan plan = GatePlan::compile(gate.expr);
        EXPECT_EQ(plan.degree(), gate.expr.degree()) << gate.name;
        // The plan never does more work than the naive walk...
        EXPECT_LE(plan.mulsPerPoint(), gate.expr.mulsPerPoint()) << gate.name;
        EXPECT_LE(plan.mulsPerPair(), plan.naiveMulsPerPair(gate.expr))
            << gate.name;
        // ...and each slot's extension bound never exceeds the composite
        // degree's point count.
        for (SlotId s = 0; s < gate.expr.numSlots(); ++s)
            EXPECT_LE(plan.slotPoints(s), plan.degree() + 1) << gate.name;
    }

    // Repeated factors and per-term degrees must yield real savings on the
    // paper's high-degree gates: Jellyfish ZeroCheck (row 22, four w^5
    // S-box terms, composite degree 7).
    gates::Gate jf = gates::tableIGate(22);
    GatePlan plan = GatePlan::compile(jf.expr);
    EXPECT_LT(plan.mulsPerPoint(), jf.expr.mulsPerPoint());
    EXPECT_LT(plan.mulsPerPair(), plan.naiveMulsPerPair(jf.expr));
    // Selectors feeding only degree-3 terms must not extend to all 8 nodes.
    bool some_slot_below_max = false;
    for (SlotId s = 0; s < jf.expr.numSlots(); ++s)
        if (plan.slotPoints(s) > 0 && plan.slotPoints(s) < plan.degree() + 1)
            some_slot_below_max = true;
    EXPECT_TRUE(some_slot_below_max);
}

TEST(GatePlan, ProofsBitIdenticalToNaiveAtEveryThreadCount)
{
    Rng rng(202);
    const unsigned mu = 5;
    for (const gates::Gate &gate : allTestGates()) {
        auto tables = gate.randomTables(mu, rng);

        hash::Transcript tr_naive("plan-equiv");
        auto ref = oracle::naiveProve(gate.expr, tables, tr_naive);
        for (unsigned threads : {1u, 2u, 4u}) {
            hash::Transcript tr("plan-equiv");
            auto out = sumcheck::prove(VirtualPoly(gate.expr, tables), tr,
                                       rt::Config{.threads = threads});
            expectProofsIdentical(ref, out, gate.name.c_str());
        }
    }
}

TEST(GatePlan, ProofsBitIdenticalOnRandomExpressions)
{
    Rng rng(303);
    const unsigned mu = 6;
    for (int rep = 0; rep < 8; ++rep) {
        unsigned num_slots = 2 + unsigned(rng.nextBelow(5));
        unsigned num_terms = 1 + unsigned(rng.nextBelow(6));
        unsigned max_deg = 1 + unsigned(rng.nextBelow(7));
        GateExpr expr = randomExpr(rng, num_slots, num_terms, max_deg);
        std::vector<Mle> tables;
        for (unsigned s = 0; s < num_slots; ++s)
            tables.push_back(Mle::random(mu, rng));

        hash::Transcript tr_naive("plan-equiv-rand");
        auto ref = oracle::naiveProve(expr, tables, tr_naive);
        // The block loop on the IFMA lanes and on eight scalar elements
        // (skipping nothing: off IFMA hosts both runs take the scalar
        // backend); streamed tables take the fused fold every round.
        for (const bool lanes : {false, true}) {
            ff::kernels::ScopedAsmKernels asm_scope(lanes);
            for (const bool streamed : {false, true}) {
                for (unsigned threads : {1u, 3u}) {
                    rt::Config cfg{.threads = threads};
                    if (streamed) {
                        cfg.streamThreshold = 1;
                        cfg.streamChunk = 16;
                    }
                    rt::ScopedConfig scope(cfg);
                    hash::Transcript tr("plan-equiv-rand");
                    auto out = sumcheck::prove(VirtualPoly(expr, tables), tr);
                    expectProofsIdentical(ref, out, "random expr");
                }
            }
        }
        // And the proofs still verify.
        hash::Transcript tr_v("plan-equiv-rand");
        auto res = sumcheck::verify(expr, ref.proof, mu, tr_v);
        EXPECT_TRUE(res.ok) << res.error;
    }
}

TEST(GatePlan, BlockLoopIdenticalOnBothBackendsAndFused)
{
    // accumulatePairs over pair ranges that leave every short last block,
    // on the IFMA lanes and on eight scalar elements; foldAccumulatePairs
    // against a separate fold followed by accumulatePairs.
    Rng rng(404);
    for (int rep = 0; rep < 6; ++rep) {
        const unsigned num_slots = 2 + unsigned(rng.nextBelow(5));
        GateExpr expr = randomExpr(rng, num_slots,
                                   1 + unsigned(rng.nextBelow(6)),
                                   1 + unsigned(rng.nextBelow(7)));
        expr.addTerm(Fr::fromU64(3), {}); // a constant term counts pairs
        const poly::GatePlan plan = poly::GatePlan::compile(expr);
        std::vector<Mle> tables;
        for (unsigned s = 0; s < num_slots; ++s)
            tables.push_back(Mle::random(6, rng));
        const Fr r = Fr::random(rng);
        for (const std::size_t begin : {0u, 3u}) {
            for (std::size_t end = begin; end <= 16; ++end) {
                std::vector<Fr> scalar(plan.accSize()), lanes = scalar;
                {
                    ff::kernels::ScopedAsmKernels off(false);
                    plan.accumulatePairs(tables, begin, end, scalar);
                }
                {
                    ff::kernels::ScopedAsmKernels on(true);
                    plan.accumulatePairs(tables, begin, end, lanes);
                }
                EXPECT_EQ(lanes, scalar) << "pairs [" << begin << ", "
                                         << end << ")";

                // Fused: fold [4*begin, 4*end) of each table, accumulate.
                std::vector<Mle> folded;
                std::vector<std::vector<Fr>> fusedOut;
                std::vector<const Fr *> src;
                std::vector<Fr *> dst;
                for (const Mle &t : tables) {
                    folded.push_back(t.fixFirstVar(r));
                    fusedOut.emplace_back(t.size() / 2, Fr::zero());
                    src.push_back(t.data());
                    dst.push_back(fusedOut.back().data());
                }
                std::vector<Fr> want(plan.accSize()), got = want;
                plan.accumulatePairs(folded, begin, end, want);
                plan.foldAccumulatePairs(src.data(), dst.data(), r, begin,
                                         end, got);
                EXPECT_EQ(got, want) << "fused [" << begin << ", " << end
                                     << ")";
                for (std::size_t s = 0; s < tables.size(); ++s)
                    for (std::size_t i = 2 * begin; i < 2 * end; ++i)
                        EXPECT_EQ(fusedOut[s][i], folded[s][i])
                            << "slot " << s << ", entry " << i;
            }
        }
    }
}

TEST(GatePlan, HypercubeSumAndIndexEvalMatchNaive)
{
    Rng rng(404);
    const unsigned mu = 4;
    for (int id : {0, 1, 9, 20, 22, 24}) {
        gates::Gate gate = gates::tableIGate(id);
        auto tables = gate.randomTables(mu, rng);
        VirtualPoly vp(gate.expr, tables);

        Fr naive_sum = Fr::zero();
        std::vector<Fr> slot_vals(tables.size());
        for (std::size_t i = 0; i < (std::size_t(1) << mu); ++i) {
            for (std::size_t s = 0; s < tables.size(); ++s)
                slot_vals[s] = tables[s][i];
            Fr v = gate.expr.evaluate(slot_vals);
            EXPECT_EQ(vp.evalAtIndex(i), v) << gate.name;
            naive_sum += v;
        }
        EXPECT_EQ(vp.sumOverHypercube(), naive_sum) << gate.name;
    }
}

TEST(GatePlan, ZeroCheckCachedPlanTranscriptIdentical)
{
    Rng rng(505);
    const unsigned mu = 5;
    // Satisfiable vanilla rows: qL=qR=qM=qO=0 except qC=0 -> all-zero gate.
    // Use the OpenCheck expression instead: build random tables that sum to
    // zero is fiddly, so compare the two proveZero paths on a constraint a
    // random witness *does* satisfy: expr = q * (a - a) == 0 for any a.
    GateExpr expr("always-zero");
    SlotId q = expr.addSlot("q");
    SlotId a = expr.addSlot("a");
    expr.addTerm({q, a});
    expr.addTerm(Fr::one().neg(), {q, a});
    std::vector<Mle> tables;
    tables.push_back(Mle::random(mu, rng));
    tables.push_back(Mle::random(mu, rng));

    gates::PlanCache cache;
    hash::Transcript tr1("zc-plan");
    auto out1 = sumcheck::proveZero(expr, tables, tr1,
                                    rt::Config{.threads = 1}, nullptr);
    hash::Transcript tr2("zc-plan");
    auto out2 = sumcheck::proveZero(expr, tables, tr2,
                                    rt::Config{.threads = 2},
                                    cache.maskedPlan(expr));
    EXPECT_EQ(out1.proof.sc.claimedSum, out2.proof.sc.claimedSum);
    EXPECT_EQ(out1.proof.sc.roundEvals, out2.proof.sc.roundEvals);
    EXPECT_EQ(out1.proof.sc.finalSlotEvals, out2.proof.sc.finalSlotEvals);
    EXPECT_EQ(out1.challenges, out2.challenges);
    EXPECT_EQ(out1.rVec, out2.rVec);

    // Cache hit returns the same compiled object.
    EXPECT_EQ(cache.maskedPlan(expr).get(), cache.maskedPlan(expr).get());
}

TEST(GatePlan, CacheKeysOnStructureNotSlotNames)
{
    // Same name, same (duplicate) slot names, different term structure:
    // the cache must hand back distinct plans.
    GateExpr a("dup");
    SlotId a0 = a.addSlot("w");
    SlotId a1 = a.addSlot("w");
    a.addTerm({a0, a1}); // w0 * w1
    GateExpr b("dup");
    SlotId b0 = b.addSlot("w");
    b.addSlot("w");
    b.addTerm({b0, b0}); // w0^2
    ASSERT_EQ(a.toString(), b.toString()); // names really do collide
    gates::PlanCache cache;
    auto plan_a = cache.plan(a);
    auto plan_b = cache.plan(b);
    EXPECT_NE(plan_a.get(), plan_b.get());
    EXPECT_EQ(cache.size(), 2u);

    Rng rng(606);
    std::vector<Fr> vals{Fr::random(rng), Fr::random(rng)};
    EXPECT_EQ(plan_a->evaluate(vals), vals[0] * vals[1]);
    EXPECT_EQ(plan_b->evaluate(vals), vals[0] * vals[0]);
}

TEST(GatePlan, CrossCheckAgainstSchedulerCostModel)
{
    // One decomposition, two consumers: the plan's per-point product-mul
    // count must equal what the cost model charges for the plan-derived
    // schedule — at the paper's (E, P) and under forced chaining (small E).
    for (const gates::Gate &gate : allTestGates()) {
        GatePlan plan = GatePlan::compile(gate.expr);
        for (unsigned num_ees : {7u, 3u, 2u}) {
            sim::Schedule sched =
                sim::buildScheduleFromPlan(plan, num_ees, 5);
            EXPECT_TRUE(sim::crossCheckPlanSchedule(plan, sched))
                << gate.name << " E=" << num_ees << ": plan "
                << plan.productMulsPerPoint() << " muls vs schedule "
                << sim::scheduleMulsPerPoint(sched);
        }
    }
}

TEST(GatePlan, NaiveScheduleCostMatchesTermDegrees)
{
    // The legacy term-chain schedule must keep charging the naive count
    // Sum_t (degree_t - 1) — Table I's gate costs, now asserted against the
    // same helper the plan cross-check uses.
    for (const gates::Gate &gate : allTestGates()) {
        sim::PolyShape shape = sim::PolyShape::fromGate(gate);
        std::size_t naive_muls = 0;
        for (std::size_t t = 0; t < shape.numTerms(); ++t)
            naive_muls += shape.termDegree(t) - 1;
        sim::Schedule sched = sim::buildSchedule(shape, 7, 5);
        EXPECT_EQ(sim::scheduleMulsPerPoint(sched), naive_muls) << gate.name;

        // The shared decomposition never charges more than the naive one.
        GatePlan plan = GatePlan::compile(gate.expr);
        EXPECT_LE(plan.productMulsPerPoint(), naive_muls) << gate.name;
    }
}

TEST(GatePlan, PlanScheduleTmpBuffersBounded)
{
    // Plan-derived schedules route shared values through Tmp MLEs; the
    // peak must stay small for the library gates (the hardware has a
    // bounded buffer pool) and zero when nothing is shared or split.
    gates::Gate vanilla = gates::vanillaCoreGate();
    GatePlan plan = GatePlan::compile(vanilla.expr);
    sim::Schedule sched = sim::buildScheduleFromPlan(plan, 7, 5);
    EXPECT_EQ(sched.tmpBuffers, 0u);

    for (const gates::Gate &gate : allTestGates()) {
        GatePlan p = GatePlan::compile(gate.expr);
        for (unsigned num_ees : {7u, 2u}) {
            sim::Schedule s = sim::buildScheduleFromPlan(p, num_ees, 5);
            EXPECT_LE(s.tmpBuffers, 8u) << gate.name << " E=" << num_ees;
        }
    }
}
