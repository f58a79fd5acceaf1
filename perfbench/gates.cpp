/**
 * @file
 * The gate set of traced vanilla-prove-mu14 runs: the paper's CPU SumCheck
 * baseline across gate types (Fig. 6/7) at mu = 17. One pass runs
 * sumcheck::prove on one thread over four gates; tables are copied and
 * plans lowered outside the timed region.
 *
 *   jf_zerocheck  Table I row 22, Jellyfish ZeroCheck (degree 7, 19 slots)
 *   cadd6         Table I row 13, Complete Addition 6 (degree 6, 8 slots)
 *   sweep_d15     §VI-A2 sweep gate d = 15 times f_r (degree 17, 7 slots)
 *   opencheck     Table I row 24, OpenCheck (degree 2, 12 slots)
 *
 * OpenCheck is memory-bound and the sweep row multiply-bound, so a change
 * that trades one for the other shows in the per-gate spans. The set is
 * measured in traced runs only: its passes spread by a quarter of their
 * median between runs of the same code, too far to gate.
 */
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "gates/gate_library.hpp"
#include "poly/gate_plan.hpp"
#include "poly/virtual_poly.hpp"
#include "sumcheck/prover.hpp"
#include "sumcheck/verifier.hpp"

namespace perfbench {
namespace {

using namespace zkphire;
using poly::Mle;

constexpr const char *kTranscript = "perfbench-sumcheck";
/** Keeps the gate tables' stream apart from the circuit's. */
constexpr std::uint64_t kGateSalt = 0x5eed5a1700000003ull;
/** Traced passes; each per-gate value is their median. */
constexpr int kTracedPasses = 3;

struct GateCase {
    std::string key;
    poly::GateExpr expr;
    std::vector<Mle> tables;
    std::shared_ptr<const poly::GatePlan> plan;
    /** The warm-up pass's proof; every later pass must equal it. */
    sumcheck::SumcheckProof reference;
};

std::vector<GateCase>
makeGates(unsigned mu, ff::Rng &rng)
{
    std::vector<GateCase> cases;
    auto row = [&](const char *key, int id) {
        gates::Gate gate = gates::tableIGate(id);
        cases.push_back({key, gate.expr, gate.randomTables(mu, rng), nullptr,
                         {}});
    };
    row("jf_zerocheck", 22);
    row("cadd6", 13);
    gates::Gate sweep = gates::sweepGate(15);
    poly::SlotId fr = 0;
    cases.push_back({"sweep_d15", sweep.expr.multipliedBySlot("f_r", &fr),
                     sweep.randomTables(mu, rng), nullptr, {}});
    cases.back().tables.push_back(Mle::random(mu, rng));
    row("opencheck", 24);
    return cases;
}

bool
sameProof(const sumcheck::SumcheckProof &a, const sumcheck::SumcheckProof &b)
{
    return a.claimedSum == b.claimedSum && a.roundEvals == b.roundEvals &&
           a.finalSlotEvals == b.finalSlotEvals;
}

/** One gate-set pass; only the prove calls are inside spans. */
std::vector<sumcheck::ProverOutput>
runPass(const std::vector<GateCase> &cases, Tracer &tracer)
{
    std::vector<sumcheck::ProverOutput> outputs;
    for (const GateCase &c : cases) {
        const std::string span = "sumcheck." + c.key + ".prove";
        poly::VirtualPoly vp(c.expr, c.tables, c.plan);
        hash::Transcript tr(kTranscript);
        Tracer::Scope s(tracer, span);
        outputs.push_back(sumcheck::prove(std::move(vp), tr));
    }
    return outputs;
}

/** sumcheck::verify, plus equality with the warm-up proof; the warm-up
 *  pass instead checks its final slot evaluations against the tables. */
bool
passHolds(const GateCase &c, const sumcheck::ProverOutput &o, unsigned mu,
          bool warmUp)
{
    hash::Transcript tr(kTranscript);
    if (!sumcheck::verify(c.expr, o.proof, mu, tr).ok)
        return false;
    if (!warmUp)
        return sameProof(o.proof, c.reference);
    for (std::size_t s = 0; s < c.tables.size(); ++s)
        if (c.tables[s].evaluate(o.challenges) != o.proof.finalSlotEvals[s])
            return false;
    return true;
}

/**
 * Round-0 probes of one gate: GatePlan::accumulatePairs over every pair of
 * round 0 and the first VirtualPoly::fixFirstVarInPlace, each in a span.
 * The accumulated round message must equal the proof's round 0.
 */
bool
probeRound0(const GateCase &c, const sumcheck::ProverOutput &o,
            Tracer &tracer)
{
    std::vector<Mle> tables = c.tables;
    std::vector<ff::Fr> acc(c.plan->accSize());
    std::vector<ff::Fr> scratch;
    {
        Tracer::Scope s(tracer, "poly." + c.key + ".round0_eval");
        c.plan->accumulatePairs(tables, 0, tables[0].size() / 2, acc,
                                scratch);
    }
    poly::VirtualPoly vp(c.expr, std::move(tables), c.plan);
    {
        Tracer::Scope s(tracer, "poly." + c.key + ".round0_fold");
        vp.fixFirstVarInPlace(o.challenges[0]);
    }
    return c.plan->finalizeRoundEvals(acc) == o.proof.roundEvals[0];
}

} // namespace

void
addGateSetLayers(const Options &opt, Tracer &tracer, std::uint64_t firstOp,
                 Outcome &out)
{
    const unsigned mu = opt.quick ? 10 : 17;
    ff::Rng rng(opt.seed ^ kGateSalt);
    std::vector<GateCase> cases = makeGates(mu, rng);
    for (GateCase &c : cases)
        c.plan = std::make_shared<const poly::GatePlan>(
            poly::GatePlan::compile(c.expr));

    // Untimed warm-up pass, checked against the tables themselves.
    Tracer untraced(false);
    const auto warm = runPass(cases, untraced);
    for (std::size_t g = 0; g < cases.size(); ++g) {
        out.check(passHolds(cases[g], warm[g], mu, true),
                  cases[g].key + " warm-up pass verifies against tables");
        cases[g].reference = warm[g].proof;
    }

    std::vector<std::uint64_t> ops;
    for (int pass = 0; pass < kTracedPasses; ++pass) {
        const std::uint64_t op = firstOp + std::uint64_t(pass);
        tracer.setOp(op);
        ops.push_back(op);
        const auto traced = runPass(cases, tracer);
        for (std::size_t g = 0; g < cases.size(); ++g)
            out.check(passHolds(cases[g], traced[g], mu, false) &&
                          probeRound0(cases[g], traced[g], tracer),
                      cases[g].key + " traced pass and round-0 probes");
        tracer.setOp(0);
    }

    const auto self = medianSelfMs(tracer, ops);
    auto selfOf = [&](const std::string &name) { return spanMs(self, name); };
    out.note("gate_set_mu", std::to_string(mu));
    out.report.push_back(format("SumCheck gate set, mu = %u, %zu traced "
                                "pass(es), one thread:",
                                mu, ops.size()));
    out.report.push_back(format("  %-13s %3s %5s %10s %10s %10s %9s %8s",
                                "gate", "deg", "slots", "prove_ms",
                                "r0eval_ms", "r0fold_ms", "Gmul/s", "GB/s"));
    for (const GateCase &c : cases) {
        // Computed counts: every round runs the plan's multiplications and
        // folds each slot once per pair, reading two entries and writing
        // one per slot and pair.
        const double slots = double(c.tables.size());
        double muls = 0, bytes = 0;
        for (unsigned i = 0; i < mu; ++i) {
            const double pairs = double(std::size_t(1) << (mu - 1 - i));
            muls += pairs * (double(c.plan->mulsPerPair()) + slots);
            bytes += pairs * slots * 3 * sizeof(ff::Fr);
        }
        const double proveMs = selfOf("sumcheck." + c.key + ".prove");
        out.add("sumcheck." + c.key + ".prove_ms", proveMs, "ms");
        out.add("poly." + c.key + ".round0_eval_ms",
                selfOf("poly." + c.key + ".round0_eval"), "ms");
        out.add("poly." + c.key + ".round0_fold_ms",
                selfOf("poly." + c.key + ".round0_fold"), "ms");
        out.add("sumcheck." + c.key + ".field_muls", muls, "count");
        out.add("sumcheck." + c.key + ".bytes_moved", bytes, "bytes");
        out.report.push_back(format(
            "  %-13s %3zu %5zu %10.1f %10.1f %10.1f %9.3f %8.3f",
            c.key.c_str(), c.expr.degree(), c.tables.size(), proveMs,
            selfOf("poly." + c.key + ".round0_eval"),
            selfOf("poly." + c.key + ".round0_fold"), muls / proveMs / 1e6,
            bytes / proveMs / 1e6));
    }
}

} // namespace perfbench
