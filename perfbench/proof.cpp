/**
 * @file
 * vanilla-prove-mu14: one client proving the same Vanilla circuit in a
 * closed loop on one thread.
 *
 * Traced runs alternate plain engine proofs with a step-by-step proof that
 * makes the same public calls hyperplonk::proveSetup / proveOnline make, in
 * the same order, with a span around each Fig. 12a category. That proof is
 * checked byte-identical to the engine's, so the spans time the same work.
 * They end with a warm proof of the same circuit on the out-of-core path
 * and with the SumCheck gate set (gates.cpp), which are measured there
 * only: with its tables on file-backed slabs the out-of-core proof's
 * latency spread by 0.23 of its median over ten runs of the same code, too
 * far to gate.
 */
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "ec/msm.hpp"
#include "engine/context.hpp"
#include "gates/gate_library.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/protocol_common.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "poly/mle_store.hpp"
#include "rt/parallel.hpp"
#include "sim/baseline.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/opencheck.hpp"
#include "sumcheck/zerocheck.hpp"

namespace perfbench {
namespace {

using namespace zkphire;
using Bytes = std::vector<std::uint8_t>;
using hyperplonk::HyperPlonkProof;
using poly::Mle;

/** Keeps the SRS trapdoor stream apart from the circuit's. */
constexpr std::uint64_t kSrsSalt = 0x5eed5a1700000001ull;

/** One set-up: SRS, preprocessed keys, and the cold first proof. */
struct Session {
    std::unique_ptr<pcs::Srs> srs;
    std::unique_ptr<engine::ProverContext> ctx;
    const hyperplonk::Keys *keys = nullptr;
    HyperPlonkProof coldProof;
};

Session
setUp(const hyperplonk::Circuit &circuit, unsigned mu, std::uint64_t seed,
      const rt::Config &cfg, Tracer &tracer)
{
    Session s;
    ff::Rng rng(seed ^ kSrsSalt);
    s.srs = std::make_unique<pcs::Srs>(pcs::Srs::generate(mu + 1, rng));
    if (tracer.enabled()) {
        // Untraced set-ups build both levels lazily, inside preprocess and
        // the cold proof; traced ones build them first so that the level
        // cost gets a span of its own.
        Tracer::Scope span(tracer, "pcs.srs_level");
        s.srs->basesFor(mu);
        s.srs->basesFor(mu + 1);
    }
    s.ctx = std::make_unique<engine::ProverContext>(*s.srs, cfg);
    {
        Tracer::Scope span(tracer, "hyperplonk.preprocess");
        s.keys = &s.ctx->preprocess(circuit);
    }
    Tracer::Scope span(tracer, "hyperplonk.cold_proof");
    s.coldProof = s.ctx->prove(s.keys->pk, circuit);
    return s;
}

/**
 * hyperplonk::prove, one public call at a time, with a span around each
 * Fig. 12a category. Mirrors proveSetup + proveOnline without a unit
 * runner (one thread, no sharding) under the context's options.
 */
HyperPlonkProof
stepByStepProve(const engine::ProverContext &ctx,
                const hyperplonk::ProvingKey &pk,
                const hyperplonk::Circuit &circuit, Tracer &t,
                ec::MsmStats &msm)
{
    using sumcheck::EvalClaim;
    const hyperplonk::ProveOptions opts = ctx.proveOptions();
    rt::ScopedConfig scope(opts.rt);
    ec::ScopedMsmOptions msmScope(opts.msm);
    poly::ScopedArena arenaScope(opts.arena);
    const pcs::Srs &srs = *pk.srs;
    const unsigned k = hyperplonk::numWitnessCols(pk.sys);

    HyperPlonkProof proof;
    hash::Transcript tr = hyperplonk::detail::beginTranscript(
        pk.sys, pk.mu, pk.selectorComms, pk.sigmaComms);

    std::vector<Mle> witness;
    {
        Tracer::Scope span(t, "hyperplonk.witness_synth");
        witness = circuit.witnessMles();
    }
    {
        Tracer::Scope span(t, "pcs.witness_commit");
        proof.witnessComms = pcs::commitBatch(srs, witness, &msm);
    }
    for (const auto &c : proof.witnessComms)
        pcs::appendG1(tr, "w_comm", c.point);

    sumcheck::ZerocheckProverOutput gateOut;
    {
        Tracer::Scope span(t, "sumcheck.gate_zerocheck");
        const gates::Gate &gate = hyperplonk::coreGate(pk.sys);
        std::vector<Mle> tables;
        tables.reserve(gate.expr.numSlots());
        for (const Mle &sel : pk.selectors)
            tables.push_back(sel);
        for (const Mle &w : witness)
            tables.push_back(w);
        gateOut = sumcheck::proveZero(gate.expr, std::move(tables), tr, {},
                                      opts.plans->maskedPlan(gate.expr));
    }
    proof.gateZC = std::move(gateOut.proof);
    const std::vector<ff::Fr> &zG = gateOut.challenges;

    const ff::Fr beta = tr.challengeFr("beta");
    const ff::Fr gamma = tr.challengeFr("gamma");
    hyperplonk::FractionPolys fracs;
    {
        Tracer::Scope span(t, "hyperplonk.perm_fractions");
        fracs = hyperplonk::buildFractionPolys(witness, pk.perm, beta, gamma);
    }
    Mle v;
    {
        Tracer::Scope span(t, "sumcheck.product_tree");
        v = sumcheck::buildProductTree(fracs.phi);
    }
    {
        Tracer::Scope span(t, "pcs.perm_commit");
        proof.phiComm = pcs::commit(srs, fracs.phi, &msm);
        proof.vComm = pcs::commit(srs, v, &msm);
    }
    pcs::appendG1(tr, "phi_comm", proof.phiComm.point);
    pcs::appendG1(tr, "v_comm", proof.vComm.point);
    const ff::Fr alpha = tr.challengeFr("alpha");

    sumcheck::ZerocheckProverOutput permOut;
    {
        Tracer::Scope span(t, "sumcheck.permcheck");
        const gates::Gate permGate = gates::permCoreGate(k, alpha);
        std::vector<Mle> tables;
        tables.reserve(permGate.expr.numSlots());
        tables.push_back(sumcheck::extractPi(v));
        tables.push_back(sumcheck::extractP1(v));
        tables.push_back(sumcheck::extractP2(v));
        tables.push_back(fracs.phi);
        for (unsigned j = 0; j < k; ++j)
            tables.push_back(fracs.denom[j]);
        for (unsigned j = 0; j < k; ++j)
            tables.push_back(fracs.numer[j]);
        permOut = sumcheck::proveZero(permGate.expr, std::move(tables), tr);
    }
    proof.permZC = std::move(permOut.proof);
    const std::vector<ff::Fr> &zP = permOut.challenges;

    proof.wAtZp.resize(k);
    proof.sigmaAtZp.resize(k);
    {
        Tracer::Scope span(t, "poly.batch_eval");
        for (unsigned j = 0; j < k; ++j) {
            proof.wAtZp[j] = witness[j].evaluate(zP);
            proof.sigmaAtZp[j] = pk.perm.sigma[j].evaluate(zP);
        }
    }
    tr.appendFrVec("w_zp", proof.wAtZp);
    tr.appendFrVec("sigma_zp", proof.sigmaAtZp);

    const ff::Fr phiAtZp = proof.permZC.sc.finalSlotEvals[3];
    sumcheck::OpencheckProverOutput openA, openB;
    {
        Tracer::Scope span(t, "sumcheck.opencheck");
        std::vector<EvalClaim> claimsA = hyperplonk::detail::buildClaimsA(
            hyperplonk::numSelectorCols(pk.sys), k, zG, zP,
            proof.gateZC.sc.finalSlotEvals, proof.wAtZp, proof.sigmaAtZp,
            phiAtZp);
        std::size_t ci = 0;
        for (const Mle &sel : pk.selectors)
            claimsA[ci++].table = sel;
        for (const Mle &w : witness)
            claimsA[ci++].table = w;
        for (const Mle &w : witness)
            claimsA[ci++].table = w;
        for (const Mle &sig : pk.perm.sigma)
            claimsA[ci++].table = sig;
        claimsA[ci++].table = fracs.phi;
        openA = sumcheck::proveOpen(std::move(claimsA), tr);

        std::vector<EvalClaim> claimsB = hyperplonk::detail::buildClaimsB(
            pk.mu, zP, proof.permZC.sc.finalSlotEvals[0],
            proof.permZC.sc.finalSlotEvals[1],
            proof.permZC.sc.finalSlotEvals[2], phiAtZp);
        for (auto &c : claimsB)
            c.table = v;
        openB = sumcheck::proveOpen(std::move(claimsB), tr);
    }
    proof.openA = std::move(openA.proof);
    proof.openB = std::move(openB.proof);

    const ff::Fr rho = tr.challengeFr("rho_a");
    Mle g;
    {
        Tracer::Scope span(t, "pcs.mle_combine");
        std::vector<Mle> polys;
        polys.reserve(hyperplonk::numSelectorCols(pk.sys) + 3 * k + 1);
        for (const Mle &sel : pk.selectors)
            polys.push_back(sel);
        for (const Mle &w : witness)
            polys.push_back(w);
        for (const Mle &w : witness)
            polys.push_back(w);
        for (const Mle &sig : pk.perm.sigma)
            polys.push_back(sig);
        polys.push_back(fracs.phi);
        g = pcs::combineForBatchOpen(polys, rho);
    }
    {
        Tracer::Scope span(t, "pcs.opening");
        proof.pcsA = pcs::open(srs, g, openA.challenges, &msm);
        proof.pcsB = pcs::open(srs, v, openB.challenges, &msm);
    }
    return proof;
}

/** Fig. 12a categories: report label, spans, CpuModel breakdown field. */
struct Category {
    const char *label;
    std::vector<const char *> spans;
    double sim::CpuModel::ProtocolBreakdown::*model;
};

const std::vector<Category> &
categories()
{
    using B = sim::CpuModel::ProtocolBreakdown;
    static const std::vector<Category> cats = {
        {"witness MSM", {"pcs.witness_commit"}, &B::sparseMsm},
        {"gate ZeroCheck", {"sumcheck.gate_zerocheck"}, &B::gateIdentity},
        {"perm-MLE generation",
         {"hyperplonk.perm_fractions", "sumcheck.product_tree"},
         &B::genPermMles},
        {"perm MSMs", {"pcs.perm_commit"}, &B::permDenseMsm},
        {"PermCheck", {"sumcheck.permcheck"}, &B::permCheck},
        {"batch evals", {"poly.batch_eval"}, &B::batchEvals},
        {"MLE combine", {"pcs.mle_combine"}, &B::mleCombine},
        {"OpenCheck", {"sumcheck.opencheck"}, &B::openCheck},
        {"opening MSMs", {"pcs.opening"}, &B::polyOpenMsm},
    };
    return cats;
}

/** Output check: byte-identical to the reference proof (whose
 *  verification the caller checked once). */
bool
matches(const HyperPlonkProof &proof, const Bytes &ref, bool tamper)
{
    Bytes bytes = hyperplonk::serializeProof(proof);
    if (tamper && !bytes.empty())
        bytes[bytes.size() / 2] ^= 1;
    return bytes == ref;
}

/**
 * One warm proof of the circuit on the out-of-core path, in a context of
 * its own: streamThreshold 1 sends every table to the slab backend, in four
 * chunks per 2^mu table, as a 2^22 table at the default 2^20 chunk.
 * Streaming leaves the transcript unchanged, so the proof must equal the
 * in-RAM one; only the store counters show which path ran.
 */
void
proveStreamed(const pcs::Srs &srs, const hyperplonk::Circuit &circuit,
              unsigned mu, const Bytes &ref, Outcome &out)
{
    rt::Config cfg;
    cfg.threads = 1;
    cfg.streamThreshold = 1;
    cfg.streamChunk = (std::size_t(1) << mu) / 4;
    rt::ScopedConfig pin(cfg);
    engine::ProverContext ctx(srs, cfg);
    const hyperplonk::Keys &keys = ctx.preprocess(circuit);
    ctx.prove(keys.pk, circuit); // cold: creates the arena's slabs
    const poly::StoreCounters c0 = poly::storeCounters();
    const auto t0 = Clock::now();
    const HyperPlonkProof proof = ctx.prove(keys.pk, circuit);
    const double ms = msSince(t0);
    const poly::StoreCounters c1 = poly::storeCounters();
    out.check(matches(proof, ref, false),
              "streamed proof equals the in-RAM proof");
    const auto hits = double(c1.arenaHits - c0.arenaHits);
    const auto misses = double(c1.arenaMisses - c0.arenaMisses);
    out.add("hyperplonk.streamed_proof_ms", ms, "ms");
    out.add("poly.streamed_mapped_bytes",
            double(c1.mappedBytes - c0.mappedBytes), "bytes");
    out.add("poly.streamed_arena_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    out.note("stream_chunk", std::to_string(cfg.streamChunk));
    out.report.push_back(format(
        "out-of-core proof (chunk %zu): %.1f ms, %.0f bytes mapped",
        cfg.streamChunk, ms, double(c1.mappedBytes - c0.mappedBytes)));
}

} // namespace

Outcome
runProofWorkload(const Options &opt)
{
    const unsigned mu = opt.quick ? 8 : 14;
    rt::Config cfg;
    cfg.threads = 1;
    rt::ScopedConfig pin(cfg);
    Outcome out;
    Tracer tracer(opt.trace);
    bool tamper = opt.tamper;

    ff::Rng rng(opt.seed);
    const hyperplonk::Circuit circuit =
        hyperplonk::randomVanillaCircuit(mu, rng);

    const auto setup0 = Clock::now();
    const Session s = setUp(circuit, mu, opt.seed, cfg, tracer);
    const double setupS = secondsSince(setup0);
    const Bytes ref = hyperplonk::serializeProof(s.coldProof);
    out.check(hyperplonk::verify(s.keys->vk, s.coldProof).ok,
              "cold proof verifies");

    std::vector<double> plainMs, tracedMs, verifyMs;
    std::vector<std::uint64_t> ops;
    std::vector<ec::MsmStats> msm;
    std::vector<double> hitRatio, mappedBytes, ramBytes, poolGrowth;
    double rssMb = 0;
    const HostWindow window;
    const auto start = Clock::now();
    double roundS = 0;
    do {
        const auto round0 = Clock::now();
        if (opt.trace) {
            tracer.setOp(ops.size() + 1);
            ops.push_back(ops.size() + 1);
            ec::MsmStats st;
            const poly::StoreCounters c0 = poly::storeCounters();
            const std::size_t pooled0 = s.ctx->arena().pooled();
            HyperPlonkProof proof;
            const auto t0 = Clock::now();
            {
                Tracer::Scope span(tracer, "hyperplonk.proof");
                proof = stepByStepProve(*s.ctx, s.keys->pk, circuit, tracer,
                                        st);
            }
            tracedMs.push_back(msSince(t0));
            const poly::StoreCounters c1 = poly::storeCounters();
            msm.push_back(st);
            const auto hits = double(c1.arenaHits - c0.arenaHits);
            const auto misses = double(c1.arenaMisses - c0.arenaMisses);
            hitRatio.push_back(hits + misses > 0 ? hits / (hits + misses)
                                                 : 0);
            mappedBytes.push_back(double(c1.mappedBytes - c0.mappedBytes));
            ramBytes.push_back(double(c1.ramBytes - c0.ramBytes));
            poolGrowth.push_back(double(s.ctx->arena().pooled()) -
                                 double(pooled0));
            bool verified = false;
            const auto v0 = Clock::now();
            {
                Tracer::Scope span(tracer, "hyperplonk.verify");
                verified = hyperplonk::verify(s.keys->vk, proof).ok;
            }
            verifyMs.push_back(msSince(v0));
            out.check(verified &&
                          matches(proof, ref, std::exchange(tamper, false)),
                      "step-by-step proof verifies and is byte-identical to "
                      "hyperplonk::prove's");
            tracer.setOp(0);
        }
        const auto t0 = Clock::now();
        const HyperPlonkProof proof = s.ctx->prove(s.keys->pk, circuit);
        plainMs.push_back(msSince(t0));
        out.check(matches(proof, ref, std::exchange(tamper, false)) &&
                      hyperplonk::verify(s.keys->vk, proof).ok,
                  "warm proof verifies and equals the cold proof");
        roundS = secondsSince(round0);
        if (rssMb == 0)
            rssMb = peakRssMb();
    } while (secondsSince(start) + roundS <= opt.seconds);
    window.close(out, opt.trace);

    out.note("mu", std::to_string(mu));
    out.note("threads", "1");
    out.note("warm_ops", std::to_string(plainMs.size()));

    const double latency = median(plainMs);
    if (!opt.trace) {
        out.add("latency_ms", latency, "ms");
        out.add("setup_s", setupS, "s");
        out.add("peak_rss_mb", rssMb, "MiB");
        out.add("proof_bytes", double(ref.size()), "bytes");
        out.report.push_back(format("%s: %zu warm proofs, median %.1f ms; "
                                    "set-up %.2f s",
                                    opt.workload.c_str(), plainMs.size(),
                                    latency, setupS));
        return out;
    }

    // ---- per-layer metrics from the traced operations -------------------
    const auto self = medianSelfMs(tracer, ops);
    auto selfOf = [&](const std::string &name) { return spanMs(self, name); };
    const double proofMs = median(tracedMs);
    out.add("hyperplonk.proof_ms", proofMs, "ms");
    out.add("hyperplonk.proof_self_ms", selfOf("hyperplonk.proof"), "ms");
    out.add("hyperplonk.witness_synth_ms", selfOf("hyperplonk.witness_synth"),
            "ms");
    for (const Category &c : categories())
        for (const char *span : c.spans)
            out.add(std::string(span) + "_ms", selfOf(span), "ms");
    out.add("hyperplonk.verify_ms", median(verifyMs), "ms");

    auto msmMedian = [&](auto field) {
        std::vector<double> v;
        for (const ec::MsmStats &st : msm)
            v.push_back(double(st.*field));
        return median(v);
    };
    out.add("ec.recode_ms", msmMedian(&ec::MsmStats::recodeMs), "ms");
    out.add("ec.bucket_ms", msmMedian(&ec::MsmStats::bucketMs), "ms");
    out.add("ec.fold_ms", msmMedian(&ec::MsmStats::foldMs), "ms");
    out.add("ec.point_adds", msmMedian(&ec::MsmStats::pointAdds), "count");
    out.add("ec.affine_adds", msmMedian(&ec::MsmStats::affineAdds), "count");
    out.add("ec.batch_inversions", msmMedian(&ec::MsmStats::batchInversions),
            "count");
    out.add("ec.dense_scalars", msmMedian(&ec::MsmStats::denseScalars),
            "count");
    out.add("ec.trivial_scalars", msmMedian(&ec::MsmStats::trivialScalars),
            "count");

    addSetupSpans(tracer, out);
    out.add("poly.arena_hit_ratio", median(hitRatio), "ratio");
    out.add("poly.mapped_bytes", median(mappedBytes), "bytes");
    out.add("poly.ram_bytes", median(ramBytes), "bytes");
    out.add("poly.arena_pool_growth", median(poolGrowth), "count");
    out.add("trace.overhead_ratio", proofMs / latency, "ratio");

    // Fig. 12a split beside the single-thread CPU model's prediction.
    sim::CpuModel model;
    model.threads = 1;
    const auto predicted =
        model.protocolBreakdown(sim::ProtocolWorkload::vanilla(mu));
    out.report.push_back(format("Fig. 12a split, %s, %zu traced proof(s), "
                                "self ms vs sim::CpuModel{.threads = 1}:",
                                opt.workload.c_str(), ops.size()));
    out.report.push_back(format("  %-22s %10s %10s %7s", "category",
                                "measured", "model", "ratio"));
    double covered = selfOf("hyperplonk.witness_synth");
    for (const Category &c : categories()) {
        double ms = 0;
        for (const char *span : c.spans)
            ms += selfOf(span);
        covered += ms;
        const double m = predicted.*(c.model);
        out.report.push_back(format("  %-22s %10.1f %10.1f %7.2f", c.label,
                                    ms, m, m > 0 ? ms / m : 0.0));
    }
    out.report.push_back(format("  %-22s %10.1f %10.1f", "total", proofMs,
                                predicted.total()));
    out.report.push_back(
        format("  category self times cover %.1f%% of hyperplonk.proof_ms "
               "(glue %.1f ms)",
               100.0 * covered / proofMs, selfOf("hyperplonk.proof")));
    out.report.push_back(format("  tracing overhead: traced %.1f ms / "
                                "untraced %.1f ms = %.3f",
                                proofMs, latency, proofMs / latency));
    proveStreamed(*s.srs, circuit, mu, ref, out);
    addGateSetLayers(opt, tracer, ops.size() + 1, out);
    if (!opt.traceOut.empty() && !tracer.writeChrome(opt.traceOut))
        out.report.push_back("could not write " + opt.traceOut);
    return out;
}

} // namespace perfbench
