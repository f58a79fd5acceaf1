/**
 * @file
 * The HyperPlonk prover: the computation zkPHIRE accelerates.
 *
 * Five steps, exactly as the paper's §IV-A describes:
 *   1. Witness Commitments      — k MSMs (MSM unit)
 *   2. Gate Identity Check      — ZeroCheck (SumCheck + Forest units)
 *   3. Wire Identity Check      — PermQuotGen + product tree + PermCheck
 *                                 ZeroCheck + 2 MSM commitments
 *   4. Batch Evaluations        — OpenChecks (Forest unit)
 *   5. Polynomial Opening       — batched PCS openings (MLE Combine + MSM)
 *
 * Per-step wall-clock timings and MSM/SumCheck statistics are recorded so
 * examples can compare the real CPU execution against the hardware model's
 * predictions.
 */
#ifndef ZKPHIRE_HYPERPLONK_PROVER_HPP
#define ZKPHIRE_HYPERPLONK_PROVER_HPP

#include "hyperplonk/circuit.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/proof.hpp"
#include "pcs/mkzg.hpp"
#include "rt/cancel.hpp"
#include "rt/config.hpp"

namespace zkphire::gates {
class PlanCache;
} // namespace zkphire::gates

namespace zkphire::hyperplonk {

/** Preprocessed prover material for a fixed circuit. */
struct ProvingKey {
    GateSystem sys;
    unsigned mu = 0;
    std::vector<Mle> selectors;
    PermutationData perm;
    std::vector<pcs::Commitment> selectorComms;
    std::vector<pcs::Commitment> sigmaComms;
    const pcs::Srs *srs = nullptr;
};

/** Verifier-side preprocessed material. */
struct VerifyingKey {
    GateSystem sys;
    unsigned mu = 0;
    std::vector<pcs::Commitment> selectorComms;
    std::vector<pcs::Commitment> sigmaComms;
    const pcs::Srs *srs = nullptr;
};

/** Circuit preprocessing ("universal setup + indexing"). */
struct Keys {
    ProvingKey pk;
    VerifyingKey vk;
};
Keys setup(const Circuit &circuit, const pcs::Srs &srs);

/** Per-step prover timing (milliseconds) and kernel statistics. */
struct ProverStats {
    double witnessCommitMs = 0;
    double gateIdentityMs = 0;
    double wireIdentityMs = 0;
    double batchEvalMs = 0;
    double openingMs = 0;
    double totalMs() const
    {
        return witnessCommitMs + gateIdentityMs + wireIdentityMs +
               batchEvalMs + openingMs;
    }
    ec::MsmStats msm;
};

/**
 * Prover-call options: the runtime config applied to every phase
 * (commitment MSMs, batch inversion, eq tables, sumchecks) plus an
 * optional compiled-plan cache for the fixed core gate.
 */
struct ProveOptions {
    /** Thread budget / pool / streaming policy. Default inherits the
     *  ambient setting (ZKPHIRE_THREADS or hardware concurrency). */
    rt::Config rt;
    /** Plan cache for the core gate's masked composition; null lowers the
     *  plan inline (transcript-identical, just recompiles per call).
     *  Normally an engine::ProverContext's cache. */
    gates::PlanCache *plans = nullptr;
    /** MSM algorithm knobs applied (via ec::ScopedMsmOptions) to every MSM
     *  of the proof — commitment multi-MSMs and opening quotients. The
     *  transcript is identical under every value; only speed moves. */
    ec::MsmOptions msm = {};
    /** Buffer arena (installed via poly::ScopedArena) recycling the proof's
     *  big scratch tables — sumcheck fold double buffers, opening working
     *  copies and quotients — across proofs on one context. Null inherits
     *  the ambient installation (none outside an engine context). The
     *  transcript never depends on where a buffer came from. */
    poly::BufferArena *arena = nullptr;
    /** Cooperative cancellation token, observed (via rt::ScopedCancel) at
     *  sumcheck round and streamed-commit chunk boundaries and between
     *  prover steps. A cancelled token makes the prover throw
     *  rt::OperationCancelled at the next boundary; a default token never
     *  cancels. Cancellation aborts, it never corrupts: unwinding runs the
     *  same RAII cleanup as an error path. */
    rt::CancelToken cancel;
};

/**
 * Prover state carried from the setup phase to the online phase. Owns the
 * partially-built proof (witness commitments), the Fiat-Shamir transcript
 * positioned after the witness absorption, and the synthesized witness
 * tables the online phase consumes. Movable across threads: a service lane
 * can run proveSetup, park the state in its request object, and let a
 * different lane finish with proveOnline.
 */
struct SetupState {
    HyperPlonkProof proof;
    hash::Transcript tr;
    std::vector<Mle> witness;
};

/**
 * Phase 1 ("setup"): witness synthesis + witness commitments (paper step 1).
 * The MSM-bound half of the proof; engine::ProofService schedules it as its
 * own stage so setup of one request overlaps the online phase of another.
 */
SetupState proveSetup(const ProvingKey &pk, const Circuit &circuit,
                      ProverStats *stats, const ProveOptions &opts);

/**
 * Phase 2 ("online"): sumchecks and openings (paper steps 2-5) continuing a
 * proveSetup result. prove() is exactly proveSetup + proveOnline, so the
 * two-phase path is byte-identical to the one-shot path by construction.
 */
HyperPlonkProof proveOnline(const ProvingKey &pk, SetupState state,
                            ProverStats *stats, const ProveOptions &opts);

/**
 * Produce a HyperPlonk proof for a satisfying circuit (core entry point).
 * The transcript is bit-identical under every ProveOptions value.
 */
HyperPlonkProof prove(const ProvingKey &pk, const Circuit &circuit,
                      ProverStats *stats, const ProveOptions &opts);

/**
 * One-shot convenience wrapper: proves on engine::defaultContext(), i.e.
 * default rt::Config (ZKPHIRE_THREADS honored) and the process default
 * context's plan cache. Defined in src/engine/context.cpp, above this
 * layer. Prefer an explicit engine::ProverContext for services.
 */
HyperPlonkProof prove(const ProvingKey &pk, const Circuit &circuit,
                      ProverStats *stats = nullptr);

} // namespace zkphire::hyperplonk

#endif // ZKPHIRE_HYPERPLONK_PROVER_HPP
