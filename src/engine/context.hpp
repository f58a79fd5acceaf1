/**
 * @file
 * ProverContext: the session object a prover service keeps alive across
 * proofs.
 *
 * Everything `hyperplonk::prove` used to pick up ambiently or re-derive per
 * call is owned here instead:
 *
 *   - an SRS reference (for preprocessing circuits into Keys),
 *   - the preprocessed Keys themselves (reference-stable for the context's
 *     lifetime),
 *   - the compiled GatePlan cache (per-context, so two contexts proving
 *     concurrently never share or race on plan state — there is no
 *     process-global cache),
 *   - an rt::Config (thread budget, grain floor, pool selection) applied to
 *     every proof made through the context.
 *
 * A context's prove() is safe to call concurrently from multiple threads
 * and produces proofs byte-identical to the one-shot hyperplonk::prove
 * wrapper for the same circuit — the transcript never depends on the
 * config, the cache, or job concurrency. engine::ProofService runs batches
 * of requests against one context (src/engine/service.hpp).
 */
#ifndef ZKPHIRE_ENGINE_CONTEXT_HPP
#define ZKPHIRE_ENGINE_CONTEXT_HPP

#include <deque>
#include <mutex>

#include "hyperplonk/prover.hpp"
#include "rt/config.hpp"

namespace zkphire::engine {

class ProverContext
{
  public:
    /** Context without an SRS: can prove against caller-owned keys but not
     *  preprocess circuits until attachSrs(). */
    explicit ProverContext(rt::Config cfg = {});
    ProverContext(const pcs::Srs &srs, rt::Config cfg = {});

    ProverContext(const ProverContext &) = delete;
    ProverContext &operator=(const ProverContext &) = delete;

    /** The SRS must outlive the context and every key derived from it. */
    void attachSrs(const pcs::Srs &srs) { srsRef = &srs; }
    const pcs::Srs *srs() const { return srsRef; }

    /** Snapshot of the context config. Returned by value so concurrent
     *  setConfig() calls are safe: a job reads one coherent config at
     *  dispatch and is unaffected by swaps mid-proof. */
    rt::Config config() const
    {
        std::lock_guard<std::mutex> lock(cfgMu);
        return cfg;
    }
    /** Safe to call while proofs are in flight: in-flight jobs keep the
     *  snapshot they dispatched with, subsequent jobs pick the new value
     *  up. An existing ProofService keeps its thread split and lane pools
     *  (fixed at its construction) but applies the other fields (e.g.
     *  minGrain) to subsequent jobs. */
    void setConfig(const rt::Config &c)
    {
        std::lock_guard<std::mutex> lock(cfgMu);
        cfg = c;
    }

    /** Per-context compiled-plan cache (thread-safe). */
    gates::PlanCache &plans() const { return planCache; }

    /** Per-context buffer arena (thread-safe): scratch tables released by
     *  one proof are reacquired by the next, so a proof stream on this
     *  context stops allocating fold/quotient buffers after the first
     *  proof (poly::storeCounters() makes the reuse measurable). */
    poly::BufferArena &arena() const { return bufferArena; }

    /**
     * Preprocess a circuit against the attached SRS ("indexing"). The
     * returned Keys are owned by the context and stay valid — at a stable
     * address — for its lifetime.
     */
    const hyperplonk::Keys &preprocess(const hyperplonk::Circuit &circuit);

    /**
     * Produce a proof under this context's config and plan cache.
     * Byte-identical to hyperplonk::prove for the same inputs; safe to call
     * concurrently.
     *
     * @param rtOverride When non-null, replaces the context config for this
     *        call only — ProofService uses it to hand each job lane its
     *        thread sub-budget and private pool.
     */
    hyperplonk::HyperPlonkProof
    prove(const hyperplonk::ProvingKey &pk,
          const hyperplonk::Circuit &circuit,
          hyperplonk::ProverStats *stats = nullptr,
          const rt::Config *rtOverride = nullptr) const;

    /**
     * Assemble the ProveOptions a phase call (hyperplonk::proveSetup /
     * proveOnline) needs: a coherent config snapshot, this context's
     * plan cache, and optionally a cross-lane unit runner. ProofService
     * uses this to dispatch phases directly.
     */
    hyperplonk::ProveOptions
    proveOptions(const rt::Config *rtOverride = nullptr,
                 rt::UnitRunner *units = nullptr) const;

  private:
    const pcs::Srs *srsRef = nullptr;
    mutable std::mutex cfgMu; ///< Guards cfg.
    rt::Config cfg;
    mutable gates::PlanCache planCache;
    mutable poly::BufferArena bufferArena;
    std::mutex keysMu;
    std::deque<hyperplonk::Keys> ownedKeys;
};

/**
 * Process-wide default context (default rt::Config, no SRS attached) that
 * backs the legacy free-function prover API.
 */
ProverContext &defaultContext();

} // namespace zkphire::engine

#endif // ZKPHIRE_ENGINE_CONTEXT_HPP
