/**
 * @file
 * Multilinear KZG (PST13) polynomial commitment scheme.
 *
 * Prover-side operations — Lagrange-basis commitment (one size-N MSM) and
 * per-variable quotient opening proofs (mu MSMs of halving sizes) — follow
 * the real protocol exactly; these are the MSMs zkPHIRE's MSM unit
 * accelerates in Witness Commitment, Wire Identity, and Polynomial Opening.
 * Verification checks the KZG identity
 *     C - f(z) * G == Sum_k (tau_k - z_k) * pi_k
 * in G1 using the SRS trapdoor (testing-only; see DESIGN.md substitutions)
 * instead of the pairing, which lives verifier-side and is never modeled by
 * the accelerator.
 */
#ifndef ZKPHIRE_PCS_MKZG_HPP
#define ZKPHIRE_PCS_MKZG_HPP

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "ec/msm.hpp"
#include "pcs/srs.hpp"
#include "poly/mle.hpp"

namespace zkphire::pcs {

using poly::Mle;

/** A commitment to one multilinear polynomial. */
struct Commitment {
    G1Affine point;
    bool operator==(const Commitment &o) const { return point == o.point; }
};

/** Opening proof: one quotient commitment per variable. */
struct OpeningProof {
    std::vector<G1Affine> quotients;
    std::size_t sizeBytes() const { return quotients.size() * 96; }
};

/**
 * Commit to a multilinear polynomial (size-2^mu MSM): commitBatch over one
 * table. Tables on the Mapped backend — or at/above the ambient stream
 * threshold — are committed by the chunk-streaming path automatically: the
 * MSM accumulates one stream chunk of recoded buckets at a time and
 * consumed pages of a mapped table are released, so peak RSS is O(chunk)
 * instead of O(2^mu). The commitment bytes are identical either way.
 */
Commitment commit(const Srs &srs, const Mle &f, ec::MsmStats *stats = nullptr);

/**
 * Fills dst[0 .. end-begin) with entries [begin, end) of one column of
 * evaluations. commitStreamed calls it with consecutive, non-overlapping
 * [begin, end) windows in ascending order, from a prefetch thread that runs
 * concurrently with the MSM work on the previous window.
 */
using ChunkProducer =
    std::function<void(std::size_t begin, std::size_t end, Fr *dst)>;

/**
 * Commit to a 2^mu-evaluation polynomial produced chunk by chunk: the table
 * is never materialized. A double buffer overlaps producing window i+1 with
 * recoding/bucketing window i, so table generation and MSM window
 * accumulation pipeline. Equals commit() on the materialized table exactly.
 */
Commitment commitStreamed(const Srs &srs, unsigned mu,
                          const ChunkProducer &produce,
                          ec::MsmStats *stats = nullptr);

/** Multi-column commitStreamed: one producer per polynomial, one shared
 *  point walk per chunk (the streaming analogue of commitBatch). */
std::vector<Commitment>
commitBatchStreamed(const Srs &srs, unsigned mu,
                    std::span<const ChunkProducer> produce,
                    ec::MsmStats *stats = nullptr);

/**
 * Commit to several same-size polynomials with one multi-MSM
 * (ec::msmBatch) over the shared Lagrange basis: the k witness columns of
 * a HyperPlonk proof are recoded once and the basis points are walked
 * once per window for all of them, instead of k independent passes. Each
 * commitment equals the corresponding commit() result exactly. This is
 * where a commit chooses between the one-shot and the chunk-streaming MSM.
 */
std::vector<Commitment> commitBatch(const Srs &srs,
                                    std::span<const Mle *const> polys,
                                    ec::MsmStats *stats = nullptr);
std::vector<Commitment> commitBatch(const Srs &srs, std::span<const Mle> polys,
                                    ec::MsmStats *stats = nullptr);

/**
 * Open poly at z: produce quotient commitments pi_k with
 * f(X) - f(z) = Sum_k (X_k - z_k) q_k(X_{k+1}..). Total MSM work ~2*2^mu.
 */
OpeningProof open(const Srs &srs, const Mle &poly, std::span<const Fr> z,
                  ec::MsmStats *stats = nullptr);

/**
 * Open several polynomials of the SAME variable count at (possibly
 * different) points, zipping the per-variable levels: level k commits
 * every opening's quotient with one multi-MSM over the shared suffix
 * basis, so the basis points are read once per level for all openings.
 * (HyperPlonk's own two chains have different variable counts — g has mu,
 * the product polynomial v has mu+1 — so they cannot ride this; the API
 * serves workloads that open several same-size polynomials, e.g. sharded
 * or multi-proof batches.) proofs[i] equals open(polys[i], zs[i]) exactly.
 */
std::vector<OpeningProof> openMany(const Srs &srs,
                                   std::span<const Mle *const> polys,
                                   std::span<const std::span<const Fr>> zs,
                                   ec::MsmStats *stats = nullptr);

/**
 * The rho-power linear combination Sum_i rho^i f_i that batchOpen commits
 * to; exposed so callers can combine once and open through openMany.
 */
Mle combineForBatchOpen(std::span<const Mle> polys, const Fr &rho);

/**
 * Verify an opening claim f(z) == value against a commitment.
 * Testing-only trapdoor verification (see file comment).
 */
bool verifyOpening(const Srs &srs, const Commitment &c, std::span<const Fr> z,
                   const Fr &value, const OpeningProof &proof);

/**
 * Batched opening of several polynomials at ONE shared point (the situation
 * after OpenCheck): open Sum_i rho^i f_i with a single proof.
 */
OpeningProof batchOpen(const Srs &srs, std::span<const Mle> polys,
                       std::span<const Fr> z, const Fr &rho,
                       ec::MsmStats *stats = nullptr);

/** Verify a batched opening given per-polynomial commitments and values. */
bool verifyBatchOpening(const Srs &srs, std::span<const Commitment> cs,
                        std::span<const Fr> z, std::span<const Fr> values,
                        const Fr &rho, const OpeningProof &proof);

} // namespace zkphire::pcs

#endif // ZKPHIRE_PCS_MKZG_HPP
