/**
 * @file
 * Batched affine point addition (Montgomery-trick bucket accumulation).
 *
 * A Jacobian mixed addition costs 7M + 4S in Fq; an affine addition costs
 * 1I + 2M + 1S, which is cheaper whenever the inversion is amortized over
 * a large batch — Montgomery's trick turns B inversions into one true
 * inversion plus 3B multiplications, bringing the per-addition cost down
 * to ~6 Fq multiplications. The paper's MSM unit (and SZKP's bucket PEs)
 * exploit exactly this: bucket accumulation is a huge set of independent
 * additions whose slope denominators can be inverted together.
 *
 * batchAffineSegmentSums reduces many independent point lists ("segments",
 * one per MSM bucket) to their sums with pairwise halving rounds. Each
 * round reads every pair once: a staging pass classifies it (identity /
 * cancellation / doubling / generic add) and writes its output slot —
 * the sum itself, or the first operand plus a staged slope numerator and
 * denominator; one batch inversion then resolves all slopes, and three
 * batched multiply passes (ff::mulVec) with two element-wise passes
 * between them complete the slope pairs in their slots. The pairing order
 * is fixed by the segment layout, so results are deterministic regardless
 * of thread count, and inverses are canonical field values, so the output
 * is bit-identical to a serial affine evaluation.
 */
#ifndef ZKPHIRE_EC_BATCH_ADD_HPP
#define ZKPHIRE_EC_BATCH_ADD_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ec/g1.hpp"

namespace zkphire::ec {

/** Op counts from a batched-affine reduction. */
struct BatchAffineStats {
    std::uint64_t affineAdds = 0;      ///< Slope-based pair additions.
    std::uint64_t batchInversions = 0; ///< Batch-inversion rounds (1 true
                                       ///< field inversion each).
};

/** Reusable scratch for the segment-sum reductions (grown once, reused). */
struct BatchAffineScratch {
    std::vector<std::uint32_t> len;
    std::vector<std::uint8_t> kind; ///< One per pair of the current round.
    /** Slope numerators while staging; the finished slopes (numer *
     *  denom^{-1}, one mulVec pass) after the round resolves. */
    std::vector<ff::Fq> numer;
    /** Slope denominators; left intact by the inversion, since the finish
     *  pass reads x2 - x1 from them. */
    std::vector<ff::Fq> denom;
    /** denom^{-1} (prefix products first); then the apply passes' lambda^2,
     *  x1 - x3 and lambda * (x1 - x3). */
    std::vector<ff::Fq> inv;
    std::vector<G1Affine> buf;      ///< Indexed round-0 output buffer.
    std::vector<std::uint32_t> off; ///< Its compacted segment offsets.
};

/**
 * Sum each segment of `buf` down to one affine point.
 *
 * Segment s occupies buf[off[s] .. off[s+1]); out[s] receives its sum
 * (the identity for empty segments). `buf` is clobbered. All the special
 * cases of the affine group law are handled (identity operands, P + (-P),
 * doubling), so duplicated points and identity entries are fine.
 *
 * @param out   One slot per segment; out.size() + 1 == off.size().
 * @param stats Optional op-count accumulation.
 */
void batchAffineSegmentSums(std::span<G1Affine> buf,
                            std::span<const std::uint32_t> off,
                            std::span<G1Affine> out,
                            BatchAffineScratch &scratch,
                            BatchAffineStats *stats = nullptr);

/**
 * Segment sums over ENCODED point references instead of materialized
 * points: entry e refers to points[e >> 1], negated when (e & 1). The
 * first halving round decodes each entry from the point array exactly
 * once and writes its (half-size, compacted) results into scratch.buf, so
 * the caller's scatter pass moves 4-byte indices instead of ~100-byte
 * points — the MSM bucket scatter is bandwidth-bound and this is what
 * makes the shared point walk pay off. Results and stats are identical to
 * materializing the points into a buffer and calling
 * batchAffineSegmentSums.
 */
void batchAffineSegmentSumsIndexed(std::span<const G1Affine> points,
                                   std::span<const std::uint32_t> enc,
                                   std::span<const std::uint32_t> off,
                                   std::span<G1Affine> out,
                                   BatchAffineScratch &scratch,
                                   BatchAffineStats *stats = nullptr);

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_BATCH_ADD_HPP
