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
 * denominator and the slot's index. One batch inversion then resolves all
 * denominators, and one fused pass computes each slope and completes its
 * slot (eight pairs at a time on an AVX-512 IFMA host,
 * ec/bucket_ifma_x86.hpp). The pairing order is fixed by the segment
 * layout, so results are deterministic regardless of thread count, and
 * inverses are canonical field values, so the output is bit-identical to
 * a serial affine evaluation on every kernel.
 *
 * aggregateBuckets then turns one chain of bucket sums into its window
 * sum in Jacobian coordinates, cut into tiles that run side by side.
 *
 * Measured per staged pair in one-thread GLV MSMs at 2^12..2^16 with IFMA
 * (EXPERIMENTS.md, "Fused finish and tiled aggregation"): classify 53-92
 * ns, the batch inversion 48-80, the fused finish 57-70 and the
 * aggregation 12-15 (30 at 2^12, where a window has few points per
 * bucket).
 */
#ifndef ZKPHIRE_EC_BATCH_ADD_HPP
#define ZKPHIRE_EC_BATCH_ADD_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ec/g1.hpp"

namespace zkphire::ec {

/** Op counts from a batched-affine reduction and bucket aggregation. */
struct BatchAffineStats {
    std::uint64_t affineAdds = 0;      ///< Slope-based pair additions.
    std::uint64_t batchInversions = 0; ///< Batch-inversion rounds (1 true
                                       ///< field inversion each).
    std::uint64_t pointAdds = 0;       ///< Jacobian aggregation additions.
    std::uint64_t pointDoubles = 0;    ///< Jacobian aggregation doublings.
};

/** Reusable scratch for the segment-sum reductions (grown once, reused). */
struct BatchAffineScratch {
    std::vector<std::uint32_t> len;
    /** One per slope pair of the current round, in staging order: the
     *  index of its output slot, with kSlotDoubling set for a doubling. */
    std::vector<std::uint32_t> slot;
    std::vector<ff::Fq> numer; ///< Slope numerators, per slope pair.
    std::vector<ff::Fq> denom; ///< Slope denominators, left intact.
    std::vector<ff::Fq> inv;   ///< denom^{-1} (prefix products first).
    std::vector<G1Affine> buf;      ///< Indexed round-0 output buffer.
    std::vector<std::uint32_t> off; ///< Its compacted segment offsets.
};

/** Flag bit of BatchAffineScratch::slot: the pair is a doubling. */
inline constexpr std::uint32_t kSlotDoubling = std::uint32_t(1) << 31;

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

/** Tiles per aggregation chain: one vector of eight IFMA lanes. */
inline constexpr std::size_t kAggregateTiles = 8;
/** Shortest chain aggregateBuckets tiles. */
inline constexpr std::size_t kAggregateMinBuckets = 64;

/**
 * Bucket aggregation: the window sum Sum_b (b + 1) * buckets[b] of one
 * (window, column) chain of B affine bucket sums, in Jacobian
 * coordinates. Below kAggregateMinBuckets (or for a B that is not a power
 * of two) it is the serial suffix sum, 2B adds: running += bucket[b], sum
 * += running, from the top bucket down. From there the chain is cut into
 * kAggregateTiles tiles of L = B / T consecutive buckets; tile t runs the
 * same recurrence over its own buckets, giving its total R_t and its
 * tile-local weighted sum W_t, and
 *
 *     Sum_b (b + 1) * S_b = Sum_t W_t + L * Sum_t t * R_t,
 *
 * which costs 3T - 2 more adds (a suffix sum over the R_t, a sum of the
 * W_t, one final add) and log2 L doublings. The T tile recurrences are
 * independent, so on an IFMA host they run as the lanes of one vector
 * (ec/bucket_ifma_x86.hpp); elsewhere as T chains in scalar code. Both
 * evaluate G1Jacobian::addMixed and G1Jacobian::add formula for formula,
 * so their tiles, and every window sum, are bit-identical. Counts go to
 * stats->pointAdds and stats->pointDoubles.
 */
G1Jacobian aggregateBuckets(std::span<const G1Affine> buckets,
                            BatchAffineStats *stats = nullptr);

/** The tile totals R_t and tile-local weighted sums W_t of one chain. */
struct BucketTiles {
    G1Jacobian total[kAggregateTiles];
    G1Jacobian weighted[kAggregateTiles];
};

namespace detail {

/** The tile recurrences of aggregateBuckets in scalar code, the T chains
 *  interleaved bucket by bucket (on IFMA hosts bucketTilesIfma runs them).
 *  @pre buckets.size() is a positive multiple of kAggregateTiles. */
void bucketTilesScalar(std::span<const G1Affine> buckets, BucketTiles &tiles);

/** Sum_t W_t + L * Sum_t t * R_t. @pre tile_len is a power of two. */
G1Jacobian combineBucketTiles(const BucketTiles &tiles, std::size_t tile_len);

/**
 * The finish of a staged round in scalar code: for slope pair j, whose
 * slot slots[slot[j] & ~kSlotDoubling] holds P1 = (x1, y1),
 * lambda = numer[j] * inv[j], x3 = lambda^2 - (2 x1 + d) with d = denom[j]
 * = x2 - x1 for an add and 0 for a doubling, and y3 = lambda (x1 - x3) -
 * y1 replace the slot's coordinates.
 */
void finishSlopePairsScalar(G1Affine *slots, const std::uint32_t *slot,
                            const ff::Fq *numer, const ff::Fq *inv,
                            const ff::Fq *denom, std::size_t n);

} // namespace detail

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_BATCH_ADD_HPP
