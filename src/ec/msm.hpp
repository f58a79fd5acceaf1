/**
 * @file
 * Multi-scalar multiplication: s = Sum_i k_i * P_i.
 *
 * Pippenger's bucket method (paper §II-B) — the dominant kernel of
 * HyperPlonk's Witness Commitment, Wire Identity, and Polynomial Opening
 * steps. The hot path slices scalars into balanced signed digits once
 * (src/ec/recode.hpp), halving the bucket count per window, and resolves
 * bucket additions with batched-affine arithmetic (src/ec/batch_add.hpp)
 * so the per-point cost drops from a Jacobian mixed add to ~6 field
 * multiplications. One implementation, MsmAccumulator, runs every MSM:
 * msmBatch and msmPippenger feed it a single chunk, streamed commits feed
 * it many. Several scalar columns over one shared point array — the
 * witness-commitment shape — are recoded once and walk the points once
 * per window for all columns. The op-count statistics feed both the MSM
 * hardware model and the CPU baseline calibration, so the functional
 * kernel and the performance model stay structurally identical.
 */
#ifndef ZKPHIRE_EC_MSM_HPP
#define ZKPHIRE_EC_MSM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ec/g1.hpp"

namespace zkphire::ec {

/** Operation counts and phase timings gathered while running an MSM. */
struct MsmStats {
    std::uint64_t pointAdds = 0;   ///< Jacobian bucket/aggregation additions.
    std::uint64_t pointDoubles = 0;///< Window-combining doublings.
    std::uint64_t trivialScalars = 0; ///< Scalars in {0, 1} skipped/fast-pathed.
    std::uint64_t denseScalars = 0;   ///< Full-width scalars.
    std::uint64_t affineAdds = 0;     ///< Batched-affine bucket additions.
    std::uint64_t batchInversions = 0;///< Batch-inversion rounds (1 true
                                      ///< field inversion each).
    double recodeMs = 0; ///< Scalar classify + signed-digit recoding.
    double bucketMs = 0; ///< Bucket accumulation + per-window aggregation.
    double foldMs = 0;   ///< Window fold (doublings + adds).
};

/**
 * MSM algorithm knobs. The defaults are the fast path; the other settings
 * are test oracles and benchmark variants (hyperplonk::ProveOptions::msm
 * applies a value to a whole proof via ScopedMsmOptions).
 */
struct MsmOptions {
    /** Bucket window size c; 0 selects automatically. */
    unsigned windowBits = 0;
    /** Batched-affine bucket accumulation instead of Jacobian buckets. */
    bool batchAffine = true;
    /**
     * GLV endomorphism splitting: every scalar is
     * decomposed as k1 + lambda*k2 with ~128-bit halves (src/ec/glv.hpp)
     * and the point set doubled with the free endomorphism phi(P), halving
     * the window passes and fold doublings. Results are equal as group
     * elements either way (identical bytes after affine normalization);
     * ignored when the GLV parameter self-checks fail or when
     * msmGlvProfitable says plain slicing is cheaper at this size.
     */
    bool glv = true;
    /**
     * Dense-point floor below which batchAffine falls back to Jacobian
     * buckets: each reduction round pays one true field inversion per
     * window, which only amortizes over enough points. 0 forces
     * batched-affine at any size (tests).
     */
    std::size_t batchAffineMinPoints = 512;
};

namespace detail {
inline thread_local MsmOptions t_msmOptions{};
} // namespace detail

/** Options used when a call site does not pass explicit MsmOptions. */
inline const MsmOptions &
currentMsmOptions()
{
    return detail::t_msmOptions;
}

/**
 * RAII override of currentMsmOptions() on this thread, mirroring
 * rt::ScopedConfig: prover entry points apply their context's options so
 * every MSM under them (pcs commits, quotient openings) picks them up
 * without threading a parameter through the PCS layer. Results are
 * bit-identical under every option value; only speed moves.
 */
class ScopedMsmOptions
{
  public:
    explicit ScopedMsmOptions(const MsmOptions &opts)
        : saved(detail::t_msmOptions)
    {
        detail::t_msmOptions = opts;
    }
    ~ScopedMsmOptions() { detail::t_msmOptions = saved; }
    ScopedMsmOptions(const ScopedMsmOptions &) = delete;
    ScopedMsmOptions &operator=(const ScopedMsmOptions &) = delete;

  private:
    MsmOptions saved;
};

/**
 * Pippenger MSM: msmBatch over one column.
 *
 * @param stats Optional op-count/phase-timing output (accumulated).
 */
G1Jacobian msmPippenger(std::span<const Fr> scalars,
                        std::span<const G1Affine> points,
                        const MsmOptions &opts = currentMsmOptions(),
                        MsmStats *stats = nullptr);

/**
 * Multi-MSM over one shared point array: out[j] = Sum_i cols[j][i] * P_i.
 *
 * Every column is recoded once, and each window walks the point array once
 * for all k columns, scattering each point into k bucket sets; the
 * batched-affine reduction then amortizes its inversions over all k * B
 * buckets of the window. This is the k-witness-column commitment shape:
 * k MSMs for the price of ~one point walk. Each out[j] equals the
 * independent msmPippenger result for that column exactly. Runs as a
 * one-chunk MsmAccumulator.
 *
 * Columns must all have points.size() entries.
 */
std::vector<G1Jacobian> msmBatch(std::span<const std::span<const Fr>> cols,
                                 std::span<const G1Affine> points,
                                 const MsmOptions &opts = currentMsmOptions(),
                                 MsmStats *stats = nullptr);

/**
 * Fq-multiplication prices of the MSM pipeline's point operations. ONE
 * source of truth shared by the kernel's window argmin
 * (pippengerAutoWindowSignedBits) and the CPU baseline model
 * (sim::CpuModel::msmFieldMuls) — retune here and both move together.
 *
 * The constants price a square at 0.8 M, the portable dedicated square's
 * ratio. The ADX asm path, the default wherever cpuid allows it, squares
 * with the multiplier (S = M), and modular add/sub/dbl are not priced at
 * all, although a batched-affine add spends about six of them (each about
 * 0.1 M on the asm path; EXPERIMENTS.md, "Flag-carry field kernels"). On
 * an AVX-512 IFMA host the batched-affine add runs eight lanes at a time
 * (ff/mul_ifma_x86.hpp, ec/bucket_ifma_x86.hpp): in one-thread GLV MSMs
 * at 2^12..2^16 a staged pair (classify, inversion share and the fused
 * finish) measured 165-214 ns with IFMA against 410-510 ns on the scalar
 * ADX multiplier (EXPERIMENTS.md, "Fused finish and tiled aggregation").
 * The suffix-sum aggregation runs in eight tiles
 * on the IFMA lanes at 0.35-0.45 us per bucket against 1.7-2.2 us
 * serial, while the bucket adds of the Jacobian path stay scalar. So
 * these are relative prices for the argmin, not a time model. They stay
 * as they are: changing them moves the chosen window and with it every
 * ec.* op count.
 */
namespace msm_cost {
/** Batched-affine pair addition: 2M + 1S, plus the 3 M of the amortized
 *  Montgomery inversion trick. */
inline constexpr double kBatchAffineAdd = 5.8;
/** Jacobian mixed addition: 7M + 4S. */
inline constexpr double kMixedAdd = 10.2;
/** Full Jacobian addition: 11M + 5S. */
inline constexpr double kFullAdd = 15.0;
/** Suffix-sum aggregation per bucket: one mixed + one full add. */
inline constexpr double kAggPerBucket = kMixedAdd + kFullAdd;
/** Jacobian doubling: 2M + 5S + shifts. */
inline constexpr double kDouble = 8.0;
} // namespace msm_cost

/**
 * Automatic window size for signed-digit slicing: argmin of the add-count
 * model with 2^(c-1) buckets, priced for batched-affine or Jacobian
 * bucket adds per the flag (Jacobian adds are dearer, so the optimum sits
 * ~1 bit narrower). scalar_bits is the recoded width: the GLV path
 * optimizes over (2n points, glv::kHalfBits-bit halves) instead of
 * (n, Fr::modulusBits()). A streamed MSM aggregates its buckets once per
 * chunk, so the aggregation term scales with num_chunks (1 for one-shot
 * calls). Shared with sim::CpuModel::msmFieldMuls so kernel and cost model
 * pick identical c.
 */
unsigned pippengerAutoWindowSignedBits(std::size_t n, std::size_t scalar_bits,
                                       bool batch_affine = true,
                                       std::size_t num_chunks = 1);

/**
 * Whether the GLV split is predicted to beat plain 255-bit slicing for an
 * n-point signed-digit MSM under the msm_cost op model (it loses once the
 * c <= 16 window cap stops the half-width argmin from widening, around
 * 2^20 points). The kernel consults this before enabling the split and
 * sim::CpuModel::msmFieldMuls mirrors it, so model and kernel always pick
 * the same structure.
 */
bool msmGlvProfitable(std::size_t n, bool batch_affine = true);

/**
 * Multi-column Pippenger accumulator: the one MSM implementation. One-shot
 * calls (msmBatch, msmPippenger) feed it a single chunk; streamed commits
 * feed tables too big to materialize one chunk at a time. Construction
 * fixes the window structure from the TOTAL point count (so per-point work
 * matches the one-shot run); each add() recodes one chunk of scalars into
 * a chunk-sized digit slab, accumulates its buckets (batched-affine where
 * profitable), and suffix-sums them into per-(window, column) sums. The
 * first chunk's sums are stored; later chunks' are added in — bucket
 * weights are linear, so per-chunk aggregation sums to exactly the
 * whole-run aggregate. Peak memory is O(chunk * num_windows) for the digit
 * slab plus O(num_windows * columns) persistent sums, independent of the
 * total size. finalize() folds the windows; results equal the one-chunk
 * run as group elements (identical bytes after affine normalization — the
 * transcript only ever sees normalized points). Column j's result equals
 * an independent single-column run exactly: per-column state (trivial
 * accumulator, bucket sets, window fold) never mixes across columns; only
 * the point walk, the digit slab, and the batch inversions are shared.
 */
class MsmAccumulator
{
  public:
    /**
     * @param total_points Total MSM size (all chunks); fixes window bits.
     * @param num_cols     Columns fed to every add() call.
     * @param chunk_hint   Expected chunk size; biases the window argmin
     *                     with the per-chunk aggregation cost (0 = one
     *                     chunk, i.e. the one-shot choice).
     */
    MsmAccumulator(std::size_t total_points, std::size_t num_cols,
                   const MsmOptions &opts = currentMsmOptions(),
                   MsmStats *stats = nullptr, std::size_t chunk_hint = 0);

    /** Feed the next chunk: cols[j] are column j's scalars for it, points
     *  the matching basis slice. Chunks arrive in index order. */
    void add(std::span<const std::span<const Fr>> cols,
             std::span<const G1Affine> points);
    /** Single-column convenience. */
    void add(std::span<const Fr> scalars, std::span<const G1Affine> points);

    /** Fold windows + trivial accumulators; call once, after all chunks. */
    std::vector<G1Jacobian> finalize();

  private:
    MsmOptions opts_;
    MsmStats *stats_;
    std::size_t totalN_;
    std::size_t k_;
    std::size_t seen_ = 0;
    bool useGlv_;
    unsigned c_ = 0;
    std::size_t scalarBits_;
    std::size_t numWindows_;
    std::size_t numBuckets_;
    std::vector<G1Jacobian> windowSums_; ///< num_windows * k partial sums.
    std::vector<G1Jacobian> trivial_;    ///< Per-column {1}-scalar sums.
    // Chunk scratch reused across add() calls (sized to the largest chunk).
    std::vector<std::int32_t> digits_;
    std::vector<std::uint8_t> klass_;
    std::vector<std::uint32_t> denseOrig_;
    std::vector<std::uint32_t> denseIdx_;
    std::vector<G1Affine> extPoints_;
    std::vector<G1Jacobian> chunkSums_;
};

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_MSM_HPP
