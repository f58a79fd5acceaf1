#include "ec/msm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <vector>

#include "ec/batch_add.hpp"
#include "ec/glv.hpp"
#include "ec/recode.hpp"
#include "rt/failpoint.hpp"
#include "rt/parallel.hpp"

namespace zkphire::ec {

namespace {

/**
 * Per-MSM cost of window width c in Fq-multiplication units (prices in
 * ec::msm_cost, shared with sim::CpuModel): every dense point pays one
 * batched-affine bucket add per window, and each of the 2^(c-1) buckets
 * one mixed + one full aggregation add in the suffix sum, once per chunk.
 * The cost depends only on (n, scalar_bits, num_chunks) — never on
 * per-column dense counts — so a batch run and each column's solo run
 * always agree on c.
 */
double
windowCost(std::size_t n, std::size_t scalar_bits, unsigned c,
           std::size_t num_chunks)
{
    const double nw = double(signedDigitWindows(scalar_bits, c));
    const double buckets = double(std::size_t(1) << (c - 1));
    return nw * (double(n) * msm_cost::kBatchAffineAdd +
                 double(num_chunks) * buckets * msm_cost::kAggPerBucket);
}

} // namespace

unsigned
pippengerAutoWindowSignedBits(std::size_t n, std::size_t scalar_bits,
                              std::size_t num_chunks)
{
    // Wider windows mean fewer passes over the points but more aggregation
    // work; the halved bucket count of signed digits shifts the optimum ~1
    // bit wider than unsigned slicing would pick. The GLV caller passes
    // (2n, glv::kHalfBits): the point term doubles while the window count
    // per c roughly halves, which nudges the optimum ~1 bit wider than the
    // full-width choice at the same n. At the default 2^20-element stream
    // chunk the chunk term leaves the optimum at the one-shot width until
    // chunks get tiny.
    double best_cost = 0;
    unsigned best = 2;
    for (unsigned c = 2; c <= 16; ++c) {
        const double cost = windowCost(n, scalar_bits, c, num_chunks);
        if (best_cost == 0 || cost < best_cost) {
            best_cost = cost;
            best = c;
        }
    }
    return best;
}

bool
msmGlvProfitable(std::size_t n)
{
    // Same op-count model as the window argmin, totaled for both scalar
    // structures. GLV wins while the halved window count outruns the
    // doubled point walk — but the c <= 16 window cap stops the GLV argmin
    // from widening past ceil((128+16)/16) = 9 windows, so beyond ~2^20
    // points the plain 255-bit slicing (16 passes over n) beats GLV's 9
    // passes over 2n, and the split turns itself off.
    const auto total = [&](std::size_t pts, std::size_t bits) {
        const unsigned c = pippengerAutoWindowSignedBits(pts, bits);
        return windowCost(pts, bits, c, 1) +
               double(bits) * msm_cost::kDouble;
    };
    // + n prices the one-time phi(P) materialization (one Fq mul/point).
    return total(2 * n, glv::kHalfBits) + double(n) <
           total(n, Fr::modulusBits());
}

namespace {

/** Per-window op counts, summed into MsmStats in window order. */
using WindowAcc = BatchAffineStats;

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Bucket accumulation + aggregation for `num_win` consecutive windows
 * across all k columns, the one bucket path of every MSM: one pass over
 * the digit slabs scatters each point's 4-byte encoded reference (index +
 * negation bit for negative digits) into its (window, column, bucket)
 * segment, one segmented batched-affine reduction sums every bucket of
 * every (window, column) — reading the shared point array through the
 * references and amortizing each round's single true inversion over all
 * num_win * k * B buckets — and aggregateBuckets turns each (window,
 * column) chain of affine bucket sums into its window sum, in tiles that
 * run side by side on the IFMA lanes. Bucket sums are affine, hence
 * canonical, so a column's window sums do not depend on the other columns
 * of its batch.
 *
 * Per staged pair in one-thread GLV MSMs at 2^12..2^16 on an IFMA host,
 * the whole call costs 198-281 ns (EXPERIMENTS.md, "Fused finish and tiled
 * aggregation"; 316-510 ns before the finish was fused and the
 * aggregation tiled), of which the scatter is 6-10 ns and the
 * aggregation 12-31.
 *
 * Phase 2 passes a contiguous group of windows whose entries fit one
 * reduction block (kSegmentBlockEntries), at most a worker's share of
 * them, or a single larger window. A group ROUND-SYNCHRONIZES the batch
 * inversion across its windows: every pairwise round resolves all their
 * slopes with ONE true inversion, cutting the inversion count by ~the
 * group size (decisive on the small MSMs of mKZG opening chains, where
 * inversions are a large fraction of total work). The reduction cuts a
 * larger window into bucket-range blocks, one true inversion per block
 * and round. Per-segment reduction order is fixed by the segment layout,
 * so bucket sums — and every downstream value — are bit-identical either
 * way.
 *
 * Scratch lives in thread-locals: pool workers process many windows (and
 * many MSMs), so steady state allocates nothing. The reduction scratch is
 * one block's; scatter buffers whose capacity exceeds ~4x the current job
 * are released so one huge MSM doesn't pin peak-size buffers per worker
 * forever.
 */
void
windowSumBatchAffine(std::span<const G1Affine> points,
                     std::span<const std::uint32_t> dense_idx,
                     const std::int32_t *digits, std::size_t stride,
                     std::size_t num_win, std::size_t k,
                     std::size_t num_buckets, G1Jacobian *sums_out,
                     WindowAcc &acc)
{
    thread_local std::vector<std::uint32_t> off, cur, enc;
    thread_local std::vector<G1Affine> bucket_sums;
    thread_local BatchAffineScratch scratch;

    const std::size_t win_buckets = k * num_buckets;
    const std::size_t total_buckets = num_win * win_buckets;
    // Same >4x-the-current-job release rule as enc below, applied to the
    // bucket-count-sized buffers too: a combined sparse call can have far
    // more segments (num_win * buckets) than entries, and these would
    // otherwise stay pinned at that peak for the worker's lifetime.
    const auto trim = [](auto &v, std::size_t bound) {
        if (v.capacity() > 4 * bound + 1024) {
            v.clear();
            v.shrink_to_fit();
        }
    };
    trim(off, total_buckets + 1);
    trim(cur, total_buckets + 1);
    trim(bucket_sums, total_buckets);
    off.assign(total_buckets + 1, 0);
    for (std::size_t w = 0; w < num_win; ++w) {
        const std::int32_t *wdig = digits + w * stride;
        std::uint32_t *woff = off.data() + w * win_buckets;
        for (std::uint32_t i : dense_idx) {
            const std::int32_t *row = wdig + std::size_t(i) * k;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t d = row[j];
                if (d != 0)
                    ++woff[j * num_buckets + std::size_t(d < 0 ? -d : d)];
            }
        }
    }
    for (std::size_t b = 0; b < total_buckets; ++b)
        off[b + 1] += off[b];

    if (enc.capacity() > 4 * std::size_t(off[total_buckets]) + 1024) {
        enc.clear();
        enc.shrink_to_fit();
    }
    if (enc.size() < off[total_buckets])
        enc.resize(off[total_buckets]);
    cur.assign(off.begin(), off.end() - 1);
    for (std::size_t w = 0; w < num_win; ++w) {
        const std::int32_t *wdig = digits + w * stride;
        std::uint32_t *wcur = cur.data() + w * win_buckets;
        for (std::uint32_t i : dense_idx) {
            const std::int32_t *row = wdig + std::size_t(i) * k;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t d = row[j];
                if (d == 0)
                    continue;
                const std::size_t b =
                    j * num_buckets + std::size_t(d < 0 ? -d : d) - 1;
                enc[wcur[b]++] = (i << 1) | std::uint32_t(d < 0);
            }
        }
    }

    bucket_sums.resize(total_buckets);
    batchAffineSegmentSumsIndexed(
        points, std::span<const std::uint32_t>(enc.data(), off[total_buckets]),
        off, bucket_sums, scratch, &acc);
    for (std::size_t s = 0; s < num_win * k; ++s)
        sums_out[s] = aggregateBuckets(
            std::span<const G1Affine>(bucket_sums.data() + s * num_buckets,
                                      num_buckets),
            &acc);
}

} // namespace

G1Jacobian
msmPippenger(std::span<const Fr> scalars, std::span<const G1Affine> points,
             const MsmOptions &opts, MsmStats *stats)
{
    assert(scalars.size() == points.size());
    const std::span<const Fr> col = scalars;
    return msmBatch(std::span<const std::span<const Fr>>(&col, 1), points,
                    opts, stats)[0];
}

std::vector<G1Jacobian>
msmBatch(std::span<const std::span<const Fr>> cols,
         std::span<const G1Affine> points, const MsmOptions &opts,
         MsmStats *stats)
{
    const std::size_t k = cols.size();
    const std::size_t n = points.size();
    if (k == 0 || n == 0)
        return std::vector<G1Jacobian>(k, G1Jacobian::identity());
    MsmAccumulator acc(n, k, opts, stats);
    acc.add(cols, points);
    return acc.finalize();
}

MsmAccumulator::MsmAccumulator(std::size_t total_points, std::size_t num_cols,
                               const MsmOptions &opts, MsmStats *stats,
                               std::size_t chunk_hint)
    : stats_(stats), totalN_(total_points), k_(num_cols)
{
    assert(total_points > 0 && num_cols > 0);
    // Structural choices (GLV split, window width) are fixed from the TOTAL
    // point count, so per-point bucket work is the same however the points
    // are chunked; streaming only adds the per-chunk aggregations and
    // window-sum merges. GLV splits each dense scalar into two ~128-bit
    // halves (k = k1 + lambda*k2), the walk covers 2n points (phi(P_i)
    // materialized at index n + i of each chunk), and the window count per
    // pass halves. It degrades transparently if the parameter self-checks
    // fail or the op-count model says the split loses at this size (the
    // window cap makes plain slicing cheaper past ~2^20 points).
    useGlv_ = opts.glv && glv::available() && msmGlvProfitable(total_points);
    scalarBits_ = useGlv_ ? glv::kHalfBits : Fr::modulusBits();
    const std::size_t n_ext = useGlv_ ? 2 * total_points : total_points;
    const std::size_t num_chunks =
        chunk_hint != 0 ? (total_points + chunk_hint - 1) / chunk_hint : 1;
    c_ = opts.windowBits;
    if (c_ == 0)
        c_ = pippengerAutoWindowSignedBits(n_ext, scalarBits_, num_chunks);
    assert(c_ >= 1 && c_ <= 16);
    numWindows_ = signedDigitWindows(scalarBits_, c_);
    numBuckets_ = std::size_t(1) << (c_ - 1);
    windowSums_.assign(numWindows_ * k_, G1Jacobian::identity());
    trivial_.assign(k_, G1Jacobian::identity());
}

void
MsmAccumulator::add(std::span<const std::span<const Fr>> cols,
                    std::span<const G1Affine> points)
{
    using Clock = std::chrono::steady_clock;
    const std::size_t n = points.size();
    const std::size_t k = k_;
    assert(cols.size() == k && "column count is fixed at construction");
    if (n == 0)
        return;
    rt::failpoint("msm.accum"); // before any bucket state is touched, so an
                                // injected throw leaves the accumulator
                                // observably unmodified
#ifndef NDEBUG
    for (const auto &col : cols)
        assert(col.size() == n && "column/point length mismatch");
#endif
    assert(seen_ + n <= totalN_ && "more points than announced at ctor");
    const bool first_chunk = seen_ == 0;
    seen_ += n;

    // Phase 1: classify every scalar and recode dense ones into the
    // window-major digit slab (digit of point i, column j, window w at
    // (w*n_ext + i)*k + j, so a window reads one contiguous slab and a
    // point's k digits sit together). Trivial {0,1} scalars keep all-zero
    // digits. Under GLV the k1 half recodes into point row i and the k2
    // half into the phi row n + i.
    auto t0 = Clock::now();
    const bool use_glv = useGlv_;
    const unsigned c = c_;
    const std::size_t num_windows = numWindows_;
    const std::size_t n_ext = use_glv ? 2 * n : n;
    const std::size_t stride = n_ext * k;
    digits_.assign(num_windows * stride, 0);
    if (klass_.size() < n * k)
        klass_.resize(n * k); // 0 = zero, 1 = one, 2 = dense
    rt::parallelFor(
        0, n,
        [&](std::size_t i) {
            for (std::size_t j = 0; j < k; ++j) {
                const Fr &s = cols[j][i];
                // zkphire-lint: ct-exempt(trivial-scalar skip is the Pippenger win; scalar-shaped timing is inherent to bucket MSM)
                const std::uint8_t kl = s.isZero() ? 0 : s.isOne() ? 1 : 2;
                klass_[i * k + j] = kl;
                if (kl != 2)
                    continue;
                const auto big = s.toBig();
                std::int32_t *dst = &digits_[i * k + j];
                if (use_glv) {
                    ff::BigInt<4> k1, k2;
                    glv::decompose(big, k1, k2);
                    recodeSignedDigits(k1, c, num_windows, dst, stride);
                    recodeSignedDigits(k2, c, num_windows,
                                       &digits_[(n + i) * k + j], stride);
                } else {
                    recodeSignedDigits(big, c, num_windows, dst, stride);
                }
            }
        },
        /*grain=*/0, /*minGrain=*/256);

    // Serial in-order sweep keeps each column's trivial accumulator in
    // index order (and so its exact Jacobian representation) at every
    // thread count; chunks arrive in index order, so that is the global
    // order. A point enters the shared walk list if ANY column is dense
    // there.
    denseOrig_.clear();
    denseOrig_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        bool any_dense = false;
        for (std::size_t j = 0; j < k; ++j) {
            switch (klass_[i * k + j]) {
            case 0:
                if (stats_)
                    ++stats_->trivialScalars;
                break;
            case 1:
                trivial_[j] = trivial_[j].addMixed(points[i]);
                if (stats_) {
                    ++stats_->trivialScalars;
                    ++stats_->pointAdds;
                }
                break;
            default:
                any_dense = true;
                if (stats_)
                    ++stats_->denseScalars;
                break;
            }
        }
        if (any_dense)
            denseOrig_.push_back(std::uint32_t(i));
    }

    // The bucket walk list over extended indices, and (GLV only) the
    // extended point array: the chunk's points first, phi points at n + i —
    // filled only where some column is dense (one Fq mul each).
    std::span<const std::uint32_t> dense_idx(denseOrig_);
    std::span<const G1Affine> walk_points = points;
    if (use_glv) {
        denseIdx_.resize(2 * denseOrig_.size());
        for (std::size_t d = 0; d < denseOrig_.size(); ++d) {
            denseIdx_[2 * d] = denseOrig_[d];
            denseIdx_[2 * d + 1] = std::uint32_t(n + denseOrig_[d]);
        }
        if (extPoints_.size() < 2 * n)
            extPoints_.resize(2 * n);
        std::copy(points.begin(), points.end(), extPoints_.begin());
        rt::parallelFor(
            0, denseOrig_.size(),
            [&](std::size_t d) {
                const std::uint32_t i = denseOrig_[d];
                extPoints_[n + i] = glv::endomorphism(points[i]);
            },
            /*grain=*/0, /*minGrain=*/512);
        dense_idx = denseIdx_;
        walk_points = std::span<const G1Affine>(extPoints_.data(), 2 * n);
    }
    if (stats_)
        stats_->recodeMs += msSince(t0);

    // Phase 2: bucket accumulation + per-window aggregation, windows in
    // parallel. Each window's sums are computed by exactly the serial
    // per-window sequence and per-window stats are summed in window order,
    // so results and counts are thread-count independent.
    t0 = Clock::now();
    // The first chunk's window sums are stored in place; a later chunk's
    // are summed into them below. Window sums are linear in the buckets and
    // buckets are additive across chunks, so summing per-chunk aggregates
    // equals aggregating the merged buckets.
    if (!first_chunk)
        chunkSums_.assign(num_windows * k, G1Jacobian::identity());
    std::vector<G1Jacobian> &sums = first_chunk ? windowSums_ : chunkSums_;
    std::vector<WindowAcc> wacc(num_windows);
    const std::size_t num_buckets = numBuckets_;
    // Below 512 dense entries (a GLV-split scalar contributes two) the
    // per-window work is microseconds and pool dispatch would dominate
    // (mKZG's opening loop issues many shrinking MSMs down to n = 1), so
    // run inline, which also takes the round-synchronized path below: a
    // per-window reduction would pay one true inversion per window per
    // round, the larger cost at these sizes.
    rt::ScopedThreads serialSmall(dense_idx.size() < 512 ? 1u : 0u);
    // Round-synchronize the batch inversion across windows: one segmented
    // batched-affine call over a contiguous group of windows pays a single
    // true inversion per pairwise round for the whole group instead of one
    // per window (bit-identical; see windowSumBatchAffine). A group takes
    // the windows whose entries (at most dense points x columns each) fit
    // one reduction block, and no more than a worker's share of them: on
    // the small MSMs of mKZG opening chains ~200 inversions collapse to ~7.
    // A window past the budget reduces alone, in bucket-range blocks.
    const std::size_t workers = std::max<std::size_t>(rt::currentThreads(), 1);
    const std::size_t group = std::clamp<std::size_t>(
        kSegmentBlockEntries / std::max<std::size_t>(dense_idx.size() * k, 1),
        1, (num_windows + workers - 1) / workers);
    rt::parallelFor(
        0, (num_windows + group - 1) / group,
        [&](std::size_t g) {
            const std::size_t w = g * group;
            windowSumBatchAffine(walk_points, dense_idx,
                                 digits_.data() + w * stride, stride,
                                 std::min(group, num_windows - w), k,
                                 num_buckets, &sums[w * k], wacc[w]);
        },
        /*grain=*/1);
    if (!first_chunk)
        for (std::size_t i = 0; i < num_windows * k; ++i)
            windowSums_[i] = windowSums_[i].add(chunkSums_[i]);
    if (stats_) {
        for (const WindowAcc &a : wacc) {
            stats_->pointAdds += a.pointAdds;
            stats_->pointDoubles += a.pointDoubles;
            stats_->affineAdds += a.affineAdds;
            stats_->batchInversions += a.batchInversions;
        }
        if (!first_chunk)
            stats_->pointAdds += num_windows * k; // chunk-sum merges
        stats_->bucketMs += msSince(t0);
    }
}

void
MsmAccumulator::add(std::span<const Fr> scalars,
                    std::span<const G1Affine> points)
{
    assert(scalars.size() == points.size());
    const std::span<const Fr> col = scalars;
    add(std::span<const std::span<const Fr>>(&col, 1), points);
}

std::vector<G1Jacobian>
MsmAccumulator::finalize()
{
    using Clock = std::chrono::steady_clock;
    assert(seen_ == totalN_ && "finalize before all chunks were added");
    // Phase 3: fold windows most-significant-down with c doublings between,
    // independently per column.
    auto t0 = Clock::now();
    std::vector<G1Jacobian> out(k_, G1Jacobian::identity());
    for (std::size_t j = 0; j < k_; ++j) {
        G1Jacobian result = G1Jacobian::identity();
        for (std::size_t w = numWindows_; w-- > 0;) {
            // zkphire-lint: ct-exempt(skips doublings only while the fold accumulator is still the identity)
            if (!result.isIdentity() || w + 1 != numWindows_) {
                for (unsigned d = 0; d < c_; ++d) {
                    result = result.dbl();
                    if (stats_)
                        ++stats_->pointDoubles;
                }
            }
            result = result.add(windowSums_[w * k_ + j]);
            if (stats_)
                ++stats_->pointAdds;
        }
        out[j] = result.add(trivial_[j]);
    }
    if (stats_)
        stats_->foldMs += msSince(t0);
    return out;
}

} // namespace zkphire::ec
