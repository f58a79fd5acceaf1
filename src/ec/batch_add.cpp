#include "ec/batch_add.hpp"

#include <bit>
#include <cassert>

#include "ec/bucket_ifma_x86.hpp"
#include "ff/batch_inverse.hpp"

namespace zkphire::ec {

namespace {

using ff::Fq;

/**
 * Stage one pair into its output slot, slots[slot], the only place the
 * pair's points are read this round. Pairs with an identity operand or
 * that cancel get their sum now; slope pairs write their first operand to
 * the slot and push the slope numerator and denominator for the batched
 * inversion, with the slot's index (flagged for a doubling), and
 * finishRound completes them from the slot. Denominators are nonzero by
 * construction: a generic add has x2 != x1 and a doubling has y != 0 (a
 * zero y falls into the cancellation case, since then -y == y). The slot
 * may alias `a`: every read of a and b comes before the write.
 */
// zkphire-lint: ct-exempt(identity/cancellation classification is what batched-affine MSM buckets require; scalar-shaped timing is inherent to Pippenger)
inline void
stagePair(const G1Affine &a, const G1Affine &b, G1Affine *slots,
          std::uint32_t slot, BatchAffineScratch &s)
{
    assert(slot < kSlotDoubling);
    G1Affine &dst = slots[slot];
    if (b.infinity) {
        dst = a;
        return;
    }
    if (a.infinity) {
        dst = b;
        return;
    }
    if (a.x == b.x) {
        if (a.y == b.y && !a.y.isZero()) {
            // Doubling: lambda = 3x^2 / 2y.
            Fq sq = a.x.square();
            s.numer.push_back(sq.dbl() + sq);
            s.denom.push_back(a.y.dbl());
            s.slot.push_back(slot | kSlotDoubling);
            dst = a;
            return;
        }
        dst = G1Affine{};
        return;
    }
    // Generic: lambda = (y2 - y1) / (x2 - x1).
    s.numer.push_back(b.y - a.y);
    s.denom.push_back(b.x - a.x);
    s.slot.push_back(slot);
    dst = a;
}

/** Grow v's capacity to exactly n when it is short; push_back and resize
 *  would round it up to as much as twice the old size. */
template <class T>
void
reserveExact(std::vector<T> &v, std::size_t n)
{
    if (v.capacity() < n)
        v.reserve(n);
}

/** v.resize(n) with the capacity grown to exactly n. */
template <class T>
void
resizeExact(std::vector<T> &v, std::size_t n)
{
    reserveExact(v, n);
    v.resize(n);
}

/** Size the staging arrays for `pairs` slope pairs, the most that any
 *  round of a block stages. */
void
reserveRounds(BatchAffineScratch &scratch, std::size_t pairs)
{
    reserveExact(scratch.slot, pairs);
    reserveExact(scratch.numer, pairs);
    reserveExact(scratch.denom, pairs);
    reserveExact(scratch.inv, pairs);
}

/** Clear the per-round staging arrays. */
void
beginRound(BatchAffineScratch &scratch)
{
    scratch.slot.clear();
    scratch.numer.clear();
    scratch.denom.clear();
}

/**
 * One past the last segment of the block that starts at segment s0: the
 * longest run of segments whose entries fit kSegmentBlockEntries, and
 * fewer segments than that so their offsets fit too. A segment longer
 * than the budget is a block of its own.
 */
std::size_t
blockEnd(std::span<const std::uint32_t> off, std::size_t s0)
{
    const std::size_t num_segs = off.size() - 1;
    std::size_t s = s0 + 1;
    while (s < num_segs && s + 1 - s0 < kSegmentBlockEntries &&
           off[s + 1] - off[s0] <= kSegmentBlockEntries)
        ++s;
    return s;
}

/**
 * Finish a staged round: one batch inversion (out of place, so the
 * denominators stay intact) and one fused pass over the slope pairs,
 * which computes each slope and completes its slot
 * (detail::finishSlopePairsScalar; eight pairs at a time on the IFMA
 * lanes, ec/bucket_ifma_x86.hpp).
 */
void
finishRound(G1Affine *slots, BatchAffineScratch &scratch,
            BatchAffineStats *stats)
{
    const std::size_t n = scratch.denom.size();
    if (n == 0)
        return;
    ff::batchInverseSerialInto(std::span<const Fq>(scratch.denom),
                               scratch.inv);
#if ZKPHIRE_HAVE_X86_IFMA
    if (ff::kernels::ifmaSelected())
        finishSlopePairsIfma(slots, scratch.slot.data(), scratch.numer.data(),
                             scratch.inv.data(), scratch.denom.data(), n);
    else
#endif
        detail::finishSlopePairsScalar(slots, scratch.slot.data(),
                                       scratch.numer.data(),
                                       scratch.inv.data(),
                                       scratch.denom.data(), n);
    if (stats) {
        stats->affineAdds += n;
        ++stats->batchInversions;
    }
}

/** Halve the segment lengths after a round (an odd tail passes through);
 *  true while some segment still has more than one point. */
bool
halveLengths(std::vector<std::uint32_t> &len)
{
    bool again = false;
    for (std::uint32_t &L : len) {
        L = (L + 1) / 2;
        again |= L > 1;
    }
    return again;
}

// zkphire-lint: ct-exempt(sign-bit decode of public point table entries)
inline G1Affine
decodeEntry(std::span<const G1Affine> points, std::uint32_t e)
{
    const G1Affine &p = points[e >> 1];
    if ((e & 1) == 0 || p.infinity)
        return p;
    return G1Affine{p.x, p.y.neg(), false};
}

/**
 * Halving rounds over materialized points, in place: pair (2j, 2j+1) of
 * each segment lands at slot j, an odd tail passes through (writes trail
 * the read frontier, j <= 2j, so compaction is safe). scratch.len must
 * hold the current segment lengths; runs until every length is <= 1.
 */
void
reduceSegments(std::span<G1Affine> buf, std::span<const std::uint32_t> off,
               bool again, BatchAffineScratch &scratch,
               BatchAffineStats *stats)
{
    while (again) {
        beginRound(scratch);
        for (std::size_t s = 0; s < scratch.len.size(); ++s) {
            G1Affine *seg = buf.data() + off[s];
            const std::size_t L = scratch.len[s];
            for (std::size_t j = 0; j < L / 2; ++j)
                stagePair(seg[2 * j], seg[2 * j + 1], buf.data(),
                          std::uint32_t(off[s] + j), scratch);
            if (L % 2 == 1 && L > 1)
                seg[L / 2] = seg[L - 1];
        }
        finishRound(buf.data(), scratch, stats);
        again = halveLengths(scratch.len);
    }
}

} // namespace

void
batchAffineSegmentSums(std::span<G1Affine> buf,
                       std::span<const std::uint32_t> off,
                       std::span<G1Affine> out, BatchAffineScratch &scratch,
                       BatchAffineStats *stats)
{
    const std::size_t num_segs = out.size();
    assert(off.size() == num_segs + 1);

    for (std::size_t s0 = 0, s1; s0 < num_segs; s0 = s1) {
        s1 = blockEnd(off, s0);
        resizeExact(scratch.len, s1 - s0);
        bool again = false;
        for (std::size_t s = s0; s < s1; ++s) {
            scratch.len[s - s0] = off[s + 1] - off[s];
            again |= scratch.len[s - s0] > 1;
        }
        reserveRounds(scratch, (off[s1] - off[s0]) / 2);
        reduceSegments(buf, off.subspan(s0), again, scratch, stats);
        for (std::size_t s = s0; s < s1; ++s)
            out[s] = scratch.len[s - s0] ? buf[off[s]] : G1Affine{};
    }
}

void
batchAffineSegmentSumsIndexed(std::span<const G1Affine> points,
                              std::span<const std::uint32_t> enc,
                              std::span<const std::uint32_t> off,
                              std::span<G1Affine> out,
                              BatchAffineScratch &scratch,
                              BatchAffineStats *stats)
{
    const std::size_t num_segs = out.size();
    assert(off.size() == num_segs + 1);

    // Round 0 decodes every entry exactly once: each pair is staged
    // straight into its compacted slot and an odd tail is copied there.
    // The reads are random gathers from the shared point array, so the
    // points kAhead entries down the stream are prefetched, every cache
    // line of each; the A/B that keeps it is in EXPERIMENTS.md ("Flag-carry
    // field kernels and one-read bucket rounds").
    constexpr std::size_t kAhead = 16;
    const auto prefetch = [&](std::size_t k) {
        const char *p = reinterpret_cast<const char *>(&points[enc[k] >> 1]);
        __builtin_prefetch(p);
        __builtin_prefetch(p + 64);
        __builtin_prefetch(p + sizeof(G1Affine) - 1);
    };
    for (std::size_t s0 = 0, s1; s0 < num_segs; s0 = s1) {
        s1 = blockEnd(off, s0);
        const std::size_t nb = s1 - s0;
        // Round 0 reads the shared point array through the encoded
        // entries and writes the block's compacted half-size segments
        // into scratch.buf; the remaining rounds then run in place over
        // materialized points.
        resizeExact(scratch.off, nb + 1);
        scratch.off[0] = 0;
        for (std::size_t s = 0; s < nb; ++s) {
            const std::uint32_t L = off[s0 + s + 1] - off[s0 + s];
            scratch.off[s + 1] = scratch.off[s] + (L + 1) / 2;
        }
        resizeExact(scratch.buf, scratch.off[nb]);
        resizeExact(scratch.len, nb);

        reserveRounds(scratch, (off[s1] - off[s0]) / 2);
        beginRound(scratch);
        for (std::size_t s = 0; s < nb; ++s) {
            const std::uint32_t *e = enc.data() + off[s0 + s];
            const std::size_t L = off[s0 + s + 1] - off[s0 + s];
            G1Affine *dst = scratch.buf.data() + scratch.off[s];
            const std::uint32_t slot0 = scratch.off[s];
            for (std::size_t j = 0; j < L / 2; ++j) {
                if (const std::size_t k = off[s0 + s] + 2 * j + kAhead;
                    k + 1 < enc.size()) {
                    prefetch(k);
                    prefetch(k + 1);
                }
                stagePair(decodeEntry(points, e[2 * j]),
                          decodeEntry(points, e[2 * j + 1]),
                          scratch.buf.data(), slot0 + std::uint32_t(j),
                          scratch);
            }
            if (L % 2 == 1)
                dst[L / 2] = decodeEntry(points, e[L - 1]);
            scratch.len[s] = std::uint32_t(L);
        }
        finishRound(scratch.buf.data(), scratch, stats);
        const bool again = halveLengths(scratch.len);

        reduceSegments(scratch.buf, scratch.off, again, scratch, stats);
        for (std::size_t s = 0; s < nb; ++s)
            out[s0 + s] =
                scratch.len[s] ? scratch.buf[scratch.off[s]] : G1Affine{};
    }
}

namespace detail {

void
finishSlopePairsScalar(G1Affine *slots, const std::uint32_t *slot,
                       const Fq *numer, const Fq *inv, const Fq *denom,
                       std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        G1Affine &p = slots[slot[j] & ~kSlotDoubling];
        const Fq lambda = numer[j] * inv[j];
        Fq x_sum = p.x.dbl();
        if ((slot[j] & kSlotDoubling) == 0)
            x_sum += denom[j];
        const Fq x3 = lambda.square() - x_sum;
        p.y = lambda * (p.x - x3) - p.y;
        p.x = x3;
    }
}

void
bucketTilesScalar(std::span<const G1Affine> buckets, BucketTiles &tiles)
{
    constexpr std::size_t T = kAggregateTiles;
    const std::size_t len = buckets.size() / T;
    assert(len > 0 && len * T == buckets.size());
    for (std::size_t t = 0; t < T; ++t)
        tiles.total[t] = tiles.weighted[t] = G1Jacobian::identity();
    for (std::size_t b = len; b-- > 0;) {
        for (std::size_t t = 0; t < T; ++t) {
            tiles.total[t] = tiles.total[t].addMixed(buckets[t * len + b]);
            tiles.weighted[t] = tiles.weighted[t].add(tiles.total[t]);
        }
    }
}

G1Jacobian
combineBucketTiles(const BucketTiles &tiles, std::size_t tile_len)
{
    constexpr std::size_t T = kAggregateTiles;
    assert(tile_len > 0 && (tile_len & (tile_len - 1)) == 0);
    // Sum_{t >= 1} t * R_t by a suffix sum over the tiles, then times L.
    G1Jacobian running = G1Jacobian::identity();
    G1Jacobian offsets = G1Jacobian::identity();
    for (std::size_t t = T; t-- > 1;) {
        running = running.add(tiles.total[t]);
        offsets = offsets.add(running);
    }
    for (std::size_t l = tile_len; l > 1; l /= 2)
        offsets = offsets.dbl();
    G1Jacobian sum = tiles.weighted[0];
    for (std::size_t t = 1; t < T; ++t)
        sum = sum.add(tiles.weighted[t]);
    return sum.add(offsets);
}

} // namespace detail

G1Jacobian
aggregateBuckets(std::span<const G1Affine> buckets, BatchAffineStats *stats)
{
    const std::size_t num = buckets.size();
    if (num < kAggregateMinBuckets || (num & (num - 1)) != 0) {
        G1Jacobian running = G1Jacobian::identity();
        G1Jacobian sum = G1Jacobian::identity();
        for (std::size_t b = num; b-- > 0;) {
            running = running.addMixed(buckets[b]);
            sum = sum.add(running);
        }
        if (stats)
            stats->pointAdds += 2 * num;
        return sum;
    }
    BucketTiles tiles;
#if ZKPHIRE_HAVE_X86_IFMA
    if (ff::kernels::ifmaSelected())
        bucketTilesIfma(buckets.data(), num, tiles);
    else
#endif
        detail::bucketTilesScalar(buckets, tiles);
    const std::size_t tile_len = num / kAggregateTiles;
    if (stats) {
        stats->pointAdds += 2 * num + 3 * kAggregateTiles - 2;
        stats->pointDoubles += std::uint64_t(std::countr_zero(tile_len));
    }
    return detail::combineBucketTiles(tiles, tile_len);
}

} // namespace zkphire::ec
