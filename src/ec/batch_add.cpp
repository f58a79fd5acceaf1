#include "ec/batch_add.hpp"

#include <cassert>

#include "ff/batch_inverse.hpp"
#include "ff/vec_ops.hpp"

namespace zkphire::ec {

namespace {

using ff::Fq;

enum PairKind : std::uint8_t {
    kDone = 0, ///< Identity operand or cancellation: the slot holds the sum.
    kAdd = 1,  ///< Generic add: the slot holds P1, the slope is pending.
    kDbl = 2,  ///< Doubling: the slot holds P1, the slope is pending.
};

/**
 * Stage one pair into its output slot, the only place the pair's points
 * are read this round. Pairs with an identity operand or that cancel get
 * their sum now; slope pairs write their first operand to the slot and
 * push the slope numerator and denominator for the batched inversion,
 * and finishRound completes them from the slot. Denominators are nonzero
 * by construction: a generic add has x2 != x1 and a doubling has y != 0
 * (a zero y falls into the cancellation case, since then -y == y).
 * `slot` may alias `a`: every read of a and b comes before the write.
 */
// zkphire-lint: ct-exempt(identity/cancellation classification is what batched-affine MSM buckets require; scalar-shaped timing is inherent to Pippenger)
inline std::uint8_t
stagePair(const G1Affine &a, const G1Affine &b, G1Affine &slot,
          BatchAffineScratch &s)
{
    if (b.infinity) {
        slot = a;
        return kDone;
    }
    if (a.infinity) {
        slot = b;
        return kDone;
    }
    if (a.x == b.x) {
        if (a.y == b.y && !a.y.isZero()) {
            // Doubling: lambda = 3x^2 / 2y.
            Fq sq = a.x.square();
            s.numer.push_back(sq.dbl() + sq);
            s.denom.push_back(a.y.dbl());
            slot = a;
            return kDbl;
        }
        slot = G1Affine{};
        return kDone;
    }
    // Generic: lambda = (y2 - y1) / (x2 - x1).
    s.numer.push_back(b.y - a.y);
    s.denom.push_back(b.x - a.x);
    slot = a;
    return kAdd;
}

/** Clear the per-round staging arrays. */
void
beginRound(BatchAffineScratch &scratch)
{
    scratch.kind.clear();
    scratch.numer.clear();
    scratch.denom.clear();
}

/** fn(kind, slot, d) for each slope pair of the round, in staging order:
 *  d indexes the pair's numer/denom entries. */
template <class Fn>
void
forEachSlopePair(G1Affine *slots, std::span<const std::uint32_t> slot_off,
                 const BatchAffineScratch &scratch, Fn &&fn)
{
    std::size_t pi = 0, di = 0;
    for (std::size_t s = 0; s < scratch.len.size(); ++s) {
        G1Affine *dst = slots + slot_off[s];
        for (std::size_t j = 0; j < scratch.len[s] / 2; ++j, ++pi)
            if (scratch.kind[pi] != kDone)
                fn(scratch.kind[pi], dst[j], di++);
    }
}

/**
 * Finish a staged round: one batch inversion and three batched multiply
 * passes. The inversion runs out of place (Montgomery's trick), so the
 * denominators stay intact; then
 *  1. numer *= inv turns the numerators into the slopes lambda;
 *  2. inv = lambda^2;
 *  3. between passes, each slope pair's slot, which holds P1 = (x1, y1),
 *     gets x3 = lambda^2 - (x1 + x2) and inv keeps x1 - x3. The affine law
 *     needs x1 + x2, which is 2*x1 + (x2 - x1) for an add and 2*x1 for a
 *     doubling, so P2 is never read again;
 *  4. inv *= lambda, and y3 = lambda * (x1 - x3) - y1 completes the slot.
 * Every multiply of the round thus runs as an ff::mulVec span (eight at a
 * time on an IFMA host). Segment s's pairs sit at slots[slot_off[s] ...]
 * and scratch.len holds the lengths the round started from.
 */
void
finishRound(G1Affine *slots, std::span<const std::uint32_t> slot_off,
            BatchAffineScratch &scratch, BatchAffineStats *stats)
{
    const std::size_t n = scratch.denom.size();
    if (n == 0)
        return;
    ff::batchInverseSerialInto(std::span<const Fq>(scratch.denom),
                               scratch.inv);
    Fq *lam = scratch.numer.data();
    Fq *t = scratch.inv.data();
    ff::mulVec(lam, lam, t, n);
    ff::mulVec(t, lam, lam, n);
    forEachSlopePair(slots, slot_off, scratch,
                     [&](std::uint8_t kind, G1Affine &slot, std::size_t d) {
                         Fq x_sum = slot.x.dbl();
                         if (kind == kAdd)
                             x_sum += scratch.denom[d];
                         const Fq x3 = t[d] - x_sum;
                         t[d] = slot.x - x3;
                         slot.x = x3;
                     });
    ff::mulVec(t, lam, t, n);
    forEachSlopePair(slots, slot_off, scratch,
                     [&](std::uint8_t, G1Affine &slot, std::size_t d) {
                         slot.y = t[d] - slot.y;
                     });
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
                scratch.kind.push_back(
                    stagePair(seg[2 * j], seg[2 * j + 1], seg[j], scratch));
            if (L % 2 == 1 && L > 1)
                seg[L / 2] = seg[L - 1];
        }
        finishRound(buf.data(), off, scratch, stats);
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

    scratch.len.resize(num_segs);
    bool again = false;
    for (std::size_t s = 0; s < num_segs; ++s) {
        scratch.len[s] = off[s + 1] - off[s];
        again |= scratch.len[s] > 1;
    }
    reduceSegments(buf, off, again, scratch, stats);
    for (std::size_t s = 0; s < num_segs; ++s)
        out[s] = scratch.len[s] ? buf[off[s]] : G1Affine{};
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

    // Round 0 reads the shared point array through the encoded entries and
    // writes compacted half-size segments into scratch.buf; the remaining
    // rounds then run in place over materialized points.
    scratch.off.resize(num_segs + 1);
    scratch.off[0] = 0;
    for (std::size_t s = 0; s < num_segs; ++s) {
        const std::uint32_t L = off[s + 1] - off[s];
        scratch.off[s + 1] = scratch.off[s] + (L + 1) / 2;
    }
    // Scratch is caller-retained (thread-local in the MSM); cap the
    // high-water mark so one huge job doesn't pin peak-size buffers for
    // the life of a long-running prover process.
    const std::size_t need = scratch.off[num_segs];
    const auto trim = [](auto &v, std::size_t bound) {
        if (v.capacity() > 4 * bound + 1024) {
            v.clear();
            v.shrink_to_fit();
        }
    };
    trim(scratch.buf, need);
    trim(scratch.numer, need);
    trim(scratch.denom, need);
    trim(scratch.inv, need);
    if (scratch.buf.size() < need)
        scratch.buf.resize(need);

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
    beginRound(scratch);
    scratch.len.resize(num_segs);
    for (std::size_t s = 0; s < num_segs; ++s) {
        const std::uint32_t *e = enc.data() + off[s];
        const std::size_t L = off[s + 1] - off[s];
        G1Affine *dst = scratch.buf.data() + scratch.off[s];
        for (std::size_t j = 0; j < L / 2; ++j) {
            if (const std::size_t k = off[s] + 2 * j + kAhead;
                k + 1 < enc.size()) {
                prefetch(k);
                prefetch(k + 1);
            }
            scratch.kind.push_back(stagePair(decodeEntry(points, e[2 * j]),
                                             decodeEntry(points, e[2 * j + 1]),
                                             dst[j], scratch));
        }
        if (L % 2 == 1)
            dst[L / 2] = decodeEntry(points, e[L - 1]);
        scratch.len[s] = std::uint32_t(L);
    }
    finishRound(scratch.buf.data(), scratch.off, scratch, stats);
    const bool again = halveLengths(scratch.len);

    reduceSegments(scratch.buf, scratch.off, again, scratch, stats);
    for (std::size_t s = 0; s < num_segs; ++s)
        out[s] = scratch.len[s] ? scratch.buf[scratch.off[s]] : G1Affine{};
}

} // namespace zkphire::ec
