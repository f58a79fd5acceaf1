/**
 * @file
 * AVX-512 IFMA point kernels of the MSM bucket phase; see
 * ec/bucket_ifma_x86.hpp. Like ff/mul_ifma_x86.cpp, every function that
 * touches a 512-bit vector carries ZKPHIRE_IFMA_TARGET itself.
 */
#include "ec/bucket_ifma_x86.hpp"

#if ZKPHIRE_HAVE_X86_IFMA

#include <algorithm>
#include <cstddef>

#include "ff/ifma_lanes_x86.hpp"

namespace zkphire::ec {

namespace {

using ff::Fq;
using namespace ff::ifma;
using Fq8 = Lanes<Fq>;

// Points as 64-bit words: a G1Affine is x, y, then the infinity flag in
// the low byte of its last word; a G1Jacobian is X, Y, Z.
constexpr long long kAffineWords = sizeof(G1Affine) / 8;
static_assert(sizeof(G1Affine) % 8 == 0 && kAffineWords == 13);
static_assert(offsetof(G1Affine, y) == sizeof(Fq));
static_assert(offsetof(G1Affine, infinity) == 2 * sizeof(Fq));
static_assert(sizeof(G1Jacobian) == 3 * sizeof(Fq));
static_assert(offsetof(G1Jacobian, Y) == sizeof(Fq) &&
              offsetof(G1Jacobian, Z) == 2 * sizeof(Fq));

} // namespace

ZKPHIRE_IFMA_TARGET void
finishSlopePairsIfma(G1Affine *slots, const std::uint32_t *slot,
                     const Fq *numer, const Fq *inv, const Fq *denom,
                     std::size_t n)
{
    Fq *xs = &slots[0].x;
    Fq *ys = &slots[0].y;
    const __m512i cons = consecutive();
    const Fq8 zero = broadcast(Fq::zero());
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t lanes = std::min<std::size_t>(8, n - i);
        const __mmask8 m = firstLanes(lanes);
        alignas(64) long long slot_words[8] = {};
        unsigned doubling_bits = 0;
        for (std::size_t l = 0; l < lanes; ++l) {
            slot_words[l] = kAffineWords * (slot[i + l] & ~kSlotDoubling);
            doubling_bits |= unsigned(slot[i + l] >> 31) << l;
        }
        const __mmask8 doubling = __mmask8(doubling_bits);
        const __m512i at = _mm512_load_si512(slot_words);
        const Fq8 lambda = montMul8(gather8(numer + i, cons, m),
                                    gather8(inv + i, cons, m));
        // d = x2 - x1 for an add, 0 for a doubling.
        const Fq8 d = select8(doubling,
                              gather8(denom + i, cons, __mmask8(m & ~doubling)),
                              zero);
        const Fq8 x1 = gather8(xs, at, m);
        const Fq8 y1 = gather8(ys, at, m);
        const Fq8 x3 = sub8(sqr8(lambda), add8(dbl8(x1), d));
        scatter8(ys, at, sub8(montMul8(lambda, sub8(x1, x3)), y1), m);
        scatter8(xs, at, x3, m);
    }
}

namespace {

static_assert(kAggregateTiles == 8, "one tile per IFMA lane");

/** Eight Jacobian points, lane t holding tile t's. */
struct Jac8 {
    Fq8 X, Y, Z;
};

/** b's lanes where m is set, a's elsewhere. */
ZKPHIRE_IFMA_TARGET inline Jac8
select(__mmask8 m, const Jac8 &a, const Jac8 &b)
{
    return {select8(m, a.X, b.X), select8(m, a.Y, b.Y), select8(m, a.Z, b.Z)};
}

/** The lanes as scalar points, lane t at out[t]. */
ZKPHIRE_IFMA_TARGET inline void
toPoints(const Jac8 &p, G1Jacobian (&out)[kAggregateTiles])
{
    // Lane t's G1Jacobian starts at word 18t: three times consecutive().
    const __m512i at = consecutive() + shl(consecutive(), 1);
    scatter8(&out[0].X, at, p.X);
    scatter8(&out[0].Y, at, p.Y);
    scatter8(&out[0].Z, at, p.Z);
}

ZKPHIRE_IFMA_TARGET inline Jac8
fromPoints(const G1Jacobian (&in)[kAggregateTiles])
{
    const __m512i at = consecutive() + shl(consecutive(), 1);
    return {gather8(&in[0].X, at), gather8(&in[0].Y, at),
            gather8(&in[0].Z, at)};
}

/**
 * Redo one step's lanes in `redo` with the scalar group law: out's lane t
 * becomes op(lhs's lane t, rhs's lane t, t). Only the lanes that met
 * equal x coordinates (a doubling or a cancellation) are redone, so on
 * generic bucket values this returns at once.
 */
// zkphire-lint: ct-exempt(identity/doubling special cases of the Jacobian group law; complete addition formulas are the ct fix and are tracked in ROADMAP)
template <class Op>
ZKPHIRE_IFMA_TARGET void
redoLanes(__mmask8 redo, const Jac8 &lhs, const Jac8 &rhs, Jac8 &out,
          Op &&op)
{
    if (redo == 0)
        return;
    G1Jacobian a[kAggregateTiles], b[kAggregateTiles], res[kAggregateTiles];
    toPoints(lhs, a);
    toPoints(rhs, b);
    toPoints(out, res);
    for (std::size_t t = 0; t < kAggregateTiles; ++t)
        if ((redo >> t) & 1)
            res[t] = op(a[t], b[t], t);
    out = fromPoints(res);
}

} // namespace

/**
 * Lane t walks tile t's buckets from its top bucket down, one bucket per
 * step, with running R and weighted sum S: R = R.addMixed(bucket), then
 * S = S.add(R). The generic madd-2007-bl and add-2007-bl formulas run in
 * every lane; masks then pick the identity cases in the order G1Jacobian
 * checks them, and a lane whose x coordinates matched redoes the step in
 * scalar code. Z3 is 2 Z1 h and 2 Z1 Z2 h, the values the scalar formulas
 * reach through a square.
 */
ZKPHIRE_IFMA_TARGET void
bucketTilesIfma(const G1Affine *buckets, std::size_t num_buckets,
                BucketTiles &tiles)
{
    const std::size_t len = num_buckets / kAggregateTiles;
    const Fq8 one = broadcast(Fq::one());
    const Jac8 identity{one, one, broadcast(Fq::zero())};
    Jac8 R = identity, S = identity;
    // Lane t reads bucket t * len + b at step b, from b = len - 1 down.
    alignas(64) long long top[8];
    for (std::size_t t = 0; t < 8; ++t)
        top[t] = kAffineWords * (long long)((t + 1) * len - 1);
    __m512i at = _mm512_load_si512(top);
    const __m512i step = _mm512_set1_epi64(kAffineWords);
    const __m512i flag_byte = _mm512_set1_epi64(0xff);
    const long long *flag_words =
        reinterpret_cast<const long long *>(buckets) + 12;

    for (std::size_t b = len; b-- > 0; at -= step) {
        const Jac8 o{gather8(&buckets[0].x, at), gather8(&buckets[0].y, at),
                     one};
        const __mmask8 o_inf = _mm512_test_epi64_mask(
            _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xff, at,
                                        flag_words, 8),
            flag_byte);

        // R = R.addMixed(o).
        const __mmask8 r_inf = isZero8(R.Z);
        const Fq8 z1z1 = sqr8(R.Z);
        const Fq8 u2 = montMul8(o.X, z1z1);
        const Fq8 s2 = montMul8(montMul8(o.Y, R.Z), z1z1);
        const Fq8 h = sub8(u2, R.X);
        const Fq8 i4 = dbl8(dbl8(sqr8(h)));
        const Fq8 j = montMul8(h, i4);
        const Fq8 r = dbl8(sub8(s2, R.Y));
        const Fq8 v = montMul8(R.X, i4);
        Jac8 sum;
        sum.X = sub8(sub8(sqr8(r), j), dbl8(v));
        sum.Y = sub8(montMul8(r, sub8(v, sum.X)), dbl8(montMul8(R.Y, j)));
        sum.Z = dbl8(montMul8(R.Z, h));
        sum = select(o_inf, select(r_inf, sum, o), R);
        redoLanes(__mmask8(eq8(R.X, u2) & ~r_inf & ~o_inf), R, o, sum,
                  [&](const G1Jacobian &p, const G1Jacobian &,
                      std::size_t t) {
                      return p.addMixed(buckets[t * len + b]);
                  });
        R = sum;

        // S = S.add(R).
        const __mmask8 s_inf = isZero8(S.Z);
        const __mmask8 n_inf = isZero8(R.Z);
        const Fq8 zz1 = sqr8(S.Z);
        const Fq8 zz2 = sqr8(R.Z);
        const Fq8 v1 = montMul8(S.X, zz2);
        const Fq8 v2 = montMul8(R.X, zz1);
        const Fq8 w1 = montMul8(montMul8(S.Y, R.Z), zz2);
        const Fq8 w2 = montMul8(montMul8(R.Y, S.Z), zz1);
        const Fq8 g = sub8(v2, v1);
        const Fq8 gi = sqr8(dbl8(g));
        const Fq8 gj = montMul8(g, gi);
        const Fq8 gr = dbl8(sub8(w2, w1));
        const Fq8 gv = montMul8(v1, gi);
        Jac8 total;
        total.X = sub8(sub8(sqr8(gr), gj), dbl8(gv));
        total.Y = sub8(montMul8(gr, sub8(gv, total.X)),
                       dbl8(montMul8(w1, gj)));
        total.Z = montMul8(dbl8(montMul8(S.Z, R.Z)), g);
        total = select(s_inf, select(n_inf, total, S), R);
        redoLanes(__mmask8(eq8(v1, v2) & ~s_inf & ~n_inf), S, R, total,
                  [](const G1Jacobian &p, const G1Jacobian &q, std::size_t) {
                      return p.add(q);
                  });
        S = total;
    }
    toPoints(R, tiles.total);
    toPoints(S, tiles.weighted);
}

} // namespace zkphire::ec

#endif // ZKPHIRE_HAVE_X86_IFMA
