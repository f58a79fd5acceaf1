/**
 * @file
 * Constant-time modular inversion by the Bernstein–Yang safegcd ("Fast
 * constant-time gcd computation and modular inversion", TCHES 2019),
 * arranged as libsecp256k1's modinv64: signed-62 limbs, the divsteps run
 * in batches of 62 on the low words alone, and each batch's 2x2 transition
 * matrix is then applied to the full f, g (the gcd pair) and d, e (their
 * Bezout coefficients).
 *
 * The divstep is the paper's original one, delta_0 = 1:
 *
 *     delta > 0 and g odd:  (1 - delta, g, (g - f) / 2)
 *     g odd otherwise:      (1 + delta, f, (g + f) / 2)
 *     g even:               (1 + delta, f, g / 2)
 *
 * Its Theorem 11.2 bounds the steps that take g to 0 for odd f and any g
 * with f^2 + 4 g^2 <= 5 * 2^(2d), which holds for f = p < 2^d and
 * 0 <= g < p: floor((49d + 57) / 17) steps for d >= 46, 1101 for Fq
 * (d = 381) and 738 for Fr (d = 255). Every inversion runs the batches
 * that cover the bound, 18 x 62 for Fq and 12 x 62 for Fr; steps past g = 0
 * leave f and d unchanged. The invariants d * x == f * scale and
 * e * x == g * scale (mod p) then leave d = +-scale / x, with f = +-1.
 *
 * Constant time: the batch and step counts are fixed by the modulus; a
 * step turns delta's sign and g's low bit into all-ones masks and applies
 * every branch of the divstep through them; the matrix updates are fixed
 * limb loops of 128-bit multiplies and arithmetic shifts; the range
 * corrections (adding p to a negative d, negating for f = -1) are masks of
 * sign bits. Nothing branches on or indexes by a value derived from x.
 *
 * PrimeField::inverse() calls it with scale = R^2 on its Montgomery limbs
 * xR, so the result x^{-1} R is the inverse in Montgomery form with no
 * further multiply. The Fermat power x^(p-2) is the test oracle
 * (tests/field_oracle.hpp).
 */
#ifndef ZKPHIRE_FF_SAFEGCD_HPP
#define ZKPHIRE_FF_SAFEGCD_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "ff/bigint.hpp"

namespace zkphire::ff::safegcd {

using i128 = __int128;

inline constexpr u64 kMask62 = ~u64(0) >> 2;
/** Divsteps per batch: 62 keeps |u| + |v| and |q| + |r| of the 2^62-scaled
 *  transition matrix at most 2^62, inside int64. */
inline constexpr std::size_t kBatchSteps = 62;

/** Bernstein–Yang Theorem 11.2: divsteps from delta = 1 that take g to 0
 *  for f^2 + 4 g^2 <= 5 * 2^(2d). */
constexpr std::size_t
divstepBound(std::size_t d)
{
    return d < 46 ? (49 * d + 80) / 17 : (49 * d + 57) / 17;
}
static_assert(divstepBound(381) == 1101 && divstepBound(255) == 738);

/** A signed integer in L limbs of radix 2^62, least significant first:
 *  limbs below the top one in [0, 2^62) between updates, the top one
 *  signed. */
template <std::size_t L>
struct Signed62 {
    std::int64_t v[L];
};

/** A batch's transition matrix scaled by 2^62: after it,
 *  2^62 * (f', g') = (u f + v g, q f + r g). */
struct Trans {
    std::int64_t u, v, q, r;
};

/** The modulus in signed-62 limbs and p^{-1} mod 2^62. */
template <std::size_t L>
struct Modulus {
    Signed62<L> mod;
    u64 inv62;
};

/** Signed-62 limbs of a nonnegative N-limb integer; L * 62 >= 64 N. */
template <std::size_t L, std::size_t N>
constexpr Signed62<L>
toSigned62(const BigInt<N> &x)
{
    Signed62<L> out{};
    for (std::size_t i = 0; i < L; ++i) {
        const std::size_t w = 62 * i / 64, off = 62 * i % 64;
        u64 limb = x.limb[w] >> off;
        if (off > 2 && w + 1 < N)
            limb |= x.limb[w + 1] << (64 - off);
        out.v[i] = std::int64_t(limb & kMask62);
    }
    return out;
}

/** The N-limb integer of signed-62 limbs, each in [0, 2^62), whose value
 *  fits N limbs. */
template <std::size_t N, std::size_t L>
BigInt<N>
fromSigned62(const Signed62<L> &x)
{
    BigInt<N> out;
    for (std::size_t i = 0; i < L; ++i) {
        const std::size_t w = 62 * i / 64, off = 62 * i % 64;
        const u64 limb = u64(x.v[i]);
        out.limb[w] |= limb << off;
        if (off > 2 && w + 1 < N)
            out.limb[w + 1] |= limb >> (64 - off);
    }
    return out;
}

template <std::size_t L, std::size_t N>
constexpr Modulus<L>
makeModulus(const BigInt<N> &p)
{
    u64 inv = 1; // Newton's iteration doubles the correct low bits.
    for (int i = 0; i < 6; ++i)
        inv *= 2 - p.limb[0] * inv;
    return Modulus<L>{toSigned62<L>(p), inv & kMask62};
}

/**
 * 62 divsteps on the low words of f and g: advances eta = -delta and
 * returns the batch's matrix. The low 62 bits of f and g decide every
 * step of the batch.
 */
template <std::size_t L>
inline Trans
divsteps(std::int64_t &eta, const Signed62<L> &f, const Signed62<L> &g)
{
    // The matrix in two's complement mod 2^64, so its doublings are
    // unsigned shifts; it stays in [-2^62, 2^62].
    u64 u = 1, v = 0, q = 0, r = 1;
    u64 fw = u64(f.v[0]), gw = u64(g.v[0]);
    for (std::size_t i = 0; i < kBatchSteps; ++i) {
        const u64 pos = u64(eta >> 63); // all ones for delta > 0
        const u64 odd = -(gw & 1);      // all ones for g odd
        // g += (delta > 0 ? -f : f) for an odd g, rows alike.
        gw += ((fw ^ pos) - pos) & odd;
        q += ((u ^ pos) - pos) & odd;
        r += ((v ^ pos) - pos) & odd;
        // For delta > 0 and g odd, f takes the old g: f + (g - f).
        const u64 swap = pos & odd;
        fw += gw & swap;
        u += q & swap;
        v += r & swap;
        // delta becomes 1 - delta on a swap, 1 + delta otherwise.
        eta = (eta ^ std::int64_t(swap)) - std::int64_t(swap) - 1;
        gw >>= 1;
        u <<= 1;
        v <<= 1;
    }
    return Trans{std::int64_t(u), std::int64_t(v), std::int64_t(q),
                 std::int64_t(r)};
}

/**
 * (d, e) <- (t (d, e) + p (md, me)) / 2^62. md and me add p where d or e
 * is negative, then the multiple of p that clears the low 62 bits, which
 * keeps d and e in (-2p, p) (libsecp256k1's safegcd range argument).
 */
template <std::size_t L>
inline void
updateDE(Signed62<L> &d, Signed62<L> &e, const Trans &t, const Modulus<L> &m)
{
    const std::int64_t sd = d.v[L - 1] >> 63, se = e.v[L - 1] >> 63;
    std::int64_t md = (t.u & sd) + (t.v & se);
    std::int64_t me = (t.q & sd) + (t.r & se);
    i128 cd = i128(t.u) * d.v[0] + i128(t.v) * e.v[0];
    i128 ce = i128(t.q) * d.v[0] + i128(t.r) * e.v[0];
    md -= std::int64_t((m.inv62 * u64(cd) + u64(md)) & kMask62);
    me -= std::int64_t((m.inv62 * u64(ce) + u64(me)) & kMask62);
    cd += i128(m.mod.v[0]) * md;
    ce += i128(m.mod.v[0]) * me;
    assert((u64(cd) & kMask62) == 0 && (u64(ce) & kMask62) == 0);
    cd >>= 62;
    ce >>= 62;
    for (std::size_t i = 1; i < L; ++i) {
        cd += i128(t.u) * d.v[i] + i128(t.v) * e.v[i] +
              i128(m.mod.v[i]) * md;
        ce += i128(t.q) * d.v[i] + i128(t.r) * e.v[i] +
              i128(m.mod.v[i]) * me;
        d.v[i - 1] = std::int64_t(u64(cd) & kMask62);
        e.v[i - 1] = std::int64_t(u64(ce) & kMask62);
        cd >>= 62;
        ce >>= 62;
    }
    d.v[L - 1] = std::int64_t(cd);
    e.v[L - 1] = std::int64_t(ce);
}

/** (f, g) <- t (f, g) / 2^62, exact by construction of t. */
template <std::size_t L>
inline void
updateFG(Signed62<L> &f, Signed62<L> &g, const Trans &t)
{
    i128 cf = i128(t.u) * f.v[0] + i128(t.v) * g.v[0];
    i128 cg = i128(t.q) * f.v[0] + i128(t.r) * g.v[0];
    assert((u64(cf) & kMask62) == 0 && (u64(cg) & kMask62) == 0);
    cf >>= 62;
    cg >>= 62;
    for (std::size_t i = 1; i < L; ++i) {
        cf += i128(t.u) * f.v[i] + i128(t.v) * g.v[i];
        cg += i128(t.q) * f.v[i] + i128(t.r) * g.v[i];
        f.v[i - 1] = std::int64_t(u64(cf) & kMask62);
        g.v[i - 1] = std::int64_t(u64(cg) & kMask62);
        cf >>= 62;
        cg >>= 62;
    }
    f.v[L - 1] = std::int64_t(cf);
    g.v[L - 1] = std::int64_t(cg);
}

/** Carry every limb's excess into the next, leaving limbs below the top
 *  in [0, 2^62). */
template <std::size_t L>
inline void
carry62(Signed62<L> &d)
{
    for (std::size_t i = 0; i + 1 < L; ++i) {
        d.v[i + 1] += d.v[i] >> 62;
        d.v[i] &= std::int64_t(kMask62);
    }
}

/** d in (-2p, p) to sign * d mod p in [0, p), sign the top limb of f. */
template <std::size_t L>
inline void
normalize(Signed62<L> &d, std::int64_t sign, const Modulus<L> &m)
{
    // Add p if d < 0, then negate for f = -1: now in (-p, p).
    std::int64_t add = d.v[L - 1] >> 63;
    const std::int64_t neg = sign >> 63;
    for (std::size_t i = 0; i < L; ++i) {
        d.v[i] += m.mod.v[i] & add;
        d.v[i] = (d.v[i] ^ neg) - neg;
    }
    carry62(d);
    // Add p again if still negative: now in [0, p).
    add = d.v[L - 1] >> 63;
    for (std::size_t i = 0; i < L; ++i)
        d.v[i] += m.mod.v[i] & add;
    carry62(d);
}

/**
 * scale / x mod p in constant time, for 0 < x < p and scale < p (x = 0
 * returns 0). The modulus is a template argument, as in the Montgomery
 * kernels, so the batch count and the modulus limbs are constants.
 */
template <class Big, Big kMod>
Big
inverse(const Big &x, const Big &scale)
{
    constexpr std::size_t N = Big::numLimbs;
    constexpr std::size_t L = (64 * N + 61) / 62;
    static constexpr Modulus<L> m = makeModulus<L>(kMod);
    constexpr std::size_t kSteps = divstepBound(kMod.bitLength());
    constexpr std::size_t kBatches = (kSteps + kBatchSteps - 1) / kBatchSteps;
    static_assert(kBatches * kBatchSteps >= kSteps,
                  "fewer divsteps than Theorem 11.2 requires");
    assert(x < kMod && scale < kMod);
    Signed62<L> d{}, e = toSigned62<L>(scale), f = m.mod,
                g = toSigned62<L>(x);
    std::int64_t eta = -1; // -delta, delta_0 = 1
    for (std::size_t i = 0; i < kBatches; ++i) {
        const Trans t = divsteps(eta, f, g);
        updateDE(d, e, t, m);
        updateFG(f, g, t);
    }
    normalize(d, f.v[L - 1], m);
    return fromSigned62<N>(d);
}

} // namespace zkphire::ff::safegcd

#endif // ZKPHIRE_FF_SAFEGCD_HPP
