/**
 * @file
 * Eight Fr elements in AVX-512 IFMA registers: the radix-2^52 lane layout
 * of the BLS12-381 scalar field, its arithmetic, and the moves between
 * element arrays and lanes, for the Fr-bound prover loops (the span
 * kernels of ff/mul_ifma_x86.cpp and the GatePlan block loop). Private to
 * those files and their tests: include it only from a .cpp whose callers
 * dispatch on ff::kernels::ifmaSelected() or skip hosts without IFMA. The
 * shift and mask helpers are ff/fq8_ifma_x86.hpp's.
 *
 * Each of the eight SIMD lanes holds one element in radix 2^52 (five
 * limbs, the top one below 2^47 since r < 2^255), always canonical: every
 * operation takes and returns values below r, so a lane's limbs are the
 * scalar kernels' four Montgomery words regrouped, and equality is limb
 * equality. The multiplier keeps R = 2^256, the scalar kernels' radix:
 * four 52-bit reduction steps and one 48-bit step (4 * 52 + 48 = 256), so
 * every lane returns exactly the canonical a * b * 2^-256 mod r that
 * montMulAsmX86 and montMulNoCarry return.
 *
 * Elements move as whole 64-byte rows (two elements each) and 64-bit word
 * permutes, not gathers: eight consecutive elements are four rows and
 * eight vpermt2q; eight (even, odd) pairs are eight rows and a
 * three-stage 8x8 word transpose. A partial vector of n < 8 lanes moves
 * only its own rows, so no lane reads or writes past an array; lanes at
 * and above n load as zero.
 */
#ifndef ZKPHIRE_FF_FR8_IFMA_X86_HPP
#define ZKPHIRE_FF_FR8_IFMA_X86_HPP

#include "ff/fq8_ifma_x86.hpp"
#include "ff/fr.hpp"

#if ZKPHIRE_HAVE_X86_IFMA

namespace zkphire::ff::ifma {

inline constexpr u64 kMask48 = (u64(1) << 48) - 1;

/** The five radix-2^52 limbs of a 256-bit value given as four words. */
constexpr std::array<u64, 5>
toLimbs52(const std::array<u64, 4> &w)
{
    return {w[0] & kMask52, ((w[0] >> 52) | (w[1] << 12)) & kMask52,
            ((w[1] >> 40) | (w[2] << 24)) & kMask52,
            ((w[2] >> 28) | (w[3] << 36)) & kMask52, w[3] >> 16};
}

inline constexpr Fr::Big kR = Fr::Big::fromHex(FrCfg::modulusHex());
inline constexpr std::array<u64, 5> kR52 = toLimbs52(kR.limb);
/** -r^{-1} mod 2^52: the low 52 bits of -r^{-1} mod 2^64. */
inline constexpr u64 kRK0 = kernels::negInvMod64(kR.limb[0]) & kMask52;
static_assert(kR52[4] < (u64(1) << 47), "r < 2^255: a 47-bit top limb");

/** Eight Fr elements, limb-sliced: l[j] holds limb j of every lane. The
 *  explicit alignment holds in every translation unit: without AVX-512
 *  enabled, GCC caps __m512i's alignment at 16, so a heap array of them
 *  (the GatePlan lane registers) would not meet the aligned moves the
 *  lane functions use. */
struct alignas(64) Fr8 {
    __m512i l[5];
};

/** Four 64-bit words per lane -> five 52-bit limbs per lane. */
ZKPHIRE_IFMA_FN Fr8
fromWords(const __m512i (&w)[4])
{
    Fr8 x;
    x.l[0] = lo52(w[0]);
    x.l[1] = lo52(shr(w[0], 52) | shl(w[1], 12));
    x.l[2] = lo52(shr(w[1], 40) | shl(w[2], 24));
    x.l[3] = lo52(shr(w[2], 28) | shl(w[3], 36));
    x.l[4] = shr(w[3], 16);
    return x;
}

/** Five canonical 52-bit limbs per lane -> four 64-bit words per lane. */
ZKPHIRE_IFMA_FN void
toWords(const Fr8 &x, __m512i (&w)[4])
{
    w[0] = x.l[0] | shl(x.l[1], 52);
    w[1] = shr(x.l[1], 12) | shl(x.l[2], 40);
    w[2] = shr(x.l[2], 24) | shl(x.l[3], 28);
    w[3] = shr(x.l[3], 36) | shl(x.l[4], 16);
}

ZKPHIRE_IFMA_FN Fr8
zero8()
{
    Fr8 x;
    for (__m512i &l : x.l)
        l = _mm512_setzero_si512();
    return x;
}

/** The element c in every lane. */
ZKPHIRE_IFMA_FN Fr8
broadcast(const Fr &c)
{
    const std::array<u64, 5> l = toLimbs52(c.raw().limb);
    Fr8 x;
    for (std::size_t j = 0; j < 5; ++j)
        x.l[j] = _mm512_set1_epi64((long long)l[j]);
    return x;
}

/** Row k (two elements, 64 bytes) at p + k * stride for k < n, zero
 *  above. */
ZKPHIRE_IFMA_FN void
loadRows(const Fr *p, std::size_t stride, std::size_t n, __m512i *rows,
         std::size_t count)
{
    static_assert(sizeof(Fr) == 4 * sizeof(u64));
    for (std::size_t k = 0; k < count; ++k)
        rows[k] = k < n ? _mm512_loadu_si512(p + k * stride)
                        : _mm512_setzero_si512();
}

/** Words of a (indexes 0-7) and b (8-15) picked by index, lowest first.
 *  The two-source permute, not the unpack and lane-shuffle intrinsics:
 *  GCC 12 builds those on an undefined register value that
 *  -Wmaybe-uninitialized reports. */
ZKPHIRE_IFMA_FN __m512i
pick(__m512i a, __m512i b, long long i0, long long i1, long long i2,
     long long i3, long long i4, long long i5, long long i6, long long i7)
{
    return _mm512_permutex2var_epi64(
        a, _mm512_set_epi64(i7, i6, i5, i4, i3, i2, i1, i0), b);
}

/** 8x8 transpose of 64-bit words: word c of row k moves to word k of row
 *  c, in three stages of eight two-source permutes. */
ZKPHIRE_IFMA_FN void
transpose8x8(__m512i (&r)[8])
{
    // t[2m + e] holds rows 2m, 2m+1 at words e, 2 + e, 4 + e, 6 + e.
    __m512i t[8];
    for (std::size_t m = 0; m < 4; ++m) {
        t[2 * m] = pick(r[2 * m], r[2 * m + 1], 0, 8, 2, 10, 4, 12, 6, 14);
        t[2 * m + 1] =
            pick(r[2 * m], r[2 * m + 1], 1, 9, 3, 11, 5, 13, 7, 15);
    }
    // u[e] holds rows 0-3 at words e, 2 + e; u[2 + e] rows 4-7 there;
    // u[4 + e] and u[6 + e] the same at words 4 + e, 6 + e.
    __m512i u[8];
    for (std::size_t e = 0; e < 2; ++e) {
        u[e] = pick(t[e], t[2 + e], 0, 1, 2, 3, 8, 9, 10, 11);
        u[2 + e] = pick(t[4 + e], t[6 + e], 0, 1, 2, 3, 8, 9, 10, 11);
        u[4 + e] = pick(t[e], t[2 + e], 4, 5, 6, 7, 12, 13, 14, 15);
        u[6 + e] = pick(t[4 + e], t[6 + e], 4, 5, 6, 7, 12, 13, 14, 15);
    }
    for (std::size_t h = 0; h < 2; ++h)
        for (std::size_t e = 0; e < 2; ++e) {
            const __m512i lo = u[4 * h + e], hi = u[4 * h + 2 + e];
            r[4 * h + e] = pick(lo, hi, 0, 1, 4, 5, 8, 9, 12, 13);
            r[4 * h + 2 + e] = pick(lo, hi, 2, 3, 6, 7, 10, 11, 14, 15);
        }
}

/** Lanes k < n take the pair (p[k * stride], p[k * stride + 1]), the even
 *  element into lo and the odd into hi; lanes from n on hold zero. */
ZKPHIRE_IFMA_FN void
loadPairs(const Fr *p, std::size_t stride, Fr8 &lo, Fr8 &hi,
          std::size_t n = 8)
{
    __m512i r[8];
    loadRows(p, stride, n, r, 8);
    transpose8x8(r);
    const __m512i even[4] = {r[0], r[1], r[2], r[3]};
    const __m512i odd[4] = {r[4], r[5], r[6], r[7]};
    lo = fromWords(even);
    hi = fromWords(odd);
}

/** p[2k] = lo lane k and p[2k + 1] = hi lane k for k < n. */
ZKPHIRE_IFMA_FN void
storePairs(Fr *p, const Fr8 &lo, const Fr8 &hi, std::size_t n = 8)
{
    __m512i even[4], odd[4];
    toWords(lo, even);
    toWords(hi, odd);
    __m512i r[8] = {even[0], even[1], even[2], even[3],
                    odd[0],  odd[1],  odd[2],  odd[3]};
    transpose8x8(r);
    for (std::size_t k = 0; k < n; ++k)
        _mm512_storeu_si512(p + 2 * k, r[k]);
}

/** Lanes k < n take p[k]; lanes from n on hold zero. Rows of two
 *  elements become word-sliced halves (words 0 and 1, then 2 and 3, of
 *  four elements) and the halves become the four word vectors. */
ZKPHIRE_IFMA_FN Fr8
load8(const Fr *p, std::size_t n = 8)
{
    __m512i r[4];
    if (n >= 8) {
        loadRows(p, 2, 4, r, 4);
    } else {
        // A partial vector may end inside a row: stage it through a
        // zeroed buffer so nothing past p[n - 1] is read.
        alignas(64) Fr tail[8] = {};
        for (std::size_t k = 0; k < n; ++k)
            tail[k] = p[k];
        loadRows(tail, 2, 4, r, 4);
    }
    const __m512i a = pick(r[0], r[1], 0, 4, 8, 12, 1, 5, 9, 13);
    const __m512i b = pick(r[0], r[1], 2, 6, 10, 14, 3, 7, 11, 15);
    const __m512i c = pick(r[2], r[3], 0, 4, 8, 12, 1, 5, 9, 13);
    const __m512i d = pick(r[2], r[3], 2, 6, 10, 14, 3, 7, 11, 15);
    const __m512i w[4] = {pick(a, c, 0, 1, 2, 3, 8, 9, 10, 11),
                          pick(a, c, 4, 5, 6, 7, 12, 13, 14, 15),
                          pick(b, d, 0, 1, 2, 3, 8, 9, 10, 11),
                          pick(b, d, 4, 5, 6, 7, 12, 13, 14, 15)};
    return fromWords(w);
}

/** p[k] = lane k for k < n: load8's permutes in reverse. */
ZKPHIRE_IFMA_FN void
store8(Fr *p, const Fr8 &x, std::size_t n = 8)
{
    __m512i w[4];
    toWords(x, w);
    const __m512i a = pick(w[0], w[1], 0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i c = pick(w[0], w[1], 4, 5, 6, 7, 12, 13, 14, 15);
    const __m512i b = pick(w[2], w[3], 0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i d = pick(w[2], w[3], 4, 5, 6, 7, 12, 13, 14, 15);
    const __m512i r[4] = {pick(a, b, 0, 4, 8, 12, 1, 5, 9, 13),
                          pick(a, b, 2, 6, 10, 14, 3, 7, 11, 15),
                          pick(c, d, 0, 4, 8, 12, 1, 5, 9, 13),
                          pick(c, d, 2, 6, 10, 14, 3, 7, 11, 15)};
    if (n >= 8) {
        for (std::size_t k = 0; k < 4; ++k)
            _mm512_storeu_si512(p + 2 * k, r[k]);
        return;
    }
    alignas(64) Fr tail[8];
    for (std::size_t k = 0; k < 4; ++k)
        _mm512_store_si512(tail + 2 * k, r[k]);
    for (std::size_t k = 0; k < n; ++k)
        p[k] = tail[k];
}

/** s - r with a signed borrow chain, kept in the lanes where it did not
 *  go negative: the canonical value of s < 2r given in 52-bit limbs. */
ZKPHIRE_IFMA_FN Fr8
subPIfAbove(const __m512i (&s)[5])
{
    __m512i d[5];
    d[0] = s[0] - _mm512_set1_epi64((long long)kR52[0]);
    for (std::size_t j = 1; j < 5; ++j) {
        d[j] = s[j] - _mm512_set1_epi64((long long)kR52[j]) +
               sar(d[j - 1], 52);
        d[j - 1] = lo52(d[j - 1]);
    }
    const __mmask8 below_r =
        _mm512_cmplt_epi64_mask(d[4], _mm512_setzero_si512());
    Fr8 x;
    for (std::size_t j = 0; j < 5; ++j)
        x.l[j] = _mm512_mask_blend_epi64(below_r, d[j], s[j]);
    return x;
}

/** a + b mod r in every lane. */
ZKPHIRE_IFMA_FN Fr8
add8(const Fr8 &a, const Fr8 &b)
{
    __m512i s[5];
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t j = 0; j < 5; ++j) {
        const __m512i t = a.l[j] + b.l[j] + carry;
        s[j] = lo52(t);
        carry = shr(t, 52);
    }
    return subPIfAbove(s);
}

/** a - b mod r in every lane: a signed borrow chain, then r added back
 *  (with a carry chain) in the lanes that went negative. */
ZKPHIRE_IFMA_FN Fr8
sub8(const Fr8 &a, const Fr8 &b)
{
    __m512i d[5];
    d[0] = a.l[0] - b.l[0];
    for (std::size_t j = 1; j < 5; ++j) {
        d[j] = a.l[j] - b.l[j] + sar(d[j - 1], 52);
        d[j - 1] = lo52(d[j - 1]);
    }
    const __mmask8 neg = _mm512_cmplt_epi64_mask(d[4], _mm512_setzero_si512());
    Fr8 x;
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t j = 0; j < 5; ++j) {
        const __m512i t =
            _mm512_mask_add_epi64(d[j], neg, d[j],
                                  _mm512_set1_epi64((long long)kR52[j])) +
            carry;
        x.l[j] = j < 4 ? lo52(t) : t;
        carry = sar(t, 52);
    }
    return x;
}

/**
 * a * b * 2^-256 mod r in every lane. Inputs are canonical 52-bit limbs;
 * so is the result.
 *
 * CIOS in radix 2^52 with lazy carries, as montMul8 of Fq: each 64-bit
 * accumulator takes the low and high halves of the 104-bit limb products
 * without normalizing (at most 20 addends below 2^52 over the six
 * iterations an accumulator lives, so below 2^57). Iterations 0-3 reduce
 * 52 bits each; iteration 4 reduces the last 48 bits (m mod 2^48), for
 * R = 2^(4 * 52 + 48) = 2^256. The value then is T = (a * b + M * r) /
 * 2^208 < 2^304 with 2^48 | T; normalizing T's limbs and shifting right
 * 48 bits gives V = a * b * 2^-256 mod r + {0 or r}, V < 2r, and one
 * masked subtraction makes it canonical.
 */
ZKPHIRE_IFMA_FN Fr8
montMul8(const Fr8 &a, const Fr8 &b)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i k0 = _mm512_set1_epi64((long long)kRK0);
    __m512i p[5];
    for (std::size_t j = 0; j < 5; ++j)
        p[j] = _mm512_set1_epi64((long long)kR52[j]);

    __m512i t[6];
    for (__m512i &x : t)
        x = zero;
    for (std::size_t i = 0; i < 5; ++i) {
        const __m512i bi = b.l[i];
        for (std::size_t j = 0; j < 5; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], a.l[j], bi);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], a.l[j], bi);
        }
        __m512i m = _mm512_madd52lo_epu64(zero, t[0], k0);
        if (i == 4)
            m = (__m512i)((U64x8)m & kMask48);
        for (std::size_t j = 0; j < 5; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], m, p[j]);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, p[j]);
        }
        if (i < 4) {
            t[1] += shr(t[0], 52);
            for (std::size_t j = 0; j < 5; ++j)
                t[j] = t[j + 1];
            t[5] = zero;
        }
    }

    // Normalize to 52-bit limbs; T < 2^304 leaves limb 5 below 2^44.
    for (std::size_t j = 0; j < 5; ++j) {
        t[j + 1] += shr(t[j], 52);
        t[j] = lo52(t[j]);
    }
    // V = T / 2^48, then the canonical value.
    __m512i v[5];
    for (std::size_t j = 0; j < 5; ++j)
        v[j] = shr(t[j], 48) | lo52(shl(t[j + 1], 4));
    return subPIfAbove(v);
}

/** The sum of the eight lanes. */
ZKPHIRE_IFMA_FN Fr
laneSum(const Fr8 &x)
{
    alignas(64) Fr e[8];
    store8(e, x);
    Fr s = e[0];
    for (std::size_t k = 1; k < 8; ++k)
        s += e[k];
    return s;
}

} // namespace zkphire::ff::ifma

#endif // ZKPHIRE_HAVE_X86_IFMA

#endif // ZKPHIRE_FF_FR8_IFMA_X86_HPP
