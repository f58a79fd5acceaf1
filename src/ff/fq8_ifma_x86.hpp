/**
 * @file
 * Eight Fq elements in AVX-512 IFMA registers: the radix-2^52 lane layout
 * and its arithmetic, shared by the batched Fq kernels
 * (ff/mul_ifma_x86.cpp) and the point kernels of the MSM bucket rounds
 * (ec/bucket_ifma_x86.cpp). Private to those files: include it only from
 * a .cpp whose callers dispatch on ff::kernels::ifmaSelected().
 *
 * Each of the eight SIMD lanes holds one field element in radix 2^52
 * (eight limbs, the top one 17 bits wide), always canonical: every
 * operation takes and returns values below p, so a lane's limbs equal the
 * scalar kernels' Montgomery words of the same element, and equality is
 * limb equality.
 *
 * Every function that touches a 512-bit vector carries the
 * avx512f/avx512ifma target attribute instead of its file being built
 * with -mavx512*: a file-wide flag would let the compiler emit AVX-512
 * into the inline functions such a file shares with the rest of the
 * program, and the linker could keep that copy on a host without it.
 */
#ifndef ZKPHIRE_FF_FQ8_IFMA_X86_HPP
#define ZKPHIRE_FF_FQ8_IFMA_X86_HPP

#include "ff/fq.hpp"

#if ZKPHIRE_HAVE_X86_IFMA

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstddef>

#define ZKPHIRE_IFMA_FN __attribute__((target("avx512f,avx512ifma"))) inline

namespace zkphire::ff::ifma {

inline constexpr u64 kMask52 = (u64(1) << 52) - 1;
inline constexpr u64 kMask20 = (u64(1) << 20) - 1;

/** The eight radix-2^52 limbs of a 384-bit value given as six words. */
constexpr std::array<u64, 8>
toLimbs52(const std::array<u64, 6> &w)
{
    std::array<u64, 8> l{};
    for (std::size_t k = 0; k < 8; ++k) {
        const std::size_t word = 52 * k / 64, sh = 52 * k % 64;
        u64 v = w[word] >> sh;
        if (sh > 12 && word + 1 < 6)
            v |= w[word + 1] << (64 - sh);
        l[k] = v & kMask52;
    }
    return l;
}

inline constexpr Fq::Big kP = Fq::Big::fromHex(FqCfg::modulusHex());
inline constexpr std::array<u64, 8> kP52 = toLimbs52(kP.limb);
/** -p^{-1} mod 2^52: the low 52 bits of -p^{-1} mod 2^64. */
inline constexpr u64 kK0 = kernels::negInvMod64(kP.limb[0]) & kMask52;
static_assert(kP52[7] < (u64(1) << 17), "p < 2^381: a 17-bit top limb");

/** Eight Fq elements, limb-sliced: l[j] holds limb j of every lane. The
 *  kernels keep these in registers or on the stack only, never in heap
 *  storage (a heap array of them need not be 64-byte aligned). */
struct Fq8 {
    __m512i l[8];
};

// Shifts, masks and adds use the compiler's vector extensions rather than
// the immediate-shift intrinsics: GCC 12 builds those on an "undefined"
// register value that -Wmaybe-uninitialized then reports.
typedef u64 U64x8 __attribute__((vector_size(64)));
typedef long long I64x8 __attribute__((vector_size(64)));

ZKPHIRE_IFMA_FN __m512i
shr(__m512i x, int n)
{
    return (__m512i)((U64x8)x >> n);
}

ZKPHIRE_IFMA_FN __m512i
sar(__m512i x, int n)
{
    return (__m512i)((I64x8)x >> n);
}

ZKPHIRE_IFMA_FN __m512i
shl(__m512i x, int n)
{
    return (__m512i)((U64x8)x << n);
}

ZKPHIRE_IFMA_FN __m512i
lo52(__m512i x)
{
    return (__m512i)((U64x8)x & kMask52);
}

/** u64 offsets of eight consecutive elements: lane e reads word 6e. */
ZKPHIRE_IFMA_FN __m512i
consecutive()
{
    return _mm512_set_epi64(42, 36, 30, 24, 18, 12, 6, 0);
}

ZKPHIRE_IFMA_FN const long long *
words(const Fq *x)
{
    static_assert(sizeof(Fq) == 6 * sizeof(u64));
    return reinterpret_cast<const long long *>(x);
}

ZKPHIRE_IFMA_FN long long *
words(Fq *x)
{
    return reinterpret_cast<long long *>(x);
}

/** Six 64-bit words per lane -> eight 52-bit limbs per lane. */
ZKPHIRE_IFMA_FN Fq8
fromWords(const __m512i (&w)[6])
{
    Fq8 x;
    x.l[0] = lo52(w[0]);
    x.l[1] = lo52(shr(w[0], 52) | shl(w[1], 12));
    x.l[2] = lo52(shr(w[1], 40) | shl(w[2], 24));
    x.l[3] = lo52(shr(w[2], 28) | shl(w[3], 36));
    x.l[4] = lo52(shr(w[3], 16) | shl(w[4], 48));
    x.l[5] = lo52(shr(w[4], 4));
    x.l[6] = lo52(shr(w[4], 56) | shl(w[5], 8));
    x.l[7] = shr(w[5], 44);
    return x;
}

/** Eight canonical 52-bit limbs per lane -> six 64-bit words per lane. */
ZKPHIRE_IFMA_FN void
toWords(const Fq8 &x, __m512i (&w)[6])
{
    w[0] = x.l[0] | shl(x.l[1], 52);
    w[1] = shr(x.l[1], 12) | shl(x.l[2], 40);
    w[2] = shr(x.l[2], 24) | shl(x.l[3], 28);
    w[3] = shr(x.l[3], 36) | shl(x.l[4], 16);
    w[4] = shr(x.l[4], 48) | shl(x.l[5], 4) | shl(x.l[6], 56);
    w[5] = shr(x.l[6], 8) | shl(x.l[7], 44);
}

/** The element c in every lane. */
ZKPHIRE_IFMA_FN Fq8
broadcast(const Fq &c)
{
    const std::array<u64, 8> l = toLimbs52(c.raw().limb);
    Fq8 x;
    for (std::size_t j = 0; j < 8; ++j)
        x.l[j] = _mm512_set1_epi64((long long)l[j]);
    return x;
}

/** Fq::one() in every lane. */
ZKPHIRE_IFMA_FN Fq8
ones()
{
    return broadcast(Fq::one());
}

/** Lane e reads the element at word offset idx[e] of base when e is in
 *  m; the other lanes hold Fq::one() and read nothing. */
ZKPHIRE_IFMA_FN Fq8
gather8(const Fq *base, __m512i idx, __mmask8 m = 0xff)
{
    const Fq one = Fq::one();
    __m512i w[6];
    for (std::size_t j = 0; j < 6; ++j)
        w[j] = _mm512_mask_i64gather_epi64(
            _mm512_set1_epi64((long long)one.raw().limb[j]), m, idx,
            words(base) + j, 8);
    return fromWords(w);
}

/** Lane e writes its element to word offset idx[e] of base when e is in
 *  m; the other lanes write nothing. */
ZKPHIRE_IFMA_FN void
scatter8(Fq *base, __m512i idx, const Fq8 &x, __mmask8 m = 0xff)
{
    __m512i w[6];
    toWords(x, w);
    for (std::size_t j = 0; j < 6; ++j)
        _mm512_mask_i64scatter_epi64(words(base) + j, m, idx, w[j], 8);
}

/** Lanes [0, n) of an eight-lane vector, n <= 8. */
inline __mmask8
firstLanes(std::size_t n)
{
    return __mmask8((1u << std::min<std::size_t>(n, 8)) - 1);
}

/** Lanes whose elements are equal. */
ZKPHIRE_IFMA_FN __mmask8
eq8(const Fq8 &a, const Fq8 &b)
{
    __mmask8 m = 0xff;
    for (std::size_t j = 0; j < 8; ++j)
        m &= _mm512_cmpeq_epi64_mask(a.l[j], b.l[j]);
    return m;
}

/** Lanes holding zero. */
ZKPHIRE_IFMA_FN __mmask8
isZero8(const Fq8 &a)
{
    __m512i any = a.l[0];
    for (std::size_t j = 1; j < 8; ++j)
        any |= a.l[j];
    return _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512());
}

/** b in the lanes of m, a elsewhere. */
ZKPHIRE_IFMA_FN Fq8
select8(__mmask8 m, const Fq8 &a, const Fq8 &b)
{
    Fq8 r;
    for (std::size_t j = 0; j < 8; ++j)
        r.l[j] = _mm512_mask_blend_epi64(m, a.l[j], b.l[j]);
    return r;
}

/** s - p with a signed borrow chain, kept in the lanes where it did not
 *  go negative: the canonical value of s < 2p given in 52-bit limbs. */
ZKPHIRE_IFMA_FN Fq8
subPIfAbove(const __m512i (&s)[8])
{
    __m512i d[8];
    d[0] = s[0] - _mm512_set1_epi64((long long)kP52[0]);
    for (std::size_t j = 1; j < 8; ++j) {
        d[j] = s[j] - _mm512_set1_epi64((long long)kP52[j]) +
               sar(d[j - 1], 52);
        d[j - 1] = lo52(d[j - 1]);
    }
    const __mmask8 below_p =
        _mm512_cmplt_epi64_mask(d[7], _mm512_setzero_si512());
    Fq8 r;
    for (std::size_t j = 0; j < 8; ++j)
        r.l[j] = _mm512_mask_blend_epi64(below_p, d[j], s[j]);
    return r;
}

/** a + b mod p in every lane. */
ZKPHIRE_IFMA_FN Fq8
add8(const Fq8 &a, const Fq8 &b)
{
    __m512i s[8];
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t j = 0; j < 8; ++j) {
        const __m512i t = a.l[j] + b.l[j] + carry;
        s[j] = lo52(t);
        carry = shr(t, 52);
    }
    return subPIfAbove(s);
}

/** 2a mod p in every lane. */
ZKPHIRE_IFMA_FN Fq8
dbl8(const Fq8 &a)
{
    return add8(a, a);
}

/** a - b mod p in every lane: a signed borrow chain, then p added back
 *  (with a carry chain) in the lanes that went negative. */
ZKPHIRE_IFMA_FN Fq8
sub8(const Fq8 &a, const Fq8 &b)
{
    __m512i d[8];
    d[0] = a.l[0] - b.l[0];
    for (std::size_t j = 1; j < 8; ++j) {
        d[j] = a.l[j] - b.l[j] + sar(d[j - 1], 52);
        d[j - 1] = lo52(d[j - 1]);
    }
    const __mmask8 neg = _mm512_cmplt_epi64_mask(d[7], _mm512_setzero_si512());
    Fq8 r;
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t j = 0; j < 8; ++j) {
        const __m512i t =
            _mm512_mask_add_epi64(d[j], neg, d[j],
                                  _mm512_set1_epi64((long long)kP52[j])) +
            carry;
        r.l[j] = j < 7 ? lo52(t) : t;
        carry = sar(t, 52);
    }
    return r;
}

/**
 * a * b * 2^-384 mod p in every lane. Inputs are canonical 52-bit limbs;
 * so is the result.
 *
 * CIOS in radix 2^52 with lazy carries: each 64-bit accumulator takes the
 * low and high halves of the 104-bit limb products without normalizing,
 * which stays below 2^58 over the nine iterations an accumulator lives.
 * Iterations 0-6 reduce 52 bits each (m = t0 * -p^{-1} mod 2^52, fold
 * m * p, move t0's carry up and drop a limb); iteration 7 reduces the
 * last 20 bits (m mod 2^20), for R = 2^(7 * 52 + 20) = 2^384. The value
 * then is T = (a * b + M * p) / 2^364 < 2^402 with 2^20 | T; normalizing
 * T's limbs and shifting right 20 bits gives V = a * b * 2^-384 mod p + {0
 * or p}, V < 2p, and one masked subtraction makes it canonical.
 *
 * One product keeps most of the 32 vector registers live (operand a,
 * nine accumulators, the modulus). Interleaving two in one body spills,
 * so callers keep two chains in flight with two independent calls and let
 * the out-of-order core overlap them.
 */
ZKPHIRE_IFMA_FN Fq8
montMul8(const Fq8 &a, const Fq8 &b)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i k0 = _mm512_set1_epi64((long long)kK0);
    __m512i p[8];
    for (std::size_t j = 0; j < 8; ++j)
        p[j] = _mm512_set1_epi64((long long)kP52[j]);

    __m512i t[9];
    for (std::size_t j = 0; j < 9; ++j)
        t[j] = zero;
    for (std::size_t i = 0; i < 8; ++i) {
        const __m512i bi = b.l[i];
        for (std::size_t j = 0; j < 8; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], a.l[j], bi);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], a.l[j], bi);
        }
        __m512i m = _mm512_madd52lo_epu64(zero, t[0], k0);
        if (i == 7)
            m = (__m512i)((U64x8)m & kMask20);
        for (std::size_t j = 0; j < 8; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], m, p[j]);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, p[j]);
        }
        if (i < 7) {
            t[1] += shr(t[0], 52);
            for (std::size_t j = 0; j < 8; ++j)
                t[j] = t[j + 1];
            t[8] = zero;
        }
    }

    // Normalize to 52-bit limbs. T < 2^416, so nothing carries out of
    // limb 7 (and iteration 7 left limb 8 at zero).
    for (std::size_t j = 0; j < 7; ++j) {
        t[j + 1] += shr(t[j], 52);
        t[j] = lo52(t[j]);
    }
    // V = T / 2^20, then the canonical value.
    __m512i v[8];
    for (std::size_t j = 0; j < 7; ++j)
        v[j] = shr(t[j], 20) | lo52(shl(t[j + 1], 32));
    v[7] = shr(t[7], 20);
    return subPIfAbove(v);
}

/** a^2 mod p in every lane (the multiplier with both operands equal). */
ZKPHIRE_IFMA_FN Fq8
sqr8(const Fq8 &a)
{
    return montMul8(a, a);
}

} // namespace zkphire::ff::ifma

#endif // ZKPHIRE_HAVE_X86_IFMA

#endif // ZKPHIRE_FF_FQ8_IFMA_X86_HPP
