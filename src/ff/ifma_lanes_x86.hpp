/**
 * @file
 * Eight field elements in AVX-512 IFMA registers: the radix-2^52 lane
 * layout and its arithmetic, written once over the field as
 * ifma::Lanes<F> for Fq and Fr, and each field's moves between element
 * arrays and lanes. Private to the IFMA kernels (ff/mul_ifma_x86.cpp,
 * ec/bucket_ifma_x86.cpp, the GatePlan block loop through
 * ff/fr_lanes.hpp) and their tests: include it only from code whose
 * callers dispatch on ff::kernels::ifmaSelected() or skip hosts without
 * IFMA.
 *
 * Each of the eight SIMD lanes holds one element in L = ceil(64W / 52)
 * limbs of 52 bits, W being the field's 64-bit Montgomery words (Fq: W =
 * 6, L = 8; Fr: W = 4, L = 5). Lanes are always canonical: every
 * operation takes and returns values below the modulus, so a lane's limbs
 * are the scalar kernels' Montgomery words regrouped, and equality is limb
 * equality. The multiplier keeps the scalar kernels' R = 2^(64W): L - 1
 * reduction steps of 52 bits, then one of 64W - 52(L - 1) bits (Fq 20, Fr
 * 48), so every lane returns exactly the canonical a * b / R mod p that
 * montMulAsmX86 and montMulNoCarry return. Layout<F> derives these
 * widths, and whether the last step leaves the top accumulator empty,
 * from F at compile time.
 *
 * Movement is per field, as its kernels use it. Fq elements (48 bytes)
 * move by gathers and scatters at u64 word offsets, which the strided
 * batch inversion and the bucket slot kernels need; masks keep partial
 * vectors inside their arrays. Fr elements (32 bytes) move as whole
 * 64-byte rows and two-source word permutes: eight consecutive elements
 * are four rows and eight vpermt2q, eight (even, odd) pairs are eight rows
 * and a three-stage 8x8 word transpose. A partial Fr vector moves only its
 * own rows and loads zero into its idle lanes.
 *
 * Every function that touches a 512-bit vector carries
 * ZKPHIRE_IFMA_TARGET instead of its file being built with -mavx512*: a
 * file-wide flag would let the compiler emit AVX-512 into the inline
 * functions such a file shares with the rest of the program, and the
 * linker could keep that copy on a host without it.
 */
#ifndef ZKPHIRE_FF_IFMA_LANES_X86_HPP
#define ZKPHIRE_FF_IFMA_LANES_X86_HPP

#include "ff/fq.hpp"
#include "ff/fr.hpp"

#if ZKPHIRE_HAVE_X86_IFMA

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>

/** The target of every function that touches a 512-bit vector. */
#define ZKPHIRE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace zkphire::ff::ifma {

inline constexpr u64 kMask52 = (u64(1) << 52) - 1;

/** The L radix-2^52 limbs of a value given as W 64-bit words. */
template <std::size_t L, std::size_t W>
constexpr std::array<u64, L>
toLimbs52(const std::array<u64, W> &w)
{
    std::array<u64, L> l{};
    for (std::size_t k = 0; k < L; ++k) {
        const std::size_t word = 52 * k / 64, sh = 52 * k % 64;
        u64 v = w[word] >> sh;
        if (sh > 12 && word + 1 < W)
            v |= w[word + 1] << (64 - sh);
        l[k] = v & kMask52;
    }
    return l;
}

/** How the elements of field F sit in the lanes, derived from its word
 *  count and modulus. */
template <class F>
struct Layout;

template <class Cfg>
struct Layout<PrimeField<Cfg>> {
    /** 64-bit Montgomery words of an element; R = 2^(64W). */
    static constexpr std::size_t W = Cfg::numLimbs;
    /** 52-bit limbs per lane. */
    static constexpr std::size_t L = (64 * W + 51) / 52;
    /** Bits of the multiplier's last reduction step, the other L - 1
     *  taking 52 each: together they divide by R. */
    static constexpr unsigned lastBits = unsigned(64 * W - 52 * (L - 1));
    static constexpr BigInt<W> mod = BigInt<W>::fromHex(Cfg::modulusHex());
    /** The modulus in limbs. */
    static constexpr std::array<u64, L> p = toLimbs52<L>(mod.limb);
    /** -p^{-1} mod 2^52: the low 52 bits of -p^{-1} mod 2^64. */
    static constexpr u64 k0 = kernels::negInvMod64(mod.limb[0]) & kMask52;
    /** Width of p's top limb, which bounds every canonical top limb. */
    static constexpr unsigned topBits = unsigned(std::bit_width(p[L - 1]));
    /** Whether the last reduction step leaves accumulator L empty: the two
     *  high halves it adds there, top limb times top limb and a
     *  lastBits-wide m times p's top limb, are products below 2^52. */
    static constexpr bool topEmpty =
        2 * topBits <= 52 && lastBits + topBits <= 52;

    static_assert(lastBits > 0 && lastBits <= 52);
    // An accumulator lives L + 1 iterations and takes four product halves
    // below 2^52 in each, plus one carry below 2^12.
    static_assert(4 * (L + 1) + 1 < (1u << 12), "lazy carries fit 64 bits");
};

static_assert(Layout<Fq>::L == 8 && Layout<Fq>::lastBits == 20 &&
                  Layout<Fq>::topEmpty,
              "Fq: eight limbs, a 20-bit last step, accumulator 8 empty");
static_assert(Layout<Fr>::L == 5 && Layout<Fr>::lastBits == 48 &&
                  !Layout<Fr>::topEmpty,
              "Fr: five limbs, a 48-bit last step, accumulator 5 used");

/** Eight elements of F, limb-sliced: l[j] holds limb j of every lane. The
 *  explicit alignment holds in every translation unit: without AVX-512
 *  enabled, GCC caps __m512i's alignment at 16, so a heap array of lanes
 *  (the GatePlan register file) would not meet the aligned moves the lane
 *  functions use. */
template <class F>
struct alignas(64) Lanes {
    __m512i l[Layout<F>::L];
};

// Shifts, masks and adds use the compiler's vector extensions rather than
// the immediate-shift intrinsics: GCC 12 builds those on an "undefined"
// register value that -Wmaybe-uninitialized then reports.
typedef u64 U64x8 __attribute__((vector_size(64)));
typedef long long I64x8 __attribute__((vector_size(64)));

ZKPHIRE_IFMA_TARGET inline __m512i
shr(__m512i x, int n)
{
    return (__m512i)((U64x8)x >> n);
}

ZKPHIRE_IFMA_TARGET inline __m512i
sar(__m512i x, int n)
{
    return (__m512i)((I64x8)x >> n);
}

ZKPHIRE_IFMA_TARGET inline __m512i
shl(__m512i x, int n)
{
    return (__m512i)((U64x8)x << n);
}

ZKPHIRE_IFMA_TARGET inline __m512i
lo52(__m512i x)
{
    return (__m512i)((U64x8)x & kMask52);
}

/** W 64-bit words per lane -> L 52-bit limbs per lane. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
fromWords(const __m512i (&w)[Layout<F>::W])
{
    constexpr std::size_t W = Layout<F>::W, L = Layout<F>::L;
    Lanes<F> x;
    for (std::size_t k = 0; k < L; ++k) {
        const std::size_t word = 52 * k / 64, sh = 52 * k % 64;
        __m512i v = shr(w[word], int(sh));
        if (sh > 12 && word + 1 < W)
            v |= shl(w[word + 1], int(64 - sh));
        x.l[k] = k + 1 < L ? lo52(v) : v;
    }
    return x;
}

/** L canonical 52-bit limbs per lane -> W 64-bit words per lane. */
template <class F>
ZKPHIRE_IFMA_TARGET inline void
toWords(const Lanes<F> &x, __m512i (&w)[Layout<F>::W])
{
    constexpr std::size_t W = Layout<F>::W, L = Layout<F>::L;
    for (__m512i &v : w)
        v = _mm512_setzero_si512();
    for (std::size_t k = 0; k < L; ++k) {
        const std::size_t word = 52 * k / 64, sh = 52 * k % 64;
        w[word] |= shl(x.l[k], int(sh));
        if (sh > 12 && word + 1 < W)
            w[word + 1] |= shr(x.l[k], int(64 - sh));
    }
}

/** The element c in every lane. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
broadcast(const F &c)
{
    constexpr std::size_t L = Layout<F>::L;
    const std::array<u64, L> l = toLimbs52<L>(c.raw().limb);
    Lanes<F> x;
    for (std::size_t j = 0; j < L; ++j)
        x.l[j] = _mm512_set1_epi64((long long)l[j]);
    return x;
}

/** Lanes whose elements are equal. */
template <class F>
ZKPHIRE_IFMA_TARGET inline __mmask8
eq8(const Lanes<F> &a, const Lanes<F> &b)
{
    __mmask8 m = 0xff;
    for (std::size_t j = 0; j < Layout<F>::L; ++j)
        m &= _mm512_cmpeq_epi64_mask(a.l[j], b.l[j]);
    return m;
}

/** Lanes holding zero. */
template <class F>
ZKPHIRE_IFMA_TARGET inline __mmask8
isZero8(const Lanes<F> &a)
{
    __m512i any = a.l[0];
    for (std::size_t j = 1; j < Layout<F>::L; ++j)
        any |= a.l[j];
    return _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512());
}

/** b in the lanes of m, a elsewhere. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
select8(__mmask8 m, const Lanes<F> &a, const Lanes<F> &b)
{
    Lanes<F> r;
    for (std::size_t j = 0; j < Layout<F>::L; ++j)
        r.l[j] = _mm512_mask_blend_epi64(m, a.l[j], b.l[j]);
    return r;
}

/** s - p with a signed borrow chain, kept in the lanes where it did not
 *  go negative: the canonical value of s < 2p given in 52-bit limbs. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
subPIfAbove(const __m512i (&s)[Layout<F>::L])
{
    constexpr std::size_t L = Layout<F>::L;
    __m512i d[L];
    d[0] = s[0] - _mm512_set1_epi64((long long)Layout<F>::p[0]);
    for (std::size_t j = 1; j < L; ++j) {
        d[j] = s[j] - _mm512_set1_epi64((long long)Layout<F>::p[j]) +
               sar(d[j - 1], 52);
        d[j - 1] = lo52(d[j - 1]);
    }
    const __mmask8 below_p =
        _mm512_cmplt_epi64_mask(d[L - 1], _mm512_setzero_si512());
    Lanes<F> r;
    for (std::size_t j = 0; j < L; ++j)
        r.l[j] = _mm512_mask_blend_epi64(below_p, d[j], s[j]);
    return r;
}

/** a + b mod p in every lane. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
add8(const Lanes<F> &a, const Lanes<F> &b)
{
    constexpr std::size_t L = Layout<F>::L;
    __m512i s[L];
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t j = 0; j < L; ++j) {
        const __m512i t = a.l[j] + b.l[j] + carry;
        s[j] = lo52(t);
        carry = shr(t, 52);
    }
    return subPIfAbove<F>(s);
}

/** 2a mod p in every lane. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
dbl8(const Lanes<F> &a)
{
    return add8(a, a);
}

/** a - b mod p in every lane: a signed borrow chain, then p added back
 *  (with a carry chain) in the lanes that went negative. */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
sub8(const Lanes<F> &a, const Lanes<F> &b)
{
    constexpr std::size_t L = Layout<F>::L;
    __m512i d[L];
    d[0] = a.l[0] - b.l[0];
    for (std::size_t j = 1; j < L; ++j) {
        d[j] = a.l[j] - b.l[j] + sar(d[j - 1], 52);
        d[j - 1] = lo52(d[j - 1]);
    }
    const __mmask8 neg =
        _mm512_cmplt_epi64_mask(d[L - 1], _mm512_setzero_si512());
    Lanes<F> r;
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t j = 0; j < L; ++j) {
        const __m512i t =
            _mm512_mask_add_epi64(
                d[j], neg, d[j],
                _mm512_set1_epi64((long long)Layout<F>::p[j])) +
            carry;
        r.l[j] = j + 1 < L ? lo52(t) : t;
        carry = sar(t, 52);
    }
    return r;
}

/**
 * a * b / R mod p in every lane. Inputs are canonical 52-bit limbs; so is
 * the result.
 *
 * CIOS in radix 2^52 with lazy carries: each 64-bit accumulator takes the
 * low and high halves of the 104-bit limb products without normalizing.
 * Iterations 0 to L - 2 reduce 52 bits each (m = t0 * -p^{-1} mod 2^52,
 * fold m * p, move t0's carry up and drop a limb); iteration L - 1 reduces
 * the last lastBits bits (m mod 2^lastBits). The value then is T = (a * b
 * + M * p) / 2^(52(L - 1)) < 2p * 2^lastBits with 2^lastBits | T;
 * normalizing T's limbs and shifting right lastBits bits gives V = a * b /
 * R mod p + {0 or p}, V < 2p, and one masked subtraction makes it
 * canonical. When the last step leaves accumulator L empty (Fq), T's top
 * limb is accumulator L - 1 and nothing is carried into L.
 *
 * One Fq product keeps most of the 32 vector registers live (operand a,
 * nine accumulators, the modulus). Interleaving two in one body spills,
 * so callers keep two chains in flight with two independent calls and let
 * the out-of-order core overlap them.
 */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
montMul8(const Lanes<F> &a, const Lanes<F> &b)
{
    using S = Layout<F>;
    constexpr std::size_t L = S::L;
    const __m512i zero = _mm512_setzero_si512();
    const __m512i k0 = _mm512_set1_epi64((long long)S::k0);
    __m512i p[L];
    for (std::size_t j = 0; j < L; ++j)
        p[j] = _mm512_set1_epi64((long long)S::p[j]);

    __m512i t[L + 1];
    for (__m512i &x : t)
        x = zero;
    for (std::size_t i = 0; i < L; ++i) {
        const __m512i bi = b.l[i];
        for (std::size_t j = 0; j < L; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], a.l[j], bi);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], a.l[j], bi);
        }
        __m512i m = _mm512_madd52lo_epu64(zero, t[0], k0);
        if (i == L - 1)
            m = (__m512i)((U64x8)m & ((u64(1) << S::lastBits) - 1));
        for (std::size_t j = 0; j < L; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], m, p[j]);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, p[j]);
        }
        if (i < L - 1) {
            t[1] += shr(t[0], 52);
            for (std::size_t j = 0; j < L; ++j)
                t[j] = t[j + 1];
            t[L] = zero;
        }
    }

    // Normalize to 52-bit limbs up to T's top accumulator, then V = T /
    // 2^lastBits and the canonical value.
    constexpr std::size_t top = S::topEmpty ? L - 1 : L;
    for (std::size_t j = 0; j < top; ++j) {
        t[j + 1] += shr(t[j], 52);
        t[j] = lo52(t[j]);
    }
    __m512i v[L];
    for (std::size_t j = 0; j < L; ++j) {
        v[j] = shr(t[j], int(S::lastBits));
        if (j < top)
            v[j] |= lo52(shl(t[j + 1], int(52 - S::lastBits)));
    }
    return subPIfAbove<F>(v);
}

/** a^2 mod p in every lane (the multiplier with both operands equal). */
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
sqr8(const Lanes<F> &a)
{
    return montMul8(a, a);
}

// Fq movement: gathers and scatters at u64 word offsets.

/** u64 offsets of eight consecutive elements: lane e reads word 6e. */
ZKPHIRE_IFMA_TARGET inline __m512i
consecutive()
{
    return _mm512_set_epi64(42, 36, 30, 24, 18, 12, 6, 0);
}

ZKPHIRE_IFMA_TARGET inline const long long *
words(const Fq *x)
{
    static_assert(sizeof(Fq) == 6 * sizeof(u64));
    return reinterpret_cast<const long long *>(x);
}

ZKPHIRE_IFMA_TARGET inline long long *
words(Fq *x)
{
    return reinterpret_cast<long long *>(x);
}

/** Lane e reads the element at word offset idx[e] of base when e is in
 *  m; the other lanes hold Fq::one() and read nothing. */
ZKPHIRE_IFMA_TARGET inline Lanes<Fq>
gather8(const Fq *base, __m512i idx, __mmask8 m = 0xff)
{
    const Fq one = Fq::one();
    __m512i w[6];
    for (std::size_t j = 0; j < 6; ++j)
        w[j] = _mm512_mask_i64gather_epi64(
            _mm512_set1_epi64((long long)one.raw().limb[j]), m, idx,
            words(base) + j, 8);
    return fromWords<Fq>(w);
}

/** Lane e writes its element to word offset idx[e] of base when e is in
 *  m; the other lanes write nothing. */
ZKPHIRE_IFMA_TARGET inline void
scatter8(Fq *base, __m512i idx, const Lanes<Fq> &x, __mmask8 m = 0xff)
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

// Fr movement: 64-byte rows (two elements each) and two-source permutes.

/** Row k (two elements, 64 bytes) at p + k * stride for k < n, zero
 *  above. */
ZKPHIRE_IFMA_TARGET inline void
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
ZKPHIRE_IFMA_TARGET inline __m512i
pick(__m512i a, __m512i b, long long i0, long long i1, long long i2,
     long long i3, long long i4, long long i5, long long i6, long long i7)
{
    return _mm512_permutex2var_epi64(
        a, _mm512_set_epi64(i7, i6, i5, i4, i3, i2, i1, i0), b);
}

/** 8x8 transpose of 64-bit words: word c of row k moves to word k of row
 *  c, in three stages of eight two-source permutes. */
ZKPHIRE_IFMA_TARGET inline void
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
ZKPHIRE_IFMA_TARGET inline void
loadPairs(const Fr *p, std::size_t stride, Lanes<Fr> &lo, Lanes<Fr> &hi,
          std::size_t n = 8)
{
    __m512i r[8];
    loadRows(p, stride, n, r, 8);
    transpose8x8(r);
    const __m512i even[4] = {r[0], r[1], r[2], r[3]};
    const __m512i odd[4] = {r[4], r[5], r[6], r[7]};
    lo = fromWords<Fr>(even);
    hi = fromWords<Fr>(odd);
}

/** p[2k] = lo lane k and p[2k + 1] = hi lane k for k < n. */
ZKPHIRE_IFMA_TARGET inline void
storePairs(Fr *p, const Lanes<Fr> &lo, const Lanes<Fr> &hi,
           std::size_t n = 8)
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
ZKPHIRE_IFMA_TARGET inline Lanes<Fr>
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
    return fromWords<Fr>(w);
}

/** p[k] = lane k for k < n: load8's permutes in reverse. */
ZKPHIRE_IFMA_TARGET inline void
store8(Fr *p, const Lanes<Fr> &x, std::size_t n = 8)
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

/** The sum of the eight lanes. */
ZKPHIRE_IFMA_TARGET inline Fr
laneSum(const Lanes<Fr> &x)
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

#endif // ZKPHIRE_FF_IFMA_LANES_X86_HPP
