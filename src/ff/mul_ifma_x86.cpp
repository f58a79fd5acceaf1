/**
 * @file
 * AVX-512 IFMA batched Fq kernels; see ff/mul_ifma_x86.hpp. The lane
 * layout and arithmetic are in ff/fq8_ifma_x86.hpp.
 */
#include "ff/mul_ifma_x86.hpp"

#if ZKPHIRE_HAVE_X86_IFMA

#include <algorithm>
#include <cassert>

#include "ff/fq8_ifma_x86.hpp"
#include "ff/fr8_ifma_x86.hpp"

namespace zkphire::ff::kernels {

using ifma::consecutive;
using ifma::firstLanes;
using ifma::Fq8;
using ifma::gather8;
using ifma::montMul8;
using ifma::ones;
using ifma::scatter8;

/**
 * The laned Montgomery trick of batchInverseSerial with its lanes in SIMD
 * lanes: 16 lanes in two vector chains of eight, each lane owning a
 * contiguous block (the first n % 16 blocks one element longer). Lane k's
 * step s reads element off[k] + s by gather, so no operand is copied
 * into a second layout: the forward sweep scatters each lane's running
 * product into out, and the backward sweep gathers it back.
 */
__attribute__((target("avx512f,avx512ifma"))) void
batchInverseFqIfma(const Fq *xs, Fq *out, std::size_t n)
{
    constexpr std::size_t kChains = 2;
    constexpr std::size_t kLanes = 8 * kChains;
    if (n == 0)
        return;
#ifndef NDEBUG
    for (std::size_t i = 0; i < n; ++i)
        assert(!xs[i].isZero() && "batch inverse of zero element");
#endif
    const std::size_t lmin = n / kLanes, rem = n % kLanes;
    alignas(64) long long first[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k)
        first[k] = (long long)(6 * (k * lmin + std::min(k, rem)));
    __m512i idx[kChains];
    __mmask8 longer[kChains];
    for (std::size_t c = 0; c < kChains; ++c) {
        idx[c] = _mm512_load_si512(first + 8 * c);
        longer[c] = firstLanes(rem > 8 * c ? rem - 8 * c : 0);
    }
    const __m512i step = _mm512_set1_epi64(6);

    Fq8 acc[kChains];
    for (Fq8 &a : acc)
        a = ones();
    for (std::size_t s = 0; s < lmin; ++s) {
        for (std::size_t c = 0; c < kChains; ++c) {
            const Fq8 x = gather8(xs, idx[c]);
            scatter8(out, idx[c], acc[c]);
            acc[c] = montMul8(acc[c], x);
            idx[c] += step;
        }
    }
    if (rem != 0) {
        for (std::size_t c = 0; c < kChains; ++c) {
            const Fq8 x = gather8(xs, idx[c], longer[c]);
            scatter8(out, idx[c], acc[c], longer[c]);
            acc[c] = montMul8(acc[c], x);
        }
    }

    // One true inversion of the total product, then the per-lane inverses
    // by the same trick over the 16 lane products, in scalar code.
    Fq lane[kLanes], pref[kLanes], inv[kLanes];
    for (std::size_t c = 0; c < kChains; ++c)
        scatter8(lane + 8 * c, consecutive(), acc[c]);
    Fq total = Fq::one();
    for (std::size_t k = 0; k < kLanes; ++k) {
        pref[k] = total;
        total *= lane[k];
    }
    Fq t = total.inverse();
    for (std::size_t k = kLanes; k-- > 0;) {
        inv[k] = t * pref[k];
        t *= lane[k];
    }

    // Backward: element inverse = lane inverse * prefix, then the lane
    // inverse absorbs the element.
    for (std::size_t c = 0; c < kChains; ++c)
        acc[c] = gather8(inv + 8 * c, consecutive());
    if (rem != 0) {
        for (std::size_t c = 0; c < kChains; ++c) {
            const Fq8 pre = gather8(out, idx[c], longer[c]);
            const Fq8 x = gather8(xs, idx[c], longer[c]);
            scatter8(out, idx[c], montMul8(acc[c], pre), longer[c]);
            acc[c] = montMul8(acc[c], x);
        }
    }
    for (std::size_t s = lmin; s-- > 0;) {
        for (std::size_t c = 0; c < kChains; ++c) {
            idx[c] -= step;
            const Fq8 pre = gather8(out, idx[c]);
            const Fq8 x = gather8(xs, idx[c]);
            scatter8(out, idx[c], montMul8(acc[c], pre));
            acc[c] = montMul8(acc[c], x);
        }
    }
}

// The Fr span kernels: full vectors of eight consecutive elements, then
// one partial vector for the tail. Each block reads all of its operands
// before it writes, which is what lets dst alias an input.

using ifma::add8;
using ifma::Fr8;
using ifma::load8;
using ifma::loadPairs;
using ifma::store8;
using ifma::sub8;

#define ZKPHIRE_FR_SPAN __attribute__((target("avx512f,avx512ifma"))) void

ZKPHIRE_FR_SPAN
mulVecFrIfma(Fr *dst, const Fr *a, const Fr *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t m = std::min<std::size_t>(8, n - i);
        store8(dst + i, montMul8(load8(a + i, m), load8(b + i, m)), m);
    }
}

ZKPHIRE_FR_SPAN
scaleVecFrIfma(Fr *dst, const Fr &c, const Fr *v, std::size_t n)
{
    const Fr8 cv = ifma::broadcast(c);
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t m = std::min<std::size_t>(8, n - i);
        store8(dst + i, montMul8(cv, load8(v + i, m)), m);
    }
}

ZKPHIRE_FR_SPAN
addVecFrIfma(Fr *acc, const Fr *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t m = std::min<std::size_t>(8, n - i);
        store8(acc + i, add8(load8(acc + i, m), load8(v + i, m)), m);
    }
}

ZKPHIRE_FR_SPAN
addMulVecFrIfma(Fr *acc, const Fr &c, const Fr *v, std::size_t n)
{
    const Fr8 cv = ifma::broadcast(c);
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t m = std::min<std::size_t>(8, n - i);
        store8(acc + i, add8(load8(acc + i, m), montMul8(cv, load8(v + i, m))),
               m);
    }
}

ZKPHIRE_FR_SPAN
splitVecFrIfma(Fr *lo, Fr *hi, const Fr *v, const Fr &c, std::size_t n)
{
    const Fr8 cv = ifma::broadcast(c);
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t m = std::min<std::size_t>(8, n - i);
        const Fr8 x = load8(v + i, m);
        const Fr8 h = montMul8(x, cv);
        store8(hi + i, h, m);
        store8(lo + i, sub8(x, h), m);
    }
}

ZKPHIRE_FR_SPAN
foldVecFrIfma(Fr *dst, const Fr *src, const Fr &r, std::size_t half)
{
    const Fr8 rv = ifma::broadcast(r);
    for (std::size_t j = 0; j < half; j += 8) {
        const std::size_t m = std::min<std::size_t>(8, half - j);
        Fr8 lo, hi;
        loadPairs(src + 2 * j, 2, lo, hi, m);
        store8(dst + j, add8(lo, montMul8(rv, sub8(hi, lo))), m);
    }
}

#undef ZKPHIRE_FR_SPAN

} // namespace zkphire::ff::kernels

#endif // ZKPHIRE_HAVE_X86_IFMA
