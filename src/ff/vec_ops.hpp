/**
 * @file
 * Batched element-wise field primitives.
 *
 * The prover's Fr-bound loops outside the GatePlan block loop (the MLE
 * fold, the eq-table build, linear combinations of tables, the
 * permutation fraction columns) apply one field operation across a
 * contiguous span of operands. On Fr these run on the AVX-512 IFMA lanes
 * (ff/mul_ifma_x86.hpp) when ff::kernels::ifmaSelected() holds, eight
 * elements at a time; every other case, Fq included, runs the scalar
 * kernels element by element in a tight loop.
 *
 * Contracts (all spans are element counts, not bytes):
 *  - mulVec:    dst[i] = a[i] * b[i]. dst may alias a or b (element i is
 *               read before it is written).
 *  - scaleVec:  dst[i] = c * v[i]. dst may alias v.
 *  - addVec:    acc[i] += v[i]. acc must not alias v.
 *  - addMulVec: acc[i] += c * v[i] (fused multiply-accumulate span). acc
 *               must not alias v.
 *  - splitVec:  hi[i] = c * v[i], lo[i] = v[i] - hi[i] (one doubling step
 *               of an eq table). lo may alias v; hi overlaps neither.
 *  - foldVec:   dst[j] = src[2j] + r * (src[2j+1] - src[2j]) for j < half
 *               (the MLE fold). dst may equal src (in place); otherwise
 *               the two must not overlap.
 *
 * All results are canonical field elements, so every helper is
 * bit-identical to the equivalent per-element loop on either path.
 */
#ifndef ZKPHIRE_FF_VEC_OPS_HPP
#define ZKPHIRE_FF_VEC_OPS_HPP

#include <cstddef>
#include <span>
#include <type_traits>

#include "ff/fr.hpp"
#include "ff/mul_ifma_x86.hpp"

namespace zkphire::ff {

template <class F>
inline void
mulVec(F *dst, const F *a, const F *b, std::size_t n)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fr>)
        if (kernels::ifmaSelected())
            return kernels::mulVecFrIfma(dst, a, b, n);
#endif
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = a[i] * b[i];
}

template <class F>
inline void
mulVec(std::span<F> dst, std::span<const F> a, std::span<const F> b)
{
    mulVec(dst.data(), a.data(), b.data(), dst.size());
}

template <class F>
inline void
scaleVec(F *dst, const F &c, const F *v, std::size_t n)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fr>)
        if (kernels::ifmaSelected())
            return kernels::scaleVecFrIfma(dst, c, v, n);
#endif
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = c * v[i];
}

template <class F>
inline void
addVec(F *acc, const F *v, std::size_t n)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fr>)
        if (kernels::ifmaSelected())
            return kernels::addVecFrIfma(acc, v, n);
#endif
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += v[i];
}

template <class F>
inline void
addMulVec(F *acc, const F &c, const F *v, std::size_t n)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fr>)
        if (kernels::ifmaSelected())
            return kernels::addMulVecFrIfma(acc, c, v, n);
#endif
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += c * v[i];
}

template <class F>
inline void
splitVec(F *lo, F *hi, const F *v, const F &c, std::size_t n)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fr>)
        if (kernels::ifmaSelected())
            return kernels::splitVecFrIfma(lo, hi, v, c, n);
#endif
    for (std::size_t i = 0; i < n; ++i) {
        const F h = v[i] * c;
        lo[i] = v[i] - h;
        hi[i] = h;
    }
}

template <class F>
inline void
foldVec(F *dst, const F *src, const F &r, std::size_t half)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fr>)
        if (kernels::ifmaSelected())
            return kernels::foldVecFrIfma(dst, src, r, half);
#endif
    // In place, the write at j precedes every later read, at >= 2(j + 1).
    for (std::size_t j = 0; j < half; ++j) {
        const F lo = src[2 * j];
        const F hi = src[2 * j + 1];
        dst[j] = lo + r * (hi - lo);
    }
}

} // namespace zkphire::ff

#endif // ZKPHIRE_FF_VEC_OPS_HPP
