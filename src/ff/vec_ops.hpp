/**
 * @file
 * Batched element-wise field primitives.
 *
 * The prover's hottest SumCheck loop — GatePlan round evaluation over
 * blocks of table pairs — applies one field operation across a contiguous
 * span of operands. Routing
 * them through these helpers instead of per-element operator calls keeps
 * the unrolled fixed-limb kernels (ff/mul_impl.hpp) in a tight loop the
 * compiler can software-pipeline, and gives -DZKPHIRE_NATIVE builds a
 * single body to autovectorize.
 *
 * Contracts (all spans are element counts, not bytes):
 *  - mulVec:    dst[i] = a[i] * b[i]. dst may alias a or b (element i is
 *               read before it is written).
 *  - sqrVec:    dst[i] = a[i]^2 via the dedicated squaring kernel; dst may
 *               alias a.
 *  - addVec:    acc[i] += v[i]. acc must not alias v.
 *  - addMulVec: acc[i] += c * v[i] (fused multiply-accumulate span). acc
 *               must not alias v.
 *  - sumVec:    returns v[0] + ... + v[n-1] in index order.
 *
 * All results are canonical field elements, so every helper is
 * bit-identical to the equivalent per-element loop. mulVec<Fq> runs eight
 * products at once on the AVX-512 IFMA kernel where the host has it and
 * kernels::ifmaSelected() holds (ff/mul_ifma_x86.hpp); every other
 * helper and field runs the scalar kernels element by element.
 */
#ifndef ZKPHIRE_FF_VEC_OPS_HPP
#define ZKPHIRE_FF_VEC_OPS_HPP

#include <cstddef>
#include <span>
#include <type_traits>

#include "ff/mul_ifma_x86.hpp"

namespace zkphire::ff {

template <class F>
inline void
mulVec(F *dst, const F *a, const F *b, std::size_t n)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fq>) {
        if (kernels::ifmaSelected()) {
            kernels::mulVecFqIfma(dst, a, b, n);
            return;
        }
    }
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
sqrVec(F *dst, const F *a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = a[i].square();
}

template <class F>
inline void
addVec(F *acc, const F *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += v[i];
}

template <class F>
inline void
addMulVec(F *acc, const F &c, const F *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += c * v[i];
}

template <class F>
inline F
sumVec(const F *v, std::size_t n)
{
    F s = F::zero();
    for (std::size_t i = 0; i < n; ++i)
        s += v[i];
    return s;
}

} // namespace zkphire::ff

#endif // ZKPHIRE_FF_VEC_OPS_HPP
