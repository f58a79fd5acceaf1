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
 *  - addVec:    acc[i] += v[i]. acc must not alias v.
 *  - addMulVec: acc[i] += c * v[i] (fused multiply-accumulate span). acc
 *               must not alias v.
 *
 * All results are canonical field elements, so every helper is
 * bit-identical to the equivalent per-element loop. Every helper runs the
 * scalar kernels element by element, in both fields.
 */
#ifndef ZKPHIRE_FF_VEC_OPS_HPP
#define ZKPHIRE_FF_VEC_OPS_HPP

#include <cstddef>
#include <span>

namespace zkphire::ff {

template <class F>
inline void
mulVec(F *dst, const F *a, const F *b, std::size_t n)
{
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

} // namespace zkphire::ff

#endif // ZKPHIRE_FF_VEC_OPS_HPP
