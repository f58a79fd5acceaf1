/**
 * @file
 * AVX-512 IFMA batched kernels: eight Montgomery products at once on
 * vpmadd52luq/vpmadd52huq. In Fq, the laned batch inversion
 * (ff::detail::batchInverseSerial<Fq>), which the MSM bucket rounds and
 * the batched affine normalizations of commitments and SRS level builds
 * run on; the bucket rounds' other multiplies run in the fused point
 * kernels of ec/bucket_ifma_x86.hpp. In Fr, the span kernels of
 * ff/vec_ops.hpp (the GatePlan block loop runs on the same lanes through
 * ff/fr_lanes.hpp). The lane layout, its arithmetic and each field's
 * element movement are in the private ff/ifma_lanes_x86.hpp; every lane
 * returns the canonical value the scalar kernels return.
 *
 * Selection: PrimeField dispatch never calls the kernels directly.
 * batchInverseSerial<Fq>, the bucket rounds' point kernels, the Fr span
 * kernels of ff/vec_ops.hpp and the GatePlan block loop take them when
 * ifmaSelected() holds — the generic oracle off, the ZKPHIRE_ASM switch
 * on, and a host that passes cpuSupportsIfma() (ff/mul_asm_x86.hpp).
 * Everything else, ff::mulVec<Fq> and every scalar Fq or Fr operation
 * included, stays on the scalar kernels.
 */
#ifndef ZKPHIRE_FF_MUL_IFMA_X86_HPP
#define ZKPHIRE_FF_MUL_IFMA_X86_HPP

#include <cstddef>

#include "ff/fq.hpp"
#include "ff/fr.hpp"

namespace zkphire::ff::kernels {

/** Whether the batched primitives take the IFMA kernels now: the
 *  generic oracle wins first, then the asm switch and the cpuid probe. */
inline bool
ifmaSelected()
{
    return !genericKernelsForced() && ifmaKernelsEnabled();
}

#if ZKPHIRE_HAVE_X86_IFMA

/** out[i] = xs[i]^{-1} for i < n, with one true inversion; out must not
 *  alias xs and holds the prefix products in between, so the kernel needs
 *  no other scratch. @pre every xs[i] is nonzero; the host passes
 *  cpuSupportsIfma(). */
void batchInverseFqIfma(const Fq *xs, Fq *out, std::size_t n);

/** The Fr span kernels of ff/vec_ops.hpp on the lanes, with the same
 *  contracts (aliasing included). @pre the host passes cpuSupportsIfma(). */
void mulVecFrIfma(Fr *dst, const Fr *a, const Fr *b, std::size_t n);
void scaleVecFrIfma(Fr *dst, const Fr &c, const Fr *v, std::size_t n);
void addVecFrIfma(Fr *acc, const Fr *v, std::size_t n);
void addMulVecFrIfma(Fr *acc, const Fr &c, const Fr *v, std::size_t n);
void splitVecFrIfma(Fr *lo, Fr *hi, const Fr *v, const Fr &c,
                    std::size_t n);
void foldVecFrIfma(Fr *dst, const Fr *src, const Fr &r, std::size_t half);

#endif // ZKPHIRE_HAVE_X86_IFMA

} // namespace zkphire::ff::kernels

#endif // ZKPHIRE_FF_MUL_IFMA_X86_HPP
