/**
 * @file
 * AVX-512 IFMA batched Fq kernels: eight Montgomery products at once on
 * vpmadd52luq/vpmadd52huq, for the two batched Fq primitives: the laned
 * batch inversion (ff::detail::batchInverseSerial<Fq>), which the MSM
 * bucket rounds and the batched affine normalizations of commitments and
 * SRS level builds run on, and element-wise ff::mulVec<Fq>. The bucket
 * rounds' other multiplies run in the fused point kernels of
 * ec/bucket_ifma_x86.hpp, so mulVec<Fq> has no prover caller left; the
 * benchmark's ff.fq_mul_ns prices it.
 *
 * Each of the eight SIMD lanes holds one field element in radix 2^52
 * (eight limbs, the top one 17 bits wide). The multiplier keeps R = 2^384,
 * the Montgomery radix of the scalar kernels: its CIOS loop runs seven
 * 52-bit reduction steps and then one 20-bit step (7 * 52 + 20 = 384),
 * so each lane returns exactly the canonical value a * b * 2^-384 mod p
 * that montMulAsmX86 and montMulNoCarry return, and no conversion in or
 * out of Montgomery form is needed. Operands move between the 48-byte
 * element arrays and the limb vectors by gathers and scatters; partial
 * vectors use masks, so no lane reads or writes past an array. The lane
 * layout and its arithmetic are in the private ff/fq8_ifma_x86.hpp,
 * which the point kernels of ec/bucket_ifma_x86.hpp share.
 *
 * Selection: PrimeField dispatch never calls these directly. mulVec<Fq>
 * and batchInverseSerial<Fq> take them when ifmaSelected() holds — the
 * generic oracle off, the ZKPHIRE_ASM switch on, and a host that passes
 * cpuSupportsIfma() (ff/mul_asm_x86.hpp). Everything else, and every
 * scalar Fq operation, stays on the scalar kernels.
 */
#ifndef ZKPHIRE_FF_MUL_IFMA_X86_HPP
#define ZKPHIRE_FF_MUL_IFMA_X86_HPP

#include <cstddef>

#include "ff/fq.hpp"

namespace zkphire::ff::kernels {

/** Whether the batched Fq primitives take the IFMA kernels now: the
 *  generic oracle wins first, then the asm switch and the cpuid probe. */
inline bool
ifmaSelected()
{
    return !genericKernelsForced() && ifmaKernelsEnabled();
}

#if ZKPHIRE_HAVE_X86_IFMA

/** dst[i] = a[i] * b[i] for i < n. dst may alias a or b. @pre the host
 *  passes cpuSupportsIfma(). */
void mulVecFqIfma(Fq *dst, const Fq *a, const Fq *b, std::size_t n);

/** out[i] = xs[i]^{-1} for i < n, with one true inversion; out must not
 *  alias xs and holds the prefix products in between, so the kernel needs
 *  no other scratch. @pre every xs[i] is nonzero; the host passes
 *  cpuSupportsIfma(). */
void batchInverseFqIfma(const Fq *xs, Fq *out, std::size_t n);

#endif // ZKPHIRE_HAVE_X86_IFMA

} // namespace zkphire::ff::kernels

#endif // ZKPHIRE_FF_MUL_IFMA_X86_HPP
