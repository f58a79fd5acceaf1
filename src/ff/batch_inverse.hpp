/**
 * @file
 * Batched modular inversion (Montgomery's trick).
 *
 * Inverts n field elements with one true inversion and 3(n-1) multiplications.
 * The true inversion is PrimeField::inverse(), the constant-time safegcd of
 * ff/safegcd.hpp, several times cheaper than the Fermat power it replaced,
 * so the MSM bucket rounds can pay one per L2-sized block
 * (ec/batch_add.hpp).
 * This is the algorithm the Permutation Quotient Generator implements in
 * hardware (paper §IV-B5): zkSpeed used batch size 64 with per-inverse
 * multipliers; zkPHIRE uses batch size 2 with shared multipliers and 266
 * round-robin inverse units. The functional kernel here is shared by the
 * PermCheck prover (computing phi = N/D) and by tests; the hardware cost of
 * both batching strategies is modeled in src/sim/permq.*.
 *
 * Large batches run the two multiplication sweeps chunk-parallel on
 * zkphire::rt: each chunk computes local prefix products and its chunk
 * product, the chunk products are batch-inverted serially (one true
 * inversion total, as before), and each chunk then back-substitutes
 * independently. Inverses are canonical field values, so the parallel path
 * is bit-identical to the serial one.
 */
#ifndef ZKPHIRE_FF_BATCH_INVERSE_HPP
#define ZKPHIRE_FF_BATCH_INVERSE_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "ff/mul_ifma_x86.hpp"
#include "rt/parallel.hpp"

namespace zkphire::ff {

namespace detail {

/** Serial Montgomery trick on the scalar kernels: out[i] = xs[i]^{-1}, xs
 * left intact. out holds the prefix products during the forward sweep and
 * is overwritten with the inverses by the backward sweep, so the trick
 * needs no scratch beyond the output. out must not alias xs.
 *
 * Both sweeps are dependent multiplication chains (acc *= x feeds the next
 * step), so a single chain runs at multiplier latency, not throughput. The
 * chain is therefore split into kLanes contiguous blocks whose independent
 * accumulators interleave in one loop, letting the out-of-order core overlap
 * the lanes; the lane products are combined with one true inversion exactly
 * as before. Every element still receives its canonical inverse, so the
 * laned sweep is bit-identical to a single chain. */
template <class F>
void
batchInverseLanes(std::span<const F> xs, std::span<F> out)
{
    const std::size_t n = xs.size();
    constexpr std::size_t kLanes = 8;
    if (n < 4 * kLanes) {
        F acc = F::one();
        for (std::size_t i = 0; i < n; ++i) {
            assert(!xs[i].isZero() && "batch inverse of zero element");
            out[i] = acc;
            acc *= xs[i];
        }
        F inv = acc.inverse();
        for (std::size_t i = n; i-- > 0;) {
            F x_inv = inv * out[i];
            inv *= xs[i];
            out[i] = x_inv;
        }
        return;
    }

    // Lane k owns the contiguous block [off[k], off[k+1]); the first
    // n % kLanes lanes are one element longer.
    std::size_t off[kLanes + 1];
    {
        const std::size_t base = n / kLanes, rem = n % kLanes;
        off[0] = 0;
        for (std::size_t k = 0; k < kLanes; ++k)
            off[k + 1] = off[k] + base + (k < rem ? 1 : 0);
    }
    const std::size_t lmin = n / kLanes;

    F acc[kLanes];
    for (auto &a : acc)
        a = F::one();
    for (std::size_t s = 0; s < lmin; ++s) {
        for (std::size_t k = 0; k < kLanes; ++k) {
            const std::size_t i = off[k] + s;
            assert(!xs[i].isZero() && "batch inverse of zero element");
            out[i] = acc[k];
            acc[k] *= xs[i];
        }
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
        for (std::size_t i = off[k] + lmin; i < off[k + 1]; ++i) {
            assert(!xs[i].isZero() && "batch inverse of zero element");
            out[i] = acc[k];
            acc[k] *= xs[i];
        }
    }

    // One true inversion of the total product, then peel off per-lane
    // inverses with the same trick applied to the kLanes accumulators.
    F lane_pref[kLanes];
    F total = F::one();
    for (std::size_t k = 0; k < kLanes; ++k) {
        lane_pref[k] = total;
        total *= acc[k];
    }
    F t = total.inverse();
    F inv[kLanes];
    for (std::size_t k = kLanes; k-- > 0;) {
        inv[k] = t * lane_pref[k];
        t *= acc[k];
    }

    for (std::size_t k = 0; k < kLanes; ++k) {
        for (std::size_t i = off[k + 1]; i-- > off[k] + lmin;) {
            F x_inv = inv[k] * out[i];
            inv[k] *= xs[i];
            out[i] = x_inv;
        }
    }
    for (std::size_t s = lmin; s-- > 0;) {
        for (std::size_t k = 0; k < kLanes; ++k) {
            const std::size_t i = off[k] + s;
            F x_inv = inv[k] * out[i];
            inv[k] *= xs[i];
            out[i] = x_inv;
        }
    }
}

/** batchInverseLanes, except for Fq on an IFMA host
 *  (kernels::ifmaSelected()): there the lanes are SIMD lanes, 16 of them
 *  in two vector chains (kernels::batchInverseFqIfma). Same contract. */
template <class F>
void
batchInverseSerial(std::span<const F> xs, std::span<F> out)
{
#if ZKPHIRE_HAVE_X86_IFMA
    if constexpr (std::is_same_v<F, Fq>) {
        if (kernels::ifmaSelected()) {
            kernels::batchInverseFqIfma(xs.data(), out.data(), xs.size());
            return;
        }
    }
#endif
    batchInverseLanes(xs, out);
}

/** In-place form of batchInverseSerial, through a temporary. */
template <class F>
void
batchInverseSerialInPlace(std::span<F> xs)
{
    std::vector<F> inv(xs.size());
    batchInverseSerial(std::span<const F>(xs), std::span<F>(inv));
    std::copy(inv.begin(), inv.end(), xs.begin());
}

} // namespace detail

/**
 * In-place batched inversion. Every element must be nonzero.
 *
 * @param xs Elements to invert; replaced by their inverses.
 */
template <class F>
void
batchInverseInPlace(std::span<F> xs)
{
    const std::size_t n = xs.size();
    if (n == 0)
        return;

    constexpr std::size_t kMinParallel = 2048;
    if (rt::currentThreads() <= 1 || n < kMinParallel) {
        detail::batchInverseSerialInPlace(xs);
        return;
    }

    const std::size_t grain = rt::suggestedGrain(n, 512);
    const std::size_t num_chunks = (n + grain - 1) / grain;

    // Pass 1 (parallel): local prefix products and one product per chunk.
    std::vector<F> prefix(n);
    std::vector<F> chunk_prod(num_chunks);
    rt::parallelForChunks(
        0, n,
        [&](std::size_t b, std::size_t e) {
            F acc = F::one();
            for (std::size_t i = b; i < e; ++i) {
                assert(!xs[i].isZero() && "batch inverse of zero element");
                prefix[i] = acc;
                acc *= xs[i];
            }
            chunk_prod[b / grain] = acc;
        },
        grain);

    // Invert the chunk products serially: still exactly one true inversion.
    detail::batchInverseSerialInPlace(std::span<F>(chunk_prod));

    // Pass 2 (parallel): per-chunk back substitution from the chunk inverse.
    rt::parallelForChunks(
        0, n,
        [&](std::size_t b, std::size_t e) {
            F inv = chunk_prod[b / grain];
            for (std::size_t i = e; i-- > b;) {
                F x_inv = inv * prefix[i];
                inv *= xs[i];
                xs[i] = x_inv;
            }
        },
        grain);
}

/**
 * Out-of-place batched inversion into a caller-owned buffer, for hot loops
 * that invert many small batches (the batched-affine MSM bucket adder
 * resolves one batch per block and reduction round): `out` is grown once
 * and reused, so repeated rounds allocate nothing, and `xs` is left intact
 * for callers that still need the denominators. out[0 .. xs.size())
 * receives the inverses. Always runs the serial sweep — callers sit inside
 * an already-parallel region.
 */
template <class F>
void
batchInverseSerialInto(std::span<const F> xs, std::vector<F> &out)
{
    if (xs.empty())
        return;
    if (out.size() < xs.size())
        out.resize(xs.size());
    detail::batchInverseSerial(xs, std::span<F>(out.data(), xs.size()));
}

} // namespace zkphire::ff

#endif // ZKPHIRE_FF_BATCH_INVERSE_HPP
