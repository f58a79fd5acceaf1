/**
 * @file
 * AVX-512 IFMA point kernels of the MSM bucket phase: the fused finish of
 * a batched-affine round and the tiled bucket aggregation, each on eight
 * SIMD lanes of radix-2^52 Fq elements (ff/ifma_lanes_x86.hpp).
 *
 * Both return exactly what their scalar counterparts in ec/batch_add.cpp
 * return: every lane evaluates the same field expressions, and every
 * intermediate is canonical, so the coordinates are bit-identical. The
 * callers take them when ff::kernels::ifmaSelected() holds; everything
 * else runs the scalar code, which stays the reference.
 */
#ifndef ZKPHIRE_EC_BUCKET_IFMA_X86_HPP
#define ZKPHIRE_EC_BUCKET_IFMA_X86_HPP

#include <cstddef>
#include <cstdint>

#include "ec/batch_add.hpp"
#include "ff/mul_ifma_x86.hpp"

namespace zkphire::ec {

#if ZKPHIRE_HAVE_X86_IFMA

/**
 * detail::finishSlopePairsScalar on the IFMA lanes: each step gathers the
 * slopes' operands for eight pairs and x1, y1 from their slots by slot
 * index, keeps lambda, x3 and y3 in registers and scatters x3 and y3
 * back. @pre slot indices are distinct; the host passes
 * cpuSupportsIfma().
 */
void finishSlopePairsIfma(G1Affine *slots, const std::uint32_t *slot,
                          const ff::Fq *numer, const ff::Fq *inv,
                          const ff::Fq *denom, std::size_t n);

/**
 * detail::bucketTilesScalar on the IFMA lanes: lane t runs tile t's
 * recurrence, evaluating G1Jacobian::addMixed and G1Jacobian::add formula
 * for formula. An identity operand is taken by mask; a lane that meets
 * equal x coordinates (the doubling and cancellation cases) redoes that
 * step with the scalar add. @pre num_buckets is a positive multiple of
 * kAggregateTiles; the host passes cpuSupportsIfma().
 */
void bucketTilesIfma(const G1Affine *buckets, std::size_t num_buckets,
                     BucketTiles &tiles);

#endif // ZKPHIRE_HAVE_X86_IFMA

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_BUCKET_IFMA_X86_HPP
