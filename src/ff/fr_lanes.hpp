/**
 * @file
 * An eight-wide Fr lane type with two backends, so that a loop over eight
 * elements at a time is written once: ScalarFr8 runs the scalar Fr
 * kernels element by element (the ADX multiplier, the unrolled C++ one or
 * the generic oracle, as PrimeField dispatches them), IfmaFr8 the AVX-512
 * IFMA lanes of ff/ifma_lanes_x86.hpp. Both return canonical elements, so
 * a loop gives bit-identical results on either.
 *
 * A loop instantiated on IfmaFr8 runs inside a function marked
 * ZKPHIRE_IFMA_LOOP and only when ff::kernels::ifmaSelected() holds: the
 * lane functions carry the avx512 target attribute, and flattening the
 * entry inlines the whole loop into a body compiled for that target.
 * Private to src/ and its tests.
 *
 * Backend interface (Vec is the eight-element value; a row array is one
 * register's vectors, one per evaluation point):
 *  - zero(), broadcast(c);
 *  - loadPairs(p, stride, lo, hi, n): lane k < n takes p[k * stride] into
 *    lo and p[k * stride + 1] into hi, lanes from n on are zero;
 *  - storePairs(p, lo, hi, n): p[2k] = lo[k], p[2k + 1] = hi[k], k < n;
 *  - fold(lo, hi, r): lo + r * (hi - lo) per lane;
 *  - extendRows(e, pts): given e[0] and e[1], e[j] = e[j-1] + (e[1] - e[0])
 *    for 2 <= j < pts;
 *  - mulRows(d, a, b, rows), addRows(acc, v, rows): d[j] = a[j] * b[j],
 *    acc[j] += v[j] for j < rows (d may alias a or b);
 *  - sum(x): the sum of the eight lanes.
 * The row operations keep the scalar backend's inner loops as tight as a
 * span loop over rows * 8 elements.
 */
#ifndef ZKPHIRE_FF_FR_LANES_HPP
#define ZKPHIRE_FF_FR_LANES_HPP

#include <cstddef>

#include "ff/fr.hpp"
#include "ff/ifma_lanes_x86.hpp"

namespace zkphire::ff::lanes {

inline constexpr std::size_t kWidth = 8;

struct ScalarFr8 {
    struct Vec {
        Fr v[kWidth];
    };

    static Vec
    zero()
    {
        return Vec{};
    }

    static Vec
    broadcast(const Fr &c)
    {
        Vec x;
        for (Fr &e : x.v)
            e = c;
        return x;
    }

    static void
    loadPairs(const Fr *p, std::size_t stride, Vec &lo, Vec &hi,
              std::size_t n = kWidth)
    {
        for (std::size_t k = 0; k < kWidth; ++k) {
            lo.v[k] = k < n ? p[k * stride] : Fr::zero();
            hi.v[k] = k < n ? p[k * stride + 1] : Fr::zero();
        }
    }

    static void
    storePairs(Fr *p, const Vec &lo, const Vec &hi, std::size_t n = kWidth)
    {
        for (std::size_t k = 0; k < n; ++k) {
            p[2 * k] = lo.v[k];
            p[2 * k + 1] = hi.v[k];
        }
    }

    static Vec
    fold(const Vec &lo, const Vec &hi, const Vec &r)
    {
        Vec x;
        for (std::size_t k = 0; k < kWidth; ++k)
            x.v[k] = lo.v[k] + r.v[k] * (hi.v[k] - lo.v[k]);
        return x;
    }

    static void
    extendRows(Vec *e, std::size_t pts)
    {
        for (std::size_t k = 0; k < kWidth; ++k) {
            const Fr diff = e[1].v[k] - e[0].v[k];
            for (std::size_t j = 2; j < pts; ++j)
                e[j].v[k] = e[j - 1].v[k] + diff;
        }
    }

    static void
    mulRows(Vec *d, const Vec *a, const Vec *b, std::size_t rows)
    {
        for (std::size_t j = 0; j < rows; ++j)
            for (std::size_t k = 0; k < kWidth; ++k)
                d[j].v[k] = a[j].v[k] * b[j].v[k];
    }

    static void
    addRows(Vec *acc, const Vec *v, std::size_t rows)
    {
        for (std::size_t j = 0; j < rows; ++j)
            for (std::size_t k = 0; k < kWidth; ++k)
                acc[j].v[k] += v[j].v[k];
    }

    static Fr
    sum(const Vec &x)
    {
        Fr s = x.v[0];
        for (std::size_t k = 1; k < kWidth; ++k)
            s += x.v[k];
        return s;
    }
};

#if ZKPHIRE_HAVE_X86_IFMA

#define ZKPHIRE_IFMA_LOOP [[gnu::flatten]] ZKPHIRE_IFMA_TARGET

struct IfmaFr8 {
    using Vec = ifma::Lanes<Fr>;

    ZKPHIRE_IFMA_TARGET static Vec zero() { return Vec{}; }

    ZKPHIRE_IFMA_TARGET static Vec
    broadcast(const Fr &c)
    {
        return ifma::broadcast(c);
    }

    ZKPHIRE_IFMA_TARGET static void
    loadPairs(const Fr *p, std::size_t stride, Vec &lo, Vec &hi,
              std::size_t n = kWidth)
    {
        ifma::loadPairs(p, stride, lo, hi, n);
    }

    ZKPHIRE_IFMA_TARGET static void
    storePairs(Fr *p, const Vec &lo, const Vec &hi, std::size_t n = kWidth)
    {
        ifma::storePairs(p, lo, hi, n);
    }

    ZKPHIRE_IFMA_TARGET static Vec
    fold(const Vec &lo, const Vec &hi, const Vec &r)
    {
        return ifma::add8(lo, ifma::montMul8(r, ifma::sub8(hi, lo)));
    }

    ZKPHIRE_IFMA_TARGET static void
    extendRows(Vec *e, std::size_t pts)
    {
        const Vec diff = ifma::sub8(e[1], e[0]);
        for (std::size_t j = 2; j < pts; ++j)
            e[j] = ifma::add8(e[j - 1], diff);
    }

    ZKPHIRE_IFMA_TARGET static void
    mulRows(Vec *d, const Vec *a, const Vec *b, std::size_t rows)
    {
        for (std::size_t j = 0; j < rows; ++j)
            d[j] = ifma::montMul8(a[j], b[j]);
    }

    ZKPHIRE_IFMA_TARGET static void
    addRows(Vec *acc, const Vec *v, std::size_t rows)
    {
        for (std::size_t j = 0; j < rows; ++j)
            acc[j] = ifma::add8(acc[j], v[j]);
    }

    ZKPHIRE_IFMA_TARGET static Fr
    sum(const Vec &x)
    {
        return ifma::laneSum(x);
    }
};

#endif // ZKPHIRE_HAVE_X86_IFMA

} // namespace zkphire::ff::lanes

#endif // ZKPHIRE_FF_FR_LANES_HPP
