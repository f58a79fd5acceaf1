#include "sumcheck/grand_product.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "rt/parallel.hpp"

namespace zkphire::sumcheck {

Mle
buildProductTree(const Mle &phi)
{
    const std::size_t n = phi.size();
    std::vector<Fr> v(2 * n, Fr::zero());
    // The even indices v[2x] = phi[x] are the leaves; the odd internal
    // nodes stratify into levels by their low bits: level L is exactly the
    // indices i = (2^L - 1) + j * 2^(L+1), and both children of a level-L
    // node — x = (i-1)/2 and x + n — satisfy the level-(L-1) congruence
    // i' = 2^(L-1) - 1 (mod 2^L). Building level by level therefore opens
    // n / 2^L-wide parallelism at every level with each product reading
    // only finished entries; operands and order match the serial recursion
    // exactly, so the table is bit-identical at any thread count.
    rt::parallelFor(
        0, n, [&](std::size_t x) { v[2 * x] = phi[x]; },
        /*grain=*/0, /*minGrain=*/1024);
    for (std::size_t level = 1; (std::size_t(1) << level) <= n; ++level) {
        const std::size_t base = (std::size_t(1) << level) - 1;
        const std::size_t step = std::size_t(1) << (level + 1);
        rt::parallelFor(
            0, n >> level,
            [&](std::size_t j) {
                const std::size_t i = base + j * step;
                const std::size_t x = (i - 1) / 2;
                v[i] = v[x] * v[x + n];
            },
            /*grain=*/0, /*minGrain=*/256);
    }
    // All-ones entry v[2n-1]: unconstrained when the grand product is 1
    // (the relation there reads v = root * v); pin it to zero.
    v[2 * n - 1] = Fr::zero();
    return Mle(std::move(v));
}

// The slices below land in arena tables: the PermCheck sumcheck that
// consumes them hands them to the arena when it ends, so they must come
// from it or the pool grows by three tables a proof.

Mle
extractPi(const Mle &v)
{
    const std::size_t n = v.size() / 2;
    poly::FrTable pi = poly::arenaAcquire(n);
    for (std::size_t x = 0; x < n; ++x)
        pi[x] = v[2 * x + 1];
    return Mle(std::move(pi));
}

Mle
extractP1(const Mle &v)
{
    const std::size_t n = v.size() / 2;
    poly::FrTable p1 = poly::arenaAcquire(n);
    std::copy(v.data(), v.data() + n, p1.data());
    return Mle(std::move(p1));
}

Mle
extractP2(const Mle &v)
{
    const std::size_t n = v.size() / 2;
    poly::FrTable p2 = poly::arenaAcquire(n);
    std::copy(v.data() + n, v.data() + 2 * n, p2.data());
    return Mle(std::move(p2));
}

Fr
treeRootProduct(const Mle &v)
{
    const std::size_t n = v.size() / 2;
    return v[n - 1];
}

std::vector<Fr>
rootProductPoint(unsigned mu)
{
    std::vector<Fr> point(mu + 1, Fr::one());
    point[mu] = Fr::zero();
    return point;
}

} // namespace zkphire::sumcheck
