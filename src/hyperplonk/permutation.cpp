#include "hyperplonk/permutation.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "ff/batch_inverse.hpp"
#include "ff/vec_ops.hpp"

namespace zkphire::hyperplonk {

namespace {

/** Union-find with path compression over global cell ids. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : parent(n)
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    void
    unite(std::size_t a, std::size_t b)
    {
        parent[find(a)] = find(b);
    }

  private:
    std::vector<std::size_t> parent;
};

} // namespace

PermutationData
buildPermutation(const Circuit &circuit)
{
    const std::size_t n = circuit.numRows();
    const unsigned k = circuit.numWitnesses();
    assert((n & (n - 1)) == 0 && "pad the circuit to a power of two first");

    auto cell_id = [n](Cell c) { return std::size_t(c.col) * n + c.row; };

    UnionFind uf(k * n);
    for (const auto &[a, b] : circuit.copies())
        uf.unite(cell_id(a), cell_id(b));

    // Group cells by representative, then wire each class into one cycle.
    std::vector<std::size_t> sigma_flat(k * n);
    std::iota(sigma_flat.begin(), sigma_flat.end(), 0);
    std::vector<std::vector<std::size_t>> classes(k * n);
    for (std::size_t c = 0; c < k * n; ++c)
        classes[uf.find(c)].push_back(c);
    for (const auto &members : classes) {
        if (members.size() < 2)
            continue;
        for (std::size_t i = 0; i < members.size(); ++i)
            sigma_flat[members[i]] = members[(i + 1) % members.size()];
    }

    PermutationData out;
    unsigned mu = 0;
    while ((std::size_t(1) << mu) < n)
        ++mu;
    for (unsigned j = 0; j < k; ++j) {
        Mle id_mle(mu), sigma_mle(mu);
        for (std::size_t x = 0; x < n; ++x) {
            id_mle[x] = Fr::fromU64(std::uint64_t(j) * n + x);
            sigma_mle[x] = Fr::fromU64(sigma_flat[std::size_t(j) * n + x]);
        }
        out.id.push_back(std::move(id_mle));
        out.sigma.push_back(std::move(sigma_mle));
    }
    return out;
}

FractionPolys
buildFractionPolys(const std::vector<Mle> &witness,
                   const PermutationData &perm, const Fr &beta,
                   const Fr &gamma)
{
    const unsigned k = unsigned(witness.size());
    assert(perm.id.size() == k && perm.sigma.size() == k);
    const std::size_t n = witness[0].size();

    // N_j = w_j + beta * id_j + gamma and D_j = w_j + beta * sigma_j +
    // gamma, column by column, in arena tables: the PermCheck that consumes
    // them hands them back to the arena.
    const auto column = [&](const Mle &w, const Mle &perm_col) {
        Mle c(poly::arenaAcquire(n));
        std::fill(c.data(), c.data() + n, gamma);
        ff::addVec(c.data(), w.data(), n);
        ff::addMulVec(c.data(), beta, perm_col.data(), n);
        return c;
    };
    FractionPolys out;
    for (unsigned j = 0; j < k; ++j) {
        out.numer.push_back(column(witness[j], perm.id[j]));
        out.denom.push_back(column(witness[j], perm.sigma[j]));
    }

    // phi = prod N / prod D with one batched inversion (PermQuotGen-style).
    std::vector<Fr> numer_prod(out.numer[0].data(), out.numer[0].data() + n);
    std::vector<Fr> denom_prod(out.denom[0].data(), out.denom[0].data() + n);
    for (unsigned j = 1; j < k; ++j) {
        ff::mulVec(numer_prod.data(), numer_prod.data(), out.numer[j].data(),
                   n);
        ff::mulVec(denom_prod.data(), denom_prod.data(), out.denom[j].data(),
                   n);
    }
    ff::batchInverseInPlace(std::span<Fr>(denom_prod));
    std::vector<Fr> phi(n);
    ff::mulVec(phi.data(), numer_prod.data(), denom_prod.data(), n);
    out.phi = Mle(std::move(phi));
    return out;
}

Fr
evalIdMle(unsigned col, unsigned mu, std::span<const Fr> point)
{
    assert(point.size() == mu);
    Fr acc = Fr::fromU64(std::uint64_t(col) << mu);
    Fr pow2 = Fr::one();
    for (unsigned i = 0; i < mu; ++i) {
        acc += pow2 * point[i];
        pow2 = pow2.dbl();
    }
    return acc;
}

} // namespace zkphire::hyperplonk
