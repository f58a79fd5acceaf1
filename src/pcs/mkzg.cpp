#include "pcs/mkzg.hpp"

#include <algorithm>
#include <cassert>

#include "rt/cancel.hpp"
#include "rt/parallel.hpp"

namespace zkphire::pcs {

namespace {

using zkphire::poly::FrTable;

/** Whether a commit over f should take the chunk-streaming MSM: the table
 *  is mapped (walking it all at once would fault every page into RSS) or
 *  at/above the ambient stream threshold, and bigger than one chunk. */
bool
shouldStreamCommit(const Mle &f)
{
    const zkphire::poly::StorePolicy pol =
        zkphire::poly::currentStorePolicy();
    return f.size() > pol.chunkElems &&
           (f.isMapped() || f.size() >= pol.thresholdElems);
}

/**
 * Commit already-materialized tables chunk by chunk: one MsmAccumulator
 * consumes consecutive windows of every column, and consumed windows of
 * mapped tables are dropped from RSS (the slab file keeps the data — later
 * readers fault it back). Group values equal ec::msmBatch over the whole
 * tables; commitments are affine-normalized, so the bytes match too.
 */
std::vector<G1Jacobian>
msmStreamTables(std::span<const Mle *const> polys,
                std::span<const G1Affine> points, ec::MsmStats *stats)
{
    const std::size_t n = points.size();
    const std::size_t m = polys.size();
    const std::size_t chunk =
        std::min(n, zkphire::poly::currentStorePolicy().chunkElems);
    ec::MsmAccumulator acc(n, m, ec::currentMsmOptions(), stats, chunk);
    for (const Mle *p : polys)
        p->store().adviseSequential();
    std::vector<std::span<const Fr>> cols(m);
    for (std::size_t b = 0; b < n; b += chunk) {
        rt::checkCancel(); // chunk boundary: accumulator state is consistent
        const std::size_t e = std::min(n, b + chunk);
        for (std::size_t i = 0; i < m; ++i)
            cols[i] = polys[i]->evals().subspan(b, e - b);
        acc.add(cols, points.subspan(b, e - b));
        for (const Mle *p : polys)
            if (p->isMapped())
                p->store().releaseWindow(b, e);
    }
    return acc.finalize();
}

} // namespace

Commitment
commit(const Srs &srs, const Mle &f, ec::MsmStats *stats)
{
    const Mle *one[] = {&f};
    return commitBatch(srs, one, stats)[0];
}

std::vector<Commitment>
commitBatch(const Srs &srs, std::span<const Mle *const> polys,
            ec::MsmStats *stats)
{
    std::vector<Commitment> out;
    out.reserve(polys.size());
    if (polys.empty())
        return out;
    // The multi-MSM needs one shared basis; a mixed-size family degrades
    // to per-polynomial commits (same results, no sharing) rather than
    // committing everything against polys[0]'s basis.
    const unsigned mu = polys[0]->numVars();
    for (const Mle *p : polys) {
        if (p->numVars() != mu) {
            for (const Mle *q : polys)
                out.push_back(commit(srs, *q, stats));
            return out;
        }
    }
    const LevelBases &bases = srs.basesFor(mu);
    bool stream = false;
    for (const Mle *p : polys)
        stream = stream || shouldStreamCommit(*p);
    if (stream) {
        for (const G1Jacobian &c :
             msmStreamTables(polys, bases.suffix[0], stats))
            out.push_back(Commitment{c.toAffine()});
        return out;
    }
    std::vector<std::span<const Fr>> cols;
    cols.reserve(polys.size());
    for (const Mle *p : polys)
        cols.push_back(p->evals());
    for (const G1Jacobian &c : ec::msmBatch(cols, bases.suffix[0],
                                            ec::currentMsmOptions(), stats))
        out.push_back(Commitment{c.toAffine()});
    return out;
}

std::vector<Commitment>
commitBatch(const Srs &srs, std::span<const Mle> polys, ec::MsmStats *stats)
{
    std::vector<const Mle *> ptrs;
    ptrs.reserve(polys.size());
    for (const Mle &p : polys)
        ptrs.push_back(&p);
    return commitBatch(srs, std::span<const Mle *const>(ptrs), stats);
}

OpeningProof
open(const Srs &srs, const Mle &poly, std::span<const Fr> z,
     ec::MsmStats *stats)
{
    const unsigned mu = poly.numVars();
    assert(z.size() == mu && "opening point dimension mismatch");
    const LevelBases &bases = srs.basesFor(mu);
    OpeningProof proof;
    proof.quotients.reserve(mu);

    // The quotient buffer and the folded tables come from the ambient arena
    // (installed by engine::ProverContext), so a proof stream on one
    // context reuses one set of allocations. The first quotient and the
    // first fold read poly itself and write half-size tables: no full-size
    // working copy.
    Mle cur;
    FrTable q, fold_scratch;
    for (unsigned k = 0; k < mu; ++k) {
        // q_k(X_{k+1}..) = cur(1, X..) - cur(0, X..): adjacent differences,
        // committed over the level's suffix basis.
        const Mle &src = k == 0 ? poly : cur;
        const std::size_t half = src.size() / 2;
        if (q.capacity() == 0)
            q = zkphire::poly::arenaAcquire(half);
        else
            q.resize(half);
        rt::parallelFor(
            0, half,
            [&](std::size_t j) { q[j] = src[2 * j + 1] - src[2 * j]; },
            /*grain=*/0, /*minGrain=*/1024);
        proof.quotients.push_back(
            ec::msmPippenger(q.span(), bases.suffix[k + 1],
                             ec::currentMsmOptions(), stats)
                .toAffine());
        if (k == 0)
            cur = poly.fixFirstVar(z[0]);
        else
            cur.fixFirstVarInPlace(z[k], fold_scratch);
    }
    zkphire::poly::arenaRelease(std::move(cur.store()));
    zkphire::poly::arenaRelease(std::move(q));
    zkphire::poly::arenaRelease(std::move(fold_scratch));
    return proof;
}

bool
verifyOpening(const Srs &srs, const Commitment &c, std::span<const Fr> z,
              const Fr &value, const OpeningProof &proof)
{
    const unsigned mu = unsigned(z.size());
    if (proof.quotients.size() != mu)
        return false;
    // C - value * G == Sum_k (tau_k - z_k) * pi_k, checked in G1 with the
    // simulation trapdoor tau (testing-only; production uses a pairing).
    G1Jacobian lhs = G1Jacobian::fromAffine(c.point)
                         .add(G1Jacobian::fromAffine(srs.generator())
                                  .mulScalar(value)
                                  .neg());
    G1Jacobian rhs = G1Jacobian::identity();
    for (unsigned k = 0; k < mu; ++k) {
        Fr coeff = srs.tau()[k] - z[k];
        rhs = rhs.add(
            G1Jacobian::fromAffine(proof.quotients[k]).mulScalar(coeff));
    }
    return lhs == rhs;
}

Mle
combineForBatchOpen(std::span<const Mle *const> polys, const Fr &rho)
{
    assert(!polys.empty());
    std::vector<Fr> powers(polys.size());
    Fr coeff = Fr::one();
    for (Fr &p : powers) {
        p = coeff;
        coeff *= rho;
    }
    return zkphire::poly::linearCombination(polys, powers);
}

Mle
combineForBatchOpen(std::span<const Mle> polys, const Fr &rho)
{
    std::vector<const Mle *> ptrs;
    ptrs.reserve(polys.size());
    for (const Mle &p : polys)
        ptrs.push_back(&p);
    return combineForBatchOpen(std::span<const Mle *const>(ptrs), rho);
}

OpeningProof
batchOpen(const Srs &srs, std::span<const Mle *const> polys,
          std::span<const Fr> z, const Fr &rho, ec::MsmStats *stats)
{
    Mle g = combineForBatchOpen(polys, rho);
    OpeningProof proof = open(srs, g, z, stats);
    zkphire::poly::arenaRelease(std::move(g.store()));
    return proof;
}

bool
verifyBatchOpening(const Srs &srs, std::span<const Commitment> cs,
                   std::span<const Fr> z, std::span<const Fr> values,
                   const Fr &rho, const OpeningProof &proof)
{
    assert(cs.size() == values.size());
    // Combined commitment and value via linearity.
    G1Jacobian c = G1Jacobian::identity();
    Fr v = Fr::zero();
    Fr coeff = Fr::one();
    for (std::size_t i = 0; i < cs.size(); ++i) {
        c = c.add(G1Jacobian::fromAffine(cs[i].point).mulScalar(coeff));
        v += coeff * values[i];
        coeff *= rho;
    }
    return verifyOpening(srs, Commitment{c.toAffine()}, z, v, proof);
}

} // namespace zkphire::pcs
