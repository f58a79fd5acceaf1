#include "pcs/mkzg.hpp"

#include <algorithm>
#include <cassert>

#include "ff/vec_ops.hpp"
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

    // The working copy, quotient buffer, and fold double buffer all come
    // from the ambient arena (installed by engine::ProverContext), so a
    // proof stream on one context reuses one set of allocations instead of
    // reallocating ~2 * 2^mu elements per proof.
    FrTable t = zkphire::poly::arenaAcquire(poly.size());
    t.assign(poly.evals());
    Mle cur(std::move(t));
    FrTable q, fold_scratch;
    for (unsigned k = 0; k < mu; ++k) {
        // q_k(X_{k+1}..) = cur(1, X..) - cur(0, X..): adjacent differences,
        // committed over the level's suffix basis.
        const std::size_t half = cur.size() / 2;
        if (q.capacity() == 0)
            q = zkphire::poly::arenaAcquire(half);
        else
            q.resize(half);
        rt::parallelFor(
            0, half,
            [&](std::size_t j) { q[j] = cur[2 * j + 1] - cur[2 * j]; },
            /*grain=*/0, /*minGrain=*/1024);
        proof.quotients.push_back(
            ec::msmPippenger(q.span(), bases.suffix[k + 1],
                             ec::currentMsmOptions(), stats)
                .toAffine());
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
combineForBatchOpen(std::span<const Mle> polys, const Fr &rho)
{
    assert(!polys.empty());
    const unsigned mu = polys[0].numVars();
    // g = Sum_i rho^i f_i, combined entry-parallel: each chunk walks the
    // opened polynomials in claim order, so every entry sees the exact
    // serial accumulation sequence (bit-identical at any thread count)
    // while the chunks — the per-opening work — run concurrently.
    std::vector<Fr> powers(polys.size());
    Fr coeff = Fr::one();
    for (std::size_t i = 0; i < polys.size(); ++i) {
        assert(polys[i].numVars() == mu);
        powers[i] = coeff;
        coeff *= rho;
    }
    Mle g(mu);
    rt::parallelForChunks(
        0, g.size(),
        [&](std::size_t b, std::size_t e) {
            for (std::size_t i = 0; i < polys.size(); ++i) {
                const Mle &f = polys[i];
                const Fr c = powers[i];
                // Fused multiply-accumulate span over the unrolled field
                // kernels; rho^0 == 1 skips its multiply pass outright
                // (1 * x is exactly x in canonical Montgomery form).
                if (c.isOne())
                    ff::addVec(&g[b], &f[b], e - b);
                else
                    ff::addMulVec(&g[b], c, &f[b], e - b);
            }
        },
        /*grain=*/0, /*minGrain=*/1024);
    return g;
}

OpeningProof
batchOpen(const Srs &srs, std::span<const Mle> polys, std::span<const Fr> z,
          const Fr &rho, ec::MsmStats *stats)
{
    Mle g = combineForBatchOpen(polys, rho);
    return open(srs, g, z, stats);
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
