#include "sumcheck/prover.hpp"

#include <cassert>

#include "ff/batch_inverse.hpp"
#include "rt/cancel.hpp"
#include "rt/failpoint.hpp"
#include "rt/parallel.hpp"

namespace zkphire::sumcheck {

using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;

std::size_t
SumcheckProof::sizeBytes() const
{
    std::size_t elems = 1; // claimedSum
    for (const auto &r : roundEvals)
        elems += r.size();
    elems += finalSlotEvals.size();
    return elems * ff::kFrBytes;
}

namespace {

/**
 * Accumulate fill(b, e, acc) over pairs [0, half) into an acc_len-wide
 * accumulator: rt::parallelReduce chunks the range over the pool, and the
 * per-chunk accumulators are summed in ascending chunk order. Field
 * addition is exact, so the result is bit-identical to the serial loop at
 * any thread count.
 */
template <class FillRange>
std::vector<Fr>
accumulatePairs(std::size_t half, std::size_t acc_len, const FillRange &fill)
{
    if (rt::currentThreads() <= 1 || half < 1024) {
        std::vector<Fr> acc(acc_len, Fr::zero());
        fill(0, half, acc);
        return acc;
    }
    return rt::parallelReduce<std::vector<Fr>>(
        0, half, std::vector<Fr>(acc_len, Fr::zero()),
        [&](std::size_t b, std::size_t e) {
            std::vector<Fr> part(acc_len, Fr::zero());
            fill(b, e, part);
            return part;
        },
        [&](std::vector<Fr> acc, std::vector<Fr> part) {
            for (std::size_t p = 0; p < acc_len; ++p)
                acc[p] += part[p];
            return acc;
        },
        /*grain=*/0, /*minGrain=*/256);
}

/**
 * Round evaluations: per-chunk flat degree-class accumulators of the
 * GatePlan combined in chunk order (exact addition, so bit-identical at any
 * thread count), then one finalize extends every class to the
 * composite-degree node range. The result equals the naive term walk
 * (tests/sumcheck_oracle.hpp) value for value: the plan computes the same
 * polynomial with a different (exact) multiplication tree.
 */
std::vector<Fr>
roundEvaluations(const VirtualPoly &vp)
{
    const poly::GatePlan &plan = vp.plan();
    const std::size_t half = std::size_t(1) << (vp.numVars() - 1);
    const std::size_t acc_len = plan.accSize();
    // Release consumed windows of mapped tables block by block: the data
    // survives in the page cache (MAP_SHARED) for this round's fold to
    // re-fault, while the walk stays O(chunk)-resident. Blocked here, not
    // per parallel chunk, so a serial run gets the same bound.
    const std::size_t rel_blk = std::max<std::size_t>(
        poly::currentStorePolicy().chunkElems / 2, std::size_t(2048));
    std::vector<const Fr *> ptrs;
    for (const Mle *t : vp.allTables())
        ptrs.push_back(t->data());
    std::vector<Fr> acc = accumulatePairs(
        half, acc_len, [&](std::size_t b, std::size_t e, std::vector<Fr> &a) {
            for (std::size_t p0 = b; p0 < e; p0 += rel_blk) {
                const std::size_t p1 = std::min(e, p0 + rel_blk);
                plan.accumulatePairs(ptrs.data(), p0, p1, a);
                for (const Mle *t : vp.allTables())
                    if (t->isMapped())
                        t->store().releaseWindow(2 * p0, 2 * p1);
            }
        });
    return plan.finalizeRoundEvals(acc);
}

} // namespace

ProverOutput
proveRounds(VirtualPoly &poly, hash::Transcript &tr)
{
    const unsigned mu = poly.numVars();
    const std::size_t degree = poly.expr().degree();
    assert(mu > 0 && degree > 0);

    ProverOutput out;
    out.proof.roundEvals.reserve(mu);
    out.challenges.reserve(mu);

    tr.appendU64("sc/num_vars", mu);
    tr.appendU64("sc/degree", degree);

    /** Pair count above which the fused fold+evaluate walk beats separate
     *  fold and evaluation passes (below it the extra scratch traffic is
     *  not worth saving one table walk). */
    constexpr std::size_t kFuseMinPairs = 1u << 12;

    std::vector<Fr> evals = roundEvaluations(poly);
    for (unsigned round = 0; round < mu; ++round) {
        // Round boundary: transcript state is consistent between rounds, so
        // both cancellation delivery and fault injection land here.
        rt::checkCancel();
        rt::failpoint("sumcheck.round");
        if (round == 0) {
            out.proof.claimedSum = evals[0] + evals[1];
            tr.appendFr("sc/claim", out.proof.claimedSum);
        }
        tr.appendFrVec("sc/round", evals);
        Fr r = tr.challengeFr("sc/challenge");
        out.proof.roundEvals.push_back(std::move(evals));
        out.challenges.push_back(r);
        if (round + 1 == mu) {
            poly.fixFirstVarInPlace(r);
            continue;
        }
        // Fuse this round's fold with the next round's evaluation: each
        // chunk of the halved table is evaluated in the same walk that
        // writes it, so a streamed table is touched once per round instead
        // of twice. Values are bit-identical either way (exact arithmetic,
        // identical per-index formulas) — this only moves wall-clock and
        // RSS, never bytes.
        const std::size_t next_half = std::size_t(1)
                                      << (poly.numVars() - 2);
        if (poly.anyTableMapped() || next_half >= kFuseMinPairs) {
            evals = poly.plan().finalizeRoundEvals(poly.foldAndAccumulate(r));
        } else {
            poly.fixFirstVarInPlace(r);
            evals = roundEvaluations(poly);
        }
    }
    return out;
}

ProverOutput
prove(VirtualPoly poly, hash::Transcript &tr, const rt::Config &cfg)
{
    // A default Config inherits the ambient setting (enclosing ScopedConfig
    // or the runtime default); explicit fields pin both the round
    // evaluations and the MLE folds.
    rt::ScopedConfig scope(cfg);
    ProverOutput out = proveRounds(poly, tr);

    // After mu folds each table is a single evaluation at the challenge
    // point; these back the verifier's final check (and, in HyperPlonk, the
    // subsequent PCS openings).
    out.proof.finalSlotEvals.resize(poly.numSlots());
    for (std::size_t s = 0; s < poly.numSlots(); ++s)
        out.proof.finalSlotEvals[s] = poly.table(SlotId(s))[0];
    tr.appendFrVec("sc/final_evals", out.proof.finalSlotEvals);
    return out;
}

Fr
evalUnivariate(std::span<const Fr> evals, const Fr &r)
{
    const std::size_t n = evals.size();
    assert(n >= 1);
    if (n == 1)
        return evals[0];

    // If r is one of the integer nodes, return directly (avoids 0 division).
    for (std::size_t e = 0; e < n; ++e)
        if (r == Fr::fromU64(e))
            return evals[e];

    // Barycentric-style Lagrange on nodes 0..n-1.
    std::vector<Fr> prefix(n), suffix(n);
    Fr acc = Fr::one();
    for (std::size_t e = 0; e < n; ++e) {
        prefix[e] = acc;
        acc *= r - Fr::fromU64(e);
    }
    acc = Fr::one();
    for (std::size_t e = n; e-- > 0;) {
        suffix[e] = acc;
        acc *= r - Fr::fromU64(e);
    }

    // denom_e = e! * (n-1-e)! * (-1)^(n-1-e), all inverted in one
    // Montgomery batch pass (inverses are canonical field values, so this
    // matches per-element .inverse() bit for bit).
    std::vector<Fr> fact(n);
    fact[0] = Fr::one();
    for (std::size_t i = 1; i < n; ++i)
        fact[i] = fact[i - 1] * Fr::fromU64(i);
    std::vector<Fr> denom(n);
    for (std::size_t e = 0; e < n; ++e) {
        denom[e] = fact[e] * fact[n - 1 - e];
        if ((n - 1 - e) & 1)
            denom[e] = denom[e].neg();
    }
    ff::batchInverseInPlace(std::span<Fr>(denom));
    Fr result = Fr::zero();
    for (std::size_t e = 0; e < n; ++e)
        result += evals[e] * prefix[e] * suffix[e] * denom[e];
    return result;
}

} // namespace zkphire::sumcheck
