/**
 * @file
 * Naive SumCheck prover: the oracle for sumcheck::prove.
 *
 * Every round walks the GateExpr term list pair by pair on the calling
 * thread: each referenced slot's (lo, hi) entries are extended to
 * X = 0..D by repeated addition of (hi - lo), and every term's product is
 * formed at every node. Tables fold as lo + r * (hi - lo). The transcript
 * labels are the production prover's, so its proofs must equal the
 * GatePlan prover's byte for byte at every thread count and runner width.
 */
#ifndef ZKPHIRE_TESTS_SUMCHECK_ORACLE_HPP
#define ZKPHIRE_TESTS_SUMCHECK_ORACLE_HPP

#include <span>
#include <vector>

#include "hash/transcript.hpp"
#include "poly/gate_expr.hpp"
#include "poly/mle.hpp"
#include "sumcheck/prover.hpp"

namespace zkphire::oracle {

/** SumCheck over expr bound to tables (one per slot, same size). */
inline sumcheck::ProverOutput
naiveProve(const poly::GateExpr &expr, std::span<const poly::Mle> tables,
           hash::Transcript &tr)
{
    using ff::Fr;
    const unsigned mu = tables[0].numVars();
    const std::size_t degree = expr.degree();
    const std::size_t num_points = degree + 1;
    const std::size_t num_slots = tables.size();

    std::vector<std::vector<Fr>> t(num_slots);
    for (std::size_t s = 0; s < num_slots; ++s)
        t[s].assign(tables[s].evals().begin(), tables[s].evals().end());
    std::vector<bool> used(num_slots, false);
    for (poly::SlotId s : expr.referencedSlots())
        used[s] = true;

    sumcheck::ProverOutput out;
    tr.appendU64("sc/num_vars", mu);
    tr.appendU64("sc/degree", degree);
    // ext[s * num_points + p] = slot s extended to X = p.
    std::vector<Fr> ext(num_slots * num_points);
    for (unsigned round = 0; round < mu; ++round) {
        const std::size_t half = t[0].size() / 2;
        std::vector<Fr> evals(num_points, Fr::zero());
        for (std::size_t j = 0; j < half; ++j) {
            for (std::size_t s = 0; s < num_slots; ++s) {
                if (!used[s])
                    continue;
                const Fr diff = t[s][2 * j + 1] - t[s][2 * j];
                Fr *e = &ext[s * num_points];
                e[0] = t[s][2 * j];
                for (std::size_t p = 1; p < num_points; ++p)
                    e[p] = e[p - 1] + diff;
            }
            for (const poly::Term &term : expr.terms()) {
                for (std::size_t p = 0; p < num_points; ++p) {
                    Fr prod = term.coeff;
                    for (poly::SlotId f : term.factors)
                        prod *= ext[f * num_points + p];
                    evals[p] += prod;
                }
            }
        }
        if (round == 0) {
            out.proof.claimedSum = evals[0] + evals[1];
            tr.appendFr("sc/claim", out.proof.claimedSum);
        }
        tr.appendFrVec("sc/round", evals);
        const Fr r = tr.challengeFr("sc/challenge");
        out.proof.roundEvals.push_back(std::move(evals));
        out.challenges.push_back(r);
        // Entry j reads 2j and 2j + 1, never below j: folding in place in
        // ascending order reads every source before it is overwritten.
        for (std::vector<Fr> &col : t) {
            for (std::size_t j = 0; j < half; ++j)
                col[j] = col[2 * j] + r * (col[2 * j + 1] - col[2 * j]);
            col.resize(half);
        }
    }
    for (const std::vector<Fr> &col : t)
        out.proof.finalSlotEvals.push_back(col[0]);
    tr.appendFrVec("sc/final_evals", out.proof.finalSlotEvals);
    return out;
}

} // namespace zkphire::oracle

#endif // ZKPHIRE_TESTS_SUMCHECK_ORACLE_HPP
