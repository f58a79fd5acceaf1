/**
 * @file
 * VirtualPoly: a GateExpr bound to concrete MLE tables.
 *
 * This is the object SumCheck actually runs over — the paper's "given only
 * the constituent polynomials and their composition structure, perform
 * SumCheck over the composition". The prover folds all bound tables in
 * lockstep each round.
 *
 * Every VirtualPoly carries a compiled GatePlan (either lowered at
 * construction or supplied precompiled from a cache); all evaluation entry
 * points run on the plan, which is bit-identical to walking the GateExpr
 * term list but reuses shared sub-products and honors per-slot extension
 * bounds.
 */
#ifndef ZKPHIRE_POLY_VIRTUAL_POLY_HPP
#define ZKPHIRE_POLY_VIRTUAL_POLY_HPP

#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "poly/gate_expr.hpp"
#include "poly/gate_plan.hpp"
#include "poly/mle.hpp"

namespace zkphire::poly {

/**
 * Composite polynomial with bound evaluation tables.
 *
 * A slot's table is either owned (moved in; folded in place or through a
 * double buffer) or borrowed (read in place until the first fold, which
 * writes the slot's own half-size arena table), so the SumCheck prover
 * folds destructively without copying or touching caller state.
 */
class VirtualPoly
{
  public:
    /**
     * @param expr Composition structure (slots, terms, coefficients).
     * @param mles One table per slot, all with the same number of variables.
     */
    VirtualPoly(GateExpr expr, std::vector<Mle> mles);

    /**
     * Bind with a precompiled plan (e.g. gates::PlanCache::plan), skipping the
     * lowering pass. The plan must have been compiled from an expression
     * with identical structure.
     */
    VirtualPoly(GateExpr expr, std::vector<Mle> mles,
                std::shared_ptr<const GatePlan> plan);

    /**
     * Bind slot s to *slots[s]. A table that `owned` holds is moved in and
     * owned; every other one is borrowed: read in place until the first
     * fold, so the caller keeps it alive and unchanged until then. Null
     * `plan` lowers one here.
     */
    VirtualPoly(GateExpr expr, std::span<const Mle *const> slots,
                std::vector<Mle> owned, std::shared_ptr<const GatePlan> plan);

    const GateExpr &expr() const { return structure; }
    const GatePlan &plan() const { return *evalPlan; }
    std::shared_ptr<const GatePlan> sharedPlan() const { return evalPlan; }
    unsigned numVars() const { return nVars; }
    std::size_t numSlots() const { return tables.size(); }

    const Mle &table(SlotId s) const { return *view[s]; }
    /** The current table of every slot, owned or borrowed. */
    std::span<const Mle *const> allTables() const { return view; }

    /** Evaluate the composition at a hypercube index. */
    Fr evalAtIndex(std::size_t idx) const;

    /** Evaluate the composition at an arbitrary point (O(slots * N)). */
    Fr evaluate(std::span<const Fr> point) const;

    /** Direct Sum_x expr(x) over the hypercube — the SumCheck claim. */
    Fr sumOverHypercube() const;

    /** Fold every bound table with the round challenge (MLE Update). */
    void fixFirstVarInPlace(const Fr &r);

    /**
     * Fused MLE Update + next-round evaluation: fold every table with r
     * into the scratch buffers and, in the same chunk walk, accumulate the
     * plan's pair contributions of the *folded* tables — each chunk is
     * evaluated while its freshly written entries are still hot, so a
     * streamed table is walked once per round instead of twice. Returns
     * the flat class accumulator (length plan().accSize()); values are
     * bit-identical to fixFirstVarInPlace(r) followed by a separate
     * accumulation (exact field arithmetic, identical per-index formulas).
     * Requires numVars() >= 2.
     */
    std::vector<Fr> foldAndAccumulate(const Fr &r);

    /** True when any bound table lives on the mapped streaming backend. */
    bool anyTableMapped() const;

    VirtualPoly(VirtualPoly &&) = default;
    VirtualPoly &operator=(VirtualPoly &&) = default;
    ~VirtualPoly();

  private:
    /** Lower the plan when none was given, check it and the tables. */
    void bindPlan();
    bool owns(std::size_t s) const;

    GateExpr structure;
    std::shared_ptr<const GatePlan> evalPlan;
    /** Owned tables; a borrowed slot's entry stays empty until its first
     *  fold. */
    std::vector<Mle> tables;
    /** Slot s reads *view[s]: &tables[s] once owned, else the borrowed
     *  table. */
    std::vector<const Mle *> view;
    /** Per-table double buffers reused across round folds (no per-round
     *  allocation when a fold takes the out-of-place parallel path).
     *  Acquired lazily from the ambient arena; released back on
     *  destruction, so consecutive proofs on one ProverContext reuse the
     *  same slabs. */
    std::vector<FrTable> foldScratch;
    unsigned nVars = 0;
};

} // namespace zkphire::poly

#endif // ZKPHIRE_POLY_VIRTUAL_POLY_HPP
