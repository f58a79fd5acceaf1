/**
 * @file
 * GatePlan: a compiled, reuse-aware evaluation plan for a GateExpr.
 *
 * A GateExpr is the *symbolic* composition the programmable SumCheck unit is
 * programmed with; walking its term list at every evaluation point repeats
 * work the structure makes explicit — Jellyfish's four w^5 S-box terms each
 * re-multiply five factors, every slot is extended to the global max degree
 * even when it only feeds degree-2 terms, and shared sub-products (w1*w2 in
 * both the qM1 and qecc terms) are recomputed per term. compile() lowers the
 * expression once into a flat instruction list that mirrors what the
 * hardware scheduler emits (paper §III-E):
 *
 *   - every multiplication is a PlanOp (dst = lhs * rhs) over virtual
 *     registers; registers [0, numSlots) hold slot extensions, the rest are
 *     temporaries — the software analogue of the scheduler's Tmp MLE buffer
 *     (writeTmp/useTmp);
 *   - powers are lowered with memoized binary powering (w^5 = three muls,
 *     not four) and every op is hash-consed, so sub-products shared between
 *     terms are computed exactly once;
 *   - each term evaluates at only degree+1 points and accumulates into a
 *     per-degree class; slot extension bounds are back-propagated through
 *     the op DAG, so a slot appearing only in degree-2 terms is extended to
 *     3 points regardless of the composite degree;
 *   - unit coefficients are folded away (no coefficient multiply), and
 *     pure-constant terms collapse into a single class-0 addend.
 *
 * Degree classes are finalized once per SumCheck round: the class-d
 * accumulator holds an exact degree-<=d univariate at nodes 0..d, which
 * finalizeRoundEvals() extends to the composite-degree node range with
 * Newton forward differences (additions only — exact field arithmetic, so
 * the result is bit-identical to the naive evaluator's).
 *
 * The same decomposition drives the hardware model: sim::buildScheduleFromPlan
 * lowers the op list into ScheduleNodes, and the cost-model cross-check ties
 * productMulsPerPoint() to the scheduler's per-point multiplication count.
 */
#ifndef ZKPHIRE_POLY_GATE_PLAN_HPP
#define ZKPHIRE_POLY_GATE_PLAN_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "poly/gate_expr.hpp"
#include "poly/mle.hpp"

namespace zkphire::poly {

/** Virtual register index: [0, numSlots) = slot extensions, rest = temps. */
using RegId = std::uint32_t;

inline constexpr RegId kNoReg = ~RegId(0);

/** One plan instruction: dst = lhs * rhs, needed at points 0..numPoints-1. */
struct PlanOp {
    RegId dst = kNoReg;
    RegId lhs = kNoReg;
    RegId rhs = kNoReg;
    /** Evaluation points this product is needed at (back-propagated). */
    std::uint32_t numPoints = 0;
    /** Expression term whose lowering first emitted this op (diagnostics
     *  and ScheduleNode attribution; shared ops keep their creator). */
    std::uint32_t term = 0;
};

/** One expression term after lowering. */
struct PlanTerm {
    Fr coeff = Fr::one();
    /** Register holding the term product; kNoReg for constant terms. */
    RegId product = kNoReg;
    /** Factor count (with repeats) == accumulation degree class. */
    std::uint32_t degree = 0;
    /** Offset of this term's class in the flat accumulator. */
    std::uint32_t accOffset = 0;
};

/**
 * Compiled evaluation plan. Immutable after compile(); safe to share across
 * threads (accumulatePairs keeps its mutable state in its arguments and in
 * per-thread lane storage).
 */
class GatePlan
{
  public:
    GatePlan() = default;

    /** Lower an expression. Deterministic: same expr -> same plan. */
    static GatePlan compile(const GateExpr &expr);

    // ---- introspection --------------------------------------------------
    std::size_t numSlots() const { return nSlots; }
    std::size_t numRegs() const { return nRegs; }
    std::size_t numTerms() const { return termList.size(); }
    std::span<const PlanOp> ops() const { return opList; }
    std::span<const PlanTerm> planTerms() const { return termList; }
    bool isSlotReg(RegId r) const { return r < nSlots; }
    /** Composite degree D (== GateExpr::degree()). */
    std::size_t degree() const { return maxDegree; }
    /** Extension bound for slot s: points 0..slotPoints(s)-1 (0 = unused). */
    std::uint32_t slotPoints(SlotId s) const { return regPoints[s]; }
    /** Max points any register needs (the scratch stride). */
    std::uint32_t maxPoints() const { return maxPts; }
    /** Flat accumulator length: sum over degree classes of (d + 1). */
    std::size_t accSize() const { return accLen; }
    /** Degree classes present, ascending. */
    std::span<const std::uint32_t> classDegrees() const { return classes; }

    /** Product multiplications per shared evaluation point (== ops). This is
     *  the count the hardware cost model charges; coefficient multiplies are
     *  excluded, matching sim::PolyShape which drops coefficients. */
    std::size_t productMulsPerPoint() const { return opList.size(); }
    /** Product + coefficient multiplications per shared evaluation point
     *  (directly comparable to GateExpr::mulsPerPoint()). */
    std::size_t mulsPerPoint() const;
    /** Total multiplications per table pair in a SumCheck round, honoring
     *  per-op point bounds (the number the round-evaluation loop executes). */
    std::size_t mulsPerPair() const;
    /** The naive evaluator's multiplications per pair, for speedup ratios:
     *  every term at all degree+1 points. */
    std::size_t naiveMulsPerPair(const GateExpr &expr) const;

    /** Pretty listing (DESIGN docs, debugging). */
    std::string toString(const GateExpr &expr) const;

    // ---- evaluation -----------------------------------------------------
    /** Evaluate at one point given slot values (== GateExpr::evaluate). */
    Fr evaluate(std::span<const Fr> slot_values) const;
    /** Same, reusing caller scratch of size numRegs(). */
    Fr evaluate(std::span<const Fr> slot_values,
                std::vector<Fr> &scratch) const;

    /**
     * SumCheck round hot loop: for every table pair j in [begin, end),
     * extend each used slot to its own point bound, run the op list, and
     * accumulate each term at its degree+1 points into the flat class
     * accumulator `acc` (length accSize()). Pairs are processed in blocks
     * of eight, one per lane of an eight-wide Fr vector (ff/fr_lanes.hpp):
     * the AVX-512 IFMA lanes when ff::kernels::ifmaSelected() holds, eight
     * scalar elements otherwise. Slot extensions, products and per-term
     * accumulators stay in lane form for the whole call; the lanes are
     * summed, and non-unit coefficients applied, once per call. The result
     * is bit-identical to a pair-at-a-time walk on either backend (exact
     * field arithmetic; only the grouping of additions changes).
     */
    void accumulatePairs(std::span<const Mle> tables, std::size_t begin,
                         std::size_t end, std::span<Fr> acc) const;

    /** Same, for callers that pass a scratch vector (perfbench/): the
     *  block loop keeps its lane registers in per-thread storage, so
     *  `scratch` is left untouched. */
    void accumulatePairs(std::span<const Mle> tables, std::size_t begin,
                         std::size_t end, std::span<Fr> acc,
                         std::vector<Fr> &scratch) const;

    /** Same hot loop over raw table pointers (tables[s] points at
     *  >= 2*end entries). */
    void accumulatePairs(const Fr *const *tables, std::size_t begin,
                         std::size_t end, std::span<Fr> acc) const;

    /**
     * Fused MLE Update + accumulation: fold every slot table with r,
     * folded[s][i] = src[s][2i] + r * (src[s][2i+1] - src[s][2i]) for
     * i in [2*begin, 2*end), and accumulate the folded pairs [begin, end)
     * as accumulatePairs over `folded` would. The folded lanes go straight
     * from the fold into the block's registers. src[s] holds >= 4*end
     * entries and must not overlap folded[s]. Bit-identical to a separate
     * fold followed by accumulatePairs.
     */
    void foldAccumulatePairs(const Fr *const *src, Fr *const *folded,
                             const Fr &r, std::size_t begin, std::size_t end,
                             std::span<Fr> acc) const;

    /**
     * Per-round finalize: extend every degree class to nodes 0..D with
     * Newton forward differences and sum, yielding s_i(0..D) — exactly the
     * values the naive evaluator accumulates point by point.
     */
    std::vector<Fr> finalizeRoundEvals(std::span<const Fr> acc) const;

  private:
    std::uint32_t nSlots = 0;
    std::uint32_t nRegs = 0;
    std::uint32_t maxPts = 0;
    std::uint32_t maxDegree = 0;
    std::uint32_t accLen = 0;
    std::vector<PlanOp> opList;
    std::vector<PlanTerm> termList;
    /** Per-register point bound (slot regs double as extension bounds). */
    std::vector<std::uint32_t> regPoints;
    /** Degree classes present, ascending, parallel to classOffsets. */
    std::vector<std::uint32_t> classes;
    std::vector<std::uint32_t> classOffsets;
};

} // namespace zkphire::poly

#endif // ZKPHIRE_POLY_GATE_PLAN_HPP
