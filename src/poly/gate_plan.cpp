#include "poly/gate_plan.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "ff/fr_lanes.hpp"
#include "ff/mul_ifma_x86.hpp"

namespace zkphire::poly {

namespace {

/** Lowering state: hash-consed mul DAG plus the power memo. */
struct Lowerer {
    explicit Lowerer(std::uint32_t num_slots) : nextReg(num_slots) {}

    std::uint32_t nextReg;
    std::vector<PlanOp> ops;
    /** (lhs, rhs) normalized -> dst, so shared sub-products cons to one op. */
    std::map<std::pair<RegId, RegId>, RegId> consed;
    /** (slot, exponent) -> register, for binary-powering reuse. */
    std::map<std::pair<SlotId, std::uint32_t>, RegId> powMemo;

    RegId
    mul(RegId a, RegId b, std::uint32_t term)
    {
        if (a > b)
            std::swap(a, b);
        auto it = consed.find({a, b});
        if (it != consed.end())
            return it->second;
        RegId dst = nextReg++;
        ops.push_back(PlanOp{dst, a, b, 0, term});
        consed.emplace(std::pair<RegId, RegId>{a, b}, dst);
        return dst;
    }

    /** slot^exp via memoized binary powering (w^5 = 3 muls, shared). */
    RegId
    power(SlotId slot, std::uint32_t exp, std::uint32_t term)
    {
        assert(exp >= 1);
        if (exp == 1)
            return RegId(slot);
        auto it = powMemo.find({slot, exp});
        if (it != powMemo.end())
            return it->second;
        RegId lo = power(slot, exp / 2, term);
        RegId hi = power(slot, exp - exp / 2, term);
        RegId dst = mul(lo, hi, term);
        powMemo.emplace(std::pair<SlotId, std::uint32_t>{slot, exp}, dst);
        return dst;
    }
};

} // namespace

GatePlan
GatePlan::compile(const GateExpr &expr)
{
    GatePlan plan;
    plan.nSlots = std::uint32_t(expr.numSlots());
    plan.maxDegree = std::uint32_t(expr.degree());

    // Slot popularity (number of terms referencing each slot) orders the
    // factor groups inside every term: popular slots lead, so terms sharing
    // a leading sub-product (e.g. f_r, or w1*w2 in Jellyfish's qM1 and qecc
    // terms) produce identical op prefixes and the hash-consing pass merges
    // them. Ties break on slot id — fully deterministic.
    std::vector<std::uint32_t> ref_count(plan.nSlots, 0);
    for (const Term &t : expr.terms()) {
        std::vector<bool> seen(plan.nSlots, false);
        for (SlotId f : t.factors)
            if (!seen[f]) {
                seen[f] = true;
                ++ref_count[f];
            }
    }

    Lowerer lower(plan.nSlots);
    plan.termList.reserve(expr.numTerms());
    for (std::size_t ti = 0; ti < expr.numTerms(); ++ti) {
        const Term &t = expr.terms()[ti];
        PlanTerm pt;
        pt.coeff = t.coeff;
        pt.degree = std::uint32_t(t.degree());
        if (!t.factors.empty()) {
            std::map<SlotId, std::uint32_t> exps;
            for (SlotId f : t.factors)
                ++exps[f];
            std::vector<std::pair<SlotId, std::uint32_t>> groups(
                exps.begin(), exps.end());
            std::stable_sort(groups.begin(), groups.end(),
                             [&](const auto &a, const auto &b) {
                                 if (ref_count[a.first] != ref_count[b.first])
                                     return ref_count[a.first] >
                                            ref_count[b.first];
                                 return a.first < b.first;
                             });
            RegId acc = lower.power(groups[0].first, groups[0].second,
                                    std::uint32_t(ti));
            for (std::size_t g = 1; g < groups.size(); ++g) {
                RegId factor = lower.power(groups[g].first, groups[g].second,
                                           std::uint32_t(ti));
                acc = lower.mul(acc, factor, std::uint32_t(ti));
            }
            pt.product = acc;
        }
        plan.termList.push_back(pt);
    }
    plan.opList = std::move(lower.ops);
    plan.nRegs = lower.nextReg;

    // Back-propagate evaluation-point requirements through the op DAG: each
    // term needs its product at degree+1 points; an op inherits the max of
    // its consumers. Slot registers end up with their *actual* extension
    // bound, which can sit well below the composite degree.
    plan.regPoints.assign(plan.nRegs, 0);
    for (const PlanTerm &t : plan.termList)
        if (t.product != kNoReg)
            plan.regPoints[t.product] =
                std::max(plan.regPoints[t.product], t.degree + 1);
    for (std::size_t i = plan.opList.size(); i-- > 0;) {
        PlanOp &op = plan.opList[i];
        const std::uint32_t pts = plan.regPoints[op.dst];
        op.numPoints = pts;
        plan.regPoints[op.lhs] = std::max(plan.regPoints[op.lhs], pts);
        plan.regPoints[op.rhs] = std::max(plan.regPoints[op.rhs], pts);
    }
    for (std::uint32_t r = 0; r < plan.nRegs; ++r)
        plan.maxPts = std::max(plan.maxPts, plan.regPoints[r]);

    // Degree classes: one accumulator stripe of d+1 nodes per distinct term
    // degree (class 0 absorbs pure-constant terms).
    std::vector<std::uint32_t> degs;
    for (const PlanTerm &t : plan.termList)
        degs.push_back(t.degree);
    std::sort(degs.begin(), degs.end());
    degs.erase(std::unique(degs.begin(), degs.end()), degs.end());
    plan.classes = degs;
    plan.classOffsets.resize(plan.classes.size());
    std::uint32_t off = 0;
    for (std::size_t c = 0; c < plan.classes.size(); ++c) {
        plan.classOffsets[c] = off;
        off += plan.classes[c] + 1;
    }
    plan.accLen = off;
    for (PlanTerm &t : plan.termList) {
        const auto it =
            std::lower_bound(plan.classes.begin(), plan.classes.end(),
                             t.degree);
        t.accOffset = plan.classOffsets[std::size_t(
            it - plan.classes.begin())];
    }
    return plan;
}

std::size_t
GatePlan::mulsPerPoint() const
{
    std::size_t muls = opList.size();
    for (const PlanTerm &t : termList)
        if (t.product != kNoReg && !t.coeff.isOne())
            ++muls;
    return muls;
}

std::size_t
GatePlan::mulsPerPair() const
{
    std::size_t muls = 0;
    for (const PlanOp &op : opList)
        muls += op.numPoints;
    for (const PlanTerm &t : termList)
        if (t.product != kNoReg && !t.coeff.isOne())
            muls += t.degree + 1;
    return muls;
}

std::size_t
GatePlan::naiveMulsPerPair(const GateExpr &expr) const
{
    return (expr.degree() + 1) * expr.mulsPerPoint();
}

Fr
GatePlan::evaluate(std::span<const Fr> slot_values) const
{
    std::vector<Fr> scratch;
    return evaluate(slot_values, scratch);
}

Fr
GatePlan::evaluate(std::span<const Fr> slot_values,
                   std::vector<Fr> &scratch) const
{
    assert(slot_values.size() >= nSlots);
    scratch.resize(nRegs);
    std::copy(slot_values.begin(), slot_values.begin() + nSlots,
              scratch.begin());
    for (const PlanOp &op : opList)
        scratch[op.dst] = scratch[op.lhs] * scratch[op.rhs];
    Fr acc = Fr::zero();
    for (const PlanTerm &t : termList) {
        if (t.product == kNoReg)
            acc += t.coeff;
        else if (t.coeff.isOne())
            acc += scratch[t.product];
        else
            acc += t.coeff * scratch[t.product];
    }
    return acc;
}

namespace {

using ff::lanes::kWidth;
using ff::lanes::ScalarFr8;

/** Per-thread lane storage of the block loop, grown on demand: the
 *  register file and the term accumulators of one call. */
template <class Vec>
Vec *
laneScratch(std::size_t n)
{
    thread_local std::vector<Vec> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

/** Block pairs read straight from the tables. */
template <class L>
struct TablePairs {
    using Vec = typename L::Vec;
    const Fr *const *tables;

    void
    load(SlotId s, std::size_t j, std::size_t n, Vec &lo, Vec &hi) const
    {
        L::loadPairs(tables[s] + 2 * j, 2, lo, hi, n);
    }
    void skip(SlotId, std::size_t, std::size_t) const {}
};

/** Block pairs of the folded tables, folded on the way in: pair i of a
 *  folded table is source entries 4i..4i+3 folded with r, written to the
 *  folded table and handed to the block as they are. Slots no term reads
 *  are folded too. */
template <class L>
struct FoldingPairs {
    using Vec = typename L::Vec;
    const Fr *const *src;
    Fr *const *folded;
    Vec r;

    void
    load(SlotId s, std::size_t j, std::size_t n, Vec &lo, Vec &hi) const
    {
        Vec a, b, c, d;
        L::loadPairs(src[s] + 4 * j, 4, a, b, n);
        L::loadPairs(src[s] + 4 * j + 2, 4, c, d, n);
        lo = L::fold(a, b, r);
        hi = L::fold(c, d, r);
        L::storePairs(folded[s] + 2 * j, lo, hi, n);
    }
    void
    skip(SlotId s, std::size_t j, std::size_t n) const
    {
        Vec lo, hi;
        load(s, j, n, lo, hi);
    }
};

/**
 * The block loop, written once over the lane type L: pairs [begin, end)
 * in blocks of kWidth, pair j + k in lane k. Register r holds maxPoints()
 * vectors, one per evaluation point; each term accumulates its degree + 1
 * points into lane accumulators of its own. A short last block loads zero
 * pairs into its idle lanes, which add zero to every term with a product;
 * constant terms count pairs instead.
 */
template <class L, class Pairs>
void
runBlocks(const GatePlan &plan, const Pairs &pairs, std::size_t begin,
          std::size_t end, std::span<Fr> acc)
{
    using Vec = typename L::Vec;
    const std::size_t W = plan.maxPoints();
    const std::span<const PlanTerm> terms = plan.planTerms();
    std::size_t accVecs = 0;
    for (const PlanTerm &t : terms)
        if (t.product != kNoReg)
            accVecs += t.degree + 1;
    Vec *regs = laneScratch<Vec>(plan.numRegs() * W + accVecs);
    Vec *lanesAcc = regs + plan.numRegs() * W;
    for (std::size_t i = 0; i < accVecs; ++i)
        lanesAcc[i] = L::zero();

    for (std::size_t j = begin; j < end; j += kWidth) {
        const std::size_t n = std::min(kWidth, end - j);
        // Extension Engines: each used slot to its own point bound (at
        // least two points: every term has a factor).
        for (SlotId s = 0; s < plan.numSlots(); ++s) {
            const std::uint32_t pts = plan.slotPoints(s);
            if (pts == 0) {
                pairs.skip(s, j, n);
                continue;
            }
            Vec *e = regs + std::size_t(s) * W;
            pairs.load(s, j, n, e[0], e[1]);
            L::extendRows(e, pts);
        }
        // Product Lanes: every op at its own point bound.
        for (const PlanOp &op : plan.ops())
            L::mulRows(regs + std::size_t(op.dst) * W,
                       regs + std::size_t(op.lhs) * W,
                       regs + std::size_t(op.rhs) * W, op.numPoints);
        Vec *out = lanesAcc;
        for (const PlanTerm &t : terms) {
            if (t.product == kNoReg)
                continue;
            L::addRows(out, regs + std::size_t(t.product) * W, t.degree + 1);
            out += t.degree + 1;
        }
    }

    const Vec *lane = lanesAcc;
    for (const PlanTerm &t : terms) {
        Fr *out = acc.data() + t.accOffset;
        if (t.product == kNoReg) {
            out[0] += t.coeff * Fr::fromU64(end - begin);
            continue;
        }
        for (std::uint32_t p = 0; p <= t.degree; ++p) {
            const Fr s = L::sum(lane[p]);
            out[p] += t.coeff.isOne() ? s : t.coeff * s;
        }
        lane += t.degree + 1;
    }
}

#if ZKPHIRE_HAVE_X86_IFMA

using ff::lanes::IfmaFr8;

ZKPHIRE_IFMA_LOOP void
accumulateIfma(const GatePlan &plan, const Fr *const *tables,
               std::size_t begin, std::size_t end, std::span<Fr> acc)
{
    runBlocks<IfmaFr8>(plan, TablePairs<IfmaFr8>{tables}, begin, end, acc);
}

ZKPHIRE_IFMA_LOOP void
foldAccumulateIfma(const GatePlan &plan, const Fr *const *src,
                   Fr *const *folded, const Fr &r, std::size_t begin,
                   std::size_t end, std::span<Fr> acc)
{
    runBlocks<IfmaFr8>(
        plan, FoldingPairs<IfmaFr8>{src, folded, IfmaFr8::broadcast(r)},
        begin, end, acc);
}

#endif // ZKPHIRE_HAVE_X86_IFMA

} // namespace

void
GatePlan::accumulatePairs(std::span<const Mle> tables, std::size_t begin,
                          std::size_t end, std::span<Fr> acc) const
{
    assert(tables.size() >= nSlots);
    constexpr std::size_t kMaxSlots = 64;
    assert(nSlots <= kMaxSlots && "raise kMaxSlots for wider gates");
    const Fr *ptrs[kMaxSlots];
    for (std::uint32_t s = 0; s < nSlots; ++s)
        ptrs[s] = tables[s].data();
    accumulatePairs(ptrs, begin, end, acc);
}

void
GatePlan::accumulatePairs(std::span<const Mle> tables, std::size_t begin,
                          std::size_t end, std::span<Fr> acc,
                          std::vector<Fr> & /*scratch*/) const
{
    accumulatePairs(tables, begin, end, acc);
}

void
GatePlan::accumulatePairs(const Fr *const *tables, std::size_t begin,
                          std::size_t end, std::span<Fr> acc) const
{
    assert(acc.size() == accLen);
#if ZKPHIRE_HAVE_X86_IFMA
    if (ff::kernels::ifmaSelected()) {
        accumulateIfma(*this, tables, begin, end, acc);
        return;
    }
#endif
    runBlocks<ScalarFr8>(*this, TablePairs<ScalarFr8>{tables}, begin, end,
                         acc);
}

void
GatePlan::foldAccumulatePairs(const Fr *const *src, Fr *const *folded,
                              const Fr &r, std::size_t begin,
                              std::size_t end, std::span<Fr> acc) const
{
    assert(acc.size() == accLen);
#if ZKPHIRE_HAVE_X86_IFMA
    if (ff::kernels::ifmaSelected()) {
        foldAccumulateIfma(*this, src, folded, r, begin, end, acc);
        return;
    }
#endif
    runBlocks<ScalarFr8>(*this,
                         FoldingPairs<ScalarFr8>{src, folded,
                                                 ScalarFr8::broadcast(r)},
                         begin, end, acc);
}

std::vector<Fr>
GatePlan::finalizeRoundEvals(std::span<const Fr> acc) const
{
    assert(acc.size() == accLen);
    const std::uint32_t D = maxDegree;
    std::vector<Fr> out(D + 1, Fr::zero());
    std::vector<Fr> c;
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
        const std::uint32_t d = classes[ci];
        const Fr *vals = acc.data() + classOffsets[ci];
        for (std::uint32_t p = 0; p <= d; ++p)
            out[p] += vals[p];
        if (d >= D)
            continue;
        // The class sum is an exact degree-<=d univariate known at nodes
        // 0..d; extend to d+1..D with Newton forward differences (additions
        // only, so the extension is exact and bit-identical to evaluating
        // the naive accumulator at those nodes).
        c.assign(vals, vals + d + 1);
        for (std::uint32_t lev = 1; lev <= d; ++lev)
            for (std::uint32_t j = d; j >= lev; --j)
                c[j] -= c[j - 1];
        // c[j] = Delta^j at node 0; stepping keeps c[j] = Delta^j at node k.
        for (std::uint32_t k = 1; k <= D; ++k) {
            for (std::uint32_t j = 0; j < d; ++j)
                c[j] += c[j + 1];
            if (k > d)
                out[k] += c[0];
        }
    }
    return out;
}

std::string
GatePlan::toString(const GateExpr &expr) const
{
    auto reg_name = [&](RegId r) {
        if (r < nSlots)
            return expr.slotName(SlotId(r));
        return std::string("t") + std::to_string(r - nSlots);
    };
    std::string s = "plan(" + expr.name() + "): " +
                    std::to_string(opList.size()) + " ops, " +
                    std::to_string(classes.size()) + " classes\n";
    for (const PlanOp &op : opList)
        s += "  " + reg_name(op.dst) + " = " + reg_name(op.lhs) + " * " +
             reg_name(op.rhs) + "  [pts=" + std::to_string(op.numPoints) +
             ", term=" + std::to_string(op.term) + "]\n";
    for (std::size_t t = 0; t < termList.size(); ++t) {
        const PlanTerm &pt = termList[t];
        s += "  acc[d=" + std::to_string(pt.degree) + "] += ";
        if (!pt.coeff.isOne() || pt.product == kNoReg)
            s += pt.coeff.toHexString();
        if (pt.product != kNoReg) {
            if (!pt.coeff.isOne())
                s += "*";
            s += reg_name(pt.product);
        }
        s += "\n";
    }
    return s;
}

} // namespace zkphire::poly
