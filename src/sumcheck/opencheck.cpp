#include "sumcheck/opencheck.hpp"

#include <algorithm>
#include <cassert>

#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"

namespace zkphire::sumcheck {

using poly::GateExpr;
using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;

namespace {

/** Build the batched expression Sum_i eta^i * P_i * eq_i over 2k slots. */
GateExpr
batchedExpr(std::size_t k, const Fr &eta)
{
    GateExpr expr("OpenCheck");
    std::vector<SlotId> poly_slots(k), eq_slots(k);
    // Names are built by appending: GCC 12 reports a false -Wrestrict
    // overlap on an inlined "P" + std::to_string(i).
    for (std::size_t i = 0; i < k; ++i) {
        std::string name("P");
        poly_slots[i] = expr.addSlot(name += std::to_string(i));
    }
    for (std::size_t i = 0; i < k; ++i) {
        std::string name("eq");
        eq_slots[i] = expr.addSlot(name += std::to_string(i));
    }
    Fr coeff = Fr::one();
    for (std::size_t i = 0; i < k; ++i) {
        expr.addTerm(coeff, {poly_slots[i], eq_slots[i]});
        coeff *= eta;
    }
    return expr;
}

/** Transcript binding of the claim set (points and values). */
void
bindClaims(std::span<const EvalClaim> claims, hash::Transcript &tr)
{
    tr.appendU64("oc/num_claims", claims.size());
    for (const EvalClaim &c : claims) {
        tr.appendFrVec("oc/point", c.point);
        tr.appendFr("oc/value", c.value);
    }
}

/**
 * A point split at its Boolean coordinates: eq(x, z) is zero unless x
 * agrees with z on every coordinate that is exactly 0 or 1, and there it
 * equals eq over the other (free) coordinates.
 */
struct PointSplit {
    std::size_t freeMask = 0; // index bits of the free coordinates
    std::size_t onesMask = 0; // index bits of the coordinates equal to 1
    std::vector<Fr> free;     // the free coordinates, in order
};

PointSplit
splitPoint(std::span<const Fr> z)
{
    PointSplit sp;
    for (std::size_t i = 0; i < z.size(); ++i) {
        if (z[i].isOne())
            sp.onesMask |= std::size_t(1) << i;
        else if (!z[i].isZero()) {
            sp.freeMask |= std::size_t(1) << i;
            sp.free.push_back(z[i]);
        }
    }
    return sp;
}

/** j's bits spread over the set bits of mask, lowest first. */
std::size_t
deposit(std::size_t j, std::size_t mask)
{
    std::size_t out = 0;
    for (; mask != 0 && j != 0; mask &= mask - 1, j >>= 1)
        if ((j & 1) != 0)
            out |= mask & -mask;
    return out;
}

/**
 * Combined eq tables: Sum_m c_m * eq(., z_m) into an arena table. Each
 * term builds eq only over its point's free coordinates, once per distinct
 * free part, and places it on the subcube the Boolean coordinates fix;
 * a point with no free coordinate is a single entry.
 */
class EqBuilder
{
  public:
    explicit EqBuilder(unsigned num_vars) : n(num_vars) {}
    EqBuilder(const EqBuilder &) = delete;
    EqBuilder &operator=(const EqBuilder &) = delete;
    ~EqBuilder()
    {
        for (Mle &t : builds)
            poly::arenaRelease(std::move(t.store()));
    }

    Mle combine(std::span<const std::vector<Fr>> points,
                std::span<const Fr> coeffs)
    {
        assert(points.size() == coeffs.size() && !points.empty());
        // One unit-coefficient point with no Boolean coordinate is a plain
        // eq table.
        if (points.size() == 1 && coeffs[0].isOne()) {
            PointSplit sp = splitPoint(points[0]);
            if (sp.free.size() == n)
                return Mle::eqTable(points[0]);
        }
        Mle acc(poly::arenaAcquire(std::size_t(1) << n));
        std::fill(acc.data(), acc.data() + acc.size(), Fr::zero());
        for (std::size_t m = 0; m < points.size(); ++m) {
            const PointSplit sp = splitPoint(points[m]);
            if (sp.free.empty()) {
                acc[sp.onesMask] += coeffs[m];
                continue;
            }
            addPlaced(acc, coeffs[m], freeEq(sp.free), sp);
        }
        return acc;
    }

  private:
    const Mle &freeEq(const std::vector<Fr> &free)
    {
        for (std::size_t b = 0; b < keys.size(); ++b)
            if (keys[b] == free)
                return builds[b];
        keys.push_back(free);
        builds.push_back(Mle::eqTable(free));
        return builds.back();
    }

    /** acc[deposit(j, freeMask) | onesMask] += c * eq_free[j]: distinct j
     *  write distinct entries, so chunks run concurrently. */
    static void addPlaced(Mle &acc, const Fr &c, const Mle &eq_free,
                          const PointSplit &sp)
    {
        rt::parallelForChunks(
            0, eq_free.size(),
            [&](std::size_t b, std::size_t e) {
                std::size_t pos = deposit(b, sp.freeMask);
                for (std::size_t j = b; j < e; ++j) {
                    acc[pos | sp.onesMask] += c * eq_free[j];
                    // Next index with the same fixed bits.
                    pos = ((pos | ~sp.freeMask) + 1) & sp.freeMask;
                }
            },
            /*grain=*/0, /*minGrain=*/1024);
    }

    unsigned n;
    std::vector<std::vector<Fr>> keys;
    std::vector<Mle> builds;
};

/** Index of v in firsts (by eq), appending it when new. */
template <class T, class Eq>
std::size_t
groupOf(std::vector<T> &firsts, const T &v, Eq eq)
{
    for (std::size_t g = 0; g < firsts.size(); ++g)
        if (eq(firsts[g], v))
            return g;
    firsts.push_back(v);
    return firsts.size() - 1;
}

} // namespace

OpencheckProverOutput
proveOpen(std::span<const EvalClaim> claims,
          std::span<const Mle *const> tables, hash::Transcript &tr,
          const rt::Config &cfg)
{
    assert(!claims.empty() && claims.size() == tables.size());
    const unsigned mu = unsigned(claims[0].point.size());
    const std::size_t k = claims.size();
    for (std::size_t i = 0; i < k; ++i) {
        assert(claims[i].point.size() == mu &&
               "all claims must share dimensions");
        assert(tables[i]->numVars() == mu);
    }

    // Covers the table builds below as well as the inner sumcheck.
    rt::ScopedConfig scope(cfg);

    bindClaims(claims, tr);
    const Fr eta = tr.challengeFr("oc/eta");
    std::vector<Fr> coeffs(k);
    Fr coeff = Fr::one();
    for (Fr &c : coeffs) {
        c = coeff;
        coeff *= eta;
    }

    // Distinct points (by value) and tables (by address), in order of
    // first appearance; group on the side with fewer members.
    std::vector<const std::vector<Fr> *> points;
    std::vector<const Mle *> distinct;
    std::vector<std::size_t> point_of(k), table_of(k);
    for (std::size_t i = 0; i < k; ++i) {
        point_of[i] = groupOf(points, &claims[i].point,
                              [](auto *a, auto *b) { return *a == *b; });
        table_of[i] = groupOf(distinct, tables[i],
                              [](auto *a, auto *b) { return a == b; });
    }
    const bool by_point = points.size() <= distinct.size();
    const std::size_t groups = by_point ? points.size() : distinct.size();
    const std::vector<std::size_t> &group_of = by_point ? point_of : table_of;

    // Slots [A_0..A_{G-1}, B_0..B_{G-1}] of Sum_g A_g * B_g. By point, A_g
    // is its claims' eta-combination of tables and B_g its point's eq
    // table; by table, A_g is a working copy of the table (the sumcheck
    // folds it) and B_g its claims' eta-combination of eq tables.
    std::vector<Fr> table_evals(distinct.size());
    ProverOutput sc;
    {
        EqBuilder eqs(mu);
        std::vector<std::vector<std::size_t>> members(groups);
        for (std::size_t i = 0; i < k; ++i)
            members[group_of[i]].push_back(i);
        std::vector<Mle> slots(2 * groups);
        for (std::size_t g = 0; g < groups; ++g) {
            std::vector<const Mle *> ts;
            std::vector<std::vector<Fr>> pts;
            std::vector<Fr> cs;
            for (std::size_t i : members[g]) {
                ts.push_back(tables[i]);
                pts.push_back(claims[i].point);
                cs.push_back(coeffs[i]);
            }
            if (by_point) {
                const Fr one = Fr::one();
                slots[g] = poly::linearCombination(ts, cs);
                slots[groups + g] = eqs.combine({pts.data(), 1}, {&one, 1});
            } else {
                poly::FrTable copy = poly::arenaAcquire(ts[0]->size());
                copy.assign(ts[0]->evals());
                slots[g] = Mle(std::move(copy));
                slots[groups + g] = eqs.combine(pts, cs);
            }
        }
        VirtualPoly vp(batchedExpr(groups, Fr::one()), std::move(slots));
        sc = proveRounds(vp, tr);
        // By table, the folded table slots are the P_t(r).
        if (!by_point)
            for (std::size_t g = 0; g < groups; ++g)
                table_evals[g] = vp.table(SlotId(g))[0];
    } // the slots and eq builds go back to the arena here
    if (by_point)
        for (std::size_t t = 0; t < distinct.size(); ++t)
            table_evals[t] = distinct[t]->evaluate(sc.challenges);

    // The ungrouped polynomial's final slot evaluations, which verifyOpen
    // checks: P_i(r) per claim, then eq(r, z_i) per claim.
    std::vector<Fr> &final_evals = sc.proof.finalSlotEvals;
    final_evals.resize(2 * k);
    for (std::size_t i = 0; i < k; ++i) {
        final_evals[i] = table_evals[table_of[i]];
        final_evals[k + i] = poly::eqEval(sc.challenges, claims[i].point);
    }
    tr.appendFrVec("sc/final_evals", final_evals);

    OpencheckProverOutput out;
    out.polyEvals.assign(final_evals.begin(), final_evals.begin() + k);
    out.proof.sc = std::move(sc.proof);
    out.challenges = std::move(sc.challenges);
    return out;
}

OpencheckProverOutput
proveOpen(std::vector<EvalClaim> claims, hash::Transcript &tr,
          const rt::Config &cfg)
{
    std::vector<const Mle *> tables(claims.size());
    for (std::size_t i = 0; i < claims.size(); ++i) {
        tables[i] = &claims[i].table;
        for (std::size_t j = 0; j < i; ++j) {
            if (tables[j] == &claims[j].table &&
                claims[j].table == claims[i].table) {
                tables[i] = tables[j];
                break;
            }
        }
    }
    OpencheckProverOutput out = proveOpen(claims, tables, tr, cfg);
    for (EvalClaim &c : claims)
        poly::arenaRelease(std::move(c.table.store()));
    return out;
}

OpencheckVerifyResult
verifyOpen(const std::vector<EvalClaim> &claims, const OpencheckProof &proof,
           unsigned num_vars, hash::Transcript &tr)
{
    OpencheckVerifyResult res;
    const std::size_t k = claims.size();
    if (k == 0) {
        res.error = "no claims";
        return res;
    }

    bindClaims(claims, tr);
    Fr eta = tr.challengeFr("oc/eta");

    // Expected batched sum: Sum_i eta^i * y_i.
    Fr expected = Fr::zero();
    Fr coeff = Fr::one();
    for (const EvalClaim &c : claims) {
        expected += coeff * c.value;
        coeff *= eta;
    }

    GateExpr expr = batchedExpr(k, eta);
    RoundCheckResult rounds =
        verifyRounds(proof.sc, num_vars, expr.degree(), tr, expected);
    if (!rounds.ok) {
        res.error = rounds.error;
        return res;
    }
    if (proof.sc.finalSlotEvals.size() != 2 * k) {
        res.error = "wrong number of final slot evaluations";
        return res;
    }

    // Recompute the eq slot evaluations; only the P_i evals stay claimed.
    std::vector<Fr> evals = proof.sc.finalSlotEvals;
    for (std::size_t i = 0; i < k; ++i)
        evals[k + i] = poly::eqEval(rounds.challenges, claims[i].point);
    if (expr.evaluate(evals) != rounds.finalClaim) {
        res.error = "final evaluation check failed";
        return res;
    }

    res.ok = true;
    res.challenges = std::move(rounds.challenges);
    res.polyEvals.assign(evals.begin(), evals.begin() + k);
    return res;
}

} // namespace zkphire::sumcheck
