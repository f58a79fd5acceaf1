/**
 * @file
 * SumCheck / ZeroCheck / grand-product / OpenCheck protocol tests:
 * honest-prover round trips, tamper rejection, and randomized property
 * sweeps over polynomial shapes.
 */
#include <gtest/gtest.h>

#include "gates/gate_library.hpp"
#include "opencheck_oracle.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/opencheck.hpp"
#include "sumcheck/prover.hpp"
#include "sumcheck/verifier.hpp"
#include "sumcheck/zerocheck.hpp"

using namespace zkphire;
using namespace zkphire::sumcheck;
using poly::GateExpr;
using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;
using ff::Fr;
using ff::Rng;

namespace {

/** Random composite polynomial with given shape. */
struct RandomInstance {
    GateExpr expr;
    std::vector<Mle> tables;
};

RandomInstance
randomInstance(Rng &rng, unsigned num_vars, unsigned num_slots,
               unsigned num_terms, unsigned max_term_degree)
{
    RandomInstance inst;
    inst.expr = GateExpr("random");
    for (unsigned s = 0; s < num_slots; ++s) {
        inst.expr.addSlot("s" + std::to_string(s));
        inst.tables.push_back(Mle::random(num_vars, rng));
    }
    for (unsigned t = 0; t < num_terms; ++t) {
        unsigned deg = 1 + unsigned(rng.nextBelow(max_term_degree));
        std::vector<SlotId> factors;
        for (unsigned f = 0; f < deg; ++f)
            factors.push_back(SlotId(rng.nextBelow(num_slots)));
        inst.expr.addTerm(Fr::random(rng), std::move(factors));
    }
    return inst;
}

} // namespace

TEST(Sumcheck, EvalUnivariate)
{
    // p(X) = 3X^2 + 2X + 1 from values at 0,1,2: p(0)=1, p(1)=6, p(2)=17.
    std::vector<Fr> evals{Fr::fromU64(1), Fr::fromU64(6), Fr::fromU64(17)};
    EXPECT_EQ(evalUnivariate(evals, Fr::fromU64(3)), Fr::fromU64(34));
    EXPECT_EQ(evalUnivariate(evals, Fr::fromU64(1)), Fr::fromU64(6));
    EXPECT_EQ(evalUnivariate(evals, Fr::zero()), Fr::fromU64(1));
    Rng rng(11);
    Fr r = Fr::random(rng);
    EXPECT_EQ(evalUnivariate(evals, r),
              Fr::fromU64(3) * r * r + r.dbl() + Fr::one());
}

TEST(Sumcheck, SingleProductRoundTrip)
{
    Rng rng(21);
    GateExpr e("abc");
    SlotId a = e.addSlot("a"), b = e.addSlot("b"), c = e.addSlot("c");
    e.addTerm({a, b, c});
    std::vector<Mle> tables{Mle::random(5, rng), Mle::random(5, rng),
                            Mle::random(5, rng)};
    VirtualPoly vp(e, tables);
    Fr expected_sum = vp.sumOverHypercube();

    hash::Transcript tp("sc-test");
    ProverOutput out = prove(VirtualPoly(e, tables), tp);
    EXPECT_EQ(out.proof.claimedSum, expected_sum);

    hash::Transcript tv("sc-test");
    auto res = verify(e, out.proof, 5, tv);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.challenges, out.challenges);

    // Claimed slot evals match actual evaluations at the challenge point.
    for (std::size_t s = 0; s < tables.size(); ++s)
        EXPECT_EQ(out.proof.finalSlotEvals[s],
                  tables[s].evaluate(res.challenges));
}

TEST(Sumcheck, MultiThreadedProverMatchesSingle)
{
    Rng rng(22);
    auto inst = randomInstance(rng, 11, 4, 5, 4);
    hash::Transcript t1("sc-mt"), t4("sc-mt");
    ProverOutput p1 = prove(VirtualPoly(inst.expr, inst.tables), t1,
                            rt::Config{.threads = 1});
    ProverOutput p4 = prove(VirtualPoly(inst.expr, inst.tables), t4,
                            rt::Config{.threads = 4});
    EXPECT_EQ(p1.proof.claimedSum, p4.proof.claimedSum);
    EXPECT_EQ(p1.proof.roundEvals, p4.proof.roundEvals);
    EXPECT_EQ(p1.proof.finalSlotEvals, p4.proof.finalSlotEvals);
}

TEST(Sumcheck, RejectsWrongClaim)
{
    Rng rng(23);
    auto inst = randomInstance(rng, 6, 3, 3, 3);
    hash::Transcript tp("sc");
    ProverOutput out = prove(VirtualPoly(inst.expr, inst.tables), tp);
    out.proof.claimedSum += Fr::one();
    hash::Transcript tv("sc");
    EXPECT_FALSE(verify(inst.expr, out.proof, 6, tv).ok);
}

TEST(Sumcheck, RejectsTamperedRound)
{
    Rng rng(24);
    auto inst = randomInstance(rng, 6, 3, 3, 3);
    hash::Transcript tp("sc");
    ProverOutput out = prove(VirtualPoly(inst.expr, inst.tables), tp);
    out.proof.roundEvals[3][1] += Fr::one();
    hash::Transcript tv("sc");
    EXPECT_FALSE(verify(inst.expr, out.proof, 6, tv).ok);
}

TEST(Sumcheck, RejectsTamperedFinalEvals)
{
    Rng rng(25);
    auto inst = randomInstance(rng, 6, 3, 3, 3);
    hash::Transcript tp("sc");
    ProverOutput out = prove(VirtualPoly(inst.expr, inst.tables), tp);
    out.proof.finalSlotEvals[0] += Fr::one();
    hash::Transcript tv("sc");
    EXPECT_FALSE(verify(inst.expr, out.proof, 6, tv).ok);
}

TEST(Sumcheck, ProofSizeAccounting)
{
    Rng rng(26);
    auto inst = randomInstance(rng, 8, 3, 2, 3);
    hash::Transcript tp("sc");
    ProverOutput out = prove(VirtualPoly(inst.expr, inst.tables), tp);
    std::size_t d = inst.expr.degree();
    EXPECT_EQ(out.proof.sizeBytes(), (1 + 8 * (d + 1) + 3) * 32);
}

class SumcheckShapes
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned,
                                                 unsigned>>
{
};

TEST_P(SumcheckShapes, RoundTrip)
{
    auto [num_vars, num_slots, num_terms, max_deg] = GetParam();
    Rng rng(num_vars * 1000 + num_slots * 100 + num_terms * 10 + max_deg);
    auto inst = randomInstance(rng, num_vars, num_slots, num_terms, max_deg);
    VirtualPoly vp(inst.expr, inst.tables);
    Fr sum = vp.sumOverHypercube();

    hash::Transcript tp("shape");
    ProverOutput out = prove(VirtualPoly(inst.expr, inst.tables), tp);
    EXPECT_EQ(out.proof.claimedSum, sum);
    hash::Transcript tv("shape");
    auto res = verify(inst.expr, out.proof, num_vars, tv);
    EXPECT_TRUE(res.ok) << res.error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SumcheckShapes,
    ::testing::Values(std::tuple{1u, 1u, 1u, 1u}, std::tuple{2u, 2u, 2u, 2u},
                      std::tuple{4u, 3u, 4u, 3u}, std::tuple{6u, 5u, 6u, 5u},
                      std::tuple{8u, 8u, 8u, 8u}, std::tuple{5u, 2u, 3u, 12u},
                      std::tuple{3u, 16u, 10u, 4u},
                      std::tuple{10u, 4u, 2u, 6u}));

TEST(ZeroCheck, AcceptsVanishingWitness)
{
    // Verifiable-ASICs gate with a satisfying assignment:
    // addition rows have b = -a, multiplication rows have a = 0.
    Rng rng(31);
    gates::Gate gate = gates::tableIGate(0);
    const unsigned mu = 6;
    std::vector<Mle> tables(4, Mle(mu));
    for (std::size_t i = 0; i < (1u << mu); ++i) {
        bool is_add = rng.nextBelow(2) == 0;
        Fr a = Fr::random(rng);
        tables[0][i] = is_add ? Fr::one() : Fr::zero(); // qadd
        tables[1][i] = is_add ? Fr::zero() : Fr::one(); // qmul
        tables[2][i] = is_add ? a : Fr::zero();         // a
        tables[3][i] = is_add ? a.neg() : Fr::random(rng); // b
    }
    hash::Transcript tp("zc");
    auto out = proveZero(gate.expr, tables, tp);
    hash::Transcript tv("zc");
    auto res = verifyZero(gate.expr, out.proof, mu, tv);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.challenges.size(), mu);
    EXPECT_EQ(res.slotEvals.size(), 4u);
    // Slot evals are true polynomial evaluations at the challenge point.
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(res.slotEvals[s], tables[s].evaluate(res.challenges));
}

TEST(ZeroCheck, PointerFormMatchesByValueAndLeavesTablesUnchanged)
{
    // The pointer form reads its tables in place (some borrowed, some
    // moved in) and must prove exactly what the by-value form proves: the
    // same proof, challenges and next transcript challenge, with the
    // borrowed tables untouched. Large enough for the fused fold rounds,
    // at 1 and 4 threads, in RAM and streamed.
    Rng rng(33);
    gates::Gate gate = gates::tableIGate(0);
    const unsigned mu = 14;
    std::vector<Mle> tables(4, Mle(mu));
    for (std::size_t i = 0; i < (std::size_t(1) << mu); ++i) {
        const bool is_add = rng.nextBelow(2) == 0;
        const Fr a = Fr::random(rng);
        tables[0][i] = is_add ? Fr::one() : Fr::zero();
        tables[1][i] = is_add ? Fr::zero() : Fr::one();
        tables[2][i] = is_add ? a : Fr::zero();
        tables[3][i] = is_add ? a.neg() : Fr::random(rng);
    }
    for (const bool streamed : {false, true}) {
        for (const unsigned threads : {1u, 4u}) {
            rt::Config cfg{.threads = threads};
            if (streamed) {
                cfg.streamThreshold = 1;
                cfg.streamChunk = std::size_t(1) << 10;
            }
            hash::Transcript tv("zc");
            const auto byValue = proveZero(gate.expr, tables, tv, cfg);
            const Fr nextByValue = tv.challengeFr("next");

            const std::vector<Mle> before = tables;
            std::vector<Mle> moved = {tables[1], tables[3]};
            const std::vector<const Mle *> slots = {&tables[0], &moved[0],
                                                    &tables[2], &moved[1]};
            hash::Transcript tp("zc");
            const auto byPointer =
                proveZero(gate.expr, slots, tp, cfg, nullptr, std::move(moved));
            const Fr nextByPointer = tp.challengeFr("next");

            const std::string where = "threads " + std::to_string(threads) +
                                      ", streamed " + std::to_string(streamed);
            EXPECT_EQ(byPointer.proof.sc.claimedSum,
                      byValue.proof.sc.claimedSum)
                << where;
            EXPECT_EQ(byPointer.proof.sc.roundEvals,
                      byValue.proof.sc.roundEvals)
                << where;
            EXPECT_EQ(byPointer.proof.sc.finalSlotEvals,
                      byValue.proof.sc.finalSlotEvals)
                << where;
            EXPECT_EQ(byPointer.challenges, byValue.challenges) << where;
            EXPECT_EQ(byPointer.rVec, byValue.rVec) << where;
            EXPECT_EQ(nextByPointer, nextByValue) << where;
            EXPECT_EQ(tables, before) << where;
        }
    }
}

TEST(ZeroCheck, RejectsTamperedProof)
{
    Rng rng(32);
    gates::Gate gate = gates::tableIGate(0);
    const unsigned mu = 4;
    std::vector<Mle> tables(4, Mle(mu));
    for (std::size_t i = 0; i < (1u << mu); ++i) {
        Fr a = Fr::random(rng);
        tables[0][i] = Fr::one();
        tables[1][i] = Fr::zero();
        tables[2][i] = a;
        tables[3][i] = a.neg();
    }
    hash::Transcript tp("zc");
    auto out = proveZero(gate.expr, tables, tp);
    out.proof.sc.roundEvals[1][0] += Fr::one();
    hash::Transcript tv("zc");
    EXPECT_FALSE(verifyZero(gate.expr, out.proof, mu, tv).ok);
}

TEST(GrandProduct, TreeStructure)
{
    Rng rng(41);
    const unsigned mu = 4;
    const std::size_t n = 1u << mu;
    // Random leaves with product forced to 1.
    std::vector<Fr> leaves(n);
    Fr prod = Fr::one();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        leaves[i] = Fr::random(rng);
        prod *= leaves[i];
    }
    leaves[n - 1] = prod.inverse();
    Mle phi(leaves);

    Mle v = buildProductTree(phi);
    EXPECT_EQ(v.numVars(), mu + 1);
    Mle pi = extractPi(v), p1 = extractP1(v), p2 = extractP2(v);

    // Product relation holds pointwise: pi = p1 * p2.
    for (std::size_t x = 0; x < n; ++x)
        EXPECT_EQ(pi[x], p1[x] * p2[x]) << "x=" << x;
    // Leaves are the even entries.
    for (std::size_t x = 0; x < n; ++x)
        EXPECT_EQ(v[2 * x], phi[x]);
    // Root records the grand product (== 1 here).
    EXPECT_EQ(treeRootProduct(v), Fr::one());
    // The root product is exposed at the opening point (1,..,1,0).
    EXPECT_EQ(v.evaluate(rootProductPoint(mu)), Fr::one());
}

TEST(GrandProduct, PermCheckZeroCheckAccepts)
{
    // Full Table-I row 21 style check: random N_j, D_j; phi = prod N / prod D
    // normalized so the grand product is 1 by construction of a valid
    // permutation-like instance (enforced here by adjusting one D entry).
    Rng rng(42);
    const unsigned mu = 4;
    const std::size_t n = 1u << mu;
    const unsigned k = 3;
    std::vector<Mle> nj, dj;
    for (unsigned j = 0; j < k; ++j) {
        nj.push_back(Mle::random(mu, rng));
        dj.push_back(Mle::random(mu, rng));
    }
    // Force prod_x prod_j N = prod_x prod_j D by fixing D_0[n-1].
    Fr pn = Fr::one(), pd = Fr::one();
    for (std::size_t x = 0; x < n; ++x)
        for (unsigned j = 0; j < k; ++j) {
            pn *= nj[j][x];
            if (j != 0 || x != n - 1)
                pd *= dj[j][x];
        }
    dj[0][n - 1] = pn * pd.inverse();

    std::vector<Fr> phi_vals(n);
    for (std::size_t x = 0; x < n; ++x) {
        Fr num = Fr::one(), den = Fr::one();
        for (unsigned j = 0; j < k; ++j) {
            num *= nj[j][x];
            den *= dj[j][x];
        }
        phi_vals[x] = num * den.inverse();
    }
    Mle phi(phi_vals);
    Mle v = buildProductTree(phi);
    EXPECT_EQ(treeRootProduct(v), Fr::one());

    Fr alpha = Fr::fromU64(7);
    gates::Gate gate = gates::tableIGate(21, alpha);
    // Slot order in the gate: pi, p1, p2, phi, D1..D3, N1..N3, f_r.
    // verifyZero/proveZero add f_r themselves, so drop the last slot.
    poly::GateExpr expr("perm-core");
    std::vector<Mle> tables;
    auto pi_s = expr.addSlot("pi");
    auto p1_s = expr.addSlot("p1");
    auto p2_s = expr.addSlot("p2");
    auto phi_s = expr.addSlot("phi");
    std::vector<SlotId> d_s, n_s;
    for (unsigned j = 0; j < k; ++j)
        d_s.push_back(expr.addSlot("D" + std::to_string(j + 1)));
    for (unsigned j = 0; j < k; ++j)
        n_s.push_back(expr.addSlot("N" + std::to_string(j + 1)));
    expr.addTerm({pi_s});
    expr.addTerm(Fr::fromI64(-1), {p1_s, p2_s});
    expr.addTerm(alpha, {phi_s, d_s[0], d_s[1], d_s[2]});
    expr.addTerm(alpha.neg(), {n_s[0], n_s[1], n_s[2]});

    tables.push_back(extractPi(v));
    tables.push_back(extractP1(v));
    tables.push_back(extractP2(v));
    tables.push_back(phi);
    for (unsigned j = 0; j < k; ++j)
        tables.push_back(dj[j]);
    for (unsigned j = 0; j < k; ++j)
        tables.push_back(nj[j]);

    hash::Transcript tp("perm");
    auto out = proveZero(expr, tables, tp);
    hash::Transcript tv("perm");
    auto res = verifyZero(expr, out.proof, mu, tv);
    ASSERT_TRUE(res.ok) << res.error;
}

TEST(OpenCheck, BatchedClaimsRoundTrip)
{
    Rng rng(51);
    const unsigned mu = 5;
    std::vector<EvalClaim> claims;
    for (int i = 0; i < 6; ++i) {
        EvalClaim c;
        c.table = Mle::random(mu, rng);
        for (unsigned v = 0; v < mu; ++v)
            c.point.push_back(Fr::random(rng));
        c.value = c.table.evaluate(c.point);
        claims.push_back(std::move(c));
    }
    std::vector<EvalClaim> verifier_claims;
    for (const auto &c : claims) {
        EvalClaim vc;
        vc.point = c.point;
        vc.value = c.value;
        verifier_claims.push_back(std::move(vc));
    }

    hash::Transcript tp("oc");
    auto out = proveOpen(claims, tp);
    hash::Transcript tv("oc");
    auto res = verifyOpen(verifier_claims, out.proof, mu, tv);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.polyEvals, out.polyEvals);
}

TEST(OpenCheck, RejectsWrongClaimedValue)
{
    Rng rng(52);
    const unsigned mu = 4;
    std::vector<EvalClaim> claims(2);
    for (auto &c : claims) {
        c.table = Mle::random(mu, rng);
        for (unsigned v = 0; v < mu; ++v)
            c.point.push_back(Fr::random(rng));
        c.value = c.table.evaluate(c.point);
    }
    claims[1].value += Fr::one(); // lie about one evaluation
    hash::Transcript tp("oc");
    auto out = proveOpen(claims, tp);
    hash::Transcript tv("oc");
    // Rebuild verifier claims with the same (lying) values; the SumCheck
    // claim no longer matches the actual hypercube sum, so a round fails.
    std::vector<EvalClaim> vc(2);
    for (int i = 0; i < 2; ++i) {
        vc[i].point = claims[i].point;
        vc[i].value = claims[i].value;
    }
    EXPECT_FALSE(verifyOpen(vc, out.proof, mu, tv).ok);
}

namespace {

/** A claim set over a pool of tables: claim i is on tables[table_of[i]]. */
struct ClaimSet {
    std::vector<Mle> tables;
    std::vector<std::size_t> table_of;
    std::vector<EvalClaim> claims; // points and values only
};

/** A random point with some coordinates forced to 0 or 1: kind 0 none,
 *  1 the first, 2 the last, 3 both, 4 all (the grand-product root
 *  (1, .., 1, 0)). */
std::vector<Fr>
randomPoint(Rng &rng, unsigned mu, unsigned kind)
{
    std::vector<Fr> z;
    for (unsigned v = 0; v < mu; ++v)
        z.push_back(Fr::random(rng));
    const auto bit = [&] { return Fr::fromU64(rng.nextBelow(2)); };
    if (kind == 1 || kind == 3)
        z.front() = bit();
    if (kind == 2 || kind == 3)
        z.back() = bit();
    if (kind == 4)
        z = rootProductPoint(mu - 1);
    return z;
}

/** k claims over distinct_tables tables (some of them equal-content
 *  copies of others) and distinct_points points, drawn with repeats. */
ClaimSet
randomClaimSet(Rng &rng, unsigned mu, std::size_t k,
               std::size_t distinct_tables, std::size_t distinct_points)
{
    ClaimSet set;
    for (std::size_t t = 0; t < distinct_tables; ++t) {
        if (t > 0 && rng.nextBelow(3) == 0)
            set.tables.push_back(set.tables[rng.nextBelow(t)]);
        else
            set.tables.push_back(Mle::random(mu, rng));
    }
    std::vector<std::vector<Fr>> points;
    for (std::size_t p = 0; p < distinct_points; ++p)
        points.push_back(randomPoint(rng, mu, unsigned(rng.nextBelow(5))));
    for (std::size_t i = 0; i < k; ++i) {
        // The first claims cover every table and point once.
        const std::size_t t = i < distinct_tables ? i
                                                  : rng.nextBelow(
                                                        distinct_tables);
        const std::size_t p = i < distinct_points ? i
                                                  : rng.nextBelow(
                                                        distinct_points);
        EvalClaim c;
        c.point = points[p];
        c.value = set.tables[t].evaluate(c.point);
        set.table_of.push_back(t);
        set.claims.push_back(std::move(c));
    }
    return set;
}

void
expectSameOutput(const OpencheckProverOutput &got,
                 const OpencheckProverOutput &want)
{
    EXPECT_EQ(got.proof.sc.claimedSum, want.proof.sc.claimedSum);
    EXPECT_EQ(got.proof.sc.roundEvals, want.proof.sc.roundEvals);
    EXPECT_EQ(got.proof.sc.finalSlotEvals, want.proof.sc.finalSlotEvals);
    EXPECT_EQ(got.challenges, want.challenges);
    EXPECT_EQ(got.polyEvals, want.polyEvals);
}

/** proveOpen's pointer and by-value forms against the per-claim oracle:
 *  the whole output, the next transcript challenge, and verifyOpen. */
void
checkAgainstOracle(const ClaimSet &set, const rt::Config &cfg)
{
    std::vector<EvalClaim> with_tables = set.claims;
    std::vector<const Mle *> ptrs;
    for (std::size_t i = 0; i < set.claims.size(); ++i) {
        with_tables[i].table = set.tables[set.table_of[i]];
        ptrs.push_back(&set.tables[set.table_of[i]]);
    }
    hash::Transcript to("oc-prop");
    const OpencheckProverOutput want =
        oracle::perClaimProveOpen(with_tables, to);
    const Fr next = to.challengeFr("next");

    hash::Transcript tp("oc-prop");
    expectSameOutput(proveOpen(set.claims, ptrs, tp, cfg), want);
    EXPECT_EQ(tp.challengeFr("next"), next);

    hash::Transcript tv("oc-prop");
    expectSameOutput(proveOpen(with_tables, tv, cfg), want);
    EXPECT_EQ(tv.challengeFr("next"), next);

    hash::Transcript tc("oc-prop");
    const unsigned mu = unsigned(set.claims[0].point.size());
    const OpencheckVerifyResult res =
        verifyOpen(set.claims, want.proof, mu, tc);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.polyEvals, want.polyEvals);
}

} // namespace

TEST(OpenCheck, GroupedProofMatchesPerClaimOracle)
{
    Rng rng(53);
    const rt::Config serial{.threads = 1};
    const rt::Config pooled{.threads = 4};
    // Random sets: repeated points, repeated tables (equal-content copies
    // among them), both at once, and 0/1 coordinates.
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(trial);
        const unsigned mu = 1 + unsigned(rng.nextBelow(6));
        const std::size_t k = 1 + rng.nextBelow(9);
        const std::size_t tables = 1 + rng.nextBelow(k);
        const std::size_t points = 1 + rng.nextBelow(k);
        checkAgainstOracle(randomClaimSet(rng, mu, k, tables, points),
                           trial % 2 == 0 ? serial : pooled);
    }

    // The HyperPlonk shapes: OpenCheck A (15 claims, 12 tables with the
    // witnesses listed at both points, 2 points) and OpenCheck B (5 claims
    // on one table at the z_p-derived points and the root).
    {
        SCOPED_TRACE("A");
        const unsigned mu = 6;
        ClaimSet a;
        for (int t = 0; t < 12; ++t)
            a.tables.push_back(Mle::random(mu, rng));
        const std::vector<Fr> z_g = randomPoint(rng, mu, 0);
        const std::vector<Fr> z_p = randomPoint(rng, mu, 0);
        const std::size_t order[15] = {0, 1, 2, 3, 4, 5,  6, 7,
                                       5, 6, 7, 8, 9, 10, 11};
        for (std::size_t i = 0; i < 15; ++i) {
            EvalClaim c;
            c.point = i < 8 ? z_g : z_p;
            c.value = a.tables[order[i]].evaluate(c.point);
            a.table_of.push_back(order[i]);
            a.claims.push_back(std::move(c));
        }
        checkAgainstOracle(a, serial);
    }
    {
        SCOPED_TRACE("B");
        const unsigned mu = 5;
        ClaimSet b;
        b.tables.push_back(Mle::random(mu + 1, rng));
        const std::vector<Fr> z_p = randomPoint(rng, mu, 0);
        std::vector<std::vector<Fr>> pts;
        pts.push_back({Fr::one()});
        pts.back().insert(pts.back().end(), z_p.begin(), z_p.end());
        pts.push_back(z_p);
        pts.back().push_back(Fr::zero());
        pts.push_back(z_p);
        pts.back().push_back(Fr::one());
        pts.push_back({Fr::zero()});
        pts.back().insert(pts.back().end(), z_p.begin(), z_p.end());
        pts.push_back(rootProductPoint(mu));
        for (const std::vector<Fr> &z : pts) {
            EvalClaim c;
            c.point = z;
            c.value = b.tables[0].evaluate(z);
            b.table_of.push_back(0);
            b.claims.push_back(std::move(c));
        }
        checkAgainstOracle(b, serial);
        checkAgainstOracle(b, pooled);
    }
    {
        SCOPED_TRACE("k = 1");
        ClaimSet one;
        one.tables.push_back(Mle::random(4, rng));
        EvalClaim c;
        c.point = randomPoint(rng, 4, 0);
        c.value = one.tables[0].evaluate(c.point);
        one.table_of.push_back(0);
        one.claims.push_back(std::move(c));
        checkAgainstOracle(one, serial);
    }
}

TEST(OpenCheck, ByTableGroupReadsItsTableInPlace)
{
    // OpenCheck B's shape: five claims on one 2^12-entry table, at the four
    // points z_p places with a 0/1 coordinate and at the grand-product
    // root. The by-table group binds the table as a borrowed slot, read in
    // place until the sumcheck's first fold. Serial, every table in RAM
    // (the caller's too, whatever ZKPHIRE_STREAM_THRESHOLD says), no
    // arena: the proof allocates the combined eq table (n entries), the eq
    // build over z_p (n / 2) and the table's first fold (n / 2). A working
    // copy of the table would add n more, less the fold it saves.
    const unsigned mu = 12;
    const std::size_t n = std::size_t(1) << mu;
    const rt::Config cfg{.threads = 1, .streamThreshold = SIZE_MAX};
    rt::ScopedConfig ram(cfg);
    Rng rng(54);
    const Mle v = Mle::random(mu, rng);
    const Mle v_before = v;
    const std::vector<Fr> z_p = randomPoint(rng, mu - 1, 0);
    std::vector<std::vector<Fr>> pts(4);
    pts[0] = {Fr::one()};
    pts[0].insert(pts[0].end(), z_p.begin(), z_p.end());
    pts[1] = z_p;
    pts[1].push_back(Fr::zero());
    pts[2] = z_p;
    pts[2].push_back(Fr::one());
    pts[3] = {Fr::zero()};
    pts[3].insert(pts[3].end(), z_p.begin(), z_p.end());
    pts.push_back(rootProductPoint(mu - 1));
    std::vector<EvalClaim> claims;
    for (const std::vector<Fr> &z : pts) {
        EvalClaim c;
        c.point = z;
        c.value = v.evaluate(z);
        claims.push_back(std::move(c));
    }
    const std::vector<const Mle *> tables(claims.size(), &v);

    const poly::StoreCounters before = poly::storeCounters();
    hash::Transcript tp("oc-bytes");
    const OpencheckProverOutput out = proveOpen(claims, tables, tp, cfg);
    const poly::StoreCounters after = poly::storeCounters();
    EXPECT_LE(after.ramBytes - before.ramBytes, 2 * n * sizeof(Fr));
    EXPECT_EQ(after.mappedBytes, before.mappedBytes);
    EXPECT_TRUE(v == v_before) << "a borrowed table is only read";

    hash::Transcript tv("oc-bytes");
    const OpencheckVerifyResult res = verifyOpen(claims, out.proof, mu, tv);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.polyEvals, out.polyEvals);
}
