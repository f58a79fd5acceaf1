/**
 * @file
 * End-to-end HyperPlonk tests: circuit construction, permutation building,
 * PCS round trips, full prove/verify for both gate systems, negative tests
 * (tampered proofs, broken wiring), and proof-size sanity.
 */
#include <gtest/gtest.h>

#include "hash/keccak.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "pcs/mkzg.hpp"
#include "srs_oracle.hpp"

using namespace zkphire;
using namespace zkphire::hyperplonk;
using ff::Fr;
using ff::Rng;
using poly::Mle;

namespace {

const pcs::Srs &
sharedSrs()
{
    static Rng rng(0xdeadbeef);
    static pcs::Srs srs = pcs::Srs::generate(9, rng);
    return srs;
}

} // namespace

TEST(Pcs, CommitOpenVerifyRoundTrip)
{
    Rng rng(101);
    const unsigned mu = 5;
    Mle f = Mle::random(mu, rng);
    auto c = pcs::commit(sharedSrs(), f);
    std::vector<Fr> z;
    for (unsigned i = 0; i < mu; ++i)
        z.push_back(Fr::random(rng));
    Fr value = f.evaluate(z);
    auto proof = pcs::open(sharedSrs(), f, z);
    EXPECT_EQ(proof.quotients.size(), mu);
    EXPECT_TRUE(pcs::verifyOpening(sharedSrs(), c, z, value, proof));
    // Wrong value rejected.
    EXPECT_FALSE(
        pcs::verifyOpening(sharedSrs(), c, z, value + Fr::one(), proof));
    // Wrong point rejected.
    std::vector<Fr> z2 = z;
    z2[2] += Fr::one();
    EXPECT_FALSE(pcs::verifyOpening(sharedSrs(), c, z2, value, proof));
}

TEST(Pcs, CommitBatchMatchesPerPolyCommit)
{
    Rng rng(104);
    std::vector<Mle> polys;
    for (int i = 0; i < 4; ++i)
        polys.push_back(Mle::random(6, rng));
    auto batch = pcs::commitBatch(sharedSrs(), polys);
    ASSERT_EQ(batch.size(), polys.size());
    for (std::size_t i = 0; i < polys.size(); ++i)
        EXPECT_EQ(batch[i], pcs::commit(sharedSrs(), polys[i])) << i;

    // Mixed sizes degrade to per-polynomial commits (no shared basis).
    polys.push_back(Mle::random(4, rng));
    auto mixed = pcs::commitBatch(sharedSrs(), polys);
    ASSERT_EQ(mixed.size(), polys.size());
    for (std::size_t i = 0; i < polys.size(); ++i)
        EXPECT_EQ(mixed[i], pcs::commit(sharedSrs(), polys[i])) << i;
}

TEST(Pcs, CommitmentIsBindingToPolynomial)
{
    Rng rng(102);
    Mle f = Mle::random(4, rng);
    Mle g = f;
    g[3] += Fr::one();
    EXPECT_FALSE(pcs::commit(sharedSrs(), f) == pcs::commit(sharedSrs(), g));
    // Commitment equals eq-weighted evaluation at tau in the exponent.
    std::vector<Fr> tau4(sharedSrs().tau().begin(),
                         sharedSrs().tau().begin() + 4);
    Fr f_at_tau = f.evaluate(tau4);
    auto expect = ec::G1Jacobian::fromAffine(ec::g1Generator())
                      .mulScalar(f_at_tau)
                      .toAffine();
    EXPECT_EQ(pcs::commit(sharedSrs(), f).point, expect);
}

TEST(Pcs, BatchOpenRoundTrip)
{
    Rng rng(103);
    const unsigned mu = 4;
    std::vector<Mle> polys;
    std::vector<pcs::Commitment> cs;
    for (int i = 0; i < 3; ++i) {
        polys.push_back(Mle::random(mu, rng));
        cs.push_back(pcs::commit(sharedSrs(), polys.back()));
    }
    // The first polynomial listed twice: one pass, coefficient 1 + rho^3.
    polys.push_back(polys[0]);
    cs.push_back(cs[0]);
    std::vector<const Mle *> ptrs;
    for (const Mle &p : polys)
        ptrs.push_back(&p);
    ptrs.back() = ptrs.front();
    std::vector<Fr> z;
    for (unsigned i = 0; i < mu; ++i)
        z.push_back(Fr::random(rng));
    std::vector<Fr> values;
    for (const auto &p : polys)
        values.push_back(p.evaluate(z));
    Fr rho = Fr::fromU64(99);
    EXPECT_EQ(pcs::combineForBatchOpen(ptrs, rho),
              pcs::combineForBatchOpen(polys, rho));
    auto proof = pcs::batchOpen(sharedSrs(), ptrs, z, rho);
    EXPECT_TRUE(
        pcs::verifyBatchOpening(sharedSrs(), cs, z, values, rho, proof));
    values[1] += Fr::one();
    EXPECT_FALSE(
        pcs::verifyBatchOpening(sharedSrs(), cs, z, values, rho, proof));
}

TEST(SrsLevels, EveryBuildOrderMatchesTheOracle)
{
    // A level is derived from the one below when that one is built first,
    // and from scratch otherwise; all three orders give the oracle's bytes.
    const auto generate = [] {
        Rng rng(0x5e1e7);
        return pcs::Srs::generate(9, rng);
    };
    const pcs::Srs reference = generate();
    std::vector<pcs::LevelBases> expected;
    for (unsigned mu = 0; mu <= 9; ++mu)
        expected.push_back(oracle::srsLevelOracle(reference, mu));
    for (unsigned mu = 1; mu <= 9; ++mu) {
        const pcs::Srs alone = generate();
        EXPECT_EQ(alone.basesFor(mu).suffix, expected[mu].suffix)
            << "level " << mu << " alone";

        const pcs::Srs after = generate();
        after.basesFor(mu - 1);
        EXPECT_EQ(after.basesFor(mu).suffix, expected[mu].suffix)
            << "level " << mu << " after " << mu - 1;

        const pcs::Srs before = generate();
        EXPECT_EQ(before.basesFor(mu).suffix, expected[mu].suffix)
            << "level " << mu << " before " << mu - 1;
        EXPECT_EQ(before.basesFor(mu - 1).suffix, expected[mu - 1].suffix)
            << "level " << mu - 1 << " after " << mu;
    }
}

TEST(Circuit, GadgetsProduceSatisfyingRows)
{
    Circuit c(GateSystem::Vanilla);
    auto sum = c.addAddition(Fr::fromU64(3), Fr::fromU64(4));
    EXPECT_EQ(c.witness(sum), Fr::fromU64(7));
    auto prod = c.addMultiplication(Fr::fromU64(3), Fr::fromU64(4));
    EXPECT_EQ(c.witness(prod), Fr::fromU64(12));
    c.addConstant(Fr::fromU64(42));
    c.padToPowerOfTwo();
    EXPECT_TRUE(c.gatesSatisfied());
    EXPECT_EQ(c.numRows(), 4u);
}

TEST(Circuit, JellyfishGadgets)
{
    Circuit c(GateSystem::Jellyfish);
    auto p5 = c.addPow5(Fr::fromU64(2));
    EXPECT_EQ(c.witness(p5), Fr::fromU64(32));
    Fr q[6] = {Fr::one(), Fr::one(), Fr::zero(), Fr::zero(), Fr::one(),
               Fr::zero()};
    auto fma = c.addFma(Fr::fromU64(2), Fr::fromU64(3), Fr::fromU64(5),
                        Fr::fromU64(7), std::span<const Fr, 6>(q, 6));
    // 2 + 3 + 2*3 = 11.
    EXPECT_EQ(c.witness(fma), Fr::fromU64(11));
    c.padToPowerOfTwo();
    EXPECT_TRUE(c.gatesSatisfied());
}

TEST(Circuit, RandomCircuitsAreSatisfying)
{
    Rng rng(111);
    Circuit cv = randomVanillaCircuit(6, rng);
    EXPECT_EQ(cv.numRows(), 64u);
    EXPECT_TRUE(cv.gatesSatisfied());
    EXPECT_TRUE(cv.copiesSatisfied());
    EXPECT_GT(cv.copies().size(), 10u);

    Circuit cj = randomJellyfishCircuit(5, rng);
    EXPECT_TRUE(cj.gatesSatisfied());
    EXPECT_TRUE(cj.copiesSatisfied());
}

TEST(Permutation, SigmaIsAPermutation)
{
    Rng rng(112);
    Circuit c = randomVanillaCircuit(5, rng);
    PermutationData perm = buildPermutation(c);
    const std::size_t n = c.numRows();
    const unsigned k = c.numWitnesses();
    std::vector<int> seen(k * n, 0);
    for (unsigned j = 0; j < k; ++j)
        for (std::size_t x = 0; x < n; ++x) {
            auto v = perm.sigma[j][x].toBig();
            ASSERT_LT(v.limb[0], k * n);
            ++seen[v.limb[0]];
        }
    for (std::size_t i = 0; i < k * n; ++i)
        EXPECT_EQ(seen[i], 1) << "cell " << i;
}

TEST(Permutation, GrandProductIsOneForValidWiring)
{
    Rng rng(113);
    Circuit c = randomVanillaCircuit(5, rng);
    PermutationData perm = buildPermutation(c);
    Fr beta = Fr::random(rng), gamma = Fr::random(rng);
    FractionPolys fr = buildFractionPolys(c.witnessMles(), perm, beta, gamma);
    Fr prod = Fr::one();
    for (std::size_t x = 0; x < fr.phi.size(); ++x)
        prod *= fr.phi[x];
    EXPECT_EQ(prod, Fr::one());
}

TEST(Permutation, IdMleEvaluation)
{
    Rng rng(114);
    Circuit c = randomVanillaCircuit(4, rng);
    PermutationData perm = buildPermutation(c);
    std::vector<Fr> z;
    for (int i = 0; i < 4; ++i)
        z.push_back(Fr::random(rng));
    for (unsigned j = 0; j < 3; ++j)
        EXPECT_EQ(evalIdMle(j, 4, z), perm.id[j].evaluate(z));
}

TEST(HyperPlonk, VanillaProveVerifyRoundTrip)
{
    Rng rng(121);
    Circuit c = randomVanillaCircuit(6, rng);
    Keys keys = setup(c, sharedSrs());
    ProverStats stats;
    HyperPlonkProof proof =
        prove(keys.pk, c, &stats, {.rt = {.threads = 2}});
    auto res = verify(keys.vk, proof);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_GT(stats.totalMs(), 0.0);
    EXPECT_GT(stats.msm.pointAdds, 0u);
}

TEST(HyperPlonk, JellyfishProveVerifyRoundTrip)
{
    Rng rng(122);
    Circuit c = randomJellyfishCircuit(5, rng);
    Keys keys = setup(c, sharedSrs());
    HyperPlonkProof proof = prove(keys.pk, c);
    auto res = verify(keys.vk, proof);
    EXPECT_TRUE(res.ok) << res.error;
}

TEST(HyperPlonk, ProofSizeIsFewKilobytes)
{
    Rng rng(123);
    Circuit c = randomVanillaCircuit(6, rng);
    Keys keys = setup(c, sharedSrs());
    HyperPlonkProof proof = prove(keys.pk, c);
    auto breakdown = proof.sizeBreakdown();
    EXPECT_GT(breakdown.total(), 1000u);
    EXPECT_LT(breakdown.total(), 32768u) << breakdown.toString();
}

TEST(HyperPlonk, RejectsTamperedGateProof)
{
    Rng rng(124);
    Circuit c = randomVanillaCircuit(5, rng);
    Keys keys = setup(c, sharedSrs());
    HyperPlonkProof proof = prove(keys.pk, c);
    proof.gateZC.sc.roundEvals[2][1] += Fr::one();
    EXPECT_FALSE(verify(keys.vk, proof).ok);
}

TEST(HyperPlonk, RejectsTamperedWitnessCommitment)
{
    Rng rng(125);
    Circuit c = randomVanillaCircuit(5, rng);
    Keys keys = setup(c, sharedSrs());
    HyperPlonkProof proof = prove(keys.pk, c);
    proof.witnessComms[0].point =
        ec::G1Jacobian::fromAffine(proof.witnessComms[0].point)
            .dbl()
            .toAffine();
    EXPECT_FALSE(verify(keys.vk, proof).ok);
}

TEST(HyperPlonk, RejectsTamperedAuxEvals)
{
    Rng rng(126);
    Circuit c = randomVanillaCircuit(5, rng);
    Keys keys = setup(c, sharedSrs());
    HyperPlonkProof proof = prove(keys.pk, c);
    proof.wAtZp[1] += Fr::one();
    EXPECT_FALSE(verify(keys.vk, proof).ok);
}

TEST(HyperPlonk, RejectsProofFromBrokenWiring)
{
    // Prover uses a witness that satisfies gates but breaks a copy
    // constraint recorded in the preprocessed permutation.
    Rng rng(127);
    Circuit good(GateSystem::Vanilla);
    Fr a = Fr::fromU64(5);
    auto out1 = good.addMultiplication(a, a);
    // Gate 2 reuses gate 1's output as w1.
    auto out2 = good.addAddition(good.witness(out1), Fr::fromU64(1));
    good.copy(out1, Cell{0, out2.row});
    good.padToPowerOfTwo();
    Keys keys = setup(good, sharedSrs());

    // "bad" has identical selectors/wiring but a witness that violates the
    // copy: gate 2's w1 differs from gate 1's output while still summing
    // correctly.
    Circuit bad(GateSystem::Vanilla);
    bad.addMultiplication(a, a);
    bad.addAddition(Fr::fromU64(7), Fr::fromU64(1));
    bad.padToPowerOfTwo();
    ASSERT_TRUE(bad.gatesSatisfied());

    HyperPlonkProof proof = prove(keys.pk, bad);
    EXPECT_FALSE(verify(keys.vk, proof).ok);
}

TEST(HyperPlonk, DeterministicProofs)
{
    Rng rng(128);
    Circuit c = randomVanillaCircuit(4, rng);
    Keys keys = setup(c, sharedSrs());
    HyperPlonkProof p1 = prove(keys.pk, c);
    HyperPlonkProof p2 = prove(keys.pk, c);
    EXPECT_EQ(p1.gateZC.sc.claimedSum, p2.gateZC.sc.claimedSum);
    EXPECT_EQ(p1.gateZC.sc.roundEvals, p2.gateZC.sc.roundEvals);
    EXPECT_TRUE(p1.vComm == p2.vComm);
}

TEST(HyperPlonk, ProofDigestPinned)
{
    // Keccak-256 of the serialized proof, at fixed seeds on one thread.
    // The other byte-identity tests compare configurations of one build;
    // these digests also hold the bytes fixed across commits. A deliberate
    // proof-format change updates them.
    struct Case {
        GateSystem sys;
        unsigned mu;
        std::uint64_t seed;
        const char *digest;
    };
    const Case cases[] = {
        {GateSystem::Vanilla, 6, 131,
         "2b8e7afda7bbc104afeb58c2c252a12306dcb8da38b392b1a15026e232c0efbb"},
        {GateSystem::Jellyfish, 5, 132,
         "39a3170df2f2701aa01e56c99cc2e25b6b6c552539f8dec7f4325c8086403e99"},
    };
    for (const Case &c : cases) {
        Rng rng(c.seed);
        const Circuit circuit = c.sys == GateSystem::Vanilla
                                    ? randomVanillaCircuit(c.mu, rng)
                                    : randomJellyfishCircuit(c.mu, rng);
        const Keys keys = setup(circuit, sharedSrs());
        const HyperPlonkProof proof =
            prove(keys.pk, circuit, nullptr, {.rt = {.threads = 1}});
        ASSERT_TRUE(verify(keys.vk, proof).ok);
        EXPECT_EQ(hash::toHex(hash::keccak256(serializeProof(proof))),
                  c.digest)
            << "mu = " << c.mu;
    }
}
