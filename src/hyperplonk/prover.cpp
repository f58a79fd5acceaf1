#include "hyperplonk/prover.hpp"

#include <cassert>
#include <chrono>

#include "hyperplonk/protocol_common.hpp"
#include "rt/parallel.hpp"

namespace zkphire::hyperplonk {

using sumcheck::EvalClaim;

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Keys
setup(const Circuit &circuit, const pcs::Srs &srs)
{
    assert((circuit.numRows() & (circuit.numRows() - 1)) == 0 &&
           "pad the circuit to a power of two before setup");
    Keys keys;
    ProvingKey &pk = keys.pk;
    pk.sys = circuit.system();
    unsigned mu = 0;
    while ((std::size_t(1) << mu) < circuit.numRows())
        ++mu;
    pk.mu = mu;
    pk.selectors = circuit.selectorMles();
    pk.perm = buildPermutation(circuit);
    pk.srs = &srs;
    // Selector and sigma columns are same-size polynomial families over one
    // basis — exactly the multi-MSM shape, so preprocessing commits each
    // family with a single shared-point walk.
    pk.selectorComms = pcs::commitBatch(srs, pk.selectors);
    pk.sigmaComms = pcs::commitBatch(srs, pk.perm.sigma);

    VerifyingKey &vk = keys.vk;
    vk.sys = pk.sys;
    vk.mu = pk.mu;
    vk.selectorComms = pk.selectorComms;
    vk.sigmaComms = pk.sigmaComms;
    vk.srs = &srs;
    return keys;
}

SetupState
proveSetup(const ProvingKey &pk, const Circuit &circuit, ProverStats *stats,
           const ProveOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    // Pin every kernel in this phase (witness synthesis, commitment MSMs);
    // a default config inherits the ambient setting.
    rt::ScopedConfig scope(opts.rt);
    ec::ScopedMsmOptions msm_scope(opts.msm);
    poly::ScopedArena arena_scope(opts.arena);
    rt::ScopedCancel cancel_scope(opts.cancel);
    rt::checkCancel();
    assert(circuit.system() == pk.sys);
    assert(circuit.numRows() == (std::size_t(1) << pk.mu));

    ProverStats local_stats;
    ProverStats &st = stats ? *stats : local_stats;
    const pcs::Srs &srs = *pk.srs;

    SetupState state{HyperPlonkProof{},
                     detail::beginTranscript(pk.sys, pk.mu, pk.selectorComms,
                                             pk.sigmaComms),
                     {}};

    // ---- Step 1: Witness Commitments --------------------------------
    auto t0 = Clock::now();
    state.witness = circuit.witnessMles();
    // One multi-MSM over all k columns: scalars are recoded once and the
    // Lagrange basis is walked once per window for the whole batch.
    state.proof.witnessComms = pcs::commitBatch(srs, state.witness, &st.msm);
    for (const auto &c : state.proof.witnessComms)
        pcs::appendG1(state.tr, "w_comm", c.point);
    st.witnessCommitMs = msSince(t0);
    return state;
}

HyperPlonkProof
proveOnline(const ProvingKey &pk, SetupState setup_state, ProverStats *stats,
            const ProveOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    // Pin every phase kernel (batch inversion, eq tables, sumchecks); the
    // inner sumcheck calls below pass a default rt::Config so they inherit
    // this pin rather than re-applying one.
    rt::ScopedConfig scope(opts.rt);
    ec::ScopedMsmOptions msm_scope(opts.msm);
    poly::ScopedArena arena_scope(opts.arena);
    rt::ScopedCancel cancel_scope(opts.cancel);
    rt::checkCancel();

    HyperPlonkProof proof = std::move(setup_state.proof);
    hash::Transcript tr = std::move(setup_state.tr);
    std::vector<Mle> witness = std::move(setup_state.witness);

    ProverStats local_stats;
    ProverStats &st = stats ? *stats : local_stats;
    const pcs::Srs &srs = *pk.srs;
    const unsigned k = numWitnessCols(pk.sys);
    assert(witness.size() == k);

    // ---- Step 2: Gate Identity Check (ZeroCheck) ---------------------
    auto t0 = Clock::now();
    const gates::Gate &gate = coreGate(pk.sys);
    std::vector<Mle> gate_tables;
    gate_tables.reserve(gate.expr.numSlots());
    for (const Mle &sel : pk.selectors)
        gate_tables.push_back(sel);
    for (const Mle &w : witness)
        gate_tables.push_back(w);
    // The core gate is fixed per gate system, so its masked plan comes from
    // the caller's (context-owned) cache — lowered once, reused across that
    // context's proofs. Without a cache it is lowered inside proveZero.
    auto gate_out = sumcheck::proveZero(
        gate.expr, std::move(gate_tables), tr, {},
        opts.plans ? opts.plans->maskedPlan(gate.expr) : nullptr);
    proof.gateZC = std::move(gate_out.proof);
    const std::vector<Fr> &z_g = gate_out.challenges;
    st.gateIdentityMs = msSince(t0);

    // ---- Step 3: Wire Identity Check ---------------------------------
    rt::checkCancel();
    t0 = Clock::now();
    Fr beta = tr.challengeFr("beta");
    Fr gamma = tr.challengeFr("gamma");
    FractionPolys fracs = buildFractionPolys(witness, pk.perm, beta, gamma);
    Mle v = sumcheck::buildProductTree(fracs.phi);
    // phi (mu vars) and v (mu+1 vars) live under different bases, so these
    // two commitments cannot share a multi-MSM.
    proof.phiComm = pcs::commit(srs, fracs.phi, &st.msm);
    proof.vComm = pcs::commit(srs, v, &st.msm);
    pcs::appendG1(tr, "phi_comm", proof.phiComm.point);
    pcs::appendG1(tr, "v_comm", proof.vComm.point);
    Fr alpha = tr.challengeFr("alpha");

    gates::Gate perm_gate = gates::permCoreGate(k, alpha);
    std::vector<Mle> perm_tables;
    perm_tables.reserve(perm_gate.expr.numSlots());
    perm_tables.push_back(sumcheck::extractPi(v));
    perm_tables.push_back(sumcheck::extractP1(v));
    perm_tables.push_back(sumcheck::extractP2(v));
    perm_tables.push_back(fracs.phi);
    for (unsigned j = 0; j < k; ++j)
        perm_tables.push_back(fracs.denom[j]);
    for (unsigned j = 0; j < k; ++j)
        perm_tables.push_back(fracs.numer[j]);
    // The PermCheck expression embeds the per-proof batching challenge
    // alpha, so its plan is lowered inline (caching it would key on alpha
    // and grow without bound).
    auto perm_out =
        sumcheck::proveZero(perm_gate.expr, std::move(perm_tables), tr);
    proof.permZC = std::move(perm_out.proof);
    const std::vector<Fr> &z_p = perm_out.challenges;
    st.wireIdentityMs = msSince(t0);

    // ---- Step 4: Batch Evaluations (OpenChecks) ----------------------
    rt::checkCancel();
    t0 = Clock::now();
    // Auxiliary claimed evaluations at z_p, absorbed before eta is drawn.
    proof.wAtZp.resize(k);
    proof.sigmaAtZp.resize(k);
    for (unsigned j = 0; j < k; ++j) {
        proof.wAtZp[j] = witness[j].evaluate(z_p);
        proof.sigmaAtZp[j] = pk.perm.sigma[j].evaluate(z_p);
    }
    tr.appendFrVec("w_zp", proof.wAtZp);
    tr.appendFrVec("sigma_zp", proof.sigmaAtZp);

    const Fr phi_at_zp = proof.permZC.sc.finalSlotEvals[3];
    std::vector<EvalClaim> claims_a = detail::buildClaimsA(
        numSelectorCols(pk.sys), k, z_g, z_p,
        proof.gateZC.sc.finalSlotEvals, proof.wAtZp, proof.sigmaAtZp,
        phi_at_zp);
    // The claims' tables by address, in claim order; OpenCheck A and the
    // batch opening both read them, and neither copies them.
    std::vector<const Mle *> tables_a;
    tables_a.reserve(claims_a.size());
    for (const Mle &sel : pk.selectors)
        tables_a.push_back(&sel);
    for (const Mle &w : witness)
        tables_a.push_back(&w);
    for (const Mle &w : witness)
        tables_a.push_back(&w);
    for (const Mle &sig : pk.perm.sigma)
        tables_a.push_back(&sig);
    tables_a.push_back(&fracs.phi);
    assert(tables_a.size() == claims_a.size());

    auto open_a = sumcheck::proveOpen(claims_a, tables_a, tr);
    proof.openA = std::move(open_a.proof);

    std::vector<EvalClaim> claims_b = detail::buildClaimsB(
        pk.mu, z_p, proof.permZC.sc.finalSlotEvals[0],
        proof.permZC.sc.finalSlotEvals[1], proof.permZC.sc.finalSlotEvals[2],
        phi_at_zp);
    const std::vector<const Mle *> tables_b(claims_b.size(), &v);
    auto open_b = sumcheck::proveOpen(claims_b, tables_b, tr);
    proof.openB = std::move(open_b.proof);
    st.batchEvalMs = msSince(t0);

    // ---- Step 5: Polynomial Opening -----------------------------------
    rt::checkCancel();
    t0 = Clock::now();
    Fr rho = tr.challengeFr("rho_a");
    // Two independent opening chains (both challenges are already drawn):
    // g over mu variables and v over mu+1. Their quotient bases differ at
    // every level, so they share no MSM.
    proof.pcsA =
        pcs::batchOpen(srs, tables_a, open_a.challenges, rho, &st.msm);
    proof.pcsB = pcs::open(srs, v, open_b.challenges, &st.msm);
    st.openingMs = msSince(t0);

    return proof;
}

HyperPlonkProof
prove(const ProvingKey &pk, const Circuit &circuit, ProverStats *stats,
      const ProveOptions &opts)
{
    return proveOnline(pk, proveSetup(pk, circuit, stats, opts), stats, opts);
}

} // namespace zkphire::hyperplonk
