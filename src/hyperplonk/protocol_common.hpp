/**
 * @file
 * Transcript layout and claim ordering shared by the HyperPlonk prover and
 * verifier. Both sides must absorb the same messages in the same order for
 * Fiat-Shamir to produce matching challenges, so the common structure lives
 * here in one place.
 */
#ifndef ZKPHIRE_HYPERPLONK_PROTOCOL_COMMON_HPP
#define ZKPHIRE_HYPERPLONK_PROTOCOL_COMMON_HPP

#include <span>
#include <vector>

#include "hash/transcript.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/permutation.hpp"
#include "pcs/mkzg.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/opencheck.hpp"

namespace zkphire::hyperplonk::detail {

using sumcheck::EvalClaim;

/** Start the protocol transcript, binding circuit shape and preprocessing. */
inline hash::Transcript
beginTranscript(GateSystem sys, unsigned mu,
                std::span<const pcs::Commitment> selector_comms,
                std::span<const pcs::Commitment> sigma_comms)
{
    hash::Transcript tr("zkphire-hyperplonk-v1");
    tr.appendU64("gate_system", sys == GateSystem::Vanilla ? 0 : 1);
    tr.appendU64("mu", mu);
    for (const auto &c : selector_comms)
        pcs::appendG1(tr, "selector_comm", c.point);
    for (const auto &c : sigma_comms)
        pcs::appendG1(tr, "sigma_comm", c.point);
    return tr;
}

/**
 * The mu-variable evaluation claims, in canonical order:
 * selectors@z_g, w@z_g, w@z_p, sigma@z_p, phi@z_p.
 * Tables are left empty: the prover passes them to OpenCheck by address.
 */
inline std::vector<EvalClaim>
buildClaimsA(unsigned num_selectors, unsigned num_witnesses,
             std::span<const ff::Fr> z_g, std::span<const ff::Fr> z_p,
             std::span<const ff::Fr> gate_slot_evals,
             std::span<const ff::Fr> w_at_zp,
             std::span<const ff::Fr> sigma_at_zp, const ff::Fr &phi_at_zp)
{
    std::vector<EvalClaim> claims;
    claims.reserve(num_selectors + 3 * num_witnesses + 1);
    auto add = [&](std::span<const ff::Fr> pt, const ff::Fr &val) {
        EvalClaim c;
        c.point.assign(pt.begin(), pt.end());
        c.value = val;
        claims.push_back(std::move(c));
    };
    for (unsigned s = 0; s < num_selectors; ++s)
        add(z_g, gate_slot_evals[s]);
    for (unsigned j = 0; j < num_witnesses; ++j)
        add(z_g, gate_slot_evals[num_selectors + j]);
    for (unsigned j = 0; j < num_witnesses; ++j)
        add(z_p, w_at_zp[j]);
    for (unsigned j = 0; j < num_witnesses; ++j)
        add(z_p, sigma_at_zp[j]);
    add(z_p, phi_at_zp);
    return claims;
}

/**
 * The (mu+1)-variable claims on the product-tree polynomial v, in order:
 * v(1,z_p)=pi, v(z_p,0)=p1, v(z_p,1)=p2, v(0,z_p)=phi (leaf binding), and
 * v(1..1,0)=1 (the grand product).
 */
inline std::vector<EvalClaim>
buildClaimsB(unsigned mu, std::span<const ff::Fr> z_p, const ff::Fr &pi_eval,
             const ff::Fr &p1_eval, const ff::Fr &p2_eval,
             const ff::Fr &phi_eval)
{
    std::vector<EvalClaim> claims;
    claims.reserve(5);
    auto add = [&](std::vector<ff::Fr> pt, const ff::Fr &val) {
        EvalClaim c;
        c.point = std::move(pt);
        c.value = val;
        claims.push_back(std::move(c));
    };
    std::vector<ff::Fr> pt;
    // v(1, z_p): first variable fixed to 1.
    pt.assign(1, ff::Fr::one());
    pt.insert(pt.end(), z_p.begin(), z_p.end());
    add(pt, pi_eval);
    // v(z_p, 0) and v(z_p, 1): last variable fixed.
    pt.assign(z_p.begin(), z_p.end());
    pt.push_back(ff::Fr::zero());
    add(pt, p1_eval);
    pt.assign(z_p.begin(), z_p.end());
    pt.push_back(ff::Fr::one());
    add(pt, p2_eval);
    // v(0, z_p): the leaves are phi.
    pt.assign(1, ff::Fr::zero());
    pt.insert(pt.end(), z_p.begin(), z_p.end());
    add(pt, phi_eval);
    // v(1,..,1,0): the grand product must be 1.
    add(sumcheck::rootProductPoint(mu), ff::Fr::one());
    return claims;
}

} // namespace zkphire::hyperplonk::detail

#endif // ZKPHIRE_HYPERPLONK_PROTOCOL_COMMON_HPP
