#include "pcs/srs.hpp"

#include <cassert>

#include "poly/mle.hpp"
#include "rt/parallel.hpp"

namespace zkphire::pcs {

Srs
Srs::generate(unsigned max_vars, ff::Rng &rng)
{
    Srs srs;
    srs.tauVec.reserve(max_vars);
    for (unsigned i = 0; i < max_vars; ++i)
        srs.tauVec.push_back(Fr::random(rng));
    srs.gen = ec::g1Generator();
    srs.genMul = std::make_unique<ec::FixedBaseMul>(srs.gen);
    return srs;
}

const LevelBases &
Srs::basesFor(unsigned mu) const
{
    assert(mu <= maxVars() && "polynomial larger than SRS supports");
    Level *level = nullptr;
    {
        std::lock_guard<std::mutex> lk(cache->cacheMu);
        level = &cache->levels[mu]; // map nodes never move
    }
    // One builder per level: callers of a level under construction wait
    // here, and a throw leaves it unbuilt for the next caller to retry.
    // Built bases are never written again, so callers read them unlocked.
    std::lock_guard<std::mutex> build(level->buildMu);
    if (level->bases.suffix.empty())
        level->bases = buildLevel(mu);
    return level->bases;
}

LevelBases
Srs::buildLevel(unsigned mu) const
{
    LevelBases level;
    level.suffix.resize(mu + 1);
    for (unsigned s = 0; s <= mu; ++s) {
        // eq table over (tau_s .. tau_{mu-1}) in the scalar field, then
        // lifted into the exponent with fixed-base multiplications.
        std::vector<Fr> suffix_tau(tauVec.begin() + s, tauVec.begin() + mu);
        poly::Mle eq = poly::Mle::eqTable(suffix_tau);
        // Fixed-base multiplies are independent; normalization shares one
        // inversion across the level instead of one per point.
        std::vector<G1Jacobian> jac(eq.size());
        rt::parallelFor(
            0, eq.size(), [&](std::size_t i) { jac[i] = genMul->mul(eq[i]); },
            0, 16);
        level.suffix[s] = ec::batchToAffine(jac);
    }
    return level;
}

void
appendG1(hash::Transcript &tr, std::string_view label, const G1Affine &p)
{
    std::uint8_t bytes[2 * 48 + 1] = {};
    if (!p.infinity) {
        p.x.toBig().toBytesLe(bytes);
        p.y.toBig().toBytesLe(bytes + 48);
        bytes[96] = 1;
    }
    tr.appendBytes(label, bytes);
}

} // namespace zkphire::pcs
