#include "pcs/srs.hpp"

#include <cassert>

#include "ec/batch_add.hpp"
#include "poly/mle.hpp"
#include "rt/failpoint.hpp"
#include "rt/parallel.hpp"

namespace zkphire::pcs {

namespace {

/**
 * out[j] = buf[2j] + buf[2j+1]: every pair is a two-point segment of one
 * batched-affine reduction, so the whole vector shares one inversion.
 */
std::vector<G1Affine>
pairSums(std::vector<G1Affine> buf)
{
    const std::size_t n = buf.size() / 2;
    std::vector<std::uint32_t> off(n + 1);
    for (std::size_t j = 0; j <= n; ++j)
        off[j] = std::uint32_t(2 * j);
    std::vector<G1Affine> out(n);
    ec::BatchAffineScratch scratch;
    ec::batchAffineSegmentSums(buf, off, out, scratch);
    return out;
}

} // namespace

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
    if (!level->built.load(std::memory_order_acquire)) {
        level->bases = buildLevel(mu);
        level->built.store(true, std::memory_order_release);
    }
    return level->bases;
}

const LevelBases *
Srs::builtBases(unsigned mu) const
{
    std::lock_guard<std::mutex> lk(cache->cacheMu);
    const auto it = cache->levels.find(mu);
    if (it == cache->levels.end() ||
        !it->second.built.load(std::memory_order_acquire))
        return nullptr;
    return &it->second.bases;
}

std::vector<G1Affine>
Srs::lift(std::span<const Fr> eq) const
{
    // Fixed-base multiplies are independent; normalization shares one
    // inversion across the range instead of one per point.
    std::vector<G1Jacobian> jac(eq.size());
    rt::parallelFor(
        0, eq.size(), [&](std::size_t i) { jac[i] = genMul->mul(eq[i]); }, 0,
        16);
    return ec::batchToAffine(jac);
}

LevelBases
Srs::buildLevel(unsigned mu) const
{
    rt::failpoint("srs.level");
    // eq over (tau_0 .. tau_{mu-1}) puts tau_{mu-1} at the top index bit:
    // eq[i + half] = tau_{mu-1} * eq'[i] and eq[i] + eq[i + half] = eq'[i],
    // with eq' the table of level mu - 1.
    const std::span<const Fr> prefix(tauVec.data(), mu);
    const poly::Mle eq = poly::Mle::eqTable(prefix);
    const LevelBases *below = mu > 0 ? builtBases(mu - 1) : nullptr;

    LevelBases level;
    level.suffix.resize(mu + 1);
    std::vector<G1Affine> &full = level.suffix[0];
    if (below == nullptr) {
        full = lift(eq.evals());
    } else {
        // Only the upper half is new: the lower half is L'[i] - upper[i].
        const std::size_t half = eq.size() / 2;
        const std::vector<G1Affine> upper = lift(eq.evals().subspan(half));
        const std::vector<G1Affine> &lower = below->suffix[0];
        std::vector<G1Affine> diffs(eq.size());
        for (std::size_t i = 0; i < half; ++i) {
            const G1Affine &u = upper[i];
            diffs[2 * i] = lower[i];
            diffs[2 * i + 1] = G1Affine{u.x, u.y.neg(), u.infinity};
        }
        full = pairSums(std::move(diffs));
        full.insert(full.end(), upper.begin(), upper.end());
    }
    // tau_s sits at bit 0 of suffix[s]'s index, so summing adjacent entries
    // marginalizes it out: suffix[s+1][j] = suffix[s][2j] + suffix[s][2j+1].
    for (unsigned s = 0; s < mu; ++s)
        level.suffix[s + 1] = pairSums(level.suffix[s]);
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
