#include "engine/context.hpp"

#include <cassert>

#include "rt/parallel.hpp"

namespace zkphire::engine {

ProverContext::ProverContext(rt::Config config)
    : cfg(config)
{
}

ProverContext::ProverContext(const pcs::Srs &srs, rt::Config config)
    : srsRef(&srs), cfg(config)
{
}

const hyperplonk::Keys &
ProverContext::preprocess(const hyperplonk::Circuit &circuit)
{
    assert(srsRef != nullptr && "attach an SRS before preprocessing");
    rt::ScopedConfig scope(config());
    hyperplonk::Keys keys = hyperplonk::setup(circuit, *srsRef);
    std::lock_guard<std::mutex> lock(keysMu);
    ownedKeys.push_back(std::move(keys));
    return ownedKeys.back();
}

hyperplonk::ProveOptions
ProverContext::proveOptions(const rt::Config *rtOverride,
                            rt::UnitRunner *units) const
{
    hyperplonk::ProveOptions opts;
    opts.rt = rtOverride ? *rtOverride : config();
    opts.plans = &planCache;
    opts.units = units;
    opts.arena = &bufferArena;
    return opts;
}

hyperplonk::HyperPlonkProof
ProverContext::prove(const hyperplonk::ProvingKey &pk,
                     const hyperplonk::Circuit &circuit,
                     hyperplonk::ProverStats *stats,
                     const rt::Config *rtOverride) const
{
    return hyperplonk::prove(pk, circuit, stats, proveOptions(rtOverride));
}

ProverContext &
defaultContext()
{
    static ProverContext ctx;
    return ctx;
}

} // namespace zkphire::engine

namespace zkphire::hyperplonk {

// Legacy one-shot entry point (declared in hyperplonk/prover.hpp). Defined
// here, above the hyperplonk layer, so it can route through the default
// context's plan cache without the core prover depending on the engine.
HyperPlonkProof
prove(const ProvingKey &pk, const Circuit &circuit, ProverStats *stats)
{
    return engine::defaultContext().prove(pk, circuit, stats);
}

} // namespace zkphire::hyperplonk
