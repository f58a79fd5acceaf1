/**
 * @file
 * service-mix: engine::ProofService on one lane run on one thread, every
 * other ServiceOptions field at its default. One generator thread submits a
 * round of four requests at once, one large (Jellyfish mu = 12, priority 0)
 * per three small (Vanilla mu = 10, priority 1), and waits for all four.
 * Every latency comes from the harness's own submit and resolve timestamps.
 *
 * A round is submitted S L S S: the lane starts on the first small request,
 * and the large one, queued second, runs after the later small ones
 * (priority), each proof's online phase ahead of the next one's set-up
 * (phase split). On one lane that order is fixed, so every round and seed
 * replays the same schedule, and the round latency is the sum of its
 * phases. One lane keeps the round on one busy thread: on two lanes a
 * round is a two-thread makespan, set by how many other threads share the
 * host's cores, and it moved by over a third between runs of the same
 * code. A single lane never shards.
 */
#include <algorithm>
#include <bit>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "engine/service.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "rt/parallel.hpp"

namespace perfbench {
namespace {

using namespace zkphire;
using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kSrsSalt = 0x5eed5a1700000002ull;
constexpr unsigned kLanes = 1;
/** Circuit 0 is the large request; 1..kSmall the small ones. */
constexpr int kSmall = 3;
/** A round's requests in submission order: the large one second. */
constexpr int kSequence[] = {1, 0, 2, 3};

/** SRS, keys and reference proofs; the service starts after them. */
struct Session {
    std::unique_ptr<pcs::Srs> srs;
    std::unique_ptr<engine::ProverContext> ctx;
    std::vector<const hyperplonk::Keys *> keys;
    std::vector<Bytes> ref;
    std::unique_ptr<engine::ProofService> service;
};

/**
 * Preprocess and prove each circuit once, serially, before the service
 * starts: these proofs are the references every service result must equal,
 * and the service then never builds an SRS level itself (concurrent first
 * proofs at a new size race inside pcs::Srs::basesFor, and the benchmark
 * must not depend on that race).
 */
Session
setUp(const std::vector<hyperplonk::Circuit> &circuits, unsigned maxMu,
      std::uint64_t seed, Tracer &tracer, Outcome &out)
{
    Session s;
    ff::Rng rng(seed ^ kSrsSalt);
    s.srs = std::make_unique<pcs::Srs>(pcs::Srs::generate(maxMu + 1, rng));
    if (tracer.enabled()) {
        Tracer::Scope span(tracer, "pcs.srs_level");
        for (const auto &c : circuits) {
            const unsigned mu = unsigned(std::countr_zero(c.numRows()));
            s.srs->basesFor(mu);
            s.srs->basesFor(mu + 1);
        }
    }
    rt::Config cfg;
    cfg.threads = 1;
    s.ctx = std::make_unique<engine::ProverContext>(*s.srs, cfg);
    {
        Tracer::Scope span(tracer, "hyperplonk.preprocess");
        for (const auto &c : circuits)
            s.keys.push_back(&s.ctx->preprocess(c));
    }
    {
        Tracer::Scope span(tracer, "hyperplonk.cold_proof");
        for (std::size_t i = 0; i < circuits.size(); ++i) {
            const auto proof = s.ctx->prove(s.keys[i]->pk, circuits[i]);
            s.ref.push_back(hyperplonk::serializeProof(proof));
            out.check(hyperplonk::verify(s.keys[i]->vk, proof).ok,
                      "reference proof verifies");
        }
    }
    engine::ServiceOptions options;
    options.lanes = kLanes;
    s.service = std::make_unique<engine::ProofService>(*s.ctx, options);
    return s;
}

struct Sample {
    int circuit = 0;
    Clock::time_point submit, resolve;
    double serviceMs = 0; ///< The job's ProverStats step total.
    std::size_t bytes = 0;
    bool ok = false;
    double latencyMs() const
    {
        return std::chrono::duration<double, std::milli>(resolve - submit)
            .count();
    }
};

/**
 * One round: submit every request of the sequence, then wait for each in
 * the order the lane resolves them (priority, then submission), so that a
 * resolve timestamp is taken as its future becomes ready.
 */
std::vector<Sample>
runRound(const Session &s, const std::vector<hyperplonk::Circuit> &circuits,
         bool &tamper)
{
    std::vector<Sample> samples;
    std::vector<std::future<engine::ProofResult>> pending;
    for (const int circuit : kSequence) {
        Sample smp;
        smp.circuit = circuit;
        engine::SubmitOptions sub;
        sub.priority = circuit == 0 ? 0 : 1;
        const engine::ProofRequest req{&s.keys[circuit]->pk,
                                       &circuits[circuit], nullptr};
        smp.submit = Clock::now();
        pending.push_back(s.service->submit(req, sub));
        samples.push_back(smp);
    }
    std::vector<std::size_t> order(samples.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return samples[a].circuit != 0 &&
                                samples[b].circuit == 0;
                     });
    for (const std::size_t i : order) {
        Sample &smp = samples[i];
        const engine::ProofResult res = pending[i].get();
        smp.resolve = Clock::now();
        Bytes bytes = hyperplonk::serializeProof(res.proof);
        if (std::exchange(tamper, false) && !bytes.empty())
            bytes[bytes.size() / 2] ^= 1;
        smp.ok = res.status == engine::ProofStatus::Ok &&
                 bytes == s.ref[smp.circuit];
        smp.bytes = bytes.size();
        smp.serviceMs = res.stats.totalMs();
    }
    return samples;
}

} // namespace

Outcome
runServiceWorkload(const Options &opt)
{
    const unsigned largeMu = opt.quick ? 7 : 12;
    const unsigned smallMu = opt.quick ? 5 : 10;
    rt::Config one;
    one.threads = 1;
    rt::ScopedConfig pin(one);
    Outcome out;
    Tracer tracer(opt.trace);

    ff::Rng rng(opt.seed);
    std::vector<hyperplonk::Circuit> circuits;
    circuits.push_back(hyperplonk::randomJellyfishCircuit(largeMu, rng));
    for (int i = 0; i < kSmall; ++i)
        circuits.push_back(hyperplonk::randomVanillaCircuit(smallMu, rng));

    const auto setup0 = Clock::now();
    const Session s = setUp(circuits, largeMu, opt.seed, tracer, out);
    const double setupS = secondsSince(setup0);

    bool tamper = opt.tamper;
    auto check = [&](const std::vector<Sample> &round) {
        for (const Sample &smp : round)
            out.check(smp.ok, "service result is Ok and equals the direct "
                              "proof");
    };
    // One untimed warm-up round: the lane's first round runs cold.
    check(runRound(s, circuits, tamper));

    std::vector<Sample> samples;
    std::vector<double> roundMs;
    double rssMb = 0, roundS = 0;
    const HostWindow window;
    const auto start = Clock::now();
    do {
        const auto round0 = Clock::now();
        const std::vector<Sample> round = runRound(s, circuits, tamper);
        roundS = secondsSince(round0);
        roundMs.push_back(roundS * 1e3);
        if (rssMb == 0)
            rssMb = peakRssMb();
        check(round);
        samples.insert(samples.end(), round.begin(), round.end());
    } while (secondsSince(start) + roundS <= opt.seconds);
    window.close(out, opt.trace);

    std::vector<double> small, large, queueWait, serviceMs;
    std::size_t bytes = 0;
    for (const Sample &smp : samples) {
        const double ms = smp.latencyMs();
        (smp.circuit == 0 ? large : small).push_back(ms);
        serviceMs.push_back(smp.serviceMs);
        queueWait.push_back(ms - smp.serviceMs);
        bytes += smp.bytes;
        tracer.record(smp.circuit == 0 ? "engine.request.large"
                                       : "engine.request.small",
                      smp.submit, smp.resolve, 0, smp.circuit + 1);
    }

    out.note("mu", format("{\"large\":%u,\"small\":%u}", largeMu, smallMu));
    out.note("threads", "1");
    out.note("lanes", std::to_string(kLanes));
    out.note("generator_threads", "1");
    out.note("round_requests", std::to_string(std::size(kSequence)));
    out.note("warm_ops", std::to_string(roundMs.size()));

    if (!opt.trace) {
        out.add("latency_ms", median(roundMs), "ms");
        out.add("setup_s", setupS, "s");
        out.add("peak_rss_mb", rssMb, "MiB");
        out.add("proof_bytes", double(bytes) / double(roundMs.size()),
                "bytes");
        out.report.push_back(format(
            "%s: %zu rounds, median %.1f ms; %zu requests (%zu small, %zu "
            "large), p50 small %.1f ms, large %.1f ms; set-up %.2f s",
            opt.workload.c_str(), roundMs.size(), median(roundMs),
            samples.size(), small.size(), large.size(), median(small),
            median(large), setupS));
        return out;
    }

    // Highest percentile of the small requests with at least ten samples
    // beyond it, reported with its sample count.
    std::sort(small.begin(), small.end());
    const std::size_t n = small.size();
    const std::size_t below = n > 10 ? n - 10 : 0;
    out.add("engine.small_tail_ms", below ? small[below - 1] : 0, "ms");
    out.add("engine.small_tail_pctile", n ? 100.0 * double(below) / double(n)
                                          : 0,
            "%");
    out.add("engine.small_samples", double(n), "count");
    out.add("engine.small_p50_ms", median(small), "ms");
    out.add("engine.large_p50_ms", median(large), "ms");
    out.add("engine.queue_wait_p50_ms", median(queueWait), "ms");
    out.add("engine.service_p50_ms", median(serviceMs), "ms");

    addSetupSpans(tracer, out);
    out.report.push_back(format(
        "service-mix traced: %zu requests, queue wait p50 %.1f ms, service "
        "p50 %.1f ms, small tail p%.0f %.1f ms over %zu samples",
        samples.size(), median(queueWait), median(serviceMs),
        n ? 100.0 * double(below) / double(n) : 0.0,
        below ? small[below - 1] : 0.0, n));
    if (!opt.traceOut.empty() && !tracer.writeChrome(opt.traceOut))
        out.report.push_back("could not write " + opt.traceOut);
    return out;
}

} // namespace perfbench
