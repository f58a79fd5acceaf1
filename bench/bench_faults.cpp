/**
 * @file
 * Service latency under fault injection: BM_ServiceFaultLoad.
 *
 * Runs the same mixed 12-job load through engine::ProofService twice —
 * once fault-free, once with a representative ZKPHIRE_FAILPOINTS-style
 * schedule armed (slab ENOSPC, one-shot MSM ENOMEM, sumcheck-round sleep
 * jitter, a hard injected throw) plus one mid-load cancellation — and
 * reports the p50/p99 total-latency shift together with the recovery
 * counters (retries, degraded retries, cancelled, failed).
 *
 * Contract checks ride along: every future must resolve a typed status,
 * and every Ok proof (including retried-degraded ones) must be
 * byte-identical to its fault-free reference. The process exits non-zero
 * when either fails, so the CI smoke leg gates on it.
 *
 *   bench_faults            both runs, writes BENCH_faults.json
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/service.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "rt/failpoint.hpp"

using namespace zkphire;
using ff::Fr;
using ff::Rng;
using bench::fmt;
using engine::ProofStatus;
using std::chrono::milliseconds;

namespace {

const pcs::Srs &
sharedSrs()
{
    static Rng rng(0xbe5eedull);
    static pcs::Srs srs = pcs::Srs::generate(9, rng);
    return srs;
}

/** One circuit + keys + fault-free reference bytes (built before any
 *  failpoint is armed, so the reference prove() cannot be perturbed). */
struct Fixture {
    hyperplonk::Circuit circuit;
    hyperplonk::Keys keys;
    std::vector<std::uint8_t> reference;
};

Fixture
makeFixture(unsigned mu, bool jellyfish, std::uint64_t seed)
{
    Rng rng(seed);
    hyperplonk::Circuit circuit =
        jellyfish ? hyperplonk::randomJellyfishCircuit(mu, rng)
                  : hyperplonk::randomVanillaCircuit(mu, rng);
    hyperplonk::Keys keys = hyperplonk::setup(circuit, sharedSrs());
    std::vector<std::uint8_t> reference =
        hyperplonk::serializeProof(hyperplonk::prove(keys.pk, circuit));
    return Fixture{std::move(circuit), std::move(keys), std::move(reference)};
}

/** The load's schedule: every compiled-in site armed, tuned so the load
 *  still mostly completes. msm.accum is hit by every MSM (a one-shot MSM
 *  is a one-chunk accumulator), so its one nth = 2 fault lands in an
 *  early job's MSM, and that job retries degraded. The bench-sized circuits
 *  never reach chunk.producer (its streamed path only engages for large
 *  tables) — the per-site hits/fires diagnostics make that visible rather
 *  than silently claiming coverage. */
void
armFaultSchedule()
{
    rt::FailSpec slab;
    slab.kind = rt::FailKind::Enospc;
    slab.p = 0.25; // Frequent slab failures: the Ram-fallback path.
    slab.seed = 0xfa0117;
    rt::setFailpoint("slab.create", slab);

    rt::FailSpec grow;
    grow.kind = rt::FailKind::Eintr;
    grow.p = 0.5;
    grow.seed = 0xfa0118;
    rt::setFailpoint("slab.grow", grow);

    rt::FailSpec msm;
    msm.kind = rt::FailKind::Enomem;
    msm.nth = 2;
    rt::setFailpoint("msm.accum", msm);

    rt::FailSpec producer;
    producer.kind = rt::FailKind::Enomem;
    producer.nth = 1;
    rt::setFailpoint("chunk.producer", producer);

    rt::FailSpec round;
    round.kind = rt::FailKind::Enomem;
    round.nth = 30; // Fires mid-sumcheck in an early job: the reliable
                    // retry-with-degradation exercise.
    rt::setFailpoint("sumcheck.round", round);

    rt::FailSpec worker;
    worker.kind = rt::FailKind::Throw;
    worker.nth = 40; // One hard (non-resource) fault: resolves ProverError.
    rt::setFailpoint("rt.worker", worker);
}

struct SiteCount {
    std::string site;
    std::uint64_t hits = 0, fires = 0;
};

struct Row {
    std::string name;
    unsigned jobs = 0;
    std::uint64_t ok = 0, failed = 0, cancelled = 0, expired = 0;
    std::uint64_t retries = 0, degradedRetries = 0;
    double p50 = 0, p99 = 0, wallMs = 0;
    bool bytesMatch = true;
    bool allResolved = true;
    std::vector<SiteCount> sites; ///< Armed-run per-site consultations.
};

Row
runLoad(const std::string &name, bool withFaults,
        const std::vector<const Fixture *> &fixtures)
{
    rt::clearFailpoints();
    if (withFaults)
        armFaultSchedule();

    // streamThreshold=1 puts every table on the slab store; the tiny chunk
    // makes the bench-sized tables span multiple chunks, so the streamed
    // commit pipeline sees traffic too.
    engine::ProverContext ctx(
        sharedSrs(),
        {.threads = 2, .streamThreshold = 1, .streamChunk = 64});
    engine::ServiceOptions sopts;
    sopts.lanes = 2;
    sopts.queueCapacity = 6;
    sopts.admission = engine::AdmissionPolicy::Block;

    Row row;
    row.name = name;
    constexpr unsigned kJobs = 12;
    row.jobs = kJobs;

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<engine::JobHandle> handles;
    std::vector<const Fixture *> picked;
    {
        engine::ProofService service(ctx, sopts);
        for (unsigned i = 0; i < kJobs; ++i) {
            const Fixture *f = fixtures[i % fixtures.size()];
            engine::ProofRequest req;
            req.pk = &f->keys.pk;
            req.circuit = &f->circuit;
            engine::SubmitOptions sub;
            sub.priority = int(i % 3);
            sub.retry.maxAttempts = 3;
            sub.retry.backoff = milliseconds(2);
            handles.push_back(service.submitJob(req, sub));
            picked.push_back(f);
        }
        if (withFaults)
            service.cancel(handles[7].id); // Mid-load cancellation.

        for (unsigned i = 0; i < kJobs; ++i) {
            if (handles[i].future.wait_for(std::chrono::minutes(5)) !=
                std::future_status::ready) {
                row.allResolved = false;
                continue;
            }
            engine::ProofResult res = handles[i].future.get();
            if (res.status == ProofStatus::Ok &&
                hyperplonk::serializeProof(res.proof) != picked[i]->reference)
                row.bytesMatch = false;
        }

        if (withFaults)
            for (const char *site :
                 {"slab.create", "slab.grow", "chunk.producer", "msm.accum",
                  "sumcheck.round", "rt.worker"})
                row.sites.push_back({site, rt::failpointHits(site),
                                     rt::failpointFires(site)});
        const engine::ServiceMetrics m = service.metrics();
        row.ok = m.completed;
        row.failed = m.failed;
        row.cancelled = m.cancelled;
        row.expired = m.expiredDeadline;
        row.retries = m.retries;
        row.degradedRetries = m.degradedRetries;
        row.p50 = m.totalMs.quantileMs(0.5);
        row.p99 = m.totalMs.quantileMs(0.99);
    }
    row.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    rt::clearFailpoints();
    return row;
}

void
printRow(const Row &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-10s jobs=%-2u ok=%-2llu fail=%llu cancel=%llu "
                  "retry=%llu degraded=%llu  p50 %7.1f ms  p99 %7.1f ms  "
                  "wall %7.1f ms  bytes %s",
                  r.name.c_str(), r.jobs, (unsigned long long)r.ok,
                  (unsigned long long)r.failed,
                  (unsigned long long)r.cancelled,
                  (unsigned long long)r.retries,
                  (unsigned long long)r.degradedRetries, r.p50, r.p99,
                  r.wallMs, r.bytesMatch ? "MATCH" : "MISMATCH");
    bench::row(buf);
    for (const SiteCount &s : r.sites) {
        std::snprintf(buf, sizeof(buf), "    site %-15s hits=%llu fires=%llu",
                      s.site.c_str(), (unsigned long long)s.hits,
                      (unsigned long long)s.fires);
        bench::row(buf);
    }
}

} // namespace

int
main()
{
    // References are proved before any failpoint arms. The clear consumes
    // the lazy ZKPHIRE_FAILPOINTS load, so an exported schedule cannot
    // perturb the reference proves (the bench arms programmatically).
    rt::clearFailpoints();
    const Fixture small = makeFixture(4, false, 9101);
    const Fixture big = makeFixture(7, true, 9102);
    const std::vector<const Fixture *> fixtures{&small, &big};

    bench::header("BM_ServiceFaultLoad: p50/p99 under fault injection");
    std::vector<Row> rows;
    rows.push_back(runLoad("baseline", /*withFaults=*/false, fixtures));
    printRow(rows.back());
    rows.push_back(runLoad("faults", /*withFaults=*/true, fixtures));
    printRow(rows.back());

    const Row &base = rows[0];
    const Row &faulted = rows[1];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\n  fault overhead: p50 %sx, p99 %sx; every future "
                  "resolved: %s",
                  fmt(base.p50 > 0 ? faulted.p50 / base.p50 : 0.0, 2).c_str(),
                  fmt(base.p99 > 0 ? faulted.p99 / base.p99 : 0.0, 2).c_str(),
                  (base.allResolved && faulted.allResolved) ? "yes" : "NO");
    bench::row(buf);

    FILE *out = std::fopen("BENCH_faults.json", "w");
    if (out != nullptr) {
        std::fprintf(out, "[\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(
                out,
                "  {\"run\":\"%s\",\"jobs\":%u,\"ok\":%llu,"
                "\"failed\":%llu,\"cancelled\":%llu,\"expired\":%llu,"
                "\"retries\":%llu,\"degraded_retries\":%llu,"
                "\"p50_ms\":%.1f,\"p99_ms\":%.1f,\"wall_ms\":%.1f,"
                "\"bytes_match\":%s,\"all_resolved\":%s,\"sites\":{",
                r.name.c_str(), r.jobs, (unsigned long long)r.ok,
                (unsigned long long)r.failed, (unsigned long long)r.cancelled,
                (unsigned long long)r.expired, (unsigned long long)r.retries,
                (unsigned long long)r.degradedRetries, r.p50, r.p99, r.wallMs,
                r.bytesMatch ? "true" : "false",
                r.allResolved ? "true" : "false");
            for (std::size_t s = 0; s < r.sites.size(); ++s)
                std::fprintf(out, "\"%s\":[%llu,%llu]%s",
                             r.sites[s].site.c_str(),
                             (unsigned long long)r.sites[s].hits,
                             (unsigned long long)r.sites[s].fires,
                             s + 1 < r.sites.size() ? "," : "");
            std::fprintf(out, "}}%s\n", i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(out, "]\n");
        std::fclose(out);
        bench::row("\nwrote BENCH_faults.json");
    }

    const bool pass = base.allResolved && faulted.allResolved &&
                      base.bytesMatch && faulted.bytesMatch;
    return pass ? 0 : 1;
}
