/**
 * @file
 * Out-of-core streaming benchmark: peak RSS and wall-clock for the chunked
 * prover paths next to their in-RAM twins, over eq-table builds, synthetic
 * commit-size MSMs, SumCheck, and the full HyperPlonk prover.
 *
 * Each measurement runs in a child process (re-exec of this binary) so
 * getrusage's ru_maxrss is the high-water mark of exactly one
 * configuration. The parent collects the rows, checks the streamed digests
 * against the in-RAM ones (the bit-identity contract), prints the
 * EXPERIMENTS.md tables, and writes BENCH_stream.json.
 *
 *   bench_stream            smoke matrix (CI artifact)
 *   bench_stream --full     adds the 2^24 / 2^26 acceptance-sized runs
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "ec/msm.hpp"
#include "hash/transcript.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "poly/mle.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"
#include "sumcheck/prover.hpp"

using namespace zkphire;
using ff::Fr;
using ff::Rng;
using bench::fmt;

namespace {

double
peakRssMb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
#if defined(__APPLE__)
    return double(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
#endif
#else
    return 0.0;
#endif
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
fnv1a(std::span<const std::uint8_t> bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

rt::Config
childConfig(unsigned threads, bool stream, unsigned chunk_log)
{
    rt::Config cfg;
    cfg.threads = threads;
    cfg.streamThreshold = stream ? 1 : SIZE_MAX;
    if (stream)
        cfg.streamChunk = std::size_t(1) << chunk_log;
    return cfg;
}

/** Deterministic scalar generator, regenerable per chunk: chunk c always
 *  produces the same values whether or not other chunks were materialized,
 *  so the streamed and in-RAM runs see identical inputs. */
void
genScalars(std::uint64_t seed, std::size_t chunk_elems, std::size_t begin,
           std::size_t end, Fr *dst)
{
    const std::size_t c = begin / chunk_elems;
    Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (c + 1)));
    for (std::size_t i = begin; i < end; ++i) {
        double u = rng.nextDouble();
        // Witness-like sparsity: ~45% zeros, ~45% ones.
        dst[i - begin] = u < 0.45  ? Fr::zero()
                         : u < 0.9 ? Fr::one()
                                   : Fr::random(rng);
    }
}

/**
 * test=eq / eq_warm: build the eq(x, r) table over mu challenge
 * coordinates. "eq" pays the first-touch cost of a fresh slab; "eq_warm"
 * recycles it through a BufferArena first, which is what a ProverContext's
 * second proof sees (fresh file pages cost real I/O setup on the mapped
 * backend; recycled slabs do not).
 */
std::string
runEq(unsigned mu, bool warm, double *ms)
{
    Rng rng(11);
    std::vector<Fr> r(mu);
    for (auto &v : r)
        v = Fr::random(rng);
    poly::BufferArena arena;
    poly::ScopedArena scope(&arena);
    if (warm) {
        poly::Mle first = poly::Mle::eqTable(r);
        poly::arenaRelease(std::move(first.store()));
    }
    auto t0 = std::chrono::steady_clock::now();
    poly::Mle eq = poly::Mle::eqTable(r);
    *ms = msSince(t0);
    return eq[eq.size() / 3].toHexString();
}

/**
 * test=commit: a commit-shaped single-column MSM over a cycled point pool
 * (a real 2^26 SRS would itself be 6 GB — the synthetic basis keeps the
 * baseline honest while isolating the accumulator's memory behavior).
 * Streamed mode regenerates scalars and points one chunk at a time through
 * ec::MsmAccumulator; in-RAM mode materializes both arrays and runs the
 * one-shot kernel.
 */
std::string
runCommit(unsigned mu, bool stream, unsigned chunk_log, double *ms)
{
    const std::size_t n = std::size_t(1) << mu;
    const std::size_t chunk = std::min(n, std::size_t(1) << chunk_log);
    Rng rng(13);
    std::vector<ec::G1Affine> pool(4096);
    for (auto &p : pool)
        p = ec::randomG1(rng);

    ec::G1Jacobian result;
    if (stream) {
        ec::MsmAccumulator acc(n, 1, ec::currentMsmOptions(), nullptr,
                               chunk);
        std::vector<Fr> scalars(chunk);
        std::vector<ec::G1Affine> points(chunk);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t b = 0; b < n; b += chunk) {
            const std::size_t e = std::min(n, b + chunk);
            genScalars(77, chunk, b, e, scalars.data());
            for (std::size_t i = b; i < e; ++i)
                points[i - b] = pool[i % pool.size()];
            acc.add(std::span<const Fr>(scalars.data(), e - b),
                    std::span<const ec::G1Affine>(points.data(), e - b));
        }
        result = acc.finalize()[0];
        *ms = msSince(t0);
    } else {
        std::vector<Fr> scalars(n);
        for (std::size_t b = 0; b < n; b += chunk)
            genScalars(77, chunk, b, std::min(n, b + chunk),
                       scalars.data() + b);
        std::vector<ec::G1Affine> points(n);
        for (std::size_t i = 0; i < n; ++i)
            points[i] = pool[i % pool.size()];
        auto t0 = std::chrono::steady_clock::now();
        result = ec::msmPippenger(scalars, points, ec::currentMsmOptions());
        *ms = msSince(t0);
    }
    return result.toAffine().x.toHexString();
}

/** test=sumcheck: degree-3 product of three mu-variable tables. */
std::string
runSumcheck(unsigned mu, unsigned chunk_log, double *ms)
{
    const std::size_t n = std::size_t(1) << mu;
    const std::size_t chunk = std::min(n, std::size_t(1) << chunk_log);
    poly::GateExpr expr("stream-bench");
    expr.addSlot("a");
    expr.addSlot("b");
    expr.addSlot("c");
    expr.addTerm(Fr::one(),
                 {poly::SlotId(0), poly::SlotId(1), poly::SlotId(2)});
    std::vector<poly::Mle> tables;
    for (int s = 0; s < 3; ++s) {
        poly::FrTable t = poly::FrTable::make(n);
        for (std::size_t b = 0; b < n; b += chunk) {
            const std::size_t e = std::min(n, b + chunk);
            genScalars(101 + std::uint64_t(s), chunk, b, e, t.data() + b);
            // Emulate the upstream streaming producer (commit releases
            // consumed windows as it goes): drop filled pages chunk by
            // chunk so the measured peak is the sumcheck's own working
            // set, not the synthesis buffer. No-op on the Ram backend.
            t.releaseWindow(b, e);
        }
        tables.emplace_back(std::move(t));
    }
    auto t0 = std::chrono::steady_clock::now();
    hash::Transcript tr("bench-stream");
    sumcheck::ProverOutput out = sumcheck::prove(
        poly::VirtualPoly(expr, std::move(tables)), tr, {});
    *ms = msSince(t0);
    return out.proof.claimedSum.toHexString();
}

/** test=prove: the full HyperPlonk prover; the digest is the proof bytes'
 *  hash, so parent-side equality IS transcript byte-identity. */
std::string
runProve(unsigned mu, const rt::Config &cfg, double *ms)
{
    Rng srs_rng(0xabcd);
    pcs::Srs srs = pcs::Srs::generate(mu + 1, srs_rng);
    Rng rng(17);
    hyperplonk::Circuit c = hyperplonk::randomVanillaCircuit(mu, rng);
    hyperplonk::Keys keys = hyperplonk::setup(c, srs);
    hyperplonk::ProveOptions opts;
    opts.rt = cfg;
    auto t0 = std::chrono::steady_clock::now();
    hyperplonk::HyperPlonkProof proof =
        hyperplonk::prove(keys.pk, c, nullptr, opts);
    *ms = msSince(t0);
    return fnv1a(hyperplonk::serializeProof(proof));
}

int
childMain(const char *test, unsigned mu, unsigned threads, bool stream,
          unsigned chunk_log)
{
    rt::ScopedConfig scope(childConfig(threads, stream, chunk_log));
    double ms = 0;
    std::string digest;
    if (std::strcmp(test, "eq") == 0)
        digest = runEq(mu, false, &ms);
    else if (std::strcmp(test, "eq_warm") == 0)
        digest = runEq(mu, true, &ms);
    else if (std::strcmp(test, "commit") == 0)
        digest = runCommit(mu, stream, chunk_log, &ms);
    else if (std::strcmp(test, "sumcheck") == 0)
        digest = runSumcheck(mu, chunk_log, &ms);
    else if (std::strcmp(test, "prove") == 0)
        digest = runProve(mu, childConfig(threads, stream, chunk_log), &ms);
    else
        return 2;
    std::printf("{\"test\":\"%s\",\"mu\":%u,\"threads\":%u,\"stream\":%d,"
                "\"chunk_log\":%u,\"ms\":%.1f,\"peak_rss_mb\":%.1f,"
                "\"digest\":\"%s\"}\n",
                test, mu, threads, stream ? 1 : 0, chunk_log, ms,
                peakRssMb(), digest.c_str());
    return 0;
}

struct Row {
    std::string test;
    unsigned mu = 0;
    unsigned threads = 1;
    bool stream = false;
    unsigned chunkLog = 0;
    double ms = 0;
    double rssMb = 0;
    std::string digest;
    bool ok = false;
};

/** Crude single-line field extraction (the child emits flat JSON). */
std::string
jsonField(const std::string &line, const std::string &key)
{
    std::size_t p = line.find("\"" + key + "\":");
    if (p == std::string::npos)
        return "";
    p += key.size() + 3;
    bool quoted = line[p] == '"';
    if (quoted)
        ++p;
    std::size_t e = line.find_first_of(quoted ? "\"" : ",}", p);
    return line.substr(p, e - p);
}

Row
runChild(const char *self, const char *test, unsigned mu, unsigned threads,
         bool stream, unsigned chunk_log)
{
    Row row;
    row.test = test;
    row.mu = mu;
    row.threads = threads;
    row.stream = stream;
    row.chunkLog = chunk_log;
    char cmd[512];
    std::snprintf(cmd, sizeof(cmd), "%s child %s %u %u %u %u", self, test,
                  mu, threads, stream ? 1 : 0, chunk_log);
    FILE *p = popen(cmd, "r");
    if (p == nullptr)
        return row;
    char line[1024];
    if (std::fgets(line, sizeof(line), p) != nullptr) {
        std::string s(line);
        row.ms = std::atof(jsonField(s, "ms").c_str());
        row.rssMb = std::atof(jsonField(s, "peak_rss_mb").c_str());
        row.digest = jsonField(s, "digest");
        row.ok = !row.digest.empty();
    }
    pclose(p);
    return row;
}

void
printRow(const Row &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-8s 2^%-2u  %-6s t=%u chunk=2^%-2u  %9.1f ms  "
                  "%8.1f MB  %s",
                  r.test.c_str(), r.mu, r.stream ? "stream" : "ram",
                  r.threads, r.chunkLog, r.ms, r.rssMb, r.digest.c_str());
    bench::row(buf);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 7 && std::strcmp(argv[1], "child") == 0)
        return childMain(argv[2], unsigned(std::atoi(argv[3])),
                         unsigned(std::atoi(argv[4])),
                         std::atoi(argv[5]) != 0,
                         unsigned(std::atoi(argv[6])));

    const bool full = argc >= 2 && std::strcmp(argv[1], "--full") == 0;
    const char *self = argv[0];

    struct Spec {
        const char *test;
        unsigned mu;
        unsigned threads;
        bool stream;
        unsigned chunkLog;
        bool fullOnly;
    };
    const Spec specs[] = {
        {"eq", 22, 1, false, 20, false},
        {"eq", 22, 1, true, 18, false},
        {"eq_warm", 22, 1, false, 20, false},
        {"eq_warm", 22, 1, true, 18, false},
        {"commit", 20, 1, false, 18, false},
        {"commit", 20, 1, true, 18, false},
        {"sumcheck", 20, 1, false, 18, false},
        {"sumcheck", 20, 1, true, 18, false},
        {"prove", 13, 1, false, 10, false},
        {"prove", 13, 1, true, 10, false},
        {"prove", 13, 4, true, 10, false},
        // Acceptance-sized runs (ISSUE PR 8): 2^24 commit + sumcheck under
        // the RSS cap, 2^26 commit streamed vs in-RAM throughput.
        {"commit", 24, 1, false, 20, true},
        {"commit", 24, 1, true, 20, true},
        {"sumcheck", 24, 1, false, 20, true},
        {"sumcheck", 24, 1, true, 20, true},
        {"commit", 26, 1, false, 20, true},
        {"commit", 26, 1, true, 20, true},
    };

    bench::header("Out-of-core streaming: wall-clock and peak RSS");
    std::vector<Row> rows;
    for (const Spec &s : specs) {
        if (s.fullOnly && !full)
            continue;
        rows.push_back(
            runChild(self, s.test, s.mu, s.threads, s.stream, s.chunkLog));
        printRow(rows.back());
    }

    // Digest contract: every streamed row must reproduce the in-RAM row's
    // bytes for the same (test, mu).
    bool all_ok = true;
    bench::header("Bit-identity and RSS/throughput ratios");
    for (const Row &r : rows) {
        if (!r.stream)
            continue;
        const Row *ram = nullptr;
        for (const Row &o : rows)
            if (!o.stream && o.test == r.test && o.mu == r.mu)
                ram = &o;
        if (ram == nullptr)
            continue;
        const bool match = r.ok && ram->ok && r.digest == ram->digest;
        all_ok = all_ok && match;
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "  %-8s 2^%-2u t=%u  digest %s  rss %5.1f%% of ram  "
            "wall %4.2fx",
            r.test.c_str(), r.mu, r.threads, match ? "MATCH" : "MISMATCH",
            ram->rssMb > 0 ? 100.0 * r.rssMb / ram->rssMb : 0.0,
            ram->ms > 0 ? r.ms / ram->ms : 0.0);
        bench::row(buf);
    }

    FILE *out = std::fopen("BENCH_stream.json", "w");
    if (out != nullptr) {
        std::fprintf(out, "[\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(out,
                         "  {\"test\":\"%s\",\"mu\":%u,\"threads\":%u,"
                         "\"stream\":%d,\"chunk_log\":%u,\"ms\":%.1f,"
                         "\"peak_rss_mb\":%.1f,\"digest\":\"%s\"}%s\n",
                         r.test.c_str(), r.mu, r.threads, r.stream ? 1 : 0,
                         r.chunkLog, r.ms, r.rssMb, r.digest.c_str(),
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(out, "]\n");
        std::fclose(out);
        bench::row("\nwrote BENCH_stream.json");
    }
    return all_ok ? 0 : 1;
}
