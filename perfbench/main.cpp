/**
 * @file
 * Benchmark binary. run.py builds it and is the entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--quick] [--tamper] [--trace-out PATH]
 *   perfbench --copy-probe
 *
 * A run prints human-readable lines, then one JSON line with the keys
 * correct, attempted, failed, metrics and provenance, and exits 1 when any
 * output check failed. --copy-probe measures memory copy bandwidth over
 * arrays four times the last-level cache; run.py runs it in a process of
 * its own so that it never enters a workload's peak RSS.
 */
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ec/msm.hpp"
#include "ff/fq.hpp"
#include "ff/fr.hpp"
#include "ff/vec_ops.hpp"

namespace {

using namespace perfbench;
using namespace zkphire;

/** Last-level cache size from sysfs (largest cache level of cpu0). */
std::size_t
llcBytes()
{
    std::size_t best = 0;
    int bestLevel = 0;
    for (int index = 0; index < 8; ++index) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(index) + "/";
        std::ifstream levelIn(dir + "level"), sizeIn(dir + "size");
        int level = 0;
        std::string size;
        if (!(levelIn >> level) || !(sizeIn >> size) || size.empty())
            continue;
        std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
        if (size.back() == 'K')
            bytes <<= 10;
        else if (size.back() == 'M')
            bytes <<= 20;
        if (level > bestLevel || (level == bestLevel && bytes > best)) {
            bestLevel = level;
            best = bytes;
        }
    }
    return best != 0 ? best : std::size_t(32) << 20;
}

int
copyProbe()
{
    const std::size_t llc = llcBytes();
    const std::size_t n = 4 * llc;
    auto map = [n] {
        void *p = mmap(nullptr, n, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            return static_cast<char *>(nullptr);
        madvise(p, n, MADV_HUGEPAGE); // fewer faults; a hint only
        return static_cast<char *>(p);
    };
    char *src = map();
    char *dst = map();
    if (src == nullptr || dst == nullptr) {
        std::fprintf(stderr, "copy probe: cannot map 2 x %zu bytes\n", n);
        return 1;
    }
    std::memset(src, 1, n);
    std::memset(dst, 0, n);
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        std::memcpy(dst, src, n);
        best = std::min(best, secondsSince(t0));
    }
    std::printf("{\"copy_gbs\": %.6g, \"llc_bytes\": %zu, "
                "\"array_bytes\": %zu}\n",
                double(n) / best / 1e9, llc, n);
    munmap(src, n);
    munmap(dst, n);
    return 0;
}

/** ns per multiplication of ff::mulVec over 1024 elements (median). */
template <class F>
double
mulVecNs()
{
    constexpr std::size_t kLen = 1024;
    ff::Rng rng(7);
    std::vector<F> a(kLen), b(kLen), d(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
        a[i] = F::random(rng);
        b[i] = F::random(rng);
    }
    std::vector<double> reps;
    for (int rep = 0; rep < 101; ++rep) {
        const auto t0 = Clock::now();
        for (int it = 0; it < 16; ++it) {
            ff::mulVec(d.data(), a.data(), b.data(), kLen);
            a[it] = d[kLen - 1 - std::size_t(it)]; // keeps every call live
        }
        reps.push_back(msSince(t0) * 1e6 / (16.0 * kLen));
    }
    return median(reps);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--quick] [--tamper] [--trace-out PATH]\n"
                 "       perfbench --copy-probe\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--copy-probe")
            return copyProbe();
        if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--tamper")
            opt.tamper = true;
        else if (arg == "--workload" && (v = value()))
            opt.workload = v;
        else if (arg == "--seed" && (v = value()))
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds" && (v = value()))
            opt.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace" && (v = value()))
            opt.trace = std::string(v) != "0";
        else if (arg == "--trace-out" && (v = value()))
            opt.traceOut = v;
        else
            return usage();
    }

    Outcome out;
    if (opt.workload == "vanilla-prove-mu14")
        out = runProofWorkload(opt);
    else if (opt.workload == "service-mix")
        out = runServiceWorkload(opt);
    else
        return usage();

    if (opt.trace) {
        out.add("ff.fr_mul_ns", mulVecNs<ff::Fr>(), "ns");
        out.add("ff.fq_mul_ns", mulVecNs<ff::Fq>(), "ns");
    }

    for (const std::string &line : out.report)
        std::printf("%s\n", line.c_str());

    std::string metrics, provenance;
    for (const auto &m : out.metrics)
        metrics += (metrics.empty() ? "" : ", ") + jsonString(m.name) +
                   format(": {\"value\": %.12g, \"unit\": ", m.value) +
                   jsonString(m.unit) + "}";
    out.note("workload", jsonString(opt.workload));
    out.note("seed", std::to_string(opt.seed));
    out.note("seconds", format("%g", opt.seconds));
    out.note("trace", opt.trace ? "true" : "false");
    out.note("quick", opt.quick ? "true" : "false");
    out.note("kernels",
             format("{\"asm\": %s, \"generic_oracle\": %s, \"glv\": %s}",
                    ff::kernels::asmKernelsEnabled() ? "true" : "false",
                    ff::kernels::genericKernelsForced() ? "true" : "false",
                    ec::MsmOptions{}.glv ? "true" : "false"));
    out.note("cold", "[\"setup_s\"]");
    for (const auto &[key, value] : out.provenance)
        provenance += (provenance.empty() ? "" : ", ") + jsonString(key) +
                      ": " + value;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}, \"provenance\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed, metrics.c_str(),
                provenance.c_str());
    return out.failed == 0 ? 0 : 1;
}
