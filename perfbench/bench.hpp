/**
 * @file
 * Shared pieces of the repository benchmark: run options, the outcome a
 * workload reports, small statistics helpers, host counters, and the
 * benchmark-side span recorder used by traced runs.
 *
 * Spans are recorded from the benchmark's own files, around its calls into
 * the library's public entry points; nothing inside src/ is instrumented.
 */
#ifndef ZKPHIRE_PERFBENCH_BENCH_HPP
#define ZKPHIRE_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return msSince(t0) / 1000.0;
}

inline std::int64_t
toNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Small-μ inputs for the benchmark's own tests. */
    bool quick = false;
    /** Test oracle: corrupt the first checked output so the checks must
     *  fail (the self-tests assert the run then reports a failure). */
    bool tamper = false;
    /** Chrome trace-event JSON destination (traced runs). */
    std::string traceOut;
};

/** What one workload run reports. */
struct Outcome {
    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> report;
    /** Provenance entries: key -> already-encoded JSON value. */
    std::vector<std::pair<std::string, std::string>> provenance;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Count one checked operation and record whether its output held. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            report.push_back("CHECK FAILED: " + what);
        }
    }
    void
    note(const std::string &key, const std::string &jsonValue)
    {
        provenance.emplace_back(key, jsonValue);
    }
};

/** Median; the mean of the two middle values for even counts, 0 if empty. */
double median(std::vector<double> v);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Peak resident set of this process image (VmHWM) in MiB. */
double peakRssMb();

/** User + system CPU seconds consumed by this process so far. */
double cpuSeconds();

/** Aggregate /proc/stat CPU jiffies: steal and total. */
struct CpuTimes {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
CpuTimes readCpuTimes();
/** Steal as a percentage of all CPU time between two readings. */
double stealPct(const CpuTimes &a, const CpuTimes &b);

/**
 * Host counters over a run's timed window: steal is recorded with every
 * result (provenance); traced runs also report it and the process CPU
 * utilisation as per-layer metrics.
 */
class HostWindow
{
  public:
    HostWindow() : t0(Clock::now()), cpu0(cpuSeconds()), st0(readCpuTimes())
    {
    }
    void close(Outcome &out, bool traced) const;

  private:
    Clock::time_point t0;
    double cpu0;
    CpuTimes st0;
};

/**
 * In-memory span recorder. One thread records nested spans through Scope;
 * finished spans from other threads (service requests timed by the
 * harness) are added with record(). Disabled tracers record nothing.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        std::int64_t beginNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint64_t op = 0;
        int tid = 0;
    };

    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }
    /** Operation id stamped on spans begun from now on. */
    void setOp(std::uint64_t id) { op = id; }

    class Scope
    {
      public:
        Scope(Tracer &t, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int index = -1;
    };

    /** Add a finished span with no parent. */
    void record(std::string name, Clock::time_point begin,
                Clock::time_point end, std::uint64_t opId, int tid);

    /** Self time (ms) per span name over the spans of operation opId;
     *  spans sharing a name within the operation are summed. */
    std::map<std::string, double> selfMs(std::uint64_t opId) const;

    /** Write every span as Chrome trace-event JSON (opens in Perfetto). */
    bool writeChrome(const std::string &path) const;

  private:
    bool on;
    std::uint64_t op = 0;
    std::vector<Span> spans;
    std::vector<int> open;
};

/**
 * Per-name medians of several operations' self times: the per-layer value
 * of each span is the median over the traced operations.
 */
std::map<std::string, double>
medianSelfMs(const Tracer &tracer, const std::vector<std::uint64_t> &ops);

/** ms[name], or 0 for a span that never ran. */
inline double
spanMs(const std::map<std::string, double> &ms, const std::string &name)
{
    auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
}

/** The set-up split of a traced run (operation 0): pcs.srs_level_ms,
 *  hyperplonk.preprocess_ms and hyperplonk.cold_proof_ms. */
void addSetupSpans(const Tracer &tracer, Outcome &out);

Outcome runProofWorkload(const Options &opt);
Outcome runServiceWorkload(const Options &opt);

/**
 * The SumCheck gate set of a traced run: a warm-up pass checked against the
 * tables, then traced passes (operations firstOp, firstOp + 1, ...) whose
 * per-gate spans and computed counts become per-layer metrics.
 */
void addGateSetLayers(const Options &opt, Tracer &tracer,
                      std::uint64_t firstOp, Outcome &out);

} // namespace perfbench

#endif // ZKPHIRE_PERFBENCH_BENCH_HPP
