#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

double
peakRssMb()
{
    // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so a
    // child of a larger parent would report the parent's footprint.
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

CpuTimes
readCpuTimes()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is not added again.
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(in >> v))
            break;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealPct(const CpuTimes &a, const CpuTimes &b)
{
    if (b.total <= a.total)
        return 0;
    return 100.0 * double(b.steal - a.steal) / double(b.total - a.total);
}

void
HostWindow::close(Outcome &out, bool traced) const
{
    const double steal = stealPct(st0, readCpuTimes());
    out.note("host.steal_pct", format("%.3f", steal));
    if (!traced)
        return;
    out.add("rt.cpu_util", (cpuSeconds() - cpu0) / secondsSince(t0),
            "ratio");
    out.add("host.steal_pct", steal, "%");
}

Tracer::Scope::Scope(Tracer &t, std::string name) : tracer(t)
{
    if (!tracer.on)
        return;
    index = int(tracer.spans.size());
    Span s;
    s.name = std::move(name);
    s.beginNs = toNs(Clock::now());
    s.parent = tracer.open.empty() ? -1 : tracer.open.back();
    s.op = tracer.op;
    tracer.spans.push_back(std::move(s));
    tracer.open.push_back(index);
}

Tracer::Scope::~Scope()
{
    if (index < 0)
        return;
    tracer.spans[std::size_t(index)].endNs = toNs(Clock::now());
    tracer.open.pop_back();
}

void
Tracer::record(std::string name, Clock::time_point begin,
               Clock::time_point end, std::uint64_t opId, int tid)
{
    if (!on)
        return;
    Span s;
    s.name = std::move(name);
    s.beginNs = toNs(begin);
    s.endNs = toNs(end);
    s.op = opId;
    s.tid = tid;
    spans.push_back(std::move(s));
}

std::map<std::string, double>
Tracer::selfMs(std::uint64_t opId) const
{
    std::vector<double> childNs(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childNs[std::size_t(s.parent)] += double(s.endNs - s.beginNs);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.op != opId)
            continue;
        out[s.name] += (double(s.endNs - s.beginNs) - childNs[i]) / 1e6;
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::int64_t origin = INT64_MAX;
    for (const Span &s : spans)
        origin = std::min(origin, s.beginNs);
    std::ostringstream js;
    js << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        js << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << format(",\"ts\":%.3f,\"dur\":%.3f",
                     double(s.beginNs - origin) / 1e3,
                     double(s.endNs - s.beginNs) / 1e3)
           << ",\"args\":{\"op\":" << s.op << ",\"parent\":\""
           << (s.parent >= 0 ? spans[std::size_t(s.parent)].name : "")
           << "\"}}";
    }
    js << "\n]}\n";
    std::ofstream out(path);
    out << js.str();
    return bool(out);
}

std::map<std::string, double>
medianSelfMs(const Tracer &tracer, const std::vector<std::uint64_t> &ops)
{
    std::map<std::string, std::vector<double>> samples;
    for (std::uint64_t op : ops)
        for (const auto &[name, ms] : tracer.selfMs(op))
            samples[name].push_back(ms);
    std::map<std::string, double> out;
    for (auto &[name, v] : samples)
        out[name] = median(std::move(v));
    return out;
}

void
addSetupSpans(const Tracer &tracer, Outcome &out)
{
    const auto setup = tracer.selfMs(0);
    for (const char *span :
         {"pcs.srs_level", "hyperplonk.preprocess", "hyperplonk.cold_proof"})
        out.add(std::string(span) + "_ms", spanMs(setup, span), "ms");
}

} // namespace perfbench
