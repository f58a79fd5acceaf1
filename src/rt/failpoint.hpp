/**
 * @file
 * Named, compiled-in fault-injection points.
 *
 * A failpoint is a call to rt::failpoint("site") (throw-style sites) or
 * rt::failpointErrno("site") (syscall-wrapper sites) at a place where the
 * production code can fail for real: slab creation/growth, MSM
 * accumulation, sumcheck rounds, pool worker chunks, SRS level builds.
 * Disarmed — the normal state — a site costs one relaxed atomic load.
 * Armed, the site consults its FailSpec and injects the configured error:
 *
 *   - throw-style sites raise the exception the spec's kind maps to
 *     (InjectedFault for `throw`, std::bad_alloc for `enomem`,
 *     std::system_error(ENOSPC/EMFILE) for the disk kinds), exactly the
 *     types the real failure would produce — so recovery code is exercised
 *     against the exceptions it must classify in production;
 *   - errno-style sites return the errno the spec maps to (0 = no fault),
 *     so a syscall wrapper can simulate ENOSPC/EMFILE/EINTR without the
 *     kernel's help;
 *   - the `sleep` kind blocks the site for a configured duration instead of
 *     failing it, which lets tests widen a race window deterministically
 *     (e.g. guarantee a cancel lands mid-round).
 *
 * Arming is programmatic (setFailpoint) or environmental: ZKPHIRE_FAILPOINTS
 * holds a `;`-separated schedule of `site=kind[:p=F][:nth=N][:count=C]
 * [:seed=S][:ms=M]` entries, parsed on first use. Probability draws come
 * from a per-spec seeded PRNG, so a schedule is reproducible for a fixed
 * hit order. Catalog of compiled-in sites: DESIGN.md "Fault tolerance".
 */
#ifndef ZKPHIRE_RT_FAILPOINT_HPP
#define ZKPHIRE_RT_FAILPOINT_HPP

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace zkphire::rt {

/** What an armed site injects when it fires. */
enum class FailKind : std::uint8_t {
    Throw,  ///< InjectedFault (generic, non-resource — never retried).
    Enomem, ///< std::bad_alloc / errno ENOMEM.
    Enospc, ///< std::system_error ENOSPC / errno ENOSPC.
    Emfile, ///< std::system_error EMFILE / errno EMFILE.
    Eintr,  ///< errno EINTR (throw-style sites treat it as a no-op).
    Sleep,  ///< Block for sleepMs, then continue without failing.
};

/** How an armed site decides whether a given hit fires. */
struct FailSpec {
    FailKind kind = FailKind::Throw;
    /** Fire probability per hit (after the nth gate). */
    double p = 1.0;
    /** When > 0: only hit number nth (1-based, cumulative across the
     *  process) can fire — the idiom for "fail once, then recover". */
    std::uint64_t nth = 0;
    /** Cap on total fires; nth > 0 implies an effective cap of 1. */
    std::uint64_t maxFires = UINT64_MAX;
    /** Seed for the per-spec probability stream. */
    std::uint64_t seed = 0x5eedf001u;
    /** Duration for FailKind::Sleep (milliseconds). */
    std::uint64_t sleepMs = 10;
};

/** The exception `throw`-kind failpoints raise. Deliberately NOT derived
 *  from the resource-exhaustion types, so retry policies that only retry
 *  ENOMEM/ENOSPC classes treat it as a hard prover error. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &site)
        : std::runtime_error("injected fault at failpoint '" + site + "'"),
          site_(site)
    {
    }
    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/** Arm (or re-arm, resetting its counters) one site. */
void setFailpoint(const std::string &site, const FailSpec &spec);
/** Disarm one site. */
void clearFailpoint(const std::string &site);
/** Disarm every site and reset all counters. */
void clearFailpoints();

/** Parse a ZKPHIRE_FAILPOINTS-format schedule and arm every entry on top
 *  of whatever is already armed; returns the number of entries applied.
 *  Malformed entries are skipped. */
std::size_t setFailpointsFromSpec(const std::string &schedule);
/** Re-read ZKPHIRE_FAILPOINTS (the lazy first-hit load calls this once). */
std::size_t loadFailpointsFromEnv();

/** Times an armed spec for `site` was consulted / actually fired. Both are
 *  0 for sites that are not (or no longer) armed. */
std::uint64_t failpointHits(const std::string &site);
std::uint64_t failpointFires(const std::string &site);

namespace detail {
extern std::atomic<std::uint32_t> g_armedFailpoints;
/** Slow path: consult the armed spec. throwSite selects the injection
 *  style; returns the errno for errno-style sites (0 = no fault). */
int failpointHit(const char *site, bool throwSite);
} // namespace detail

/** Throw-style site: injects by raising the spec's exception. */
inline void
failpoint(const char *site)
{
    if (detail::g_armedFailpoints.load(std::memory_order_relaxed) == 0)
        return;
    detail::failpointHit(site, /*throwSite=*/true);
}

/** Errno-style site: returns the errno to simulate (0 = no fault). */
inline int
failpointErrno(const char *site)
{
    if (detail::g_armedFailpoints.load(std::memory_order_relaxed) == 0)
        return 0;
    return detail::failpointHit(site, /*throwSite=*/false);
}

} // namespace zkphire::rt

#endif // ZKPHIRE_RT_FAILPOINT_HPP
