/**
 * @file
 * Service observability: latency histograms and the ServiceMetrics snapshot
 * ProofService exports.
 *
 * The histogram is a fixed array of power-of-two microsecond buckets —
 * recording is a clz and an increment, cheap enough to sit on the job
 * completion path — and quantiles are estimated by linear interpolation
 * inside the bucket where the target rank falls. That gives p50/p99 with
 * bounded (~2x bucket-width) error and no allocation, which is all a
 * service dashboard needs; exact order statistics would require retaining
 * every sample.
 */
#ifndef ZKPHIRE_ENGINE_METRICS_HPP
#define ZKPHIRE_ENGINE_METRICS_HPP

#include <array>
#include <cstddef>
#include <cstdint>

namespace zkphire::engine {

/** Log-bucketed latency histogram over milliseconds. */
class LatencyHistogram
{
  public:
    /** Bucket b covers [2^b, 2^(b+1)) microseconds; bucket 0 also absorbs
     *  sub-microsecond samples, the last bucket absorbs everything above
     *  (~2^39 us ~ 6 days). */
    static constexpr std::size_t kBuckets = 40;

    void record(double ms);

    std::uint64_t count() const { return total; }
    double sumMs() const { return sum_ms; }
    double maxMs() const { return max_ms; }
    double meanMs() const { return total == 0 ? 0.0 : sum_ms / double(total); }

    /** Latency at quantile q in [0, 1] (q=0.5 -> p50, q=0.99 -> p99),
     *  interpolated within the covering bucket; 0 when empty. */
    double quantileMs(double q) const;

    /** Fold another histogram into this one (snapshot aggregation). */
    void merge(const LatencyHistogram &other);

  private:
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;
    double sum_ms = 0;
    double max_ms = 0;
};

/**
 * One consistent snapshot of the service's counters, gauges, and latency
 * distributions. Counter invariants:
 *   submitted == accepted + rejectedQueueFull + rejectedDeadline
 *                + rejectedStopping
 *   accepted  == completed + failed + expiredDeadline + cancelled
 *                + queueDepth + inFlight
 *                (once the service is idle, the last two are 0)
 */
struct ServiceMetrics {
    // Admission counters.
    std::uint64_t submitted = 0;        ///< Every submit() call.
    std::uint64_t accepted = 0;         ///< Entered the queue.
    std::uint64_t rejectedQueueFull = 0;///< Reject policy, queue at capacity.
    std::uint64_t rejectedDeadline = 0; ///< Deadline already past at submit.
    std::uint64_t rejectedStopping = 0; ///< Submitted against a stopping service.
    // Outcome counters.
    std::uint64_t completed = 0;        ///< Resolved ok.
    std::uint64_t failed = 0;           ///< BadRequest or prover error.
    std::uint64_t expiredDeadline = 0;  ///< Deadline passed (queued or mid-proof).
    std::uint64_t cancelled = 0;        ///< cancel(jobId) resolved the job.
    // Fault-recovery counters.
    std::uint64_t retries = 0;          ///< Attempts re-enqueued by RetryPolicy.
    std::uint64_t degradedRetries = 0;  ///< Retries forced onto streaming.
    // Lending counters.
    std::uint64_t shardedPhases = 0;    ///< Phases that ran with lent lanes.
    std::uint64_t shardHelperLanes = 0; ///< Lender-lane reservations, total.
    std::uint64_t shardRecalls = 0;     ///< Arrivals that sent lenders home.
    // Gauges (at snapshot time).
    std::size_t queueDepth = 0;         ///< Jobs waiting for a lane.
    std::size_t inFlight = 0;           ///< Jobs a lane is executing.
    // Derived.
    double uptimeMs = 0;
    double proofsPerSec = 0;            ///< completed / uptime.
    // Latency distributions.
    LatencyHistogram queueWaitMs; ///< Enqueue -> lane pickup, per phase.
    LatencyHistogram setupMs;     ///< Witness synthesis + commitment phase.
    LatencyHistogram onlineMs;    ///< Sumcheck + opening phase.
    LatencyHistogram totalMs;     ///< Admission -> future resolution (ok only).
};

} // namespace zkphire::engine

#endif // ZKPHIRE_ENGINE_METRICS_HPP
