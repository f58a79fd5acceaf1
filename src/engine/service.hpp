/**
 * @file
 * ProofService: a traffic-worthy proof factory over one ProverContext.
 *
 * The service decouples workload submission from backend execution. Callers
 * submit ProofRequests — with an optional priority and deadline — and
 * receive futures that resolve to ProofResults. Errors are NEVER thrown
 * through a future: every accepted or rejected submission resolves with a
 * typed ProofStatus, including submissions that race the destructor
 * (ServiceStopping) and jobs whose deadline passes while queued
 * (DeadlineExpired).
 *
 * Admission: the queue is bounded by ServiceOptions::queueCapacity (0 =
 * unbounded). At capacity, AdmissionPolicy::Block parks the submitting
 * thread until space frees (or the service stops); AdmissionPolicy::Reject
 * resolves the future immediately with QueueFull.
 *
 * Scheduling: lanes pick the best runnable entry instead of FIFO order —
 * highest priority first, then earliest deadline, then online-phase
 * entries before setup-phase entries (finish started work first), then
 * arrival order. Each proof runs as a two-phase lifecycle (the
 * hyperplonk::proveSetup / proveOnline split): after setup the job is
 * re-enqueued, so the setup of one request overlaps the online phase of
 * another and a lane is never pinned to one request end-to-end.
 *
 * Lending: when a lane dispatches a phase, the queue is empty, and other
 * lanes are idle, the idle lanes are reserved for that phase
 * (engine::ShardGroup) and lend their threads — each lane thread and the
 * workers of its pool — to the dispatching lane's pool, which runs the
 * phase with its own thread budget plus the lent ones. One request
 * therefore uses the whole machine when it is alone, without monopolizing
 * it when it is not: any arrival sends the lenders home at their next
 * chunk boundary, groups last a single phase, and idleness is re-evaluated
 * at every phase boundary. A saturated service never lends.
 *
 * Thread budgeting: the context's budget (config().threads, or the runtime
 * default when 0) is split evenly across the lanes (remainder to the first
 * lanes — laneThreadBudgets() exposes the exact split), and every lane owns
 * a PRIVATE rt::ThreadPool of its sub-budget, so in-flight jobs never
 * contend on one pool's region lock. Asking for more lanes than budgeted
 * threads oversubscribes (one serial thread per lane). The split and the
 * pools are fixed at construction, as is the context's config.
 *
 * Determinism: every kernel is bit-identical at any thread count, so a
 * job's proof is byte-identical to the single-shot hyperplonk::prove path
 * for the same circuit — independent of the lane count, how many threads
 * were lent, the schedule, or what other jobs are running
 * (tests/test_engine.cpp and tests/test_engine_sched.cpp lock this).
 *
 * Observability: metrics() snapshots admission/outcome counters, queue
 * depth, lending, and per-phase latency histograms with p50/p99
 * (engine/metrics.hpp).
 */
#ifndef ZKPHIRE_ENGINE_SERVICE_HPP
#define ZKPHIRE_ENGINE_SERVICE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/context.hpp"
#include "engine/metrics.hpp"
#include "engine/shard.hpp"
#include "rt/cancel.hpp"

namespace zkphire::engine {

/** One unit of work. Pointed-to objects are caller-owned and must stay
 *  alive until the job's future resolves. */
struct ProofRequest {
    const hyperplonk::ProvingKey *pk = nullptr;
    const hyperplonk::Circuit *circuit = nullptr;
    /** Optional caller-owned sink; also copied into ProofResult::stats. */
    hyperplonk::ProverStats *stats = nullptr;
};

/** Typed outcome of a submission (ProofResult::status). */
enum class ProofStatus {
    Ok,              ///< Proof produced.
    BadRequest,      ///< Missing proving key or circuit.
    QueueFull,       ///< Rejected at admission (Reject policy, queue full).
    DeadlineExpired, ///< Deadline passed while queued or mid-proof.
    ServiceStopping, ///< Submitted against a stopping/destroyed service.
    ProverError,     ///< The prover threw; error carries the message.
    Cancelled,       ///< cancel(jobId) landed before the proof finished.
};

struct ProofResult {
    bool ok = false;
    ProofStatus status = ProofStatus::ProverError;
    std::string error; ///< Set when ok == false.
    hyperplonk::HyperPlonkProof proof;
    hyperplonk::ProverStats stats;
    /** Widest lane group (1 + lenders) any phase of this job ran with. */
    unsigned shardLanes = 1;
};

/**
 * What to do when a prover stage fails with a RESOURCE error — bad_alloc,
 * or a system_error carrying ENOMEM/ENOSPC/EMFILE. Only those retry: they
 * are environmental and a later (or degraded) attempt can succeed, whereas
 * a logic error (anything else the prover throws, including an injected
 * rt::InjectedFault) would fail identically every time and resolves
 * ProverError on the first attempt.
 */
struct RetryPolicy {
    /** Total attempts, first included. 1 (default) = never retry. */
    unsigned maxAttempts = 1;
    /** Delay before attempt 2; each later attempt doubles it, capped at one
     *  second. The job waits out its backoff in the queue (lanes skip it),
     *  so a backoff never blocks a lane. Every retry runs degraded, with
     *  rt::Config::streamThreshold = 1 forcing every prover table onto the
     *  out-of-core mmap-slab backend: peak RSS drops to O(chunk), which is
     *  exactly what an ENOMEM/ENOSPC failure calls for. Streaming is
     *  transcript-invariant, so a degraded retry's proof is byte-identical
     *  to a fault-free run. */
    std::chrono::milliseconds backoff{5};
};

/** Per-submission scheduling attributes. */
struct SubmitOptions {
    /** Higher runs earlier. Default 0. */
    int priority = 0;
    /** Absolute deadline. Jobs still queued past it resolve with
     *  DeadlineExpired; a job already executing observes it through its
     *  cancel token and aborts at the next chunk/round boundary. Default:
     *  none. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /** Recovery policy for resource-class prover failures. */
    RetryPolicy retry;

    /** Convenience: a deadline dur from now. */
    template <class Rep, class Period>
    static SubmitOptions
    deadlineIn(std::chrono::duration<Rep, Period> dur, int priority = 0)
    {
        SubmitOptions sub;
        sub.priority = priority;
        sub.deadline = std::chrono::steady_clock::now() + dur;
        return sub;
    }
};

/** A submission's identity + result: the id addresses cancel(). */
struct JobHandle {
    std::uint64_t id = 0;
    std::future<ProofResult> future;
};

/** What submit() does when the queue is at capacity. */
enum class AdmissionPolicy {
    Block,  ///< Park the submitter until space frees or the service stops.
    Reject, ///< Resolve the future immediately with QueueFull.
};

struct ServiceOptions {
    /** Jobs in flight at once (0 is treated as 1). */
    unsigned lanes = 1;
    /** Admission-queue bound (jobs accepted but not yet started); 0 =
     *  unbounded. Online-phase re-enqueues never count against it. */
    std::size_t queueCapacity = 0;
    AdmissionPolicy admission = AdmissionPolicy::Block;
};

class ProofService
{
  public:
    /**
     * @param ctx     Context supplying config and the shared plan cache;
     *                must outlive the service.
     * @param options Lane count, admission bound/policy.
     */
    ProofService(const ProverContext &ctx, const ServiceOptions &options);
    /** Convenience: lanes only, every other option at its default. */
    explicit ProofService(const ProverContext &ctx, unsigned lanes = 1);

    /** Drains every queued job (deadlines still honored), then joins the
     *  lanes. Jobs that lose the submit/shutdown race — and any job still
     *  queued after the drain — resolve with ServiceStopping; no promise is
     *  ever destroyed unfulfilled. */
    ~ProofService();

    ProofService(const ProofService &) = delete;
    ProofService &operator=(const ProofService &) = delete;

    unsigned numLanes() const { return unsigned(laneThreads.size()); }
    /** Minimum (base) per-lane thread budget. An uneven split gives the
     *  first budget % lanes lanes one extra thread — sum over
     *  laneThreadBudgets() for the aggregate, NOT numLanes() * this. */
    unsigned laneThreadBudget() const { return subBudget; }
    /** Exact per-lane thread budgets; sums to the context budget whenever
     *  lanes <= budget (the even-split invariant tests check). */
    const std::vector<unsigned> &laneThreadBudgets() const { return budgets; }

    /** Enqueue one job; the future resolves when it completes. Errors are
     *  reported as a typed ProofResult, never thrown through the future. */
    std::future<ProofResult> submit(const ProofRequest &req);
    std::future<ProofResult> submit(const ProofRequest &req,
                                    const SubmitOptions &sub);
    /** Like submit(), but also returns the job id cancel() addresses. Every
     *  submission gets an id, including ones rejected at admission (their
     *  futures are already resolved, so cancel() on them returns false). */
    JobHandle submitJob(const ProofRequest &req,
                        const SubmitOptions &sub = SubmitOptions{});

    /**
     * Cancel one job. Still queued (including between its setup and online
     * phases, or waiting out a retry backoff): it leaves the queue and its
     * future resolves ProofStatus::Cancelled immediately. Executing: the
     * request is delivered through the job's cancel token and the prover
     * aborts at its next chunk/round boundary — cooperative, so a job
     * right before completion may still resolve Ok. Returns true when the
     * job was found (queued or running), false when the id is unknown or
     * the job already resolved.
     */
    bool cancel(std::uint64_t jobId);

    /** Submit a batch and wait for all of it; results in request order. */
    std::vector<ProofResult> proveAll(const std::vector<ProofRequest> &reqs);

    /** Consistent snapshot of counters, gauges, and latency histograms. */
    ServiceMetrics metrics() const;

  private:
    enum class Phase { Setup, Online };

    struct Job {
        ProofRequest req;
        SubmitOptions sub;
        std::promise<ProofResult> done;
        Phase phase = Phase::Setup;
        std::uint64_t id = 0;  ///< cancel() address; assigned at submit.
        std::uint64_t seq = 0; ///< Admission order, the final tiebreak.
        std::chrono::steady_clock::time_point accepted;
        std::chrono::steady_clock::time_point enqueued; ///< Current phase.
        std::optional<hyperplonk::SetupState> setup;
        ProofResult res; ///< Accumulates stats/shardLanes across phases.
        /** Shared cancellation state; the executing lane publishes a copy
         *  on its slot so cancel() can reach a running job. */
        rt::CancelSource cancel;
        /** 1-based; compared against maxAttempts. Every attempt after
         *  the first runs with forced streaming. */
        unsigned attempt = 1;
        bool counted = false;  ///< Holds one admission-capacity unit.
        /** Retry backoff: ineligible for pickup before this instant. */
        std::chrono::steady_clock::time_point notBefore =
            std::chrono::steady_clock::time_point::min();
        std::chrono::milliseconds nextBackoff{0};
    };

    /** Per-lane scheduler state (guarded by qMu). */
    struct LaneSlot {
        bool idle = false;
        ShardGroup *joinGroup = nullptr;  ///< Reservation as a lender.
        std::uint64_t runningId = 0;      ///< Executing job (0 = none).
        /** Copy sharing the executing job's cancel state: cancel() flips
         *  it without touching the Job, whose lifetime belongs to the
         *  lane. Reset to a fresh (unshared) source between jobs. */
        rt::CancelSource runningCancel;
    };

    void laneLoop(unsigned lane);
    /** Run one phase of job outside qMu under cfg (the lane's pool and its
     *  budget plus any lent threads); returns the job back for re-enqueue
     *  when it finished setup or scheduled a retry, null when it
     *  resolved. */
    std::unique_ptr<Job> runPhase(std::unique_ptr<Job> job, rt::Config cfg,
                                  unsigned groupWidth);
    /** Best ELIGIBLE entry (retry backoffs skipped unless stopping); null
     *  when every entry is backing off — then nextEligible holds the
     *  earliest instant one becomes runnable. */
    std::unique_ptr<Job>
    takeBestLocked(std::chrono::steady_clock::time_point now,
                   std::chrono::steady_clock::time_point &nextEligible);
    /** Rewrite job in place for its next attempt (phase reset, backoff
     *  advanced, degradation applied); caller re-enqueues. */
    void prepareRetry(Job &job);
    /** New work arrived: send every lender home (qMu held — idle lanes
     *  are only borrowed while actually idle). */
    void recallLendersLocked();
    void finish(std::unique_ptr<Job> job, ProofStatus status,
                std::string error);

    const ProverContext &ctx;
    ServiceOptions opts;
    unsigned subBudget = 1;
    std::vector<unsigned> budgets;
    std::vector<std::thread> laneThreads;

    mutable std::mutex qMu;
    std::condition_variable qCv;    ///< Lanes: work / reservation / stop.
    std::condition_variable admitCv;///< Blocked submitters: space / stop.
    std::deque<std::unique_ptr<Job>> queue;
    std::vector<LaneSlot> slots;
    std::vector<ShardGroup *> activeGroups; ///< Groups with live lenders.
    std::size_t setupQueued = 0; ///< Queue entries counting against capacity.
    unsigned idleLanes = 0;
    std::uint64_t nextSeq = 0;
    bool stopping = false;
    std::atomic<std::uint64_t> nextJobId{1}; ///< 0 stays "no job".

    /** Counter/histogram state behind metrics(). Lock order: mMu is a leaf
     *  — it may be taken while holding qMu, never the other way around. */
    struct MetricsState {
        std::uint64_t submitted = 0, accepted = 0;
        std::uint64_t rejectedQueueFull = 0, rejectedDeadline = 0,
                      rejectedStopping = 0;
        std::uint64_t completed = 0, failed = 0, expiredDeadline = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t retries = 0, degradedRetries = 0;
        std::uint64_t shardedPhases = 0, shardHelperLanes = 0,
                      shardRecalls = 0;
        std::size_t inFlight = 0;
        LatencyHistogram queueWaitMs, setupMs, onlineMs, totalMs;
    };
    mutable std::mutex mMu;
    MetricsState m;
    std::chrono::steady_clock::time_point startTime;
};

} // namespace zkphire::engine

#endif // ZKPHIRE_ENGINE_SERVICE_HPP
