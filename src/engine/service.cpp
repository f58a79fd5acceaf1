#include "engine/service.hpp"

#include <algorithm>
#include <cerrno>
#include <new>
#include <system_error>
#include <utility>

#include "rt/parallel.hpp"

namespace zkphire::engine {

namespace {

using Clock = std::chrono::steady_clock;

/** Retry backoff growth per attempt and its ceiling. */
constexpr double kBackoffFactor = 2.0;
constexpr std::chrono::milliseconds kMaxBackoff{1000};

double
toMs(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

ProofResult
errorResult(ProofStatus status, std::string error)
{
    ProofResult res;
    res.ok = false;
    res.status = status;
    res.error = std::move(error);
    return res;
}

/** The retryable class: environmental resource exhaustion. Everything else
 *  — logic errors, injected rt::InjectedFault, cancellation — either fails
 *  deterministically or is handled by its own path. */
bool
isResourceError(const std::exception &e)
{
    if (dynamic_cast<const std::bad_alloc *>(&e) != nullptr)
        return true;
    if (const auto *se = dynamic_cast<const std::system_error *>(&e)) {
        const int v = se->code().value();
        return v == ENOMEM || v == ENOSPC || v == EMFILE;
    }
    return false;
}

} // namespace

ProofService::ProofService(const ProverContext &context,
                           const ServiceOptions &options)
    : ctx(context), opts(options), startTime(Clock::now())
{
    if (opts.lanes == 0)
        opts.lanes = 1;
    const rt::Config cfg = ctx.config();
    const unsigned budget =
        cfg.threads != 0 ? cfg.threads : rt::ThreadPool::defaultThreads();
    // Even split, remainder to the first budget % lanes lanes, so the
    // aggregate equals the budget whenever lanes <= budget. With more lanes
    // than budgeted threads every lane runs serial (deliberate
    // oversubscription: queued jobs still make progress).
    subBudget = budget / opts.lanes;
    if (subBudget == 0)
        subBudget = 1;
    const unsigned remainder = budget > opts.lanes ? budget % opts.lanes : 0;
    budgets.resize(opts.lanes);
    for (unsigned i = 0; i < opts.lanes; ++i)
        budgets[i] = subBudget + (i < remainder ? 1 : 0);
    slots.resize(opts.lanes); // before any lane thread can touch its slot
    laneThreads.reserve(opts.lanes);
    for (unsigned i = 0; i < opts.lanes; ++i)
        laneThreads.emplace_back([this, i] { laneLoop(i); });
}

ProofService::ProofService(const ProverContext &context, unsigned lanes)
    : ProofService(context, ServiceOptions{lanes})
{
}

ProofService::~ProofService()
{
    {
        std::lock_guard<std::mutex> lk(qMu);
        stopping = true;
    }
    qCv.notify_all();    // lanes: drain, then exit
    admitCv.notify_all();// blocked submitters: resolve ServiceStopping
    for (std::thread &t : laneThreads)
        t.join();
    // The lanes drain the queue before exiting (including online-phase
    // re-enqueues, which the re-enqueuing lane can always still pick up),
    // so nothing should be left. Belt-and-braces: a promise must never be
    // destroyed unfulfilled, so resolve anything that somehow remains.
    for (std::unique_ptr<Job> &job : queue) {
        {
            std::lock_guard<std::mutex> mlk(mMu);
            ++m.rejectedStopping;
        }
        job->done.set_value(
            errorResult(ProofStatus::ServiceStopping, "service stopping"));
    }
    queue.clear();
}

std::future<ProofResult>
ProofService::submit(const ProofRequest &req)
{
    return submit(req, SubmitOptions{});
}

std::future<ProofResult>
ProofService::submit(const ProofRequest &req, const SubmitOptions &sub)
{
    return submitJob(req, sub).future;
}

JobHandle
ProofService::submitJob(const ProofRequest &req, const SubmitOptions &sub)
{
    auto job = std::make_unique<Job>();
    job->req = req;
    job->sub = sub;
    job->id = nextJobId.fetch_add(1, std::memory_order_relaxed);
    job->nextBackoff = sub.retry.backoff;
    JobHandle handle;
    handle.id = job->id;
    handle.future = job->done.get_future();

    {
        std::lock_guard<std::mutex> mlk(mMu);
        ++m.submitted;
    }
    if (sub.deadline <= Clock::now()) {
        std::lock_guard<std::mutex> mlk(mMu);
        ++m.rejectedDeadline;
        job->done.set_value(errorResult(ProofStatus::DeadlineExpired,
                                        "deadline already expired"));
        return handle;
    }

    {
        std::unique_lock<std::mutex> lk(qMu);
        // Closes the submit/shutdown race: once stopping is set under qMu,
        // nothing may enter the queue — the job resolves here instead of
        // riding a queue the lanes may already have drained past.
        const auto rejectStopping = [&] {
            std::lock_guard<std::mutex> mlk(mMu);
            ++m.rejectedStopping;
            job->done.set_value(errorResult(ProofStatus::ServiceStopping,
                                            "service stopping"));
        };
        if (stopping) {
            rejectStopping();
            return handle;
        }
        if (opts.queueCapacity != 0 && setupQueued >= opts.queueCapacity) {
            if (opts.admission == AdmissionPolicy::Reject) {
                std::lock_guard<std::mutex> mlk(mMu);
                ++m.rejectedQueueFull;
                job->done.set_value(errorResult(
                    ProofStatus::QueueFull, "admission queue at capacity"));
                return handle;
            }
            // Block: park until space frees, the service stops, or the
            // job's own deadline passes while waiting at the door.
            const auto admissible = [&] {
                return stopping || setupQueued < opts.queueCapacity;
            };
            if (sub.deadline == Clock::time_point::max()) {
                admitCv.wait(lk, admissible);
            } else if (!admitCv.wait_until(lk, sub.deadline, admissible)) {
                std::lock_guard<std::mutex> mlk(mMu);
                ++m.rejectedDeadline;
                job->done.set_value(
                    errorResult(ProofStatus::DeadlineExpired,
                                "deadline expired while blocked at admission"));
                return handle;
            }
            if (stopping) {
                rejectStopping();
                return handle;
            }
        }
        job->seq = nextSeq++;
        job->accepted = job->enqueued = Clock::now();
        job->counted = true;
        ++setupQueued;
        queue.push_back(std::move(job));
        recallLendersLocked();
    }
    qCv.notify_one();
    {
        std::lock_guard<std::mutex> mlk(mMu);
        ++m.accepted;
    }
    return handle;
}

bool
ProofService::cancel(std::uint64_t jobId)
{
    std::unique_ptr<Job> victim;
    {
        std::lock_guard<std::mutex> lk(qMu);
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if ((*it)->id != jobId)
                continue;
            victim = std::move(*it);
            queue.erase(it);
            if (victim->counted) {
                victim->counted = false;
                --setupQueued;
                admitCv.notify_one();
            }
            break;
        }
        if (victim == nullptr) {
            // Not queued: executing? Flip the shared cancel state through
            // the slot's copy — the lane observes it at the prover's next
            // chunk/round boundary. Delivery, not a guarantee: a job at
            // its last boundary may still resolve Ok.
            for (LaneSlot &slot : slots) {
                if (slot.runningId == jobId) {
                    slot.runningCancel.requestCancel();
                    return true;
                }
            }
            return false; // unknown id, or already resolved
        }
    }
    {
        std::lock_guard<std::mutex> mlk(mMu);
        ++m.inFlight; // finish() releases it
    }
    finish(std::move(victim), ProofStatus::Cancelled,
           "cancelled while queued");
    return true;
}

std::vector<ProofResult>
ProofService::proveAll(const std::vector<ProofRequest> &reqs)
{
    std::vector<std::future<ProofResult>> futures;
    futures.reserve(reqs.size());
    for (const ProofRequest &req : reqs)
        futures.push_back(submit(req));
    std::vector<ProofResult> results;
    results.reserve(futures.size());
    for (std::future<ProofResult> &f : futures)
        results.push_back(f.get());
    return results;
}

ServiceMetrics
ProofService::metrics() const
{
    ServiceMetrics out;
    {
        std::lock_guard<std::mutex> lk(qMu);
        out.queueDepth = queue.size();
    }
    {
        std::lock_guard<std::mutex> mlk(mMu);
        out.submitted = m.submitted;
        out.accepted = m.accepted;
        out.rejectedQueueFull = m.rejectedQueueFull;
        out.rejectedDeadline = m.rejectedDeadline;
        out.rejectedStopping = m.rejectedStopping;
        out.completed = m.completed;
        out.failed = m.failed;
        out.expiredDeadline = m.expiredDeadline;
        out.cancelled = m.cancelled;
        out.retries = m.retries;
        out.degradedRetries = m.degradedRetries;
        out.shardedPhases = m.shardedPhases;
        out.shardHelperLanes = m.shardHelperLanes;
        out.shardRecalls = m.shardRecalls;
        out.inFlight = m.inFlight;
        out.queueWaitMs = m.queueWaitMs;
        out.setupMs = m.setupMs;
        out.onlineMs = m.onlineMs;
        out.totalMs = m.totalMs;
    }
    out.uptimeMs = toMs(Clock::now() - startTime);
    out.proofsPerSec =
        out.uptimeMs > 0 ? double(out.completed) / (out.uptimeMs / 1000.0) : 0;
    return out;
}

/** Best runnable entry: priority desc, deadline asc (EDF), online phase
 *  before setup (finish started proofs first), then admission order.
 *  Entries inside a retry-backoff window are skipped (their earliest
 *  eligibility is reported through nextEligible) — except when stopping,
 *  where backoffs are ignored so the destructor's drain never stalls.
 *  Linear scan — service queues are tens of entries, not thousands. */
std::unique_ptr<ProofService::Job>
ProofService::takeBestLocked(Clock::time_point now,
                             Clock::time_point &nextEligible)
{
    auto best = queue.end();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (!stopping && (*it)->notBefore > now) {
            nextEligible = std::min(nextEligible, (*it)->notBefore);
            continue;
        }
        if (best == queue.end()) {
            best = it;
            continue;
        }
        const Job &a = **it, &b = **best;
        bool better;
        if (a.sub.priority != b.sub.priority)
            better = a.sub.priority > b.sub.priority;
        else if (a.sub.deadline != b.sub.deadline)
            better = a.sub.deadline < b.sub.deadline;
        else if (a.phase != b.phase)
            better = a.phase == Phase::Online;
        else
            better = a.seq < b.seq;
        if (better)
            best = it;
    }
    if (best == queue.end())
        return nullptr;
    std::unique_ptr<Job> job = std::move(*best);
    queue.erase(best);
    if (job->counted) {
        // First pickup of an admitted job releases its capacity unit;
        // online-phase and retry re-enqueues never held one.
        job->counted = false;
        --setupQueued;
        admitCv.notify_one(); // one blocked submitter may now fit
    }
    return job;
}

void
ProofService::recallLendersLocked()
{
    if (activeGroups.empty())
        return;
    for (ShardGroup *group : activeGroups)
        group->recall();
    std::lock_guard<std::mutex> mlk(mMu);
    ++m.shardRecalls;
}

void
ProofService::finish(std::unique_ptr<Job> job, ProofStatus status,
                     std::string error)
{
    ProofResult res = std::move(job->res);
    res.status = status;
    res.ok = status == ProofStatus::Ok;
    res.error = std::move(error);
    {
        // inFlight was taken when the lane picked the job up; release it
        // BEFORE resolving the promise so a caller who snapshots metrics
        // the moment its future fires sees a consistent gauge.
        std::lock_guard<std::mutex> mlk(mMu);
        --m.inFlight;
        switch (status) {
        case ProofStatus::Ok:
            ++m.completed;
            m.totalMs.record(toMs(Clock::now() - job->accepted));
            break;
        case ProofStatus::DeadlineExpired:
            ++m.expiredDeadline;
            break;
        case ProofStatus::Cancelled:
            ++m.cancelled;
            break;
        case ProofStatus::ServiceStopping:
            ++m.rejectedStopping;
            break;
        default:
            ++m.failed;
            break;
        }
    }
    job->done.set_value(std::move(res));
}

/** Rewrite job for its next attempt. Every per-attempt field is rebuilt —
 *  phase back to Setup, parked setup state dropped, result accumulator
 *  cleared — so the retry replays the whole two-phase lifecycle from
 *  scratch and its transcript is byte-identical to a fresh submission. */
void
ProofService::prepareRetry(Job &job)
{
    ++job.attempt;
    job.phase = Phase::Setup;
    job.setup.reset();
    job.res = ProofResult{};
    job.notBefore = Clock::now() + job.nextBackoff;
    job.nextBackoff = std::min(
        kMaxBackoff, std::chrono::milliseconds(std::chrono::milliseconds::rep(
                         double(job.nextBackoff.count()) * kBackoffFactor)));
    {
        std::lock_guard<std::mutex> mlk(mMu);
        ++m.retries;
        ++m.degradedRetries;
    }
}

std::unique_ptr<ProofService::Job>
ProofService::runPhase(std::unique_ptr<Job> job, rt::Config cfg,
                       unsigned groupWidth)
{
    if (job->req.pk == nullptr || job->req.circuit == nullptr) {
        finish(std::move(job), ProofStatus::BadRequest,
               "ProofRequest missing proving key or circuit");
        return nullptr;
    }
    if (job->attempt > 1) {
        // Degraded retry: force every prover table onto the out-of-core
        // streaming backend so a resource-starved attempt runs in O(chunk)
        // RSS. Transcript-invariant — the proof bytes do not change.
        cfg.streamThreshold = 1;
    }
    hyperplonk::ProveOptions popts = ctx.proveOptions(&cfg);
    if (job->sub.deadline != Clock::time_point::max())
        job->cancel.setDeadline(job->sub.deadline);
    popts.cancel = job->cancel.token();
    job->res.shardLanes = std::max(job->res.shardLanes, groupWidth);
    const Clock::time_point t0 = Clock::now();
    try {
        if (job->phase == Phase::Setup) {
            job->setup.emplace(hyperplonk::proveSetup(
                *job->req.pk, *job->req.circuit, &job->res.stats, popts));
            {
                std::lock_guard<std::mutex> mlk(mMu);
                m.setupMs.record(toMs(Clock::now() - t0));
            }
            job->phase = Phase::Online;
            return job; // re-enqueue for the online phase
        }
        job->res.proof = hyperplonk::proveOnline(
            *job->req.pk, std::move(*job->setup), &job->res.stats, popts);
        job->setup.reset();
        {
            std::lock_guard<std::mutex> mlk(mMu);
            m.onlineMs.record(toMs(Clock::now() - t0));
        }
        if (job->req.stats != nullptr)
            *job->req.stats = job->res.stats;
        finish(std::move(job), ProofStatus::Ok, {});
    } catch (const rt::OperationCancelled &e) {
        finish(std::move(job),
               e.reason() == rt::CancelReason::Deadline
                   ? ProofStatus::DeadlineExpired
                   : ProofStatus::Cancelled,
               e.what());
    } catch (const std::exception &e) {
        // Resource-class failures retry (with degradation) while attempts
        // remain — unless the job was cancelled in the same window, which
        // would make a retry run work nobody wants.
        if (isResourceError(e) &&
            job->attempt < job->sub.retry.maxAttempts &&
            job->cancel.reason() == rt::CancelReason::None) {
            prepareRetry(*job);
            return job; // re-enqueue; eligible after its backoff
        }
        finish(std::move(job), ProofStatus::ProverError, e.what());
    } catch (...) {
        finish(std::move(job), ProofStatus::ProverError,
               "unknown prover error");
    }
    return nullptr;
}

void
ProofService::laneLoop(unsigned lane)
{
    // Each lane owns a private chunked pool sized to its sub-budget, so
    // in-flight jobs never serialize on one pool's region lock. A
    // sub-budget of 1 spawns no workers and the lane runs fully serial
    // unless other lanes lend it their threads.
    rt::ThreadPool lanePool(budgets[lane]);

    // qMu is held at the top of every iteration: a lane back from a phase
    // or from lending marks itself idle in the critical section that ended
    // that work, so the next dispatch sees every lane that is free.
    std::unique_lock<std::mutex> lk(qMu);
    for (;;) {
        slots[lane].idle = true;
        ++idleLanes;
        std::unique_ptr<Job> job;
        for (;;) {
            qCv.wait(lk, [&] {
                return slots[lane].joinGroup != nullptr || stopping ||
                       !queue.empty();
            });
            if (slots[lane].joinGroup != nullptr || queue.empty())
                break;
            Clock::time_point nextEligible = Clock::time_point::max();
            job = takeBestLocked(Clock::now(), nextEligible);
            if (job != nullptr)
                break;
            // Every queued entry is waiting out a retry backoff: sleep
            // until the earliest becomes eligible, a new (eligible) job
            // arrives, a reservation lands, or shutdown starts.
            qCv.wait_until(lk, nextEligible, [&] {
                if (slots[lane].joinGroup != nullptr || stopping)
                    return true;
                const Clock::time_point now = Clock::now();
                for (const std::unique_ptr<Job> &q : queue)
                    if (q->notBefore <= now)
                        return true;
                return false;
            });
        }
        if (ShardGroup *joined =
                std::exchange(slots[lane].joinGroup, nullptr)) {
            // A dispatching lane reserved this one as a lender (it already
            // cleared idle and took us out of idleLanes).
            lk.unlock();
            joined->lend(lanePool);
            lk.lock();
            joined->depart();
            continue;
        }
        slots[lane].idle = false;
        --idleLanes;
        if (job == nullptr)
            return; // stopping, and every queued job drained
        if (Clock::now() > job->sub.deadline) {
            lk.unlock();
            {
                std::lock_guard<std::mutex> mlk(mMu);
                m.queueWaitMs.record(toMs(Clock::now() - job->enqueued));
                ++m.inFlight; // finish() releases it
            }
            finish(std::move(job), ProofStatus::DeadlineExpired,
                   "deadline expired while queued");
            lk.lock();
            continue;
        }
        // Lending decision, made while still holding qMu so the idle set
        // is coherent: only when nothing else is runnable and lanes are
        // actually idle.
        ShardGroup group(lanePool);
        if (queue.empty() && idleLanes > 0) {
            for (unsigned i = 0; i < slots.size(); ++i) {
                if (i == lane || !slots[i].idle)
                    continue;
                slots[i].idle = false;
                --idleLanes;
                slots[i].joinGroup = &group;
                group.reserve(budgets[i]);
            }
            activeGroups.push_back(&group);
        }
        // Publish the executing job on the slot so cancel() can reach its
        // shared cancel state while the Job object is in this lane's hands.
        slots[lane].runningId = job->id;
        slots[lane].runningCancel = job->cancel;
        lk.unlock();

        const unsigned lenders = group.width() - 1;
        {
            std::lock_guard<std::mutex> mlk(mMu);
            if (lenders > 0) {
                ++m.shardedPhases;
                m.shardHelperLanes += lenders;
            }
            m.queueWaitMs.record(toMs(Clock::now() - job->enqueued));
            ++m.inFlight;
        }
        if (lenders > 0)
            qCv.notify_all(); // wake the reserved lanes into lend()
        rt::Config cfg = ctx.config();
        cfg.threads = budgets[lane] + group.lentThreads();
        cfg.pool = &lanePool;
        std::unique_ptr<Job> back =
            runPhase(std::move(job), cfg, group.width());
        if (back != nullptr) {
            // Setup done or a retry scheduled, not resolved: back to the
            // queue (finish() releases inFlight on the terminal paths).
            {
                std::lock_guard<std::mutex> mlk(mMu);
                --m.inFlight;
            }
            back->enqueued = Clock::now();
        }
        group.disband();

        // One critical section for slot teardown AND the re-enqueue, so
        // cancel() never observes the job in neither place: it is on the
        // slot until here, in the queue after.
        lk.lock();
        slots[lane].runningId = 0;
        slots[lane].runningCancel = rt::CancelSource{};
        if (lenders > 0)
            activeGroups.erase(std::find(activeGroups.begin(),
                                         activeGroups.end(), &group));
        if (back != nullptr) {
            queue.push_back(std::move(back));
            recallLendersLocked();
            qCv.notify_one();
        }
    }
}

} // namespace zkphire::engine
