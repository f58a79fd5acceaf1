#include "rt/thread_pool.hpp"

#include <cstdlib>

#include "rt/config.hpp"
#include "rt/failpoint.hpp"

namespace zkphire::rt {

Config
Config::defaults()
{
    Config cfg;
    cfg.threads = ThreadPool::defaultThreads();
    return cfg;
}

namespace {
thread_local bool t_insideWorker = false;
} // namespace

bool
ThreadPool::insideWorker()
{
    return t_insideWorker;
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("ZKPHIRE_THREADS")) {
        char *endp = nullptr;
        long v = std::strtol(env, &endp, 10);
        if (endp != env && v > 0)
            return v > 256 ? 256u : unsigned(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(unsigned threads)
    : nThreads(threads == 0 ? defaultThreads() : threads)
{
    workers.reserve(nThreads - 1);
    for (unsigned i = 0; i + 1 < nThreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cvJob.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::drainChunks(Job &j)
{
    const std::size_t n = j.numChunks;
    for (;;) {
        std::size_t c = j.nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= n)
            break;
        bool failed;
        {
            std::lock_guard<std::mutex> lk(j.errorMu);
            failed = j.error != nullptr;
        }
        if (!failed) { // after a failure, drain remaining chunks unexecuted
            try {
                failpoint("rt.worker");
                (*j.body)(j.begin + c * j.grain, j.begin + (c + 1) * j.grain,
                          c);
            } catch (...) {
                std::lock_guard<std::mutex> lk(j.errorMu);
                if (!j.error)
                    j.error = std::current_exception();
            }
        }
        j.doneChunks.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerLoop()
{
    t_insideWorker = true;
    std::uint64_t seenGeneration = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        cvJob.wait(lk, [&] {
            return stopping || (job != nullptr && generation != seenGeneration);
        });
        if (stopping)
            return;
        seenGeneration = generation;
        Job *j = job;
        // The caller occupies one of the maxWorkers slots.
        if (j->activeWorkers + 1 >= j->maxWorkers)
            continue;
        ++j->activeWorkers;
        lk.unlock();
        drainChunks(*j);
        lk.lock();
        --j->activeWorkers;
        cvDone.notify_all();
    }
}

void
ThreadPool::forChunks(std::size_t begin, std::size_t end, std::size_t grain,
                      const ChunkFn &body, unsigned maxWorkers)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t n = end - begin;
    const std::size_t numChunks = (n + grain - 1) / grain;

    // Serial paths: pool of one, nested region inside a worker, or a single
    // chunk. The chunk decomposition is identical either way, so serial and
    // parallel execution produce bit-identical results.
    if (nThreads <= 1 || t_insideWorker || numChunks == 1 || workers.empty() ||
        maxWorkers == 1) {
        for (std::size_t c = 0; c < numChunks; ++c) {
            std::size_t b = begin + c * grain;
            std::size_t e = b + grain < end ? b + grain : end;
            failpoint("rt.worker"); // same site as the pooled path, so a
                                    // schedule covers both execution modes
            body(b, e, c);
        }
        return;
    }

    std::lock_guard<std::mutex> region(regionMu);

    Job j;
    j.begin = begin;
    j.grain = grain;
    j.numChunks = numChunks;
    j.maxWorkers = maxWorkers == 0 ? nThreads : maxWorkers;

    // Clamp the final chunk's end to the true range end.
    ChunkFn clamped = [&](std::size_t b, std::size_t e, std::size_t c) {
        body(b, e < end ? e : end, c);
    };
    j.body = &clamped;

    {
        std::lock_guard<std::mutex> lk(mu);
        job = &j;
        ++generation;
    }
    cvJob.notify_all();

    // The caller participates too. Flag it as a worker for the duration so
    // nested parallel regions inside its chunks run inline instead of
    // re-entering forChunks (which would self-deadlock on regionMu).
    t_insideWorker = true;
    drainChunks(j);
    t_insideWorker = false;

    {
        // j lives on this stack frame: wait until every chunk completed AND
        // no worker still holds a reference before letting it go out of scope.
        std::unique_lock<std::mutex> lk(mu);
        cvDone.wait(lk, [&] {
            return j.doneChunks.load(std::memory_order_acquire) == numChunks &&
                   j.activeWorkers == 0;
        });
        job = nullptr;
    }
    if (j.error)
        std::rethrow_exception(j.error);
}

} // namespace zkphire::rt
