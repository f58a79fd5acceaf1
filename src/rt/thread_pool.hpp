/**
 * @file
 * Chunked thread pool for the prover's data-parallel kernels.
 *
 * The paper's hot loops (SumCheck extension/product/accumulate, MLE Update,
 * Montgomery batch inversion, Pippenger windows) are all embarrassingly
 * parallel over index ranges, so the runtime deliberately avoids work
 * stealing: a parallel region splits its range into fixed-size chunks that
 * workers claim from a shared atomic cursor. The calling thread participates,
 * so a pool of N threads means N-1 background workers.
 *
 * Thread count resolution (ThreadPool::defaultThreads):
 *   1. ZKPHIRE_THREADS environment variable, when set to a positive integer;
 *   2. std::thread::hardware_concurrency() otherwise (a value of 0 or 1
 *      falls back to fully serial execution — no workers are spawned).
 *
 * Nested parallel regions run inline on the caller: a worker that reaches a
 * parallelFor inside a chunk body executes it serially, which keeps nesting
 * deadlock-free without a work-stealing scheduler.
 */
#ifndef ZKPHIRE_RT_THREAD_POOL_HPP
#define ZKPHIRE_RT_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace zkphire::rt {

class ThreadPool
{
  public:
    /** Chunk body: [chunkBegin, chunkEnd) plus the chunk's ordinal index. */
    using ChunkFn =
        std::function<void(std::size_t, std::size_t, std::size_t)>;

    /**
     * @param threads Total parallelism including the caller; N spawns N-1
     *                workers. 0 means defaultThreads().
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + caller). Always >= 1. */
    unsigned numThreads() const { return nThreads; }

    /**
     * Execute body over [begin, end) split into ceil(n/grain) chunks.
     * Blocks until every chunk completed; rethrows the first exception a
     * chunk threw. Called from inside a pool worker (nested region) or with
     * an empty range, it degrades to an inline serial loop.
     *
     * @param maxWorkers Cap on participating threads (0 = numThreads()).
     */
    void forChunks(std::size_t begin, std::size_t end, std::size_t grain,
                   const ChunkFn &body, unsigned maxWorkers = 0);

    /** Process-wide pool sized by defaultThreads(), created on first use. */
    static ThreadPool &global();

    /** Resolve ZKPHIRE_THREADS / hardware_concurrency (see file docs). */
    static unsigned defaultThreads();

    /** True when the current thread is executing a pool chunk. */
    static bool insideWorker();

  private:
    struct Job {
        std::size_t begin = 0;
        std::size_t grain = 1;
        std::size_t numChunks = 0;
        const ChunkFn *body = nullptr;
        unsigned maxWorkers = 0;
        std::atomic<std::size_t> nextChunk{0};
        std::atomic<std::size_t> doneChunks{0};
        std::atomic<unsigned> activeWorkers{0};
        std::exception_ptr error;
        std::mutex errorMu;
    };

    void workerLoop();
    void drainChunks(Job &job);

    unsigned nThreads;
    std::vector<std::thread> workers;
    std::mutex mu;                  // guards job/generation/stopping
    std::mutex regionMu;            // serializes concurrent forChunks callers
    std::condition_variable cvJob;  // workers wait for a new job
    std::condition_variable cvDone; // caller waits for completion
    Job *job = nullptr;
    std::uint64_t generation = 0;
    bool stopping = false;
};

} // namespace zkphire::rt

#endif // ZKPHIRE_RT_THREAD_POOL_HPP
