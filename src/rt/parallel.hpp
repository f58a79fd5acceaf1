/**
 * @file
 * Data-parallel primitives over the chunked ThreadPool.
 *
 * parallelFor / parallelReduce are the only interfaces the kernels use; both
 * guarantee results bit-identical to a serial loop. parallelReduce combines
 * one accumulator per chunk in ascending chunk order, so even non-commutative
 * combines are deterministic (field addition is exact, so for Fr sums any
 * order would match — the ordering guarantee keeps the contract simple).
 *
 * ScopedThreads overrides the effective parallelism on the current thread for
 * the duration of a scope; ScopedConfig additionally overrides the target
 * pool and the streaming policy from an rt::Config. Prover entry points
 * apply their Config parameter with ScopedConfig, and the equivalence tests
 * use ScopedThreads to pin 1/2/N-thread runs.
 *
 * Every chunk both primitives run passes the `rt.worker` failpoint first,
 * on whichever thread runs it: a pool worker, a thread serving the pool, or
 * the caller.
 */
#ifndef ZKPHIRE_RT_PARALLEL_HPP
#define ZKPHIRE_RT_PARALLEL_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "rt/config.hpp"
#include "rt/failpoint.hpp"
#include "rt/thread_pool.hpp"

namespace zkphire::rt {

namespace detail {
inline thread_local unsigned t_threadOverride = 0;
inline thread_local ThreadPool *t_poolOverride = nullptr;
inline thread_local std::size_t t_streamThresholdOverride = 0;
inline thread_local std::size_t t_streamChunkOverride = 0;
} // namespace detail

/** Pool that parallel regions started by the current thread submit to. */
inline ThreadPool &
currentPool()
{
    if (detail::t_poolOverride != nullptr)
        return *detail::t_poolOverride;
    return ThreadPool::global();
}

/** Effective parallelism for regions started by the current thread. */
inline unsigned
currentThreads()
{
    if (detail::t_threadOverride != 0)
        return detail::t_threadOverride;
    return currentPool().numThreads();
}

/** Ambient stream-threshold override (0 = unset; poly::currentStorePolicy
 *  falls back to the ZKPHIRE_STREAM_THRESHOLD / _CHUNK defaults). */
inline std::size_t
currentStreamThreshold()
{
    return detail::t_streamThresholdOverride;
}

/** Ambient stream-chunk override (0 = unset, same fallback rule). */
inline std::size_t
currentStreamChunk()
{
    return detail::t_streamChunkOverride;
}

/**
 * RAII override of currentThreads() on this thread. 0 means "inherit": the
 * enclosing override (if any) stays in effect, so a kernel's default
 * threads == 0 parameter cannot cancel a caller's explicit pin.
 */
class ScopedThreads
{
  public:
    explicit ScopedThreads(unsigned threads)
        : saved(detail::t_threadOverride)
    {
        if (threads != 0)
            detail::t_threadOverride = threads;
    }
    ~ScopedThreads() { detail::t_threadOverride = saved; }
    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    unsigned saved;
};

/**
 * RAII application of a full rt::Config on this thread: thread budget,
 * target pool and streaming policy. Zero/null fields inherit the enclosing
 * setting (same "cannot cancel a caller's pin" rule as ScopedThreads).
 */
class ScopedConfig
{
  public:
    explicit ScopedConfig(const Config &cfg)
        : threadScope(cfg.threads),
          savedPool(detail::t_poolOverride),
          savedStreamThreshold(detail::t_streamThresholdOverride),
          savedStreamChunk(detail::t_streamChunkOverride)
    {
        if (cfg.pool != nullptr)
            detail::t_poolOverride = cfg.pool;
        if (cfg.streamThreshold != 0)
            detail::t_streamThresholdOverride = cfg.streamThreshold;
        if (cfg.streamChunk != 0)
            detail::t_streamChunkOverride = cfg.streamChunk;
    }
    ~ScopedConfig()
    {
        detail::t_poolOverride = savedPool;
        detail::t_streamThresholdOverride = savedStreamThreshold;
        detail::t_streamChunkOverride = savedStreamChunk;
    }
    ScopedConfig(const ScopedConfig &) = delete;
    ScopedConfig &operator=(const ScopedConfig &) = delete;

  private:
    ScopedThreads threadScope;
    ThreadPool *savedPool;
    std::size_t savedStreamThreshold;
    std::size_t savedStreamChunk;
};

namespace detail {

/** Default grain: ~4 chunks per thread, at least minGrain indices each. */
inline std::size_t
autoGrain(std::size_t n, unsigned threads, std::size_t minGrain)
{
    std::size_t target = std::size_t(threads) * 4;
    std::size_t grain = (n + target - 1) / target;
    return grain < minGrain ? minGrain : grain;
}

} // namespace detail

/**
 * Grain the primitives would pick for an n-element range at the current
 * thread count. Exposed for kernels that need the same chunk decomposition
 * across two passes (e.g. batch inversion's forward/backward sweeps).
 */
inline std::size_t
suggestedGrain(std::size_t n, std::size_t minGrain = 1)
{
    return detail::autoGrain(n, currentThreads(), minGrain);
}

/**
 * Run body(chunkBegin, chunkEnd) over [begin, end).
 *
 * @param grain Chunk size; 0 picks one yielding ~4 chunks per thread.
 */
template <class Body>
void
parallelForChunks(std::size_t begin, std::size_t end, Body &&body,
                  std::size_t grain = 0, std::size_t minGrain = 1)
{
    if (end <= begin)
        return;
    const unsigned threads = currentThreads();
    if (grain == 0)
        grain = detail::autoGrain(end - begin, threads, minGrain);
    currentPool().forChunks(
        begin, end, grain,
        [&](std::size_t b, std::size_t e, std::size_t) {
            failpoint("rt.worker");
            body(b, e);
        },
        threads);
}

/** Run body(i) for every i in [begin, end). */
template <class Body>
void
parallelFor(std::size_t begin, std::size_t end, Body &&body,
            std::size_t grain = 0, std::size_t minGrain = 1)
{
    parallelForChunks(
        begin, end,
        [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                body(i);
        },
        grain, minGrain);
}

/**
 * Map-reduce over [begin, end): mapChunk(chunkBegin, chunkEnd) -> T per
 * chunk, folded left-to-right with combine(acc, chunkValue) starting from
 * identity. Chunk accumulators are combined in ascending chunk order on the
 * calling thread, so the result is deterministic for any combine.
 */
template <class T, class MapChunk, class Combine>
T
parallelReduce(std::size_t begin, std::size_t end, T identity,
               MapChunk &&mapChunk, Combine &&combine, std::size_t grain = 0,
               std::size_t minGrain = 1)
{
    if (end <= begin)
        return identity;
    const unsigned threads = currentThreads();
    const std::size_t n = end - begin;
    if (grain == 0)
        grain = detail::autoGrain(n, threads, minGrain);
    const std::size_t numChunks = (n + grain - 1) / grain;

    std::vector<T> partial(numChunks, identity);
    currentPool().forChunks(
        begin, end, grain,
        [&](std::size_t b, std::size_t e, std::size_t c) {
            failpoint("rt.worker");
            partial[c] = mapChunk(b, e);
        },
        threads);

    T acc = std::move(identity);
    for (std::size_t c = 0; c < numChunks; ++c)
        acc = combine(std::move(acc), std::move(partial[c]));
    return acc;
}

} // namespace zkphire::rt

#endif // ZKPHIRE_RT_PARALLEL_HPP
