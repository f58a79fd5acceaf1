/**
 * @file
 * Unit tests for the zkphire::rt chunked thread pool and the parallelFor /
 * parallelReduce primitives: range edge cases, exception propagation, nested
 * regions, thread-count resolution (ZKPHIRE_THREADS), and deterministic
 * chunk-ordered reduction.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rt/parallel.hpp"
#include "rt/thread_pool.hpp"

using namespace zkphire;

TEST(ThreadPool, DefaultThreadsRespectsEnv)
{
    // Restore the caller's setting afterwards so the rest of this binary
    // (and the CI leg that runs ctest under ZKPHIRE_THREADS=4) still sizes
    // the lazily-created global pool from it.
    const char *prev = std::getenv("ZKPHIRE_THREADS");
    std::string saved = prev ? prev : "";

    ASSERT_EQ(setenv("ZKPHIRE_THREADS", "3", 1), 0);
    EXPECT_EQ(rt::ThreadPool::defaultThreads(), 3u);
    ASSERT_EQ(setenv("ZKPHIRE_THREADS", "1", 1), 0);
    EXPECT_EQ(rt::ThreadPool::defaultThreads(), 1u);
    // Values above the cap clamp to 256.
    ASSERT_EQ(setenv("ZKPHIRE_THREADS", "100000", 1), 0);
    EXPECT_EQ(rt::ThreadPool::defaultThreads(), 256u);

    // Garbage / non-positive values fall back to hardware concurrency
    // (which itself falls back to 1 when unknown — i.e. serial).
    unsigned hw = std::thread::hardware_concurrency();
    unsigned fallback = hw == 0 ? 1u : hw;
    ASSERT_EQ(setenv("ZKPHIRE_THREADS", "banana", 1), 0);
    EXPECT_EQ(rt::ThreadPool::defaultThreads(), fallback);
    ASSERT_EQ(setenv("ZKPHIRE_THREADS", "-4", 1), 0);
    EXPECT_EQ(rt::ThreadPool::defaultThreads(), fallback);
    ASSERT_EQ(unsetenv("ZKPHIRE_THREADS"), 0);
    EXPECT_EQ(rt::ThreadPool::defaultThreads(), fallback);

    if (prev) {
        ASSERT_EQ(setenv("ZKPHIRE_THREADS", saved.c_str(), 1), 0);
    }
}

TEST(ThreadPool, SingleThreadPoolRunsInlineWithNoWorkers)
{
    // The ZKPHIRE_THREADS=1 path: a pool of one spawns no workers and
    // executes every chunk on the calling thread.
    rt::ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1u);
    std::vector<int> hits(100, 0);
    std::thread::id caller = std::this_thread::get_id();
    bool all_on_caller = true;
    pool.forChunks(0, 100, 7, [&](std::size_t b, std::size_t e, std::size_t) {
        if (std::this_thread::get_id() != caller)
            all_on_caller = false;
        for (std::size_t i = b; i < e; ++i)
            ++hits[i];
    });
    EXPECT_TRUE(all_on_caller);
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRangeDoesNothing)
{
    std::atomic<int> calls{0};
    rt::parallelFor(0, 0, [&](std::size_t) { ++calls; });
    rt::parallelFor(5, 5, [&](std::size_t) { ++calls; });
    rt::parallelFor(7, 3, [&](std::size_t) { ++calls; }); // end < begin
    EXPECT_EQ(calls.load(), 0);

    int acc = rt::parallelReduce<int>(
        4, 4, 42, [](std::size_t, std::size_t) { return 0; },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(acc, 42); // identity untouched
}

TEST(ThreadPool, SingleElementRange)
{
    std::atomic<int> calls{0};
    std::size_t seen = ~std::size_t(0);
    rt::parallelFor(9, 10, [&](std::size_t i) {
        ++calls;
        seen = i;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen, 9u);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce)
{
    const std::size_t n = 100000;
    std::vector<std::atomic<int>> hits(n);
    rt::ThreadPool pool(4);
    pool.forChunks(0, n, 1024, [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReduceMatchesSerialSum)
{
    const std::size_t n = 50000;
    long expect = long(n) * long(n - 1) / 2;
    long got = rt::parallelReduce<long>(
        0, n, 0L,
        [](std::size_t b, std::size_t e) {
            long s = 0;
            for (std::size_t i = b; i < e; ++i)
                s += long(i);
            return s;
        },
        [](long a, long b) { return a + b; });
    EXPECT_EQ(got, expect);
}

TEST(ThreadPool, ReduceCombinesInChunkOrder)
{
    // A non-commutative combine (string concatenation) exposes the order in
    // which chunk accumulators are folded: it must be ascending chunk order
    // regardless of which worker finished first.
    const std::size_t n = 64;
    std::string expect;
    for (std::size_t i = 0; i < n; ++i)
        expect += std::to_string(i) + ",";
    for (int rep = 0; rep < 20; ++rep) {
        std::string got = rt::parallelReduce<std::string>(
            0, n, std::string(),
            [](std::size_t b, std::size_t e) {
                std::string s;
                for (std::size_t i = b; i < e; ++i)
                    s += std::to_string(i) + ",";
                return s;
            },
            [](std::string a, std::string b) { return a + b; },
            /*grain=*/3);
        EXPECT_EQ(got, expect);
    }
}

TEST(ThreadPool, ExceptionsPropagateToCaller)
{
    rt::ThreadPool pool(4);
    EXPECT_THROW(
        pool.forChunks(0, 1000, 10,
                       [&](std::size_t b, std::size_t, std::size_t) {
                           if (b >= 500)
                               throw std::runtime_error("chunk failed");
                       }),
        std::runtime_error);

    // The pool survives a throwing job and runs subsequent jobs normally.
    std::atomic<std::size_t> visited{0};
    pool.forChunks(0, 1000, 10, [&](std::size_t b, std::size_t e, std::size_t) {
        visited.fetch_add(e - b, std::memory_order_relaxed);
    });
    EXPECT_EQ(visited.load(), 1000u);
}

TEST(ThreadPool, ExceptionsPropagateThroughParallelFor)
{
    EXPECT_THROW(rt::parallelFor(0, 4096,
                                 [&](std::size_t i) {
                                     if (i == 1234)
                                         throw std::logic_error("boom");
                                 }),
                 std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    const std::size_t outer = 16, inner = 1000;
    std::vector<std::atomic<int>> hits(outer * inner);
    rt::parallelFor(
        0, outer,
        [&](std::size_t o) {
            // Nested region: must execute inline without deadlocking.
            rt::parallelFor(0, inner, [&](std::size_t i) {
                hits[o * inner + i].fetch_add(1, std::memory_order_relaxed);
            });
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ConcurrentExternalCallersSerializeSafely)
{
    // Two non-pool threads using the global pool at once: regions must
    // serialize internally and both complete correctly.
    auto work = [](std::size_t n) {
        return rt::parallelReduce<std::size_t>(
            0, n, std::size_t(0),
            [](std::size_t b, std::size_t e) {
                std::size_t s = 0;
                for (std::size_t i = b; i < e; ++i)
                    s += i;
                return s;
            },
            [](std::size_t a, std::size_t b) { return a + b; });
    };
    std::size_t r1 = 0, r2 = 0;
    std::thread t1([&] { r1 = work(30000); });
    std::thread t2([&] { r2 = work(40000); });
    t1.join();
    t2.join();
    EXPECT_EQ(r1, std::size_t(30000) * 29999 / 2);
    EXPECT_EQ(r2, std::size_t(40000) * 39999 / 2);
}

TEST(ThreadPool, ScopedThreadsOverridesAndRestores)
{
    unsigned base = rt::currentThreads();
    {
        rt::ScopedThreads s(1);
        EXPECT_EQ(rt::currentThreads(), 1u);
        {
            rt::ScopedThreads s2(5);
            EXPECT_EQ(rt::currentThreads(), 5u);
        }
        EXPECT_EQ(rt::currentThreads(), 1u);
    }
    EXPECT_EQ(rt::currentThreads(), base);
    // 0 = no override: falls through to the pool size.
    rt::ScopedThreads s0(0);
    EXPECT_EQ(rt::currentThreads(), rt::ThreadPool::global().numThreads());
}

TEST(ThreadPool, ScopedConfigAppliesAllFieldsAndRestores)
{
    unsigned base = rt::currentThreads();
    rt::ThreadPool private_pool(2);
    {
        rt::ScopedConfig cfg(rt::Config{.threads = 3, .pool = &private_pool});
        EXPECT_EQ(rt::currentThreads(), 3u);
        EXPECT_EQ(&rt::currentPool(), &private_pool);
        {
            // Default nested config inherits everything.
            rt::ScopedConfig inner((rt::Config{}));
            EXPECT_EQ(rt::currentThreads(), 3u);
            EXPECT_EQ(&rt::currentPool(), &private_pool);
        }
    }
    EXPECT_EQ(rt::currentThreads(), base);
    EXPECT_EQ(&rt::currentPool(), &rt::ThreadPool::global());
}

TEST(ThreadPool, ScopedConfigPoolOverrideRunsRegions)
{
    // parallelFor through a private pool computes the same result.
    rt::ThreadPool private_pool(3);
    rt::ScopedConfig cfg(rt::Config{.pool = &private_pool});
    std::atomic<std::size_t> sum{0};
    rt::parallelFor(0, 10000, [&](std::size_t i) { sum += i; }, 64);
    EXPECT_EQ(sum.load(), std::size_t(10000) * 9999 / 2);
}

TEST(ThreadPool, ConfigDefaultsResolveThreads)
{
    rt::Config cfg = rt::Config::defaults();
    EXPECT_EQ(cfg.threads, rt::ThreadPool::defaultThreads());
    EXPECT_EQ(cfg.pool, nullptr);
}

TEST(ThreadPool, GrainClampsFinalChunk)
{
    // 10 indices, grain 4 -> chunks [0,4) [4,8) [8,10).
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::mutex mu;
    rt::ThreadPool pool(2);
    pool.forChunks(0, 10, 4, [&](std::size_t b, std::size_t e, std::size_t c) {
        std::lock_guard<std::mutex> lk(mu);
        chunks.emplace_back(c, e - b);
        EXPECT_EQ(b, c * 4);
    });
    ASSERT_EQ(chunks.size(), 3u);
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks[0].second, 4u);
    EXPECT_EQ(chunks[1].second, 4u);
    EXPECT_EQ(chunks[2].second, 2u);
}

namespace {

/** Spin until pred() holds or two seconds pass; returns pred(). */
template <class Pred>
bool
waitFor(Pred pred)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!pred() && std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
    return pred();
}

} // namespace

TEST(ThreadPool, ServingThreadRunsChunksOfAOneThreadPool)
{
    // A pool of one has no workers; an outside thread serving it is what
    // lets a region with a cap above one run in parallel. The caller's
    // first chunk holds until the guest has run one, so the guest must
    // take part.
    rt::ThreadPool pool(1);
    std::atomic<bool> leave{false};
    std::thread guest([&] { pool.serve(leave); });
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<unsigned> guestChunks{0};
    std::vector<int> hits(64, 0);
    pool.forChunks(
        0, 64, 1,
        [&](std::size_t b, std::size_t, std::size_t) {
            if (std::this_thread::get_id() == caller)
                EXPECT_TRUE(waitFor([&] { return guestChunks > 0; }));
            else
                ++guestChunks;
            EXPECT_TRUE(rt::ThreadPool::insideWorker());
            ++hits[b];
        },
        /*maxWorkers=*/2);
    EXPECT_GT(guestChunks.load(), 0u);
    for (int h : hits)
        EXPECT_EQ(h, 1);

    // A cap of one keeps the region on the caller even with a guest there.
    bool all_on_caller = true;
    pool.forChunks(
        0, 64, 1,
        [&](std::size_t, std::size_t, std::size_t) {
            if (std::this_thread::get_id() != caller)
                all_on_caller = false;
        },
        /*maxWorkers=*/1);
    EXPECT_TRUE(all_on_caller);

    pool.dismiss(leave);
    guest.join();
    EXPECT_FALSE(rt::ThreadPool::insideWorker());
}

TEST(ThreadPool, ServingThreadLeavesBetweenChunks)
{
    // The guest is dismissed from inside its first chunk: it must take no
    // further chunk, and the caller finishes the region alone.
    rt::ThreadPool pool(1);
    std::atomic<bool> leave{false};
    std::atomic<bool> served{false};
    std::thread guest([&] {
        pool.serve(leave);
        served = true;
    });
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<unsigned> guestChunks{0};
    std::vector<int> hits(64, 0);
    pool.forChunks(
        0, 64, 1,
        [&](std::size_t b, std::size_t, std::size_t) {
            if (std::this_thread::get_id() == caller) {
                EXPECT_TRUE(waitFor([&] { return guestChunks > 0; }));
            } else {
                ++guestChunks;
                pool.dismiss(leave);
            }
            ++hits[b];
        },
        /*maxWorkers=*/2);
    guest.join();
    EXPECT_TRUE(served.load());
    EXPECT_EQ(guestChunks.load(), 1u);
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ServingThreadFaultPropagatesToRegionCaller)
{
    // An exception thrown in a chunk a guest runs is the region's error:
    // the caller rethrows it, and the guest keeps serving later regions.
    // Every other thread's chunk holds until the guest has thrown, so the
    // guest is sure to get one.
    rt::ThreadPool pool(2);
    std::atomic<bool> leave{false};
    std::thread guest([&] { pool.serve(leave); });
    const std::thread::id guestId = guest.get_id();
    std::atomic<bool> guestThrew{false};
    const auto body = [&](std::size_t, std::size_t, std::size_t) {
        if (std::this_thread::get_id() != guestId)
            EXPECT_TRUE(waitFor([&] { return guestThrew.load(); }));
        else if (!guestThrew.exchange(true))
            throw std::runtime_error("chunk fault");
    };
    EXPECT_THROW(pool.forChunks(0, 64, 1, body, /*maxWorkers=*/3),
                 std::runtime_error);
    EXPECT_TRUE(guestThrew.load());

    std::atomic<std::size_t> sum{0};
    pool.forChunks(
        0, 1000, 10,
        [&](std::size_t b, std::size_t e, std::size_t) {
            for (std::size_t i = b; i < e; ++i)
                sum += i;
        },
        /*maxWorkers=*/3);
    EXPECT_EQ(sum.load(), std::size_t(1000) * 999 / 2);

    pool.dismiss(leave);
    guest.join();
}
