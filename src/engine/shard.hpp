/**
 * @file
 * ShardGroup: one proof phase's claim on idle service lanes.
 *
 * When the scheduler dispatches a phase and other lanes have nothing
 * runnable, it reserves them for that phase. Each reserved lane *lends*
 * its whole sub-budget — its lane thread and the workers of its private
 * pool — to the dispatching lane's pool through rt::ThreadPool::serve, and
 * the phase runs with its own budget plus the lent ones. Lent threads only
 * ever run chunks of that pool's parallel regions; the proof's own code,
 * with its arena, cancel token, streaming policy and MSM options, stays on
 * the dispatching lane's thread.
 *
 * Lifecycle: the owner constructs the group on its stack over its lane
 * pool, the service reserves lenders (reserve() once per lane, all before
 * the phase starts, under the queue lock), the phase runs, then the owner
 * MUST call disband(), which sends the lenders home and blocks until every
 * reserved lane has departed — only then may the group go out of scope.
 * Groups last one phase: idleness is re-evaluated at the next phase
 * boundary, and recall() sends the lenders home early when new work
 * arrives.
 *
 * Determinism: lending only changes how many threads take a region's
 * chunks, and every region is bit-identical at any thread count, so proofs
 * are bit-identical at any group width.
 */
#ifndef ZKPHIRE_ENGINE_SHARD_HPP
#define ZKPHIRE_ENGINE_SHARD_HPP

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "rt/thread_pool.hpp"

namespace zkphire::engine {

class ShardGroup
{
  public:
    /** @param ownerPool The dispatching lane's pool; lenders serve it. */
    explicit ShardGroup(rt::ThreadPool &ownerPool) : pool(ownerPool) {}
    ShardGroup(const ShardGroup &) = delete;
    ShardGroup &operator=(const ShardGroup &) = delete;

    /** Reserve one lender lane with `threads` threads. Only before the
     *  owning phase starts; the accessors below are unsynchronized
     *  against it. */
    void reserve(unsigned threads)
    {
        ++expected;
        lent += threads;
    }

    /** Owner + lenders. */
    unsigned width() const { return 1 + expected; }
    /** Threads the lenders bring to the owner's pool. */
    unsigned lentThreads() const { return lent; }

    /**
     * Lender-lane entry point: the lane thread and every worker of
     * lanePool serve the owner's pool until recall() or disband(). A fault
     * in a chunk they run is the owner's region's error, never theirs.
     * The lender calls depart() once it is back in its lane.
     */
    void lend(rt::ThreadPool &lanePool);
    /** Lender: count this lane as home. The group may be destroyed as soon
     *  as the last reserved lender has departed. */
    void depart();

    /** Send the lenders home: each leaves at its next chunk boundary, and
     *  the owner's threads finish whatever is left. */
    void recall();

    /** Owner only: recall, then wait until every reserved lender has
     *  departed. Must be called before the group is destroyed. */
    void disband();

  private:
    rt::ThreadPool &pool;
    std::atomic<bool> leave{false};
    std::mutex mu;
    std::condition_variable cv;
    unsigned expected = 0; ///< Lender lanes reserved by the service.
    unsigned lent = 0;     ///< Their threads, summed.
    unsigned departed = 0; ///< Lenders that departed (guarded by mu).
};

} // namespace zkphire::engine

#endif // ZKPHIRE_ENGINE_SHARD_HPP
