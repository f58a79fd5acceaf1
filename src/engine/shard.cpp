#include "engine/shard.hpp"

namespace zkphire::engine {

void
ShardGroup::lend(rt::ThreadPool &lanePool)
{
    // One chunk per thread of the lane's pool, each spent serving the
    // owner's pool; a one-thread pool runs its chunk on the lane thread.
    lanePool.forChunks(0, lanePool.numThreads(), 1,
                       [this](std::size_t, std::size_t, std::size_t) {
                           pool.serve(leave);
                       });
}

void
ShardGroup::depart()
{
    std::lock_guard<std::mutex> lk(mu);
    ++departed;
    cv.notify_all();
}

void
ShardGroup::recall()
{
    pool.dismiss(leave);
}

void
ShardGroup::disband()
{
    recall();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return departed == expected; });
}

} // namespace zkphire::engine
