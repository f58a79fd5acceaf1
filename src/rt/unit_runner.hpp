/**
 * @file
 * UnitRunner: the seam through which one proof's independent work units are
 * sharded across service lanes.
 *
 * The chunked ThreadPool parallelizes *within* one lane's private pool; a
 * UnitRunner parallelizes *across* lanes. A kernel with W independent,
 * index-addressed work units (per-column commitment MSMs, per-round
 * sumcheck range splits, the two PCS opening chains) hands them to the
 * ambient runner through rt::forUnits, the one place that splits work
 * across lanes; each unit may execute on another lane's thread under that
 * lane's own rt::Config. Unit i writes only to index-i output slots and the
 * caller merges slots in ascending index order, so results are bit-identical
 * to running the units inline — the same contract parallelReduce gives
 * within a pool, lifted one level up.
 *
 * The runner is ambient (thread-local, like ScopedConfig) so deep call
 * sites — a sumcheck round evaluation five frames below hyperplonk::prove —
 * can reach it without threading a parameter through every signature.
 * engine::ShardGroup is the production implementation; a null ambient
 * runner (the default, and always the case on worker/helper threads) means
 * "run units inline".
 */
#ifndef ZKPHIRE_RT_UNIT_RUNNER_HPP
#define ZKPHIRE_RT_UNIT_RUNNER_HPP

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace zkphire::rt {

class UnitRunner
{
  public:
    virtual ~UnitRunner() = default;

    /** Number of executors (1 + helper lanes). Callers use it to size the
     *  unit decomposition; width() == 1 means sharding buys nothing. */
    virtual unsigned width() const = 0;

    /**
     * Execute every unit, blocking until all completed. Units may run
     * concurrently on other lanes' threads; implementations rethrow the
     * first unit exception after the batch drains. Callers must make unit i
     * write only to its own output slot and merge slots in index order.
     */
    virtual void run(std::span<const std::function<void()>> units) = 0;
};

namespace detail {
inline thread_local UnitRunner *t_unitRunner = nullptr;
} // namespace detail

/** Runner for work units started by the current thread (null = inline). */
inline UnitRunner *
currentUnitRunner()
{
    return detail::t_unitRunner;
}

/**
 * RAII override of currentUnitRunner() on this thread. Unlike ScopedThreads,
 * null is set verbatim (not "inherit"): a unit body must not re-shard
 * through the group that is already executing it, so runner implementations
 * clear the ambient runner around each unit.
 */
class ScopedUnitRunner
{
  public:
    explicit ScopedUnitRunner(UnitRunner *runner)
        : saved(detail::t_unitRunner)
    {
        detail::t_unitRunner = runner;
    }
    ~ScopedUnitRunner() { detail::t_unitRunner = saved; }
    ScopedUnitRunner(const ScopedUnitRunner &) = delete;
    ScopedUnitRunner &operator=(const ScopedUnitRunner &) = delete;

  private:
    UnitRunner *saved;
};

/**
 * Number of contiguous ranges forUnits splits [0, n) into: 1 when no
 * ambient runner is installed, when its width is 1, or when n < minSplit
 * (too little work to amortize the cross-lane hand-off); otherwise
 * min(width, n).
 */
inline std::size_t
unitCount(std::size_t n, std::size_t minSplit)
{
    const UnitRunner *runner = currentUnitRunner();
    if (runner == nullptr || n < std::max<std::size_t>(minSplit, 2))
        return 1;
    return std::min<std::size_t>(runner->width(), n);
}

/**
 * The one cross-lane split: run body(u, b, e) over unitCount(n, minSplit)
 * contiguous ranges [b, e) of [0, n) on the ambient runner, or call
 * body(0, 0, n) inline when there is one range. Range u writes only slot u
 * (or slots addressed by index) and the caller merges in index order, so
 * results are bit-identical at every runner width.
 */
template <class Body>
void
forUnits(std::size_t n, std::size_t minSplit, const Body &body)
{
    const std::size_t count = unitCount(n, minSplit);
    if (count == 1) {
        body(std::size_t(0), std::size_t(0), n);
        return;
    }
    std::vector<std::function<void()>> units;
    units.reserve(count);
    for (std::size_t u = 0; u < count; ++u)
        units.push_back([&body, u, b = n * u / count,
                         e = n * (u + 1) / count] { body(u, b, e); });
    currentUnitRunner()->run(units);
}

} // namespace zkphire::rt

#endif // ZKPHIRE_RT_UNIT_RUNNER_HPP
