// Seeded parallel-capture violations: a [&]-captured accumulator written
// without loop-index subscripting inside a parallelFor body — the exact
// shape that makes transcripts depend on thread count — and the same write
// inside a forUnits body, which makes them depend on lane count. Not
// compiled into the library; consumed by the lint fixture suite only.
#include <cstddef>
#include <vector>

#include "rt/parallel.hpp"
#include "rt/unit_runner.hpp"

namespace zkphire::lintfix {

double
racySum(const std::vector<double> &xs)
{
    double total = 0.0;
    std::vector<double> per_item(xs.size());
    rt::parallelFor(0, xs.size(), [&](std::size_t i) {
        per_item[i] = xs[i] * 2.0; // fine: subscripted by the loop index
        total += xs[i];            // violation: races and reorders
    });
    return total;
}

double
racyUnitSum(const std::vector<double> &xs)
{
    double total = 0.0;
    std::vector<double> parts(rt::unitCount(xs.size(), 2));
    rt::forUnits(xs.size(), 2,
                 [&](std::size_t u, std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) {
                         parts[u] += xs[i]; // fine: the unit's own slot
                         total += xs[i];    // violation: lanes race on it
                     }
                 });
    return total;
}

} // namespace zkphire::lintfix
