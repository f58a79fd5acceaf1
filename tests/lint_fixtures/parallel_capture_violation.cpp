// Seeded parallel-capture violation: a [&]-captured accumulator written
// without loop-index subscripting inside a parallelFor body — the exact
// shape that makes transcripts depend on thread count. Not compiled into
// the library; consumed by the lint fixture suite only.
#include <cstddef>
#include <vector>

#include "rt/parallel.hpp"

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

} // namespace zkphire::lintfix
