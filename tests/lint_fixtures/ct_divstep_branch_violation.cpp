// Seeded ct-kernel violation: a safegcd divstep that branches on g's low
// bit. This file is NOT compiled into the library — it exists so the lint
// fixture suite can assert the checker reads signed-62 limbs as secret
// data, as it reads the Montgomery limbs they are converted from.
#include "ff/safegcd.hpp"

namespace zkphire::lintfix {

using ff::safegcd::Signed62;

// One divstep with the textbook branches: which path runs, and so the
// timing, follows the low bit of the witness-derived g.
template <std::size_t L>
std::int64_t
leakyDivstep(std::int64_t delta, Signed62<L> &f, Signed62<L> &g)
{
    if (g.v[0] & 1) { // secret-dependent
        const bool swap = delta > 0;
        const std::int64_t f0 = f.v[0];
        f.v[0] = swap * g.v[0] + (1 - swap) * f0;
        g.v[0] = (g.v[0] + (swap ? -f0 : f0)) >> 1;
        return 1 + (1 - 2 * swap) * delta;
    }
    g.v[0] >>= 1;
    return 1 + delta;
}

} // namespace zkphire::lintfix
