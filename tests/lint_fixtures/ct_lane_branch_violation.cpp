// Seeded ct-kernel violation: a lane function that branches on lane limbs.
// This file is NOT compiled into the library — it exists so the lint
// fixture suite can assert the checker reads the IFMA lanes as secret
// data, as it reads the scalar field elements.
#include "ff/ifma_lanes_x86.hpp"

namespace zkphire::lintfix {

using ff::ifma::Lanes;

// An early exit when two limbs agree: which instructions run depends on
// the witness-derived values in the lanes.
template <class F>
ZKPHIRE_IFMA_TARGET inline Lanes<F>
leakyLaneAdd(const Lanes<F> &a, const Lanes<F> &b)
{
    if (_mm512_cmpeq_epi64_mask(a.l[0], a.l[1]) != 0) // secret-dependent
        return b;
    return ff::ifma::add8(a, b);
}

} // namespace zkphire::lintfix
