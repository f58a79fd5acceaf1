/**
 * @file
 * Fixed-base scalar multiplication with signed-digit precomputed windows.
 *
 * SRS generation evaluates thousands of scalar multiples of the one
 * generator, so the table build cost amortizes away and per-multiply cost
 * is everything. Three stacked optimizations over the classic unsigned
 * window table, here 8 bits wide:
 *
 *  - GLV split (src/ec/glv.hpp): k = k1 + lambda*k2 with ~128-bit halves,
 *    and phi(d * 256^w * B) = d * 256^w * phi(B), so one half-width table
 *    over B plus its endomorphism image covers the full scalar — half the
 *    windows to walk and to precompute: 17 windows per half, so one
 *    multiply is at most 34 mixed adds.
 *  - Signed digits with precomputed negations: digits in [-128, 128] need
 *    only 128 magnitudes per window, and each window stores both (x, y)
 *    and (x, -y) so a negative digit is a plain table read, not a runtime
 *    negation. The two tables hold 2 x 17 x 256 affine points (~0.86
 *    MiB), which stays L2-resident across a level of multiplies.
 *  - Affine tables, batch-normalized at build (ec::batchToAffine): every
 *    accumulation is a mixed add (~10 muls) instead of a full Jacobian add
 *    (~15), for one shared inversion at construction.
 *
 * When the GLV parameter self-checks fail the table silently falls back to
 * full-width signed windows over the base alone; results are identical
 * group elements either way.
 */
#ifndef ZKPHIRE_EC_FIXED_BASE_HPP
#define ZKPHIRE_EC_FIXED_BASE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "ec/g1.hpp"

namespace zkphire::ec {

/** Precomputed-window multiplier for one fixed base point. */
class FixedBaseMul
{
  public:
    explicit FixedBaseMul(const G1Affine &base);

    /** k * base. */
    G1Jacobian mul(const Fr &k) const;

  private:
    static constexpr unsigned windowBits = 8;
    /** Signed digits span [-128, 128]; 128 magnitudes per window. */
    static constexpr unsigned halfDigits = 1u << (windowBits - 1);

    /** Entry d-1 holds d * 256^w * B; entry halfDigits + d - 1 its
     *  negation. */
    using Window = std::array<G1Affine, 2 * halfDigits>;

    /** acc += d * (the window's base); d == 0 adds nothing. */
    static void addDigit(G1Jacobian &acc, const Window &win, std::int32_t d);

    bool useGlv = false;
    std::size_t numWindows = 0;
    std::vector<Window> table;    ///< Windows over base (k1, or the whole k).
    std::vector<Window> phiTable; ///< Windows over phi(base) (k2; GLV only).
};

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_FIXED_BASE_HPP
