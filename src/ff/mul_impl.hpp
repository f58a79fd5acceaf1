/**
 * @file
 * Fixed-limb Montgomery kernels: fully unrolled no-carry CIOS mul, dedicated
 * squaring, and branchless add/sub/double/negate for 4-limb (Fr) and 6-limb
 * (Fq) operands.
 *
 * Every layer of the prover — MSM bucket adds, MLE folds, GatePlan round
 * evaluation, batch inversion — bottoms out in Montgomery multiplication, so
 * this file is the hottest code in the repository. The generic CIOS loop in
 * field.hpp spends a large fraction of its time on loop control, on the
 * carry-propagation column t[N]/t[N+1], and on loading runtime modulus
 * limbs; all three disappear here:
 *
 *  - **No-carry CIOS** (the "most moduli" optimization): when the modulus'
 *    top limb is < 2^63 - 1, the interleaved CIOS accumulator provably fits
 *    in N limbs — the (N+1)th column and its carry bookkeeping vanish, and
 *    the two per-iteration carries merge with a plain 64-bit add. Both
 *    BLS12-381 fields qualify (Fr top limb 0x73ed…, Fq top limb 0x1a01…);
 *    the precondition is a constexpr check (PrimeField::kFixedKernels) and
 *    the generic kernel covers any modulus that fails it.
 *  - **Compile-time modulus**: kernels take the modulus and -p^{-1} mod 2^64
 *    as non-type template parameters, so every p-limb is an instruction
 *    immediate instead of a load — measurably faster than passing a pointer
 *    to even a constexpr table.
 *  - **Full unrolling**: kernels are unrolled with fold expressions
 *    (`unroll<N>`), so every limb index is a constant, the t[] accumulator
 *    lives in registers, and there is no loop overhead.
 *  - **Dedicated squaring**: off-diagonal products are computed once and
 *    doubled by shifting, saving ~17-19% of the limb multiplications of a
 *    general product (N=6: 63 muls vs 78 counting the per-iteration m
 *    muls on both sides; N=4: 30 vs 36).
 *  - **Branchless reduction**: add/sub/double/negate/mul select the reduced
 *    value with a borrow-derived mask instead of a compare-and-branch, so
 *    the hot loops carry no data-dependent branches.
 *  - **Flag-carry chains**: every 0/1 carry or borrow chain runs on
 *    addCarry/subBorrow (_addcarry_u64/_subborrow_u64 on x86-64), which
 *    GCC compiles to one adc/sbb chain. Built on u128 instead, the same
 *    chains compile to setc/movzx/or sequences with stack spills, at about
 *    three times the latency. Only the square's diagonal pass keeps the
 *    u128 adc(): its carry-in is a whole mac() high word, not a bit.
 *
 * All kernels produce canonical (< p) results, bit-identical to the generic
 * path — tests/test_ff_kernels.cpp locks this on random and edge operands,
 * and the generic path stays selectable as an oracle at runtime
 * (forceGenericKernels / ZKPHIRE_FF_GENERIC=1).
 */
#ifndef ZKPHIRE_FF_MUL_IMPL_HPP
#define ZKPHIRE_FF_MUL_IMPL_HPP

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace zkphire::ff::kernels {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/** Limb counts with an unrolled kernel instantiation below. */
template <std::size_t N>
inline constexpr bool kHasFixedKernel = (N == 4 || N == 6);

/**
 * No-carry precondition: the top modulus limb must leave one bit of
 * headroom and absorb the merged carry add (gnark's "most moduli" bound).
 */
inline constexpr bool
noCarryModulusOk(u64 top_limb)
{
    return top_limb < ((u64(1) << 63) - 1);
}

/** -p^{-1} mod 2^64 by Newton iteration on the low modulus limb. */
inline constexpr u64
negInvMod64(u64 p0)
{
    u64 x = 1;
    for (int i = 0; i < 6; ++i)
        x *= 2 - p0 * x;
    return ~x + 1;
}

namespace detail {

/** Runtime oracle switch; see forceGenericKernels(). */
inline std::atomic<bool> g_force_generic{[] {
    const char *env = std::getenv("ZKPHIRE_FF_GENERIC");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

/** Compile-time-unrolled loop: body(integral_constant<size_t, 0..N-1>). */
template <class F, std::size_t... I>
inline void
unrollImpl(F &&body, std::index_sequence<I...>)
{
    (body(std::integral_constant<std::size_t, I>{}), ...);
}

template <std::size_t N, class F>
inline void
unroll(F &&body)
{
    unrollImpl(static_cast<F &&>(body), std::make_index_sequence<N>{});
}

/** lo(a + b*c + carry); carry <- hi. Never overflows 128 bits. */
inline u64
mac(u64 a, u64 b, u64 c, u64 &carry)
{
    const u128 t = (u128)a + (u128)b * c + carry;
    carry = (u64)(t >> 64);
    return (u64)t;
}

/**
 * lo(a + b + carry); carry <- hi. Word carry: `carry` may be a whole mac()
 * high word, so this stays on u128 (the flag primitives below take a 0/1
 * carry-in only).
 */
inline u64
adc(u64 a, u64 b, u64 &carry)
{
    const u128 t = (u128)a + b + carry;
    carry = (u64)(t >> 64);
    return (u64)t;
}

/** A 0/1 carry or borrow flag, as the x86-64 carry intrinsics take it. */
using Flag = unsigned char;

/** lo(a + b + c); c <- carry out. @pre c is 0 or 1. On x86-64 a chain of
 *  these compiles to one add/adc chain on the carry flag. */
inline u64
addCarry(u64 a, u64 b, Flag &c)
{
#if defined(__x86_64__)
    unsigned long long r;
    c = _addcarry_u64(c, a, b, &r);
    return r;
#else
    const u128 t = (u128)a + b + c;
    c = Flag(t >> 64);
    return (u64)t;
#endif
}

/** lo(a - b - c); c <- 1 on underflow. @pre c is 0 or 1. One sub/sbb
 *  chain on x86-64, like addCarry. */
inline u64
subBorrow(u64 a, u64 b, Flag &c)
{
#if defined(__x86_64__)
    unsigned long long r;
    c = _subborrow_u64(c, a, b, &r);
    return r;
#else
    const u128 t = (u128)a - b - c;
    c = Flag((t >> 64) & 1);
    return (u64)t;
#endif
}

/**
 * out = t - P if t >= P else t, branchless: the full subtraction is always
 * computed and the result selected with the borrow-derived mask. @pre t < 2P.
 */
template <class Big, Big P>
inline void
condSubModulus(u64 *out, const u64 *t)
{
    constexpr std::size_t N = Big::numLimbs;
    u64 u[N];
    Flag borrow = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        u[i] = subBorrow(t[i], P.limb[i], borrow);
    });
    const u64 keep_sub = u64(0) - (borrow ^ 1); // all-ones when t >= P
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        out[i] = (u[i] & keep_sub) | (t[i] & ~keep_sub);
    });
}

} // namespace detail

/**
 * Oracle switch: when true, PrimeField routes every operation through the
 * generic loop-over-limbs kernels even where an unrolled kernel exists.
 * Reads ZKPHIRE_FF_GENERIC at startup; tests flip it to cross-check the
 * unrolled kernels and to prove transcript bit-identity kernels on vs off.
 */
inline bool
genericKernelsForced()
{
    return detail::g_force_generic.load(std::memory_order_relaxed);
}

inline void
forceGenericKernels(bool on)
{
    detail::g_force_generic.store(on, std::memory_order_relaxed);
}

/** RAII oracle scope for tests and benches. */
class ScopedGenericKernels
{
  public:
    explicit ScopedGenericKernels(bool on) : saved(genericKernelsForced())
    {
        forceGenericKernels(on);
    }
    ~ScopedGenericKernels() { forceGenericKernels(saved); }
    ScopedGenericKernels(const ScopedGenericKernels &) = delete;
    ScopedGenericKernels &operator=(const ScopedGenericKernels &) = delete;

  private:
    bool saved;
};

/**
 * Unrolled no-carry CIOS Montgomery multiplication:
 * out = a * b * R^{-1} mod P, canonical.
 *
 * @tparam P   The modulus as a compile-time BigInt (limb immediates).
 * @tparam Inv -P^{-1} mod 2^64.
 * @pre a, b < P; P's top limb satisfies noCarryModulusOk(). The accumulator
 *      fits in N limbs: each outer iteration adds a[j]*b[i] and m*P[j]
 *      columns whose merged carries C + A stay below 2^64 because the top
 *      modulus limb leaves a free bit.
 */
template <class Big, Big P, u64 Inv>
inline void
montMulNoCarry(u64 *out, const u64 *a, const u64 *b)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N] = {0};
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        // Column a*b[i]: first limb, then the m that zeroes t[0].
        u64 A = 0;
        t[0] = mac(t[0], a[0], b[i], A);
        const u64 m = t[0] * Inv;
        u64 C = 0;
        (void)mac(t[0], m, P.limb[0], C);
        // Interleaved remaining limbs: one pass adds a[j]*b[i] (carry A)
        // and folds m*P[j] (carry C), shifting the accumulator down a limb.
        unroll<N - 1>([&](auto J) {
            constexpr std::size_t j = decltype(J)::value + 1;
            t[j] = mac(t[j], a[j], b[i], A);
            t[j - 1] = mac(t[j], m, P.limb[j], C);
        });
        t[N - 1] = C + A; // no overflow: the no-carry precondition
    });
    detail::condSubModulus<Big, P>(out, t);
}

/**
 * Unrolled Montgomery squaring: out = a * a * R^{-1} mod P, canonical.
 *
 * Off-diagonal limb products are computed once and doubled with a one-bit
 * shift of the double-width accumulator, then the diagonal squares are
 * added and the 2N-limb value is Montgomery-reduced. Limb-mul count for
 * N = 6: 15 off-diagonal + 6 diagonal + 36 m*P + 6 m = 63, vs 78 for the
 * general product (~19% fewer; both counts include the per-iteration
 * m = t*Inv muls); N = 4: 30 vs 36 (~17% fewer). Measured S/M ~ 0.8 for
 * Fq — the ratio ec::msm_cost prices EC formulas with.
 *
 * @pre a < P, same modulus preconditions as montMulNoCarry.
 */
template <class Big, Big P, u64 Inv>
inline void
montSquare(u64 *out, const u64 *a)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 r[2 * N] = {0};
    // Off-diagonal products a[i]*a[j], j > i, each computed once.
    unroll<N - 1>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        u64 carry = 0;
        unroll<N - 1 - i>([&](auto J) {
            constexpr std::size_t j = i + 1 + decltype(J)::value;
            r[i + j] = mac(r[i + j], a[i], a[j], carry);
        });
        r[i + N] = carry;
    });
    // Double by shifting the 2N-limb accumulator left one bit (top down,
    // so each limb reads its lower neighbour's old top bit).
    r[2 * N - 1] = r[2 * N - 2] >> 63;
    unroll<2 * N - 3>([&](auto I) {
        constexpr std::size_t i = 2 * N - 2 - decltype(I)::value;
        r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    });
    r[1] <<= 1;
    // Diagonal squares with carry propagation into the odd limbs.
    u64 carry = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        r[2 * i] = mac(r[2 * i], a[i], a[i], carry);
        r[2 * i + 1] = adc(r[2 * i + 1], 0, carry);
    });
    // Montgomery reduction of the 2N-limb product (a^2 < P*R, so the final
    // carry chain is empty for headroom moduli and the result is < 2P).
    Flag carry2 = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        const u64 m = r[i] * Inv;
        u64 c = 0;
        (void)mac(r[i], m, P.limb[0], c);
        unroll<N - 1>([&](auto J) {
            constexpr std::size_t j = decltype(J)::value + 1;
            r[i + j] = mac(r[i + j], m, P.limb[j], c);
        });
        r[i + N] = addCarry(r[i + N], c, carry2);
    });
    detail::condSubModulus<Big, P>(out, r + N);
}

/**
 * out = a + b mod P, branchless. @pre a, b < P. The raw sum cannot carry
 * out of N limbs (2P < 2^(64N) for headroom moduli), so the reduction is a
 * single masked subtraction. out may alias a or b.
 */
template <class Big, Big P>
inline void
addMod(u64 *out, const u64 *a, const u64 *b)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N];
    Flag carry = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        t[i] = addCarry(a[i], b[i], carry);
    });
    condSubModulus<Big, P>(out, t);
}

/** out = 2a mod P, branchless shift-and-reduce. @pre a < P. */
template <class Big, Big P>
inline void
dblMod(u64 *out, const u64 *a)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N];
    t[0] = a[0] << 1;
    unroll<N - 1>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value + 1;
        t[i] = (a[i] << 1) | (a[i - 1] >> 63);
    });
    condSubModulus<Big, P>(out, t);
}

/**
 * out = a - b mod P, branchless: a compensating +P pass is always executed
 * and the borrow mask selects it. out may alias a or b.
 */
template <class Big, Big P>
inline void
subMod(u64 *out, const u64 *a, const u64 *b)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N];
    Flag borrow = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        t[i] = subBorrow(a[i], b[i], borrow);
    });
    // t + P is always computed and selected afterwards: masking P inside
    // the add chain puts an `and` between adc instructions, and GCC then
    // saves and restores the carry flag around every limb.
    u64 u[N];
    Flag carry = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        u[i] = addCarry(t[i], P.limb[i], carry);
    });
    const u64 add_p = u64(0) - borrow; // all-ones when a < b
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        out[i] = (u[i] & add_p) | (t[i] & ~add_p);
    });
}

/** out = -a mod P, branchless (P - a masked to zero when a == 0). */
template <class Big, Big P>
inline void
negMod(u64 *out, const u64 *a)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 any = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        any |= a[i];
    });
    const u64 nonzero = u64(0) - u64(any != 0);
    Flag borrow = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        out[i] = subBorrow(P.limb[i], a[i], borrow) & nonzero;
    });
}

} // namespace zkphire::ff::kernels

#endif // ZKPHIRE_FF_MUL_IMPL_HPP
