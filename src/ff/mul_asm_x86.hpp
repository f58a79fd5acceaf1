/**
 * @file
 * ADX/BMI2 x86-64 assembly Montgomery multiplication for the fixed limb
 * widths (4 = Fr, 6 = Fq).
 *
 * The portable unrolled kernels in mul_impl.hpp bottom out in GCC's u128
 * codegen, which serializes every mac() on a single implicit carry chain;
 * on the BLS12-381 scalar field that caps the kernel at ~1.1x over the
 * generic oracle. The mulx/adcx/adox sequence here keeps TWO independent
 * carry chains in flight per outer CIOS iteration — adcx propagates the
 * low-product chain through CF while adox accumulates the high products
 * through OF — so the multiplier port and both adder chains stay busy
 * every cycle instead of stalling on one flag.
 *
 * Structure (mirrors kernels::montMulNoCarry exactly — same no-carry CIOS
 * with the modulus-headroom precondition, so both produce canonical
 * results bit-identical to the generic oracle):
 *  - The accumulator lives in a ring of N+1 hard registers holding
 *    [t0..t{N-1}, A]. The reduction step's shift-down-a-limb is a register
 *    RENAMING, not a move: after folding m*p, the window rotates by one
 *    and the old t0 register — which the fold left at exactly zero, since
 *    t0 + lo(m*p0) == 0 mod 2^64 by choice of m — becomes the next
 *    iteration's fresh carry word.
 *  - Modulus limbs and -p^{-1} are rip-relative memory operands of
 *    constexpr statics: no registers consumed, no relocation-hostile
 *    64-bit immediates in mul position (mulx takes reg/mem only).
 *  - The asm declares precise in/out memory operands instead of a blanket
 *    "memory" clobber, so surrounding hot loops (vec_ops blocks, bucket
 *    adds) keep their pointers in registers across calls.
 *  - The final conditional subtraction reuses the branchless C++
 *    condSubModulus. Its subtraction runs on the flag-carry primitives of
 *    mul_impl.hpp, so GCC emits one sub/sbb chain plus a mask select —
 *    the code a hand-written asm tail would hold — and keeping it out of
 *    the asm keeps the block small.
 *
 * Squaring dispatches to this multiplier with both operands equal: a
 * dedicated asm squaring needs 2N accumulator limbs live (12 for Fq),
 * which does not fit the register file without spills, and the measured
 * dual-chain mul(a, a) already beats the portable dedicated square (see
 * EXPERIMENTS.md PR 7). fromBig / deserialization stays on the generic
 * path for the same reason as in mul_impl.hpp: the no-carry precondition
 * assumes canonical inputs.
 *
 * Selection is runtime, not compile-time: the instructions are emitted
 * unconditionally (inline asm bypasses -march gates), and dispatch checks
 * cpuid once at startup — BMI2 (mulx) and ADX (adcx/adox) CPUID bits —
 * plus the ZKPHIRE_ASM env toggle ("0" forces the portable kernels, for
 * A/B runs and the CI forced-fallback leg). The same switch governs the
 * AVX-512 IFMA batched kernels (ff/mul_ifma_x86.hpp): a second probe
 * (AVX512F and AVX512IFMA CPUID bits, plus the opmask and ZMM state the
 * OS enables in XCR0) arms them, and ZKPHIRE_ASM=0, ScopedAsmKernels(false)
 * and -DZKPHIRE_ASM=OFF turn them off along with the ADX multiplier. The
 * generic oracle (ZKPHIRE_FF_GENERIC) still wins over both.
 * tests/test_ff_kernels.cpp locks asm == unrolled == generic on random
 * and edge operands, and IFMA == ADX == unrolled == generic for the
 * batched primitives.
 */
#ifndef ZKPHIRE_FF_MUL_ASM_X86_HPP
#define ZKPHIRE_FF_MUL_ASM_X86_HPP

// NOLINTBEGIN
// clang-tidy is suppressed for this whole header: the inline-asm blocks
// trip bugprone-* and readability heuristics that have no meaning inside
// a hand-scheduled register ring, and "fixes" here risk miscompiles.
// Correctness is locked externally by tests/test_ff_kernels.cpp (asm ==
// unrolled == generic on random and edge operands).

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "ff/mul_impl.hpp"

// The IFMA kernels are intrinsics, so they build at every optimization
// level. The ADX asm adds an __OPTIMIZE__ guard: at -O0 the frame pointer
// is pinned and every operand lives in memory, leaving too few registers
// to satisfy the kernels' constraints ("asm operand has impossible
// constraints" on the Debug/sanitizer legs) — unoptimized builds take the
// C++ scalar kernels.
#if defined(__x86_64__) && !defined(ZKPHIRE_NO_ASM)
#define ZKPHIRE_HAVE_X86_IFMA 1
#include <cpuid.h>
#else
#define ZKPHIRE_HAVE_X86_IFMA 0
#endif
#if ZKPHIRE_HAVE_X86_IFMA && defined(__OPTIMIZE__)
#define ZKPHIRE_HAVE_X86_ASM 1
#else
#define ZKPHIRE_HAVE_X86_ASM 0
#endif

namespace zkphire::ff::kernels {

/**
 * True when the host CPU exposes BMI2 (mulx) and ADX (adcx/adox) — CPUID
 * leaf 7 subleaf 0, EBX bits 8 and 19. Always false on non-x86-64 builds.
 */
inline bool
cpuSupportsAdxBmi2()
{
#if ZKPHIRE_HAVE_X86_ASM
    static const bool ok = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        constexpr unsigned kBmi2 = 1u << 8;
        constexpr unsigned kAdx = 1u << 19;
        return (b & kBmi2) != 0 && (b & kAdx) != 0;
    }();
    return ok;
#else
    return false;
#endif
}

/**
 * True when the host can run the AVX-512 IFMA kernels: CPUID leaf 7
 * subleaf 0 EBX bits 16 (AVX512F) and 21 (AVX512IFMA), and an OS that
 * saves the opmask and all 32 ZMM registers (OSXSAVE, then XCR0 bits 1, 2
 * and 5-7). Always false on builds without the x86-64 kernels.
 */
inline bool
cpuSupportsIfma()
{
#if ZKPHIRE_HAVE_X86_IFMA
    static const bool ok = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        constexpr unsigned kOsxsave = 1u << 27;
        if (!__get_cpuid(1, &a, &b, &c, &d) || (c & kOsxsave) == 0)
            return false;
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        constexpr unsigned kAvx512f = 1u << 16;
        constexpr unsigned kIfma = 1u << 21;
        if ((b & kAvx512f) == 0 || (b & kIfma) == 0)
            return false;
        unsigned xcr0 = 0, xcr0_hi = 0;
        __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
        constexpr unsigned kZmmState = 0xe6; // SSE, AVX, opmask, ZMM0-31
        return (xcr0 & kZmmState) == kZmmState;
    }();
    return ok;
#else
    return false;
#endif
}

namespace detail {

/** The ZKPHIRE_ASM switch as read at startup: on unless set to "0". */
inline bool
asmSwitchFromEnv()
{
    const char *env = std::getenv("ZKPHIRE_ASM");
    return env == nullptr || env[0] == '\0' || env[0] != '0';
}

/** Runtime kernel toggles; see asmKernelsEnabled(), ifmaKernelsEnabled(). */
inline std::atomic<bool> g_asm_enabled{asmSwitchFromEnv() &&
                                       cpuSupportsAdxBmi2()};
inline std::atomic<bool> g_ifma_enabled{asmSwitchFromEnv() &&
                                        cpuSupportsIfma()};

} // namespace detail

/**
 * Whether mul/square dispatch should take the asm kernels: requires CPU
 * support, ZKPHIRE_ASM not set to 0, and no forceAsmKernels(false)
 * override. Note the generic-oracle switch (forceGenericKernels /
 * ZKPHIRE_FF_GENERIC) is checked FIRST by the dispatch sites and
 * overrides this — the oracle always wins.
 */
inline bool
asmKernelsEnabled()
{
    return detail::g_asm_enabled.load(std::memory_order_relaxed);
}

/**
 * Whether the batched Fq primitives may take the IFMA kernels: the same
 * switch as asmKernelsEnabled(), on a host where cpuSupportsIfma() holds.
 * As there, the generic oracle is checked first and wins.
 */
inline bool
ifmaKernelsEnabled()
{
    return detail::g_ifma_enabled.load(std::memory_order_relaxed);
}

/** Flip the asm leg at runtime (tests/benches): the ADX multiplier and
 *  the IFMA batch kernels together. Enabling a kernel the host lacks is
 *  ignored — the portable kernels stay selected. */
inline void
forceAsmKernels(bool on)
{
    detail::g_asm_enabled.store(on && cpuSupportsAdxBmi2(),
                                std::memory_order_relaxed);
    detail::g_ifma_enabled.store(on && cpuSupportsIfma(),
                                 std::memory_order_relaxed);
}

/** RAII asm-kernel scope for A/B tests and benches; restores both
 *  toggles exactly. */
class ScopedAsmKernels
{
  public:
    explicit ScopedAsmKernels(bool on)
        : savedAsm(asmKernelsEnabled()), savedIfma(ifmaKernelsEnabled())
    {
        forceAsmKernels(on);
    }
    ~ScopedAsmKernels()
    {
        detail::g_asm_enabled.store(savedAsm, std::memory_order_relaxed);
        detail::g_ifma_enabled.store(savedIfma, std::memory_order_relaxed);
    }
    ScopedAsmKernels(const ScopedAsmKernels &) = delete;
    ScopedAsmKernels &operator=(const ScopedAsmKernels &) = delete;

  private:
    bool savedAsm;
    bool savedIfma;
};

/** RAII scope for A/B tests and benches of the IFMA leg alone: the
 *  batched kernels and lanes on or off while the scalar multiplier stays
 *  as it is. Restores the toggle exactly; enabling IFMA the host lacks is
 *  ignored. */
class ScopedIfmaKernels
{
  public:
    explicit ScopedIfmaKernels(bool on) : saved(ifmaKernelsEnabled())
    {
        detail::g_ifma_enabled.store(on && cpuSupportsIfma(),
                                     std::memory_order_relaxed);
    }
    ~ScopedIfmaKernels()
    {
        detail::g_ifma_enabled.store(saved, std::memory_order_relaxed);
    }
    ScopedIfmaKernels(const ScopedIfmaKernels &) = delete;
    ScopedIfmaKernels &operator=(const ScopedIfmaKernels &) = delete;

  private:
    bool saved;
};

#if ZKPHIRE_HAVE_X86_ASM

/**
 * out = a * b * R^{-1} mod P via the dual-carry-chain no-carry CIOS above.
 * Same preconditions as montMulNoCarry (a, b < P, headroom modulus);
 * produces canonical (< P) output. out may alias a or b.
 */
template <class Big, Big P, u64 Inv>
inline void
montMulAsmX86(u64 *out, const u64 *a, const u64 *b)
{
    constexpr std::size_t N = Big::numLimbs;
    static_assert(N == 4 || N == 6, "asm kernels cover the 4/6-limb widths");
    static constexpr u64 s_inv = Inv;
    static constexpr auto s_p = P.limb;
    u64 t[N];
    if constexpr (N == 4) {
        __asm__(
            /* t = a * b[0] (plain carry chain; accumulators are fresh) */
            "movq 0(%[b]), %%rdx\n\t"
            "mulxq 0(%[a]), %%r8, %%r9\n\t"
            "mulxq 8(%[a]), %%rax, %%r10\n\t"
            "addq %%rax, %%r9\n\t"
            "mulxq 16(%[a]), %%rax, %%r11\n\t"
            "adcq %%rax, %%r10\n\t"
            "mulxq 24(%[a]), %%rax, %%r12\n\t"
            "adcq %%rax, %%r11\n\t"
            "adcq $0, %%r12\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r8, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r12\n\t"
            /* t += a * b[1] (dual carry chains, carry word into r8) */
            "movq 8(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r8\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r9, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r8\n\t"
            /* t += a * b[2] (dual carry chains, carry word into r9) */
            "movq 16(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r9\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r10, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r9\n\t"
            /* t += a * b[3] (dual carry chains, carry word into r10) */
            "movq 24(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r10\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r11, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r10\n\t"
            "movq %%r12, 0(%[out])\n\t"
            "movq %%r8, 8(%[out])\n\t"
            "movq %%r9, 16(%[out])\n\t"
            "movq %%r10, 24(%[out])"
            : "=m"(t)
            : [out] "r"(t), [a] "r"(a), [b] "r"(b),
              "m"(*reinterpret_cast<const u64(*)[4]>(a)),
              "m"(*reinterpret_cast<const u64(*)[4]>(b)),
              [inv] "m"(s_inv),
              [p0] "m"(s_p[0]),
              [p1] "m"(s_p[1]),
              [p2] "m"(s_p[2]),
              [p3] "m"(s_p[3])
            : "rax", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12", "cc");
    } else {
        __asm__(
            /* t = a * b[0] (plain carry chain; accumulators are fresh) */
            "movq 0(%[b]), %%rdx\n\t"
            "mulxq 0(%[a]), %%r8, %%r9\n\t"
            "mulxq 8(%[a]), %%rax, %%r10\n\t"
            "addq %%rax, %%r9\n\t"
            "mulxq 16(%[a]), %%rax, %%r11\n\t"
            "adcq %%rax, %%r10\n\t"
            "mulxq 24(%[a]), %%rax, %%r12\n\t"
            "adcq %%rax, %%r11\n\t"
            "mulxq 32(%[a]), %%rax, %%r13\n\t"
            "adcq %%rax, %%r12\n\t"
            "mulxq 40(%[a]), %%rax, %%r14\n\t"
            "adcq %%rax, %%r13\n\t"
            "adcq $0, %%r14\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r8, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p4], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq %[p5], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r14\n\t"
            /* t += a * b[1] (dual carry chains, carry word into r8) */
            "movq 8(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq 32(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq 40(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r8\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r9, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq %[p4], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq %[p5], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r8\n\t"
            /* t += a * b[2] (dual carry chains, carry word into r9) */
            "movq 16(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq 32(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq 40(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r9\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r10, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq %[p4], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq %[p5], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r9\n\t"
            /* t += a * b[3] (dual carry chains, carry word into r10) */
            "movq 24(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq 32(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq 40(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r10\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r11, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq %[p4], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq %[p5], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r10\n\t"
            /* t += a * b[4] (dual carry chains, carry word into r11) */
            "movq 32(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq 32(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq 40(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r11\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r12, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r12\n\t"
            "adoxq %%rcx, %%r13\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq %[p4], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq %[p5], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r11\n\t"
            /* t += a * b[5] (dual carry chains, carry word into r12) */
            "movq 40(%[b]), %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq 0(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq 8(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq 16(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq 24(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq 32(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq 40(%[a]), %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r12\n\t"
            /* m = t[0] * inv; fold m*p, shifting the window down a limb */
            "movq %%r13, %%rdx\n\t"
            "imulq %[inv], %%rdx\n\t"
            "xorl %%eax, %%eax\n\t"
            "mulxq %[p0], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r13\n\t"
            "adoxq %%rcx, %%r14\n\t"
            "mulxq %[p1], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r14\n\t"
            "adoxq %%rcx, %%r8\n\t"
            "mulxq %[p2], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%rcx, %%r9\n\t"
            "mulxq %[p3], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r9\n\t"
            "adoxq %%rcx, %%r10\n\t"
            "mulxq %[p4], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r10\n\t"
            "adoxq %%rcx, %%r11\n\t"
            "mulxq %[p5], %%rax, %%rcx\n\t"
            "adcxq %%rax, %%r11\n\t"
            "adoxq %%rcx, %%r12\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r12\n\t"
            "movq %%r14, 0(%[out])\n\t"
            "movq %%r8, 8(%[out])\n\t"
            "movq %%r9, 16(%[out])\n\t"
            "movq %%r10, 24(%[out])\n\t"
            "movq %%r11, 32(%[out])\n\t"
            "movq %%r12, 40(%[out])"
            : "=m"(t)
            : [out] "r"(t), [a] "r"(a), [b] "r"(b),
              "m"(*reinterpret_cast<const u64(*)[6]>(a)),
              "m"(*reinterpret_cast<const u64(*)[6]>(b)),
              [inv] "m"(s_inv),
              [p0] "m"(s_p[0]),
              [p1] "m"(s_p[1]),
              [p2] "m"(s_p[2]),
              [p3] "m"(s_p[3]),
              [p4] "m"(s_p[4]),
              [p5] "m"(s_p[5])
            : "rax", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "cc");
    }
    detail::condSubModulus<Big, P>(out, t);
}

#endif // ZKPHIRE_HAVE_X86_ASM

} // namespace zkphire::ff::kernels

// NOLINTEND

#endif // ZKPHIRE_FF_MUL_ASM_X86_HPP
