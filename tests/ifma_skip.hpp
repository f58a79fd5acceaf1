/**
 * @file
 * Why the AVX-512 IFMA kernel tests cannot run on this host or build, for
 * their GTEST_SKIP(): such hosts never dispatch to the kernels.
 */
#ifndef ZKPHIRE_TESTS_IFMA_SKIP_HPP
#define ZKPHIRE_TESTS_IFMA_SKIP_HPP

#include "ff/mul_asm_x86.hpp"

namespace zkphire::testutil {

/** The reason, or nullptr when the IFMA kernels can run. */
inline const char *
ifmaSkipReason()
{
#if ZKPHIRE_HAVE_X86_IFMA
    if (!ff::kernels::cpuSupportsIfma())
        return "host lacks AVX512F/AVX512IFMA or OS ZMM state; IFMA path "
               "never dispatched";
    return nullptr;
#else
    return "build without the x86-64 kernels (-DZKPHIRE_ASM=OFF or non-x86); "
           "IFMA path not compiled";
#endif
}

} // namespace zkphire::testutil

#endif // ZKPHIRE_TESTS_IFMA_SKIP_HPP
