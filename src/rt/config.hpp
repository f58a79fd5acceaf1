/**
 * @file
 * Per-prover runtime configuration.
 *
 * Every prover entry point (hyperplonk::prove, sumcheck::prove / proveZero /
 * proveOpen) takes an rt::Config instead of a raw thread count. A Config
 * bundles the knobs a prover region can override:
 *
 *   - threads:  total parallelism for the proof's kernels. 0 inherits the
 *               ambient setting (an enclosing ScopedConfig, else the pool's
 *               size — ZKPHIRE_THREADS / hardware concurrency). 1 forces
 *               fully serial execution.
 *   - pool:     the ThreadPool parallel regions submit to. null uses the
 *               process-global pool; engine::ProofService points each job
 *               lane at a private pool so concurrent proofs never contend
 *               on one pool's region lock.
 *   - streamThreshold / streamChunk: the out-of-core table policy.
 *
 * Configs are applied with rt::ScopedConfig (rt/parallel.hpp), an RAII
 * thread-local override — so a Config pins every kernel reached from the
 * current thread, including ones that take no config parameter themselves
 * (MLE folds, eq-table builds, batch inversion). Proof transcripts are
 * bit-identical under every Config; only wall-clock changes.
 */
#ifndef ZKPHIRE_RT_CONFIG_HPP
#define ZKPHIRE_RT_CONFIG_HPP

#include <cstddef>

namespace zkphire::rt {

class ThreadPool;

struct Config {
    unsigned threads = 0;       ///< 0 = inherit ambient / runtime default.
    ThreadPool *pool = nullptr; ///< null = process-global pool.
    /** Element count at which prover tables switch to the chunk-streaming
     *  (mmap-slab) backend. 0 inherits the ambient setting / the
     *  ZKPHIRE_STREAM_THRESHOLD default; SIZE_MAX disables streaming;
     *  1 forces it for every table (the oracle tests pin this). */
    std::size_t streamThreshold = 0;
    /** Elements per chunk for streaming walks (commit pipeline, eq-table
     *  build). 0 inherits ambient / ZKPHIRE_STREAM_CHUNK / 2^20. */
    std::size_t streamChunk = 0;

    /** Config with `threads` resolved to the runtime default
     *  (ZKPHIRE_THREADS when set, hardware concurrency otherwise). */
    static Config defaults();
};

} // namespace zkphire::rt

#endif // ZKPHIRE_RT_CONFIG_HPP
