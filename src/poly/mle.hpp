/**
 * @file
 * Multilinear extensions (MLEs) stored as dense evaluation tables.
 *
 * An Mle over mu variables is the table of its 2^mu evaluations on the
 * boolean hypercube, "flat lookup tables indexed by binary inputs" as the
 * paper puts it. Index convention (DESIGN.md): little-endian — bit 0 of the
 * table index is X1, the first variable a SumCheck round sums over and then
 * fixes. Consequently "MLE Update" (fixing X1 := r) combines adjacent entry
 * pairs (2j, 2j+1), exactly the pairing shown in Fig. 1 of the paper.
 *
 * Tables live in a poly::FrTable (mle_store.hpp), which transparently picks
 * the in-RAM or mmap-slab streaming backend by size — every operation here
 * is bit-identical under either backend.
 */
#ifndef ZKPHIRE_POLY_MLE_HPP
#define ZKPHIRE_POLY_MLE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ff/fr.hpp"
#include "ff/rng.hpp"
#include "poly/mle_store.hpp"

namespace zkphire::poly {

using ff::Fr;

/** Fraction of entries that are 0 / 1 / other, consumed by the traffic model. */
struct SparsityStats {
    double fracZero = 0.0;
    double fracOne = 0.0;
    /** Fraction of full-width (255-bit) entries. */
    double fracDense() const { return 1.0 - fracZero - fracOne; }
};

/**
 * Dense multilinear extension table over the boolean hypercube.
 */
class Mle
{
  public:
    Mle() = default;

    /** Construct a zero MLE over num_vars variables. */
    explicit Mle(unsigned num_vars);

    /** Adopt an existing evaluation table; size must be a power of two. */
    explicit Mle(std::vector<Fr> evals);

    /** Adopt a storage table; size must be a power of two. */
    explicit Mle(FrTable table);

    /** Constant polynomial c over num_vars variables. */
    static Mle constant(unsigned num_vars, const Fr &c);

    /** Uniformly random table (witness-style test data). */
    static Mle random(unsigned num_vars, ff::Rng &rng);

    /**
     * Sparse random table mimicking the witness statistics the paper models
     * (~90% of entries in {0,1}): each entry is 0 with probability p_zero,
     * 1 with probability p_one, otherwise uniform.
     */
    static Mle randomSparse(unsigned num_vars, ff::Rng &rng, double p_zero,
                            double p_one);

    /**
     * The eq(x, r) table: eq(x,r) = prod_i (x_i r_i + (1-x_i)(1-r_i)).
     * This is the paper's "Build MLE" kernel constructing the ZeroCheck
     * masking polynomial f_r from the challenge vector r. Built chunk-local
     * via eqTableInto, so a streamed table is materialized O(chunk) at a
     * time.
     */
    static Mle eqTable(std::span<const Fr> r);

    unsigned numVars() const { return nVars; }
    std::size_t size() const { return vals.size(); }

    const Fr &operator[](std::size_t i) const { return vals[i]; }
    Fr &operator[](std::size_t i) { return vals[i]; }
    const Fr *data() const { return vals.data(); }
    Fr *data() { return vals.data(); }

    std::span<const Fr> evals() const { return vals.span(); }
    std::span<Fr> evals() { return {vals.data(), vals.size()}; }

    /** Storage backend access (streaming walks use the madvise hooks). */
    const FrTable &store() const { return vals; }
    FrTable &store() { return vals; }
    bool isMapped() const { return vals.isMapped(); }

    /**
     * MLE Update: fix X1 := r, halving the table. new[j] =
     * old[2j]*(1-r) + old[2j+1]*r = old[2j] + r*(old[2j+1]-old[2j]).
     */
    void fixFirstVarInPlace(const Fr &r);

    /**
     * MLE Update with a caller-owned double buffer. The parallel fold path
     * cannot run in place (concurrent chunks would overlap reads and
     * writes), so it folds into `scratch` and swaps — across SumCheck
     * rounds the two buffers alternate and no per-round allocation happens
     * once `scratch` has the table's capacity. The serial path folds in
     * place and leaves `scratch` untouched. Values are bit-identical to the
     * scratch-less overload.
     */
    void fixFirstVarInPlace(const Fr &r, FrTable &scratch);

    /**
     * Adopt an externally folded half-size table (the double-buffer seam
     * VirtualPoly::foldAndAccumulate writes through): this table and
     * `folded` swap backings and the variable count drops by one, exactly
     * like the parallel fixFirstVarInPlace path.
     */
    void swapFolded(FrTable &folded);

    /** Non-destructive MLE Update into a half-size arena table. */
    Mle fixFirstVar(const Fr &r) const;

    /** Full evaluation at an arbitrary point (numVars coordinates). Folds
     *  through half-size arena tables; the table itself is only read. */
    Fr evaluate(std::span<const Fr> point) const;

    /** Sum of all table entries (the SumCheck claim for a bare MLE). */
    Fr sumOverHypercube() const;

    /** Measure actual 0/1 sparsity of the table. */
    SparsityStats sparsity() const;

    bool operator==(const Mle &o) const = default;

  private:
    FrTable vals;
    unsigned nVars = 0;
};

/**
 * Build the eq(x, r) table into an existing table (resized to 2^|r|),
 * chunk-locally: a size-2^s suffix table over the low s variables is built
 * once (s = log2 of the ambient stream chunk), then each chunk of the
 * output is that suffix table scaled by the chunk's prefix weight
 * prod_{i>=s} (c_i r_i + (1-c_i)(1-r_i)). Exact field arithmetic makes the
 * result bit-identical to the doubling construction, while only O(chunk)
 * of the output is hot at a time (and each chunk is first-touched by the
 * pool thread that fills it).
 */
void eqTableInto(std::span<const Fr> r, FrTable &out);

/**
 * Sum_i coeffs[i] * tables[i] in an arena table (on the backend the store
 * policy picks for its size). All tables have one size; a table listed
 * more than once is walked once with its coefficients summed.
 */
Mle linearCombination(std::span<const Mle *const> tables,
                      std::span<const Fr> coeffs);

/**
 * Evaluate eq(x, y) for two arbitrary points of equal dimension:
 * prod_i (x_i y_i + (1-x_i)(1-y_i)).
 */
Fr eqEval(std::span<const Fr> x, std::span<const Fr> y);

} // namespace zkphire::poly

#endif // ZKPHIRE_POLY_MLE_HPP
