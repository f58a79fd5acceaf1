/**
 * @file
 * Structured reference string for the multilinear KZG (PST13) commitment
 * scheme HyperPlonk uses.
 *
 * The SRS holds the Lagrange-basis G1 points L_i = eq(tau, bits(i)) * G for
 * the full variable vector and for every variable suffix (the bases the
 * per-variable quotient proofs are committed under). tau itself is retained
 * as the *simulation trapdoor*: the paper's accelerator only ever runs the
 * prover, and our testing verifier checks the KZG identity directly in G1
 * using tau instead of a pairing (see DESIGN.md substitutions). A production
 * deployment would discard tau and verify with a pairing over G2 elements.
 */
#ifndef ZKPHIRE_PCS_SRS_HPP
#define ZKPHIRE_PCS_SRS_HPP

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ec/fixed_base.hpp"
#include "ec/g1.hpp"
#include "hash/transcript.hpp"

namespace zkphire::pcs {

using ec::G1Affine;
using ec::G1Jacobian;
using ff::Fr;

/** Lagrange bases for one polynomial size mu. */
struct LevelBases {
    /**
     * suffix[s] = basis over (tau_s .. tau_{mu-1}), size 2^(mu-s).
     * suffix[0] commits mu-variable polynomials; suffix[mu] = {G}.
     */
    std::vector<std::vector<G1Affine>> suffix;
};

/**
 * Universal SRS supporting polynomials of up to maxVars variables.
 */
class Srs
{
  public:
    /** Run the (simulated) universal setup ceremony. */
    static Srs generate(unsigned max_vars, ff::Rng &rng);

    unsigned maxVars() const { return unsigned(tauVec.size()); }
    const std::vector<Fr> &tau() const { return tauVec; }

    /**
     * Lagrange bases for mu-variable polynomials, built on first use and
     * cached. Thread-safe: concurrent callers of one level wait for a
     * single build, and different levels build concurrently.
     */
    const LevelBases &basesFor(unsigned mu) const;

    /** The G1 generator the bases are built over. */
    const G1Affine &generator() const { return gen; }

  private:
    /** One cached level; its bases are empty until built. */
    struct Level {
        std::mutex buildMu; ///< Guards bases until they are built.
        LevelBases bases;
    };
    /** Level map behind a pointer so Srs stays movable. */
    struct LevelCache {
        std::mutex cacheMu; ///< Guards the map's shape; a leaf lock.
        std::map<unsigned, Level> levels;
    };

    LevelBases buildLevel(unsigned mu) const;

    std::vector<Fr> tauVec;
    G1Affine gen;
    std::unique_ptr<ec::FixedBaseMul> genMul;
    std::unique_ptr<LevelCache> cache = std::make_unique<LevelCache>();
};

/** Absorb a G1 point into a Fiat-Shamir transcript (x || y || inf byte). */
void appendG1(hash::Transcript &tr, std::string_view label, const G1Affine &p);

} // namespace zkphire::pcs

#endif // ZKPHIRE_PCS_SRS_HPP
