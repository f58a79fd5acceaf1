/**
 * @file
 * BLS12-381 G1 group arithmetic.
 *
 * The curve is y^2 = x^3 + 4 over Fq. Points are kept in Jacobian
 * projective coordinates on the hot path (the hardware's fully-pipelined
 * PADD units operate on projective points) with affine conversion at
 * API boundaries. Used by the multilinear-KZG commitment scheme and the
 * MSM kernels that dominate HyperPlonk's runtime.
 */
#ifndef ZKPHIRE_EC_G1_HPP
#define ZKPHIRE_EC_G1_HPP

#include <span>
#include <vector>

#include "ff/fq.hpp"
#include "ff/fr.hpp"
#include "ff/rng.hpp"

namespace zkphire::ec {

using ff::Fq;
using ff::Fr;

/** Affine G1 point; (0, 0, infinity=true) encodes the identity. */
struct G1Affine {
    Fq x;
    Fq y;
    bool infinity = true;

    /** Membership test: y^2 == x^3 + 4 (identity passes). */
    bool isOnCurve() const;

    /**
     * Membership in the prime-order subgroup G1 (identity passes). The
     * curve has cofactor (z - 1)^2 / 3, about 2^126, so most points that
     * pass isOnCurve fail this. The test is phi(P) == [lambda]P, which
     * holds on G1 (glv.hpp); without the GLV parameters it is [r]P == O.
     * @pre isOnCurve().
     */
    bool isInSubgroup() const;

    bool operator==(const G1Affine &o) const;
};

/** Jacobian G1 point (X/Z^2, Y/Z^3); Z == 0 encodes the identity. */
struct G1Jacobian {
    Fq X;
    Fq Y;
    Fq Z;

    /** The group identity. */
    static G1Jacobian identity();

    /** Lift an affine point. */
    static G1Jacobian fromAffine(const G1Affine &p);

    bool isIdentity() const { return Z.isZero(); }

    /** Full Jacobian + Jacobian addition (handles doubling/identity). */
    G1Jacobian add(const G1Jacobian &o) const;

    /** Mixed Jacobian + affine addition — the hardware PADD's case. */
    G1Jacobian addMixed(const G1Affine &o) const;

    /** Point doubling. */
    G1Jacobian dbl() const;

    G1Jacobian neg() const;

    /**
     * Scalar multiplication (canonical scalar bits). When the GLV
     * parameters verify, k splits as k1 + lambda*k2 (both halves < 2^128)
     * and a joint Shamir walk over {P, phi(P), P + phi(P)} halves the
     * doubling count; otherwise falls back to mulScalarPlain. Both paths
     * return bit-identical Jacobian coordinates for the same operation
     * sequence domain — equality is locked by the GLV suite via toAffine.
     */
    G1Jacobian mulScalar(const Fr &k) const;

    /** Plain double-and-add oracle for mulScalar; also used by the GLV
     *  parameter self-checks, which run before glv::params() is usable. */
    G1Jacobian mulScalarPlain(const Fr &k) const;

    /** Normalize to affine (one field inversion). */
    G1Affine toAffine() const;

    bool operator==(const G1Jacobian &o) const;
};

/**
 * Normalize many Jacobian points to affine with one shared field inversion
 * (Montgomery's trick over the Z coordinates). Each output equals
 * pts[i].toAffine() exactly — inverses are canonical — at ~5 field muls per
 * point instead of one ~380-mul Fermat inversion each.
 */
std::vector<G1Affine> batchToAffine(std::span<const G1Jacobian> pts);

/** The standard BLS12-381 G1 generator. */
const G1Affine &g1Generator();

/** Deterministic pseudo-random group element: generator * random scalar. */
G1Affine randomG1(ff::Rng &rng);

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_G1_HPP
