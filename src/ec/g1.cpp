#include "ec/g1.hpp"

#include "ec/glv.hpp"
#include "ff/batch_inverse.hpp"

namespace zkphire::ec {

namespace {

const Fq &
curveB()
{
    static const Fq b = Fq::fromU64(4);
    return b;
}

} // namespace

bool
G1Affine::isOnCurve() const
{
    if (infinity)
        return true;
    return y.square() == x.square() * x + curveB();
}

bool
G1Affine::isInSubgroup() const
{
    // [lambda]P comes from the plain walk: mulScalar's GLV split assumes P
    // is in G1 already.
    const G1Jacobian p = G1Jacobian::fromAffine(*this);
    if (!glv::available())
        return p.mulScalarPlain(Fr::zero() - Fr::one()).add(p).isIdentity();
    return glv::endomorphism(p) == p.mulScalarPlain(glv::params().lambdaFr);
}

// zkphire-lint: ct-exempt(equality on public/normalized points: commitments, oracle checks, tests)
bool
G1Affine::operator==(const G1Affine &o) const
{
    if (infinity || o.infinity)
        return infinity == o.infinity;
    return x == o.x && y == o.y;
}

G1Jacobian
G1Jacobian::identity()
{
    return G1Jacobian{Fq::one(), Fq::one(), Fq::zero()};
}

// zkphire-lint: ct-exempt(identity-encoding check when lifting affine points)
G1Jacobian
G1Jacobian::fromAffine(const G1Affine &p)
{
    if (p.infinity)
        return identity();
    return G1Jacobian{p.x, p.y, Fq::one()};
}

G1Jacobian
G1Jacobian::dbl() const
{
    if (isIdentity())
        return *this;
    // dbl-2009-l (a = 0): A = X^2, B = Y^2, C = B^2,
    // D = 2((X+B)^2 - A - C), E = 3A, F = E^2.
    Fq a = X.square();
    Fq b = Y.square();
    Fq cc = b.square();
    Fq d = ((X + b).square() - a - cc).dbl();
    Fq e = a.dbl() + a;
    Fq f = e.square();
    G1Jacobian out;
    out.X = f - d.dbl();
    out.Y = e * (d - out.X) - cc.dbl().dbl().dbl();
    out.Z = (Y * Z).dbl();
    return out;
}

// zkphire-lint: ct-exempt(identity/doubling special cases of the Jacobian group law; complete addition formulas are the ct fix and are tracked in ROADMAP)
G1Jacobian
G1Jacobian::add(const G1Jacobian &o) const
{
    if (isIdentity())
        return o;
    if (o.isIdentity())
        return *this;
    // add-2007-bl.
    Fq z1z1 = Z.square();
    Fq z2z2 = o.Z.square();
    Fq u1 = X * z2z2;
    Fq u2 = o.X * z1z1;
    Fq s1 = Y * o.Z * z2z2;
    Fq s2 = o.Y * Z * z1z1;
    if (u1 == u2) {
        if (s1 == s2)
            return dbl();
        return identity();
    }
    Fq h = u2 - u1;
    Fq i = h.dbl().square();
    Fq j = h * i;
    Fq r = (s2 - s1).dbl();
    Fq v = u1 * i;
    G1Jacobian out;
    out.X = r.square() - j - v.dbl();
    out.Y = r * (v - out.X) - (s1 * j).dbl();
    out.Z = ((Z + o.Z).square() - z1z1 - z2z2) * h;
    return out;
}

// zkphire-lint: ct-exempt(identity/doubling special cases of the Jacobian group law; complete addition formulas are the ct fix and are tracked in ROADMAP)
G1Jacobian
G1Jacobian::addMixed(const G1Affine &o) const
{
    if (o.infinity)
        return *this;
    if (isIdentity())
        return fromAffine(o);
    // madd-2007-bl (Z2 = 1).
    Fq z1z1 = Z.square();
    Fq u2 = o.x * z1z1;
    Fq s2 = o.y * Z * z1z1;
    if (X == u2) {
        if (Y == s2)
            return dbl();
        return identity();
    }
    Fq h = u2 - X;
    Fq hh = h.square();
    Fq i = hh.dbl().dbl();
    Fq j = h * i;
    Fq r = (s2 - Y).dbl();
    Fq v = X * i;
    G1Jacobian out;
    out.X = r.square() - j - v.dbl();
    out.Y = r * (v - out.X) - (Y * j).dbl();
    out.Z = (Z + h).square() - z1z1 - hh;
    return out;
}

G1Jacobian
G1Jacobian::neg() const
{
    G1Jacobian out = *this;
    out.Y = out.Y.neg();
    return out;
}

G1Jacobian
G1Jacobian::mulScalarPlain(const Fr &k) const
{
    auto bits = k.toBig();
    G1Jacobian acc = identity();
    std::size_t nbits = bits.bitLength();
    for (std::size_t i = nbits; i-- > 0;) {
        acc = acc.dbl();
        // zkphire-lint: ct-exempt(variable-time oracle; hot paths go through MSM)
        if (bits.bit(i))
            acc = acc.add(*this);
    }
    return acc;
}

G1Jacobian
G1Jacobian::mulScalar(const Fr &k) const
{
    if (!glv::available())
        return mulScalarPlain(k);
    ff::BigInt<4> k1, k2;
    glv::decompose(k.toBig(), k1, k2);
    // Joint Shamir table over the two <= 128-bit halves: one doubling per
    // bit position serves both k1 (against P) and k2 (against phi(P)),
    // halving the ~255 doublings of the plain walk.
    const G1Jacobian phi = glv::endomorphism(*this);
    const G1Jacobian table[3] = {*this, phi, add(phi)};
    G1Jacobian acc = identity();
    std::size_t nbits = std::max(k1.bitLength(), k2.bitLength());
    for (std::size_t i = nbits; i-- > 0;) {
        acc = acc.dbl();
        // zkphire-lint: ct-exempt(digit-serial like the plain oracle; ct scalar mul tracked in ROADMAP)
        const unsigned idx =
            unsigned(k1.bit(i)) | (unsigned(k2.bit(i)) << 1);
        if (idx)
            acc = acc.add(table[idx - 1]);
    }
    return acc;
}

G1Affine
G1Jacobian::toAffine() const
{
    if (isIdentity())
        return G1Affine{};
    Fq z_inv = Z.inverse();
    Fq z_inv2 = z_inv.square();
    G1Affine out;
    out.x = X * z_inv2;
    out.y = Y * z_inv2 * z_inv;
    out.infinity = false;
    return out;
}

// zkphire-lint: ct-exempt(cross-representative equality used by oracle tests and parameter self-checks)
bool
G1Jacobian::operator==(const G1Jacobian &o) const
{
    if (isIdentity() || o.isIdentity())
        return isIdentity() == o.isIdentity();
    // X1 Z2^2 == X2 Z1^2 and Y1 Z2^3 == Y2 Z1^3.
    Fq z1z1 = Z.square();
    Fq z2z2 = o.Z.square();
    return X * z2z2 == o.X * z1z1 &&
           Y * z2z2 * o.Z == o.Y * z1z1 * Z;
}

// zkphire-lint: ct-exempt(identity skip mirrors toAffine; normalization runs on commitment outputs, not witness limbs)
std::vector<G1Affine>
batchToAffine(std::span<const G1Jacobian> pts)
{
    std::vector<G1Affine> out(pts.size());
    std::vector<Fq> zs;
    zs.reserve(pts.size());
    for (const G1Jacobian &p : pts)
        if (!p.isIdentity())
            zs.push_back(p.Z);
    ff::batchInverseInPlace(std::span<Fq>(zs));
    std::size_t zi = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].isIdentity())
            continue; // out[i] default-constructs to the identity
        const Fq z_inv = zs[zi++];
        const Fq z_inv2 = z_inv.square();
        out[i].x = pts[i].X * z_inv2;
        out[i].y = pts[i].Y * z_inv2 * z_inv;
        out[i].infinity = false;
    }
    return out;
}

const G1Affine &
g1Generator()
{
    static const G1Affine gen = [] {
        G1Affine g;
        g.x = Fq::fromHex(
            "0x17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
            "6c55e83ff97a1aeffb3af00adb22c6bb");
        g.y = Fq::fromHex(
            "0x08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3ed"
            "d03cc744a2888ae40caa232946c5e7e1");
        g.infinity = false;
        assert(g.isOnCurve() && "bad generator constants");
        return g;
    }();
    return gen;
}

G1Affine
randomG1(ff::Rng &rng)
{
    Fr k = Fr::random(rng);
    return G1Jacobian::fromAffine(g1Generator()).mulScalar(k).toAffine();
}

} // namespace zkphire::ec
