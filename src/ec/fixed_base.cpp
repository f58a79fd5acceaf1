#include "ec/fixed_base.hpp"

#include <cassert>

#include "ec/glv.hpp"
#include "ec/recode.hpp"

namespace zkphire::ec {

FixedBaseMul::FixedBaseMul(const G1Affine &base)
{
    useGlv = glv::available();
    const std::size_t scalar_bits =
        useGlv ? glv::kHalfBits : Fr::modulusBits();
    numWindows = signedDigitWindows(scalar_bits, windowBits);

    // Positive magnitudes in Jacobian form: jac[w*halfDigits + d - 1] =
    // d * 256^w * B. The d = 128 entry doubles into the next window's base.
    std::vector<G1Jacobian> jac(numWindows * halfDigits);
    G1Jacobian window_base = G1Jacobian::fromAffine(base);
    for (std::size_t w = 0; w < numWindows; ++w) {
        G1Jacobian acc = window_base;
        for (unsigned d = 1; d <= halfDigits; ++d) {
            jac[w * halfDigits + d - 1] = acc;
            acc = acc.add(window_base);
        }
        window_base = jac[w * halfDigits + halfDigits - 1].dbl();
    }

    // One shared inversion normalizes every entry; negations are free.
    const std::vector<G1Affine> aff = batchToAffine(jac);
    table.resize(numWindows);
    for (std::size_t w = 0; w < numWindows; ++w) {
        for (unsigned d = 0; d < halfDigits; ++d) {
            const G1Affine &p = aff[w * halfDigits + d];
            table[w][d] = p;
            table[w][halfDigits + d] =
                // zkphire-lint: ct-exempt(table precompute over public SRS base points)
                p.infinity ? p : G1Affine{p.x, p.y.neg(), false};
        }
    }

    if (useGlv) {
        // phi(P) = (beta * x, y) maps each table entry to the matching
        // multiple of phi(B) = lambda * B — no group ops needed.
        const Fq beta = glv::params().beta;
        phiTable.resize(numWindows);
        for (std::size_t w = 0; w < numWindows; ++w) {
            for (unsigned i = 0; i < 2 * halfDigits; ++i) {
                const G1Affine &p = table[w][i];
                phiTable[w][i] =
                    // zkphire-lint: ct-exempt(table precompute over public SRS base points)
                    p.infinity ? p : G1Affine{p.x * beta, p.y, false};
            }
        }
    }
}

void
FixedBaseMul::addDigit(G1Jacobian &acc, const Window &win, std::int32_t d)
{
    if (d > 0)
        acc = acc.addMixed(win[unsigned(d) - 1]);
    else if (d < 0)
        acc = acc.addMixed(win[halfDigits + unsigned(-d) - 1]);
}

G1Jacobian
FixedBaseMul::mul(const Fr &k) const
{
    // 255-bit scalars need at most signedDigitWindows(255, 8) = 32 digits;
    // the GLV halves use 17 each.
    std::int32_t digits[2][signedDigitWindows(255, windowBits)];
    G1Jacobian acc = G1Jacobian::identity();
    if (useGlv) {
        ff::BigInt<4> k1, k2;
        glv::decompose(k.toBig(), k1, k2);
        recodeSignedDigits(k1, windowBits, numWindows, digits[0], 1);
        recodeSignedDigits(k2, windowBits, numWindows, digits[1], 1);
        for (std::size_t w = 0; w < numWindows; ++w) {
            addDigit(acc, table[w], digits[0][w]);
            addDigit(acc, phiTable[w], digits[1][w]);
        }
    } else {
        recodeSignedDigits(k.toBig(), windowBits, numWindows, digits[0], 1);
        for (std::size_t w = 0; w < numWindows; ++w)
            addDigit(acc, table[w], digits[0][w]);
    }
    return acc;
}

} // namespace zkphire::ec
