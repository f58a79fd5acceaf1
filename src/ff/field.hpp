/**
 * @file
 * Generic Montgomery-form prime field.
 *
 * PrimeField<Cfg> implements arithmetic modulo the prime given by Cfg in
 * Montgomery representation. The two instantiations used by zkPHIRE are the
 * BLS12-381 scalar field Fr (255-bit, the MLE/witness datatype) and base
 * field Fq (381-bit, elliptic-curve coordinates), matching the datatypes the
 * paper's datapaths move (255b and 381b operands).
 *
 * The hot path dispatches to the fully unrolled no-carry kernels in
 * ff/mul_impl.hpp for the 4- and 6-limb widths (both moduli leave headroom
 * in their top limb); the generic CIOS loop remains for other widths and as
 * a runtime-selectable oracle (ZKPHIRE_FF_GENERIC=1 /
 * kernels::forceGenericKernels) that the kernel property suite and the
 * transcript bit-identity regression check against.
 *
 * All derived Montgomery constants (R, R^2, -p^{-1} mod 2^64) are computed
 * once at first use from the modulus alone, so there are no hand-copied magic
 * constants to get wrong; unit tests cross-check them against independently
 * computed values.
 */
#ifndef ZKPHIRE_FF_FIELD_HPP
#define ZKPHIRE_FF_FIELD_HPP

#include <cstdint>
#include <iterator>
#include <string>

#include "ff/bigint.hpp"
#include "ff/mul_asm_x86.hpp"
#include "ff/mul_impl.hpp"
#include "ff/rng.hpp"

namespace zkphire::ff {

/**
 * Prime field element in Montgomery form.
 *
 * @tparam Cfg Configuration type providing:
 *   - static constexpr std::size_t numLimbs
 *   - static const char *modulusHex()
 *   - static constexpr const char *name()
 */
template <class Cfg>
class PrimeField
{
  public:
    static constexpr std::size_t numLimbs = Cfg::numLimbs;
    using Big = BigInt<numLimbs>;

  private:
    Big v; // Montgomery form: v = canonical * R mod p

    /** The modulus as a compile-time constant: baked into the unrolled
     *  kernels as instruction immediates (no limb loads on the hot path). */
    static constexpr Big kMod = Big::fromHex(Cfg::modulusHex());
    /** -p^{-1} mod 2^64. */
    static constexpr u64 kInv = kernels::negInvMod64(kMod.limb[0]);
    /** Whether the unrolled no-carry kernels apply to this field: a fixed
     *  kernel exists for the limb count and the modulus leaves the top-limb
     *  headroom the no-carry variant requires. */
    static constexpr bool kFixedKernels =
        kernels::kHasFixedKernel<numLimbs> &&
        kernels::noCarryModulusOk(kMod.limb[numLimbs - 1]);

    struct Consts {
        Big mod;       // p
        Big modMinus2; // p - 2 (Fermat inversion exponent)
        Big r;         // R = 2^(64*numLimbs) mod p (Montgomery one)
        Big r2;        // R^2 mod p
        u64 inv;       // -p^{-1} mod 2^64
        std::size_t bits; // bit length of p
    };

    /** Derived Montgomery constants; constexpr-computed, so access carries
     *  no initialization guard and loads fold against the constant image. */
    static const Consts &
    consts()
    {
        static constexpr Consts c = makeConsts();
        return c;
    }

    static constexpr Consts
    makeConsts()
    {
        Consts c{};
        c.mod = kMod;
        c.bits = c.mod.bitLength();
        c.modMinus2 = c.mod;
        c.modMinus2.subInPlace(Big(2));
        c.inv = kInv;
        // R mod p by 64*numLimbs modular doublings of 1.
        Big acc(1);
        for (std::size_t i = 0; i < 64 * numLimbs; ++i)
            modDouble(acc, c.mod);
        c.r = acc;
        // R^2 mod p by another 64*numLimbs doublings.
        for (std::size_t i = 0; i < 64 * numLimbs; ++i)
            modDouble(acc, c.mod);
        c.r2 = acc;
        return c;
    }

    /**
     * True when this operation should take the unrolled fixed-limb kernel:
     * used under `if constexpr (kFixedKernels)`, so the only runtime cost
     * is the oracle-flag load (ZKPHIRE_FF_GENERIC / forceGenericKernels).
     */
    static bool
    useFixedKernels()
    {
        return !kernels::genericKernelsForced();
    }

    /** acc = 2*acc mod p, assuming acc < p and p has headroom in the top limb. */
    static constexpr void
    modDouble(Big &acc, const Big &p)
    {
        u64 carry = acc.shl1InPlace();
        // zkphire-lint: ct-exempt(constexpr-time setup helper on the public modulus)
        if (carry || acc >= p)
            acc.subInPlace(p);
    }

    /**
     * Montgomery multiplication: returns a*b*R^{-1} mod p. Dispatches to
     * the unrolled no-carry kernel for the fixed limb counts (4 = Fr,
     * 6 = Fq); the generic CIOS loop below stays as the oracle path and
     * covers every other width.
     */
    static Big
    montMul(const Big &a, const Big &b)
    {
        if constexpr (kFixedKernels) {
            if (useFixedKernels()) [[likely]] {
                Big out;
#if ZKPHIRE_HAVE_X86_ASM
                if (kernels::asmKernelsEnabled()) [[likely]] {
                    kernels::montMulAsmX86<Big, kMod, kInv>(
                        out.limb.data(), a.limb.data(), b.limb.data());
                    return out;
                }
#endif
                kernels::montMulNoCarry<Big, kMod, kInv>(
                    out.limb.data(), a.limb.data(), b.limb.data());
                return out;
            }
        }
        return montMulGeneric(a, b);
    }

    /** Montgomery squaring: a*a*R^{-1} mod p. The asm dual-carry-chain
     *  multiplier with both operands equal beats the dedicated unrolled
     *  C++ square on ADX hosts (see mul_asm_x86.hpp); the C++ square
     *  (~17-19% fewer limb muls than a general product) remains the
     *  portable fast path. */
    static Big
    montSquare(const Big &a)
    {
        if constexpr (kFixedKernels) {
            if (useFixedKernels()) [[likely]] {
                Big out;
#if ZKPHIRE_HAVE_X86_ASM
                if (kernels::asmKernelsEnabled()) [[likely]] {
                    kernels::montMulAsmX86<Big, kMod, kInv>(
                        out.limb.data(), a.limb.data(), a.limb.data());
                    return out;
                }
#endif
                kernels::montSquare<Big, kMod, kInv>(out.limb.data(),
                                                     a.limb.data());
                return out;
            }
        }
        return montMulGeneric(a, a);
    }

    /** Generic CIOS Montgomery multiplication (any limb count; the oracle
     *  the unrolled kernels are property-tested against). Never inlined:
     *  it is the cold branch of every dispatch site, and inlining its loop
     *  body next to the unrolled kernel costs the hot path registers. */
#if defined(__GNUC__)
    __attribute__((noinline))
#endif
    static Big
    montMulGeneric(const Big &a, const Big &b)
    {
        constexpr std::size_t N = numLimbs;
        const Consts &c = consts();
        u64 t[N + 2] = {0};
        for (std::size_t i = 0; i < N; ++i) {
            u64 carry = 0;
            for (std::size_t j = 0; j < N; ++j) {
                u128 s = (u128)t[j] + (u128)a.limb[j] * b.limb[i] + carry;
                t[j] = (u64)s;
                carry = (u64)(s >> 64);
            }
            u128 s = (u128)t[N] + carry;
            t[N] = (u64)s;
            t[N + 1] = (u64)(s >> 64);

            u64 m = t[0] * c.inv;
            u128 s2 = (u128)t[0] + (u128)m * c.mod.limb[0];
            carry = (u64)(s2 >> 64);
            for (std::size_t j = 1; j < N; ++j) {
                u128 s3 = (u128)t[j] + (u128)m * c.mod.limb[j] + carry;
                t[j - 1] = (u64)s3;
                carry = (u64)(s3 >> 64);
            }
            s2 = (u128)t[N] + carry;
            t[N - 1] = (u64)s2;
            t[N] = t[N + 1] + (u64)(s2 >> 64);
        }
        Big out;
        for (std::size_t j = 0; j < N; ++j)
            out.limb[j] = t[j];
        // For our moduli (p < 2^(64N-1)) the pre-reduction result is < 2p.
        // zkphire-lint: ct-exempt(generic CIOS oracle; the shipping fixed-limb kernels reduce branchlessly via condSubModulus)
        if (t[N] || out >= c.mod)
            out.subInPlace(c.mod);
        return out;
    }

  public:
    constexpr PrimeField() = default;

    static const Big &modulus() { return consts().mod; }
    static std::size_t modulusBits() { return consts().bits; }
    static constexpr const char *name() { return Cfg::name(); }

    static PrimeField
    zero()
    {
        return PrimeField();
    }

    static PrimeField
    one()
    {
        PrimeField f;
        f.v = consts().r;
        return f;
    }

    /** Lift a canonical (non-Montgomery) integer < p into the field. Runs
     *  the generic kernel: lifting is cold, and the generic CIOS tolerates
     *  slightly out-of-range inputs (deserialization of untrusted bytes)
     *  where the no-carry kernel's a, b < p precondition would not hold. */
    static PrimeField
    fromBig(const Big &canonical)
    {
        PrimeField f;
        f.v = montMulGeneric(canonical, consts().r2);
        return f;
    }

    static PrimeField
    fromU64(u64 x)
    {
        return fromBig(Big(x));
    }

    /** Signed small-integer lift (handles negative constants in gate exprs). */
    static PrimeField
    fromI64(std::int64_t x)
    {
        if (x >= 0)
            return fromU64(u64(x));
        return fromU64(u64(-x)).neg();
    }

    static PrimeField
    fromHex(std::string_view hex)
    {
        return fromBig(Big::fromHex(hex));
    }

    /** Convert back to canonical integer representation. */
    Big
    toBig() const
    {
        return montMul(v, Big(1));
    }

    std::string toHexString() const { return toBig().toHex(); }

    /** Raw Montgomery-form access for hashing/serialization of field state. */
    const Big &raw() const { return v; }

    /**
     * Sample uniformly at random by rejection from `bits`-bit integers.
     */
    static PrimeField
    random(Rng &rng)
    {
        const Consts &c = consts();
        Big b;
        do {
            for (std::size_t i = 0; i < numLimbs; ++i)
                b.limb[i] = rng.next();
            std::size_t top_bits = c.bits % 64 == 0 ? 64 : c.bits % 64;
            std::size_t top_limb = (c.bits - 1) / 64;
            if (top_bits < 64)
                b.limb[top_limb] &= (u64(1) << top_bits) - 1;
            for (std::size_t i = top_limb + 1; i < numLimbs; ++i)
                b.limb[i] = 0;
        } while (b >= c.mod); // zkphire-lint: ct-exempt(rejection sampling; only discarded randomness affects timing)
        return fromBig(b);
    }

    /**
     * Derive a field element from hash output (Fiat-Shamir challenges).
     * Interprets the first 8*numLimbs bytes little-endian and masks to
     * (modulusBits - 3) bits, guaranteeing a value < p with negligible bias
     * for protocol-simulation purposes.
     */
    static PrimeField
    fromHashBytes(const std::uint8_t *bytes)
    {
        const Consts &c = consts();
        Big b = Big::fromBytesLe(bytes);
        std::size_t keep = c.bits - 3;
        std::size_t top_limb = keep / 64;
        if (top_limb < numLimbs) {
            std::size_t rem = keep % 64;
            b.limb[top_limb] &= rem ? (u64(1) << rem) - 1 : 0;
            for (std::size_t i = top_limb + 1; i < numLimbs; ++i)
                b.limb[i] = 0;
        }
        return fromBig(b);
    }

    bool isZero() const { return v.isZero(); }
    bool isOne() const { return v == consts().r; }

    bool operator==(const PrimeField &o) const { return v == o.v; }
    bool operator!=(const PrimeField &o) const { return v != o.v; }

    PrimeField
    operator+(const PrimeField &o) const
    {
        PrimeField f = *this;
        f += o;
        return f;
    }

    PrimeField &
    operator+=(const PrimeField &o)
    {
        if constexpr (kFixedKernels) {
            if (useFixedKernels()) [[likely]] {
                kernels::addMod<Big, kMod>(v.limb.data(), v.limb.data(),
                                           o.v.limb.data());
                return *this;
            }
        }
        u64 carry = v.addInPlace(o.v);
        // zkphire-lint: ct-exempt(generic fallback; fixed-limb builds take the branchless kernel above)
        if (carry || v >= consts().mod)
            v.subInPlace(consts().mod);
        return *this;
    }

    PrimeField
    operator-(const PrimeField &o) const
    {
        PrimeField f = *this;
        f -= o;
        return f;
    }

    PrimeField &
    operator-=(const PrimeField &o)
    {
        if constexpr (kFixedKernels) {
            if (useFixedKernels()) [[likely]] {
                kernels::subMod<Big, kMod>(v.limb.data(), v.limb.data(),
                                           o.v.limb.data());
                return *this;
            }
        }
        u64 borrow = v.subInPlace(o.v);
        // zkphire-lint: ct-exempt(generic fallback; fixed-limb builds take the branchless kernel above)
        if (borrow)
            v.addInPlace(consts().mod);
        return *this;
    }

    PrimeField
    neg() const
    {
        if constexpr (kFixedKernels) {
            if (useFixedKernels()) [[likely]] {
                PrimeField f;
                kernels::negMod<Big, kMod>(f.v.limb.data(), v.limb.data());
                return f;
            }
        }
        if (isZero())
            return *this;
        PrimeField f;
        f.v = consts().mod;
        f.v.subInPlace(v);
        return f;
    }

    PrimeField operator-() const { return neg(); }

    PrimeField
    operator*(const PrimeField &o) const
    {
        PrimeField f;
        f.v = montMul(v, o.v);
        return f;
    }

    PrimeField &
    operator*=(const PrimeField &o)
    {
        v = montMul(v, o.v);
        return *this;
    }

    PrimeField
    square() const
    {
        PrimeField f;
        f.v = montSquare(v);
        return f;
    }

    PrimeField
    dbl() const
    {
        if constexpr (kFixedKernels) {
            if (useFixedKernels()) [[likely]] {
                PrimeField f;
                kernels::dblMod<Big, kMod>(f.v.limb.data(), v.limb.data());
                return f;
            }
        }
        PrimeField f = *this;
        u64 carry = f.v.shl1InPlace();
        // zkphire-lint: ct-exempt(generic fallback; fixed-limb builds take the branchless kernel above)
        if (carry || f.v >= consts().mod)
            f.v.subInPlace(consts().mod);
        return f;
    }

    /**
     * Exponentiation by a canonical BigInt exponent in fixed 4-bit
     * windows: a table of this^0 .. this^15 (14 multiplies), then four
     * squarings and one table multiply per window, most significant
     * first (a zero window skips its multiply). The Fq inverse costs 485
     * multiplies this way against 610 bit by bit, the Fr inverse 325
     * against 419; the bit-by-bit ladder is the test oracle
     * (tests/field_oracle.hpp).
     */
    // zkphire-lint: ct-exempt(every call site passes a public modulus-derived exponent: inversion, sqrt, subgroup checks)
    PrimeField
    pow(const Big &e) const
    {
        constexpr std::size_t kWindow = 4;
        const std::size_t nbits = e.bitLength();
        if (nbits == 0)
            return one();
        PrimeField table[std::size_t(1) << kWindow];
        table[0] = one();
        table[1] = *this;
        for (std::size_t i = 2; i < std::size(table); ++i)
            table[i] = table[i - 1] * *this;
        // 4 divides 64, so no window straddles a limb.
        std::size_t w = (nbits + kWindow - 1) / kWindow - 1;
        PrimeField acc = table[e.bits(w * kWindow, kWindow)];
        while (w-- > 0) {
            for (std::size_t k = 0; k < kWindow; ++k)
                acc = acc.square();
            if (const u64 digit = e.bits(w * kWindow, kWindow))
                acc *= table[digit];
        }
        return acc;
    }

    PrimeField pow(u64 e) const { return pow(Big(e)); }

    /**
     * Multiplicative inverse via Fermat's little theorem (a^(p-2)).
     * @pre *this != 0 (asserted).
     */
    PrimeField
    inverse() const
    {
        assert(!isZero() && "inverse of zero");
        return pow(consts().modMinus2);
    }

    /** Euler criterion: is this element a square? (zero counts as one). */
    bool
    isSquare() const
    {
        if (isZero())
            return true;
        // (p-1)/2 exponent.
        Big e = consts().mod;
        e.subInPlace(Big(1));
        e.shr1InPlace();
        return pow(e).isOne();
    }

    /**
     * Square root via Tonelli-Shanks (handles the BLS12-381 scalar field's
     * high 2-adicity). Returns false and leaves out untouched when the
     * element is a non-residue.
     */
    // zkphire-lint: ct-exempt(Tonelli-Shanks is inherently value-dependent; used on public curve points, never witness limbs)
    bool
    sqrt(PrimeField &out) const
    {
        if (isZero()) {
            out = zero();
            return true;
        }
        if (!isSquare())
            return false;
        // p - 1 = q * 2^s with q odd.
        Big q = consts().mod;
        q.subInPlace(Big(1));
        std::size_t s = 0;
        while (!q.bit(0)) {
            q.shr1InPlace();
            ++s;
        }
        // Find a non-residue z (deterministic scan; tiny, done per call).
        PrimeField z = fromU64(2);
        while (z.isSquare())
            z += one();
        PrimeField c = z.pow(q);
        PrimeField t = pow(q);
        // r = a^((q+1)/2).
        Big q_plus_1 = q;
        q_plus_1.addInPlace(Big(1));
        q_plus_1.shr1InPlace();
        PrimeField r = pow(q_plus_1);
        std::size_t m = s;
        while (!t.isOne()) {
            // Least i with t^(2^i) == 1.
            std::size_t i = 0;
            PrimeField t2 = t;
            while (!t2.isOne()) {
                t2 = t2.square();
                ++i;
            }
            PrimeField b = c;
            for (std::size_t j = 0; j + i + 1 < m; ++j)
                b = b.square();
            m = i;
            c = b.square();
            t *= c;
            r *= b;
        }
        out = r;
        return true;
    }

    /** Serialize the canonical value little-endian (8*numLimbs bytes). */
    void
    toBytesLe(std::uint8_t *out) const
    {
        toBig().toBytesLe(out);
    }
};

} // namespace zkphire::ff

#endif // ZKPHIRE_FF_FIELD_HPP
