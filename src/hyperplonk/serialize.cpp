#include "hyperplonk/serialize.hpp"

namespace zkphire::hyperplonk {

using ff::Fr;

namespace {

/** Wire size of one uncompressed affine point: x || y || flag. */
constexpr std::size_t kPointBytes = 97;

class Writer
{
  public:
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(std::uint8_t(v >> (8 * i)));
    }

    void
    fr(const Fr &x)
    {
        std::uint8_t bytes[32];
        x.toBytesLe(bytes);
        out.insert(out.end(), bytes, bytes + 32);
    }

    void
    frVec(const std::vector<Fr> &xs)
    {
        u32(std::uint32_t(xs.size()));
        for (const Fr &x : xs)
            fr(x);
    }

    void
    frVecVec(const std::vector<std::vector<Fr>> &xss)
    {
        u32(std::uint32_t(xss.size()));
        for (const auto &xs : xss)
            frVec(xs);
    }

    void
    point(const ec::G1Affine &p)
    {
        std::uint8_t bytes[kPointBytes] = {};
        if (!p.infinity) {
            p.x.toBig().toBytesLe(bytes);
            p.y.toBig().toBytesLe(bytes + 48);
            bytes[96] = 1;
        }
        out.insert(out.end(), bytes, bytes + kPointBytes);
    }

    void
    pointVec(const std::vector<ec::G1Affine> &ps)
    {
        u32(std::uint32_t(ps.size()));
        for (const auto &p : ps)
            point(p);
    }

    void
    commitment(const pcs::Commitment &c)
    {
        point(c.point);
    }

    void
    sumcheck(const sumcheck::SumcheckProof &sc)
    {
        fr(sc.claimedSum);
        frVecVec(sc.roundEvals);
        frVec(sc.finalSlotEvals);
    }

    std::vector<std::uint8_t> out;
};

class Reader
{
  public:
    explicit Reader(std::span<const std::uint8_t> b) : buf(b) {}

    bool failed() const { return bad; }

    std::uint32_t
    u32()
    {
        if (pos + 4 > buf.size()) {
            bad = true;
            return 0;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(buf[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    Fr
    fr()
    {
        if (pos + 32 > buf.size()) {
            bad = true;
            return Fr::zero();
        }
        auto big = ff::BigInt<4>::fromBytesLe(buf.data() + pos);
        pos += 32;
        if (!(big < Fr::modulus())) {
            bad = true;
            return Fr::zero();
        }
        return Fr::fromBig(big);
    }

    /**
     * A length field counting elements of at least elem_bytes each. It is
     * capped by the bytes left before anything is reserved, so a short
     * input can never ask for a large allocation.
     */
    std::uint32_t
    count(std::size_t max_len, std::size_t elem_bytes)
    {
        const std::uint32_t n = u32();
        if (n > max_len || n > (buf.size() - pos) / elem_bytes)
            bad = true;
        return bad ? 0 : n;
    }

    std::vector<Fr>
    frVec(std::size_t max_len = 1 << 20)
    {
        const std::uint32_t n = count(max_len, 32);
        if (bad)
            return {};
        std::vector<Fr> xs;
        xs.reserve(n);
        for (std::uint32_t i = 0; i < n && !bad; ++i)
            xs.push_back(fr());
        return xs;
    }

    std::vector<std::vector<Fr>>
    frVecVec()
    {
        const std::uint32_t n = count(1u << 16, 4); // >= one length each
        if (bad)
            return {};
        std::vector<std::vector<Fr>> xss;
        xss.reserve(n);
        for (std::uint32_t i = 0; i < n && !bad; ++i)
            xss.push_back(frVec());
        return xss;
    }

    ec::G1Affine
    point()
    {
        ec::G1Affine p;
        if (pos + kPointBytes > buf.size()) {
            bad = true;
            return p;
        }
        // Exactly two encodings per point, so every proof has one byte
        // string: flag 1 with canonical coordinates, or flag 0 with 96 zero
        // bytes for the identity.
        const std::uint8_t flag = buf[pos + 96];
        if (flag == 0) {
            p.infinity = true;
            for (std::size_t i = 0; i < 96; ++i)
                bad = bad || buf[pos + i] != 0;
        } else if (flag != 1) {
            bad = true;
        } else {
            auto x = ff::BigInt<6>::fromBytesLe(buf.data() + pos);
            auto y = ff::BigInt<6>::fromBytesLe(buf.data() + pos + 48);
            if (!(x < ff::Fq::modulus()) || !(y < ff::Fq::modulus())) {
                bad = true;
                pos += kPointBytes;
                return p;
            }
            p.x = ff::Fq::fromBig(x);
            p.y = ff::Fq::fromBig(y);
            p.infinity = false;
            if (!p.isOnCurve())
                bad = true;
        }
        pos += kPointBytes;
        return p;
    }

    std::vector<ec::G1Affine>
    pointVec(std::size_t max_len = 1 << 12)
    {
        const std::uint32_t n = count(max_len, kPointBytes);
        if (bad)
            return {};
        std::vector<ec::G1Affine> ps;
        ps.reserve(n);
        for (std::uint32_t i = 0; i < n && !bad; ++i)
            ps.push_back(point());
        return ps;
    }

    pcs::Commitment
    commitment()
    {
        return pcs::Commitment{point()};
    }

    sumcheck::SumcheckProof
    sumcheckProof()
    {
        sumcheck::SumcheckProof sc;
        sc.claimedSum = fr();
        sc.roundEvals = frVecVec();
        sc.finalSlotEvals = frVec();
        return sc;
    }

    bool
    atEnd() const
    {
        return pos == buf.size();
    }

  private:
    std::span<const std::uint8_t> buf;
    std::size_t pos = 0;
    bool bad = false;
};

constexpr std::uint32_t kMagic = 0x7a6b5048; // "zkPH"
constexpr std::uint32_t kVersion = 1;

} // namespace

std::vector<std::uint8_t>
serializeProof(const HyperPlonkProof &proof)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.u32(std::uint32_t(proof.witnessComms.size()));
    for (const auto &c : proof.witnessComms)
        w.commitment(c);
    w.commitment(proof.phiComm);
    w.commitment(proof.vComm);
    w.sumcheck(proof.gateZC.sc);
    w.sumcheck(proof.permZC.sc);
    w.frVec(proof.wAtZp);
    w.frVec(proof.sigmaAtZp);
    w.sumcheck(proof.openA.sc);
    w.sumcheck(proof.openB.sc);
    w.pointVec(proof.pcsA.quotients);
    w.pointVec(proof.pcsB.quotients);
    return std::move(w.out);
}

std::optional<HyperPlonkProof>
deserializeProof(std::span<const std::uint8_t> bytes)
{
    Reader r(bytes);
    if (r.u32() != kMagic || r.u32() != kVersion)
        return std::nullopt;
    HyperPlonkProof proof;
    const std::uint32_t k = r.count(16, kPointBytes);
    if (r.failed())
        return std::nullopt;
    for (std::uint32_t i = 0; i < k; ++i)
        proof.witnessComms.push_back(r.commitment());
    proof.phiComm = r.commitment();
    proof.vComm = r.commitment();
    proof.gateZC.sc = r.sumcheckProof();
    proof.permZC.sc = r.sumcheckProof();
    proof.wAtZp = r.frVec(64);
    proof.sigmaAtZp = r.frVec(64);
    proof.openA.sc = r.sumcheckProof();
    proof.openB.sc = r.sumcheckProof();
    proof.pcsA.quotients = r.pointVec();
    proof.pcsB.quotients = r.pointVec();
    if (r.failed() || !r.atEnd())
        return std::nullopt;
    return proof;
}

} // namespace zkphire::hyperplonk
