/**
 * @file
 * Proof wire-format tests: round trip, verification of deserialized
 * proofs, rejection of malformed / truncated / tampered encodings, and a
 * deterministic mutation sweep over the fixture proof's bytes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "curve_points.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"

namespace {

// Allocation probe: while armed, records the largest single operator new
// request made on this thread, so a test can check what a parse reserves.
// Every non-aligned new/delete form is replaced together, so each block is
// freed by the allocator that made it.
thread_local bool t_probeArmed = false;
thread_local std::size_t t_probeLargest = 0;

void *
probedMalloc(std::size_t n) noexcept
{
    if (t_probeArmed)
        t_probeLargest = std::max(t_probeLargest, n);
    return std::malloc(n != 0 ? n : 1);
}

void *
probedNew(std::size_t n)
{
    if (void *p = probedMalloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return probedNew(n);
}

void *
operator new[](std::size_t n)
{
    return probedNew(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return probedMalloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return probedMalloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace zkphire;
using namespace zkphire::hyperplonk;
using ff::Fr;
using ff::Rng;

namespace {

struct Fixture {
    Circuit circuit;
    Keys keys;
    HyperPlonkProof proof;
};

Fixture &
fixture()
{
    static Fixture *f = [] {
        static Rng rng(0xabcdef);
        static pcs::Srs srs = pcs::Srs::generate(7, rng);
        auto *fx = new Fixture{randomVanillaCircuit(5, rng), {}, {}};
        fx->keys = setup(fx->circuit, srs);
        fx->proof = prove(fx->keys.pk, fx->circuit);
        return fx;
    }();
    return *f;
}

} // namespace

TEST(Serialize, RoundTripPreservesEverything)
{
    const HyperPlonkProof &p = fixture().proof;
    auto bytes = serializeProof(p);
    EXPECT_GT(bytes.size(), 1000u);
    auto back = deserializeProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->witnessComms.size(), p.witnessComms.size());
    for (std::size_t i = 0; i < p.witnessComms.size(); ++i)
        EXPECT_TRUE(back->witnessComms[i] == p.witnessComms[i]);
    EXPECT_TRUE(back->phiComm == p.phiComm);
    EXPECT_TRUE(back->vComm == p.vComm);
    EXPECT_EQ(back->gateZC.sc.claimedSum, p.gateZC.sc.claimedSum);
    EXPECT_EQ(back->gateZC.sc.roundEvals, p.gateZC.sc.roundEvals);
    EXPECT_EQ(back->permZC.sc.roundEvals, p.permZC.sc.roundEvals);
    EXPECT_EQ(back->wAtZp, p.wAtZp);
    EXPECT_EQ(back->sigmaAtZp, p.sigmaAtZp);
    EXPECT_EQ(back->openA.sc.finalSlotEvals, p.openA.sc.finalSlotEvals);
    EXPECT_EQ(back->pcsA.quotients.size(), p.pcsA.quotients.size());
    EXPECT_EQ(back->pcsB.quotients.size(), p.pcsB.quotients.size());
}

TEST(Serialize, DeserializedProofVerifies)
{
    auto bytes = serializeProof(fixture().proof);
    auto back = deserializeProof(bytes);
    ASSERT_TRUE(back.has_value());
    auto res = verify(fixture().keys.vk, *back);
    EXPECT_TRUE(res.ok) << res.error;
}

TEST(Serialize, RejectsBadMagic)
{
    auto bytes = serializeProof(fixture().proof);
    bytes[0] ^= 0xff;
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsTruncation)
{
    auto bytes = serializeProof(fixture().proof);
    for (std::size_t cut :
         {bytes.size() - 1, bytes.size() / 2, std::size_t(8)}) {
        std::vector<std::uint8_t> t(bytes.begin(), bytes.begin() + cut);
        EXPECT_FALSE(deserializeProof(t).has_value()) << "cut " << cut;
    }
}

TEST(Serialize, RejectsTrailingGarbage)
{
    auto bytes = serializeProof(fixture().proof);
    bytes.push_back(0);
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsOffCurvePoint)
{
    auto bytes = serializeProof(fixture().proof);
    // First commitment starts after magic+version+count = 12 bytes;
    // corrupt its x coordinate (keeps it < p with high probability on the
    // low byte, putting the point off the curve).
    bytes[12] ^= 0x01;
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsNonCanonicalFieldElement)
{
    auto bytes = serializeProof(fixture().proof);
    // The gate ZeroCheck claimed sum follows the commitments: locate it by
    // structure (12 + (k+2)*97 bytes in).
    std::size_t k = fixture().proof.witnessComms.size();
    std::size_t off = 12 + (k + 2) * 97;
    // Set to r (the modulus) = non-canonical.
    auto r_bytes = ff::Fr::modulus();
    r_bytes.toBytesLe(bytes.data() + off);
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, TamperedFieldElementFailsVerification)
{
    auto bytes = serializeProof(fixture().proof);
    std::size_t k = fixture().proof.witnessComms.size();
    std::size_t claim_off = 12 + (k + 2) * 97;
    bytes[claim_off] ^= 0x01; // still canonical w.h.p., but wrong value
    auto back = deserializeProof(bytes);
    if (back.has_value()) {
        EXPECT_FALSE(verify(fixture().keys.vk, *back).ok);
    }
}

TEST(Serialize, SizeMatchesUncompressedAccounting)
{
    const HyperPlonkProof &p = fixture().proof;
    auto bytes = serializeProof(p);
    // The wire format uses uncompressed 97 B points; the sizeBreakdown()
    // model assumes compressed 48 B points, so wire size is larger but
    // within ~2.2x.
    EXPECT_GT(bytes.size(), p.sizeBytes());
    EXPECT_LT(double(bytes.size()), 2.2 * double(p.sizeBytes()));
}

// PR-8 acceptance lock: proof bytes are identical across the MSM GLV
// split on/off and 1 vs 4 prover threads. Combined with the CI legs that
// re-run this suite under ZKPHIRE_ASM=0 and ZKPHIRE_THREADS=4, this
// covers the full {asm} x {GLV} x {threads} determinism matrix.
TEST(Serialize, BytesIdenticalAcrossGlvAndThreads)
{
    const auto baseline = serializeProof(fixture().proof);
    for (bool glv : {true, false}) {
        for (unsigned threads : {1u, 4u}) {
            ProveOptions opts;
            opts.rt.threads = threads;
            opts.msm.glv = glv;
            HyperPlonkProof p =
                prove(fixture().keys.pk, fixture().circuit, nullptr, opts);
            EXPECT_EQ(serializeProof(p), baseline)
                << "glv=" << glv << " threads=" << threads;
        }
    }
}

namespace {

/** Where each field of the wire format sits in a serialized proof. */
struct Layout {
    std::vector<std::size_t> boundaries; ///< Every field start, and the end.
    std::vector<std::size_t> lengths;    ///< Offsets of u32 length fields.
    std::vector<std::size_t> flags;      ///< Offsets of point flag bytes.
};

/** Walks the wire format (serialize.hpp) over a proof's shape. */
Layout
layoutOf(const HyperPlonkProof &p)
{
    Layout l;
    std::size_t pos = 0;
    const auto field = [&](std::size_t bytes) {
        l.boundaries.push_back(pos);
        pos += bytes;
    };
    const auto length = [&] {
        l.lengths.push_back(pos);
        field(4);
    };
    const auto point = [&] {
        l.flags.push_back(pos + 96);
        field(97);
    };
    const auto points = [&](std::size_t n) {
        length();
        for (std::size_t i = 0; i < n; ++i)
            point();
    };
    const auto frs = [&](std::size_t n) {
        length();
        for (std::size_t i = 0; i < n; ++i)
            field(32);
    };
    const auto sumcheck = [&](const sumcheck::SumcheckProof &sc) {
        field(32);
        length();
        for (const auto &round : sc.roundEvals)
            frs(round.size());
        frs(sc.finalSlotEvals.size());
    };
    field(4); // magic
    field(4); // version
    points(p.witnessComms.size());
    point(); // phi
    point(); // v
    sumcheck(p.gateZC.sc);
    sumcheck(p.permZC.sc);
    frs(p.wAtZp.size());
    frs(p.sigmaAtZp.size());
    sumcheck(p.openA.sc);
    sumcheck(p.openB.sc);
    points(p.pcsA.quotients.size());
    points(p.pcsB.quotients.size());
    l.boundaries.push_back(pos);
    return l;
}

/**
 * The parser contract for hostile bytes: a mutant must fail to parse, fail
 * to verify, or be the one encoding of the proof it parses to. While it
 * parses, no single allocation may exceed a small multiple of its size.
 */
::testing::AssertionResult
mutantIsHarmless(const std::vector<std::uint8_t> &mutant)
{
    t_probeLargest = 0;
    t_probeArmed = true;
    std::optional<HyperPlonkProof> parsed = deserializeProof(mutant);
    t_probeArmed = false;
    if (t_probeLargest > 2 * mutant.size() + 4096)
        return ::testing::AssertionFailure()
               << "parse allocated " << t_probeLargest << " bytes for a "
               << mutant.size() << "-byte input";
    if (!parsed || serializeProof(*parsed) == mutant ||
        !verify(fixture().keys.vk, *parsed).ok)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "parses and verifies, but re-serializes to other bytes";
}

void
putU32(std::vector<std::uint8_t> &bytes, std::size_t off, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[off + i] = std::uint8_t(v >> (8 * i));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &bytes, std::size_t off)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(bytes[off + i]) << (8 * i);
    return v;
}

} // namespace

TEST(SerializeMutation, LayoutWalkCoversTheEncoding)
{
    const auto bytes = serializeProof(fixture().proof);
    const Layout l = layoutOf(fixture().proof);
    EXPECT_EQ(l.boundaries.back(), bytes.size());
    for (std::size_t off : l.flags)
        EXPECT_EQ(bytes[off], 1) << "fixture points are finite";
}

TEST(SerializeMutation, BitFlipsAreHarmless)
{
    const auto bytes = serializeProof(fixture().proof);
    Rng rng(0xf11b);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t bit = rng.next() % (8 * bytes.size());
        auto m = bytes;
        m[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        EXPECT_TRUE(mutantIsHarmless(m)) << "bit " << bit;
    }
}

TEST(SerializeMutation, EveryFlagByteHasOneEncoding)
{
    const auto bytes = serializeProof(fixture().proof);
    for (std::size_t off : layoutOf(fixture().proof).flags) {
        for (std::uint8_t flag : {0x00, 0x02, 0xff}) {
            auto m = bytes;
            m[off] = flag;
            EXPECT_TRUE(mutantIsHarmless(m))
                << "flag at " << off << " set to " << int(flag);
            EXPECT_FALSE(deserializeProof(m).has_value())
                << "flag at " << off << " set to " << int(flag);
        }
    }
}

TEST(SerializeMutation, OffSubgroupPointsFailToParse)
{
    // A point on the curve but outside G1 passes the on-curve check, so
    // only the subgroup check stands between it and the verifier. In the
    // same position a G1 point parses (and then fails to verify).
    const auto bytes = serializeProof(fixture().proof);
    Rng rng(0x5ab9);
    const auto put = [&](std::size_t at, const ec::G1Affine &p) {
        auto m = bytes;
        p.x.toBig().toBytesLe(m.data() + at);
        p.y.toBig().toBytesLe(m.data() + at + 48);
        return m;
    };
    for (std::size_t flag : layoutOf(fixture().proof).flags) {
        const std::size_t at = flag - 96;
        const ec::G1Affine off = oracle::curvePointFrom(ff::Fq::random(rng));
        ASSERT_FALSE(oracle::orderDividesR(off));
        const auto m = put(at, off);
        EXPECT_TRUE(mutantIsHarmless(m)) << "point at " << at;
        EXPECT_FALSE(deserializeProof(m).has_value()) << "point at " << at;
        EXPECT_TRUE(deserializeProof(put(at, ec::randomG1(rng))).has_value())
            << "G1 point at " << at;
    }
}

TEST(SerializeMutation, TruncationAtEveryFieldBoundaryFails)
{
    const auto bytes = serializeProof(fixture().proof);
    for (std::size_t cut : layoutOf(fixture().proof).boundaries) {
        if (cut == bytes.size())
            continue;
        const std::vector<std::uint8_t> m(bytes.begin(), bytes.begin() + cut);
        EXPECT_TRUE(mutantIsHarmless(m)) << "cut " << cut;
        EXPECT_FALSE(deserializeProof(m).has_value()) << "cut " << cut;
    }
}

TEST(SerializeMutation, LengthFieldEditsAreHarmless)
{
    const auto bytes = serializeProof(fixture().proof);
    for (std::size_t off : layoutOf(fixture().proof).lengths) {
        const std::uint32_t n = getU32(bytes, off);
        for (std::uint32_t v : {0u, n + 1, n - 1, 0xffffffffu}) {
            if (v == n)
                continue;
            auto m = bytes;
            putU32(m, off, v);
            EXPECT_TRUE(mutantIsHarmless(m))
                << "length at " << off << " set to " << v;
        }
    }
}

TEST(SerializeMutation, CraftedLengthCannotReserveBeyondTheInput)
{
    // A ~250-byte input whose first sumcheck round claims 2^20 field
    // elements: the count is capped by the bytes left before anything is
    // reserved, so the parse fails without a 32 MiB allocation.
    const auto bytes = serializeProof(fixture().proof);
    std::vector<std::uint8_t> m(12 + 2 * 97 + 32 + 8, 0);
    std::copy(bytes.begin(), bytes.begin() + 8, m.begin()); // magic, version
    // No witness commitments, two identity points, a zero claimed sum, then
    // one round claiming 2^20 field elements.
    putU32(m, 12 + 2 * 97 + 32, 1);
    putU32(m, 12 + 2 * 97 + 36, 1u << 20);
    EXPECT_TRUE(mutantIsHarmless(m));
    EXPECT_FALSE(deserializeProof(m).has_value());
}
