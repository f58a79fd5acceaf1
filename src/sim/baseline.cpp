#include "sim/baseline.hpp"

#include <cmath>

#include "ec/glv.hpp"
#include "ec/msm.hpp"
#include "ec/recode.hpp"

namespace zkphire::sim {

double
CpuModel::sumcheckModmuls(const PolyShape &shape, unsigned mu)
{
    // Per pair of table entries in round r:
    //  - term products: K_t = d_t + 1 evaluation points, d_t - 1 muls each
    //    (plus one for a non-unit coefficient, ignored);
    //  - the fold (MLE update) after the round: 1 mul per updated element
    //    per referenced slot (== 1 per pair per slot).
    double per_pair = 0;
    for (std::size_t t = 0; t < shape.numTerms(); ++t) {
        const double d = double(shape.termDegree(t));
        if (d >= 2)
            per_pair += (d + 1.0) * (d - 1.0);
    }
    const double slots = double(shape.uniqueSlots().size());
    // Sum of pairs over all rounds: 2^(mu-1) + 2^(mu-2) + ... ~= 2^mu.
    const double total_pairs = std::pow(2.0, double(mu)) - 1.0;
    return total_pairs * (per_pair + slots);
}

double
CpuModel::sumcheckBytes(const PolyShape &shape, unsigned mu)
{
    // Every round reads all referenced tables and writes the halved folds:
    // 1.5x the table footprint per round, summed over halving rounds.
    const double slots = double(shape.uniqueSlots().size());
    const double total_elems = 2.0 * (std::pow(2.0, double(mu)) - 1.0);
    return slots * total_elems * Tech::frBytes * 1.5;
}

double
CpuModel::sumcheckMs(const PolyShape &shape, unsigned mu) const
{
    const double mem_s = sumcheckBytes(shape, mu) / (streamGBs() * 1e9);
    const double mul_s = sumcheckModmuls(shape, mu) / (mulGps() * 1e9);
    return (mem_s + mul_s) * 1e3;
}

double
CpuModel::msmFieldMuls(const MsmWorkload &wl)
{
    // Mirrors ec::MsmAccumulator since the PR 4/5/7 overhauls:
    // signed-digit recoding (2^(c-1) buckets), batched-affine bucket
    // accumulation for dense scalars, the trivial-scalar fast path (zeros
    // skipped, ones one mixed add), a per-bucket mixed + full Jacobian
    // aggregation pair in the suffix sum, and — where the kernel's own
    // profitability rule enables it — the GLV split (half-width digits
    // over 2n points, one endomorphism mul per point, halved fold). The
    // window width comes from the kernel's argmin and the per-op prices
    // from ec::msm_cost, so the model tracks the kernel's actual bucket
    // counts and any future retune of either.
    const double n = wl.numPoints;
    const std::size_t ni = std::size_t(std::max(0.0, n));
    const bool glv =
        ec::glv::available() && ec::msmGlvProfitable(ni, /*batch_affine=*/true);
    const std::size_t scalar_bits =
        glv ? ec::glv::kHalfBits : ff::Fr::modulusBits();
    const double n_ext = glv ? 2.0 * n : n;
    const unsigned c = ec::pippengerAutoWindowSignedBits(
        glv ? 2 * ni : ni, scalar_bits, /*batch_affine=*/true);
    const double windows = double(ec::signedDigitWindows(scalar_bits, c));
    const double buckets = double(std::size_t(1) << (c - 1));
    const double dense_muls =
        windows * (n_ext * wl.fracDense() * ec::msm_cost::kBatchAffineAdd +
                   buckets * ec::msm_cost::kAggPerBucket);
    const double endo_muls = glv ? n * wl.fracDense() : 0.0;
    const double one_muls = n * wl.fracOne * ec::msm_cost::kMixedAdd;
    const double doubling_muls =
        double(scalar_bits) * ec::msm_cost::kDouble; // window fold
    return dense_muls + endo_muls + one_muls + doubling_muls;
}

double
CpuModel::msmPointAdds(const MsmWorkload &wl)
{
    return msmFieldMuls(wl) / ec::msm_cost::kMixedAdd;
}

double
CpuModel::msmMs(const MsmWorkload &wl) const
{
    return msmFieldMuls(wl) * nsPerFieldMul() / 1e6;
}

CpuModel::ProtocolBreakdown
CpuModel::protocolBreakdown(const ProtocolWorkload &wl) const
{
    ProtocolBreakdown b;
    const double n = std::pow(2.0, double(wl.mu));
    const unsigned k = wl.numWitness();
    const unsigned s = wl.numSelectors();
    // Element-wise streaming kernels: same roofline as SumCheck rounds.
    auto stream_ms = [&](double elems, double muls_per_elem) {
        double mem_s = elems * 2.0 * Tech::frBytes / (streamGBs() * 1e9);
        double mul_s = elems * muls_per_elem / (mulGps() * 1e9);
        return (mem_s + mul_s) * 1e3;
    };

    // Witness commitments: k sparse MSMs.
    for (unsigned j = 0; j < k; ++j)
        b.sparseMsm += msmMs(MsmWorkload::sparse(n));

    // Gate identity: build f_r (N muls) + the masked ZeroCheck SumCheck.
    const PolyShape gate = PolyShape::fromGate(
        gates::tableIGate(wl.sys == GateSystem::Vanilla ? 20 : 22));
    b.gateIdentity = stream_ms(n, 1.0) + sumcheckMs(gate, wl.mu);

    // Wire identity: N/D/phi generation (2 muls per element per column for
    // beta*id/beta*sigma plus the batched-inversion fraction) and the
    // product tree; then phi/v commitments and the PermCheck.
    b.genPermMles = stream_ms(n * (2.0 * k + 1.0), 2.0) + stream_ms(n, 4.0);
    b.permDenseMsm = msmMs(MsmWorkload::dense(n)) +
                     msmMs(MsmWorkload::dense(2.0 * n));
    const PolyShape perm = PolyShape::fromGate(
        gates::tableIGate(wl.sys == GateSystem::Vanilla ? 21 : 23));
    b.permCheck = sumcheckMs(perm, wl.mu);

    // Batch evaluations: fold-evaluate every opened polynomial (~2 muls
    // per element) plus the five product-tree openings at size 2N.
    const unsigned opened = s + 3 * k + 1;
    b.batchEvals = stream_ms(n * opened, 2.0) + stream_ms(2.0 * n * 5, 2.0);

    // Polynomial opening: MLE combine, eq-table builds + OpenCheck, and the
    // quotient MSMs (~N + 2N).
    b.mleCombine = stream_ms(n * opened, 1.0);
    b.openCheck = stream_ms(6.0 * n, 1.0) +
                  sumcheckMs(PolyShape::fromGate(gates::tableIGate(24)),
                             wl.mu);
    b.polyOpenMsm = msmMs(MsmWorkload::dense(2.0 * n));
    return b;
}

double
CpuModel::protocolMs(const ProtocolWorkload &wl) const
{
    return protocolBreakdown(wl).total();
}

double
GpuModel::sumcheckMs(const PolyShape &shape, unsigned mu) const
{
    // Memory-bound model: every round streams all referenced tables in and
    // the folded tables out; achieved bandwidth is a small fraction of peak
    // (strided access, kernel overheads), plus a per-round launch cost.
    const double slots = double(shape.uniqueSlots().size());
    double bytes = 0;
    for (unsigned r = 1; r <= mu; ++r) {
        const double len = std::pow(2.0, double(mu - r + 1));
        bytes += slots * len * Tech::frBytes * 1.5; // read + half write
    }
    const double ms = bytes / (bandwidthGBs * 1e6 * efficiency);
    return ms + double(mu) * perRoundOverheadMs;
}

} // namespace zkphire::sim
