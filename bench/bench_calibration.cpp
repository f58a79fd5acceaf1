/**
 * @file
 * Calibration report: checks every model against the paper's published
 * anchor numbers (Table II CPU columns, Table V area/power, Table VII
 * runtimes) and prints model-vs-paper side by side. This is the ground
 * truth for the fitted constants documented in EXPERIMENTS.md — run it
 * after touching sim/ constants.
 */
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "ec/msm.hpp"
#include "ff/rng.hpp"
#include "sim/baseline.hpp"
#include "sim/chip.hpp"
#include "sim/workloads.hpp"

using namespace zkphire;
using namespace zkphire::sim;
using zkphire::bench::fmt;
using zkphire::bench::header;

namespace {

/**
 * Run the real MSM kernel once and report its phase split (recode /
 * bucket / fold, from ec::MsmStats) next to the CpuModel prediction.
 * These are the measured numbers EXPERIMENTS.md records; the model now
 * shares the kernel's window argmin and ec::msm_cost op prices, so any
 * residual measured-vs-model gap is the fitted nsPerFieldMul constant
 * (paper-host EPYC) vs this host, not an op-count mismatch.
 */
void
measuredMsmRow(const char *name, std::size_t n, double frac_zero,
               double frac_one, const ec::MsmOptions &opts,
               const CpuModel &cpu)
{
    ff::Rng rng(97);
    std::vector<ec::G1Affine> pool;
    for (int i = 0; i < 256; ++i)
        pool.push_back(ec::randomG1(rng));
    std::vector<ec::G1Affine> points(n);
    for (std::size_t i = 0; i < n; ++i)
        points[i] = pool[i % pool.size()];
    std::vector<ff::Fr> scalars;
    scalars.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double u = rng.nextDouble();
        scalars.push_back(u < frac_zero ? ff::Fr::zero()
                          : u < frac_zero + frac_one
                              ? ff::Fr::one()
                              : ff::Fr::random(rng));
    }

    ec::MsmStats st;
    auto t0 = std::chrono::steady_clock::now();
    auto r = ec::msmPippenger(scalars, points, opts, &st);
    (void)r;
    double total_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    MsmWorkload wl{double(n), frac_zero, frac_one};
    double model_ms = cpu.msmMs(wl);
    double adds = double(st.affineAdds + st.pointAdds);
    std::printf("%-26s %9.1f %8.1f %8.1f %6.1f %9.1f %8.2f %7.1f\n", name,
                total_ms, st.recodeMs, st.bucketMs, st.foldMs, model_ms,
                model_ms / total_ms, adds > 0 ? total_ms * 1e6 / adds : 0.0);
}

} // namespace

int
main()
{
    const Tech &tech = defaultTech();

    header("Measured CPU MSM phase timings vs CpuModel (this host, "
           "ZKPHIRE_THREADS honored)");
    {
        CpuModel cpu1;
        cpu1.threads = 1;
        std::printf("%-26s %9s %8s %8s %6s %9s %8s %7s\n", "kernel",
                    "total ms", "recode", "bucket", "fold", "model ms",
                    "ratio", "ns/add");
        const ec::MsmOptions def{};
        const ec::MsmOptions sig{.batchAffine = false};
        measuredMsmRow("dense 2^12 batched-aff", 1u << 12, 0, 0, def, cpu1);
        measuredMsmRow("dense 2^14 batched-aff", 1u << 14, 0, 0, def, cpu1);
        measuredMsmRow("dense 2^16 batched-aff", 1u << 16, 0, 0, def, cpu1);
        measuredMsmRow("dense 2^14 signed-jac", 1u << 14, 0, 0, sig, cpu1);
        measuredMsmRow("sparse 2^16 batched-aff", 1u << 16, 0.60, 0.30, def,
                       cpu1);
    }

    header("Area/power anchor: Table V exemplar (294.32 mm^2, 202.28 W)");
    ChipConfig ex = ChipConfig::exemplar();
    AreaBreakdown a = ex.areaBreakdown(tech);
    PowerBreakdown p = ex.powerBreakdown(tech);
    std::printf("%-22s %10s %10s %12s %10s\n", "module", "model mm2",
                "paper mm2", "model W", "paper W");
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "MSM (32 PEs)",
                a.msm, 105.69, p.msm, 58.99);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n",
                "Multifunc Forest (80)", a.forest, 48.18, p.forest, 40.69);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "SumCheck (16 PEs)",
                a.sumcheck, 16.65, p.sumcheck, 14.43);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "Other", a.other,
                10.64, p.other, 6.17);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "SRAM", a.sram,
                27.55, p.sram, 3.56);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "Interconnect",
                a.interconnect, 26.42, p.interconnect, 14.83);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "HBM3 (2 PHYs)",
                a.hbmPhy, 59.20, p.hbmPhy, 63.60);
    std::printf("%-22s %10.2f %10.2f %12.2f %10.2f\n", "TOTAL", a.total(),
                294.32, p.total(), 202.28);

    header("CPU SumCheck anchor: Table II (N = 2^24, 4-thread CPU)");
    CpuModel cpu4;
    cpu4.threads = 4;
    struct Anchor {
        const char *name;
        int gate;
        unsigned mu;
        double paper_ms;
    };
    const Anchor anchors[] = {
        {"Spartan1 (A*B-C)*ft", 1, 24, 6770},
        {"Spartan2 SumABC*Z", 2, 25, 5237},
        {"HP Poly 20 (-f_r)", -20, 24, 13354},
        {"HP Poly 21", 21, 24, 21625},
        {"HP Poly 22", 22, 24, 74226},
        {"HP Poly 23", 23, 24, 32774},
        {"HP Poly 24", 24, 24, 17591},
    };
    std::printf("%-22s %12s %12s %8s\n", "polynomial", "model ms",
                "paper ms", "ratio");
    for (const Anchor &an : anchors) {
        PolyShape shape;
        if (an.gate == -20) {
            // Poly 20 without the f_r factor (paper footnote 2).
            shape = PolyShape::fromGate(gates::vanillaCoreGate());
        } else {
            shape = PolyShape::fromGate(gates::tableIGate(an.gate));
        }
        double ms = cpu4.sumcheckMs(shape, an.mu);
        std::printf("%-22s %12.0f %12.0f %8.2f\n", an.name, ms, an.paper_ms,
                    ms / an.paper_ms);
    }

    header("A*B*C SumCheck batches (Table II rows 3-5, 4-thread CPU)");
    {
        poly::GateExpr abc("abc");
        auto sa = abc.addSlot("A"), sb = abc.addSlot("B"),
             sc2 = abc.addSlot("C");
        abc.addTerm({sa, sb, sc2});
        PolyShape shape = PolyShape::fromExpr(
            abc, {gates::SlotRole::Witness, gates::SlotRole::Witness,
                  gates::SlotRole::Witness});
        const struct {
            int count;
            unsigned mu;
            double paper_ms;
        } rows[] = {{12, 24, 60993}, {6, 23, 15248}, {4, 25, 40662}};
        for (const auto &r : rows) {
            double ms = r.count * cpu4.sumcheckMs(shape, r.mu);
            std::printf("%2d x A*B*C mu=%-3u %12.0f %12.0f %8.2f\n",
                        r.count, r.mu, ms, r.paper_ms, ms / r.paper_ms);
        }
    }

    header("GPU SumCheck anchor: Table II (A100, 1.6 TB/s)");
    {
        GpuModel gpu;
        const Anchor ganchors[] = {
            {"Spartan1", 1, 24, 571},
            {"Spartan2", 2, 25, 586},
            {"HP Poly 20 (-f_r)", -20, 24, 1089},
        };
        for (const Anchor &an : ganchors) {
            PolyShape shape =
                an.gate == -20
                    ? PolyShape::fromGate(gates::vanillaCoreGate())
                    : PolyShape::fromGate(gates::tableIGate(an.gate));
            double ms = gpu.sumcheckMs(shape, an.mu);
            std::printf("%-22s %12.0f %12.0f %8.2f\n", an.name, ms,
                        an.paper_ms, ms / an.paper_ms);
        }
    }

    header("CPU protocol anchor: Tables VI/VII (32-thread CPU)");
    CpuModel cpu32;
    std::printf("%-24s %6s %12s %12s %8s\n", "workload", "mu", "model ms",
                "paper ms", "ratio");
    for (const Workload &w : paperWorkloads()) {
        if (w.muVanilla > 0 && w.cpuMsVanilla > 0) {
            double ms = cpu32.protocolMs(
                ProtocolWorkload::vanilla(unsigned(w.muVanilla)));
            std::printf("%-24s %4dV %12.0f %12.0f %8.2f\n", w.name.c_str(),
                        w.muVanilla, ms, w.cpuMsVanilla,
                        ms / w.cpuMsVanilla);
        }
        if (w.muJellyfish > 0 && w.cpuMsJellyfish > 0) {
            double ms = cpu32.protocolMs(
                ProtocolWorkload::jellyfish(unsigned(w.muJellyfish)));
            std::printf("%-24s %4dJ %12.0f %12.0f %8.2f\n", w.name.c_str(),
                        w.muJellyfish, ms, w.cpuMsJellyfish,
                        ms / w.cpuMsJellyfish);
        }
    }

    header("zkPHIRE protocol anchor: Table VII exemplar (2 TB/s, masked)");
    {
        ChipConfig cfg = ChipConfig::exemplar();
        const struct {
            const char *name;
            unsigned mu;
            double paper_ms;
        } rows[] = {
            {"ZCash (2^15 J)", 15, 0.750},
            {"Zexe (2^17 J)", 17, 1.440},
            {"Rollup 25 (2^19 J)", 19, 3.874},
            {"Rescue/R50 (2^20 J)", 20, 7.114},
            {"Rollup 1600 (2^25 J)", 25, 207.673},
            {"zkEVM (2^27 J)", 27, 828.948},
        };
        std::printf("%-24s %12s %12s %8s\n", "workload", "model ms",
                    "paper ms", "ratio");
        for (const auto &r : rows) {
            auto run =
                simulateProtocol(cfg, ProtocolWorkload::jellyfish(r.mu));
            std::printf("%-24s %12.3f %12.3f %8.2f\n", r.name, run.totalMs,
                        r.paper_ms, run.totalMs / r.paper_ms);
        }
        auto run = simulateProtocol(cfg, ProtocolWorkload::jellyfish(19));
        std::printf("\nRollup-25 step split (model): witMSM %.3f gateZC %.3f "
                    "wire %.3f batch %.3f open %.3f masked-saving %.3f\n",
                    run.steps.witnessMsm, run.steps.gateZeroCheck,
                    run.steps.wireIdentity(), run.steps.batchEval,
                    run.steps.polyOpen(), run.maskedSavingMs);
        std::printf("wire split: permQ %.3f product %.3f msm %.3f "
                    "permZC %.3f | open split: check %.3f combine %.3f "
                    "msm %.3f\n",
                    run.steps.wirePermQ, run.steps.wireProductTree,
                    run.steps.wireMsm, run.steps.wirePermCheck,
                    run.steps.openCheck, run.steps.openCombine,
                    run.steps.openMsm);
        std::printf("gate ZC utilization %.3f, proof %.2f KB\n",
                    run.sumcheckUtilization, run.proofBytes / 1024.0);
    }
    return 0;
}
