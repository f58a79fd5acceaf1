#include "poly/virtual_poly.hpp"

#include "ff/vec_ops.hpp"
#include "rt/parallel.hpp"

namespace zkphire::poly {

VirtualPoly::VirtualPoly(GateExpr expr, std::vector<Mle> mles)
    : VirtualPoly(std::move(expr), std::move(mles), nullptr)
{
}

VirtualPoly::VirtualPoly(GateExpr expr, std::vector<Mle> mles,
                         std::shared_ptr<const GatePlan> plan)
    : structure(std::move(expr)), evalPlan(std::move(plan)),
      tables(std::move(mles))
{
    for (const Mle &m : tables)
        view.push_back(&m);
    bindPlan();
}

VirtualPoly::VirtualPoly(GateExpr expr, std::span<const Mle *const> slots,
                         std::vector<Mle> owned,
                         std::shared_ptr<const GatePlan> plan)
    : structure(std::move(expr)), evalPlan(std::move(plan)),
      tables(slots.size()), view(slots.begin(), slots.end())
{
    // Moving `owned` kept its elements' addresses, which is how the slots
    // that name them are found.
    for (std::size_t s = 0; s < view.size(); ++s)
        for (Mle &m : owned)
            if (view[s] == &m) {
                tables[s] = std::move(m);
                view[s] = &tables[s];
                break;
            }
    bindPlan();
}

void
VirtualPoly::bindPlan()
{
    assert(view.size() == structure.numSlots() &&
           "one MLE table required per expression slot");
    assert(!view.empty());
    if (!evalPlan)
        evalPlan = std::make_shared<const GatePlan>(
            GatePlan::compile(structure));
    assert(evalPlan->numSlots() == structure.numSlots() &&
           "precompiled plan does not match the expression");
    assert(evalPlan->numTerms() == structure.numTerms() &&
           "precompiled plan does not match the expression");
    foldScratch.resize(view.size());
    nVars = view[0]->numVars();
    for ([[maybe_unused]] const Mle *m : view)
        assert(m->numVars() == nVars && "all slot tables must share numVars");
}

bool
VirtualPoly::owns(std::size_t s) const
{
    return view[s] == &tables[s];
}

Fr
VirtualPoly::evalAtIndex(std::size_t idx) const
{
    std::vector<Fr> slot_vals(view.size());
    for (std::size_t s = 0; s < view.size(); ++s)
        slot_vals[s] = (*view[s])[idx];
    return evalPlan->evaluate(slot_vals);
}

Fr
VirtualPoly::evaluate(std::span<const Fr> point) const
{
    std::vector<Fr> slot_vals(view.size());
    for (std::size_t s = 0; s < view.size(); ++s)
        slot_vals[s] = view[s]->evaluate(point);
    return evalPlan->evaluate(slot_vals);
}

Fr
VirtualPoly::sumOverHypercube() const
{
    const std::size_t n = std::size_t(1) << nVars;
    // Read-only pass over every slot table. On the mapped backend the
    // consumed window is dropped block by block — the page-cache copy keeps
    // the data (MAP_SHARED), so later rounds re-fault it, while the resident
    // set through this pass stays O(chunk) instead of O(N * slots). Blocked
    // inside the callback so a serial run benefits too.
    const std::size_t rel_blk =
        std::max<std::size_t>(currentStorePolicy().chunkElems, 4096);
    return rt::parallelReduce<Fr>(
        0, n, Fr::zero(),
        [&](std::size_t b, std::size_t e) {
            // One scratch slot/register vector per chunk instead of per
            // index.
            std::vector<Fr> slot_vals(view.size());
            std::vector<Fr> regs;
            Fr part = Fr::zero();
            for (std::size_t i0 = b; i0 < e; i0 += rel_blk) {
                const std::size_t i1 = std::min(e, i0 + rel_blk);
                for (std::size_t i = i0; i < i1; ++i) {
                    for (std::size_t s = 0; s < view.size(); ++s)
                        slot_vals[s] = (*view[s])[i];
                    part += evalPlan->evaluate(slot_vals, regs);
                }
                for (const Mle *t : view)
                    if (t->isMapped())
                        t->store().releaseWindow(i0, i1);
            }
            return part;
        },
        [](Fr acc, Fr part) { return acc + part; },
        /*grain=*/0, /*minGrain=*/512);
}

VirtualPoly::~VirtualPoly()
{
    // Return the double buffers AND the owned slot tables to the ambient
    // arena (when one is installed) so the next proof on this context skips
    // the allocation. The sumcheck has folded the tables down; their slabs
    // keep full capacity through the shrinks, which is exactly what the
    // next proof's same-size tables want. Borrowed tables stay the
    // caller's.
    for (FrTable &s : foldScratch)
        if (s.capacity() != 0)
            arenaRelease(std::move(s));
    for (Mle &t : tables)
        if (t.store().capacity() != 0)
            arenaRelease(std::move(t.store()));
}

bool
VirtualPoly::anyTableMapped() const
{
    for (const Mle *t : view)
        if (t->isMapped())
            return true;
    return false;
}

void
VirtualPoly::fixFirstVarInPlace(const Fr &r)
{
    // Outer parallelism across slot tables; each table's own fold runs its
    // parallel path only when reached from a serial context (nested regions
    // execute inline), so both shapes compose without oversubscription.
    // Each owned table has a persistent double buffer, so folds that do
    // take the out-of-place path stop allocating after the first round. A
    // borrowed table folds into a half-size table of its slot's own,
    // acquired here: the ambient arena is this thread's, not the workers'.
    const std::size_t half = std::size_t(1) << (nVars - 1);
    for (std::size_t s = 0; s < view.size(); ++s)
        if (!owns(s))
            tables[s] = Mle(arenaAcquire(half));
    rt::parallelFor(
        0, view.size(),
        [&](std::size_t s) {
            if (owns(s))
                tables[s].fixFirstVarInPlace(r, foldScratch[s]);
            else
                ff::foldVec(tables[s].data(), view[s]->data(), r, half);
        },
        /*grain=*/1);
    for (std::size_t s = 0; s < view.size(); ++s)
        view[s] = &tables[s];
    --nVars;
}

std::vector<Fr>
VirtualPoly::foldAndAccumulate(const Fr &r)
{
    assert(nVars >= 2 && "fused fold+evaluate needs a next round");
    const std::size_t half = std::size_t(1) << (nVars - 1);
    const std::size_t pairs = half / 2;
    const std::size_t num_slots = view.size();

    constexpr std::size_t kMaxSlots = 64;
    assert(num_slots <= kMaxSlots && "raise kMaxSlots");
    const Fr *src[kMaxSlots];
    Fr *folded[kMaxSlots];
    for (std::size_t s = 0; s < num_slots; ++s) {
        if (foldScratch[s].capacity() == 0)
            foldScratch[s] = arenaAcquire(half);
        else
            foldScratch[s].resize(half);
        src[s] = view[s]->data();
        folded[s] = foldScratch[s].data();
    }

    // One walk per chunk: GatePlan::foldAccumulatePairs folds every
    // table's region [4b, 4e) into the scratch buffers and feeds the
    // folded pairs [b, e) straight into its block registers (and, on the
    // mapped backend, before their pages go cold). Chunks partition the
    // pair range, so each folded index is written exactly once, by the
    // thread that then reads it. Fold formula and accumulation arithmetic
    // are identical to the unfused path's; field ops are exact, so both the
    // folded tables and the accumulator are bit-identical to
    // fixFirstVarInPlace + accumulatePairs run separately.
    // Residency bound: each block of blk_pairs pairs reads 4 * blk_pairs
    // source entries and writes 2 * blk_pairs scratch entries per slot.
    // After the block's pair accumulation both windows are dropped — the
    // source is never read again this proof (after the swap the old store
    // becomes next round's scratch, fully rewritten before any read), and
    // the scratch window's data survives release in the page cache
    // (MAP_SHARED), re-faulted when the next round reads it as source. The
    // block loop lives inside the callback (not per parallel chunk) so a
    // serial run — one callback for the whole range — still walks the round
    // O(chunk)-resident.
    const std::size_t blk_pairs = std::max<std::size_t>(
        currentStorePolicy().chunkElems / 4, std::size_t(2048));
    const std::size_t acc_len = evalPlan->accSize();
    std::vector<Fr> acc = rt::parallelReduce<std::vector<Fr>>(
        0, pairs, std::vector<Fr>(acc_len, Fr::zero()),
        [&](std::size_t b, std::size_t e) {
            std::vector<Fr> part(acc_len, Fr::zero());
            for (std::size_t p0 = b; p0 < e; p0 += blk_pairs) {
                const std::size_t p1 = std::min(e, p0 + blk_pairs);
                evalPlan->foldAccumulatePairs(src, folded, r, p0, p1, part);
                for (std::size_t s = 0; s < num_slots; ++s) {
                    if (view[s]->isMapped())
                        view[s]->store().releaseWindow(4 * p0, 4 * p1);
                    if (foldScratch[s].isMapped())
                        foldScratch[s].releaseWindow(2 * p0, 2 * p1);
                }
            }
            return part;
        },
        [&](std::vector<Fr> a, std::vector<Fr> p) {
            for (std::size_t i = 0; i < acc_len; ++i)
                a[i] += p[i];
            return a;
        },
        /*grain=*/0, /*minGrain=*/256);

    for (std::size_t s = 0; s < num_slots; ++s) {
        if (owns(s)) {
            tables[s].swapFolded(foldScratch[s]);
        } else {
            tables[s] = Mle(std::move(foldScratch[s]));
            foldScratch[s] = FrTable();
            view[s] = &tables[s];
        }
    }
    --nVars;
    return acc;
}

} // namespace zkphire::poly
