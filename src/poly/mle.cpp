#include "poly/mle.hpp"

#include <algorithm>
#include <cassert>

#include "ff/vec_ops.hpp"
#include "rt/parallel.hpp"

namespace zkphire::poly {

namespace {

/** Below this table size the parallel fold/sum paths are pure overhead. */
constexpr std::size_t kParallelThreshold = 1024;

[[maybe_unused]] bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

unsigned
log2Exact(std::size_t n)
{
    unsigned bits = 0;
    while ((std::size_t(1) << bits) < n)
        ++bits;
    return bits;
}

/** dst[j] = lo + r * (hi - lo) over the half pairs (lo, hi) of src, in
 *  concurrent chunks: src and dst must not overlap. */
void
foldInto(const Fr *src, Fr *dst, std::size_t half, const Fr &r)
{
    rt::parallelFor(
        0, half,
        [&](std::size_t j) {
            Fr lo = src[2 * j];
            Fr hi = src[2 * j + 1];
            dst[j] = lo + r * (hi - lo);
        },
        /*grain=*/0, /*minGrain=*/256);
}

} // namespace

Mle::Mle(unsigned num_vars)
    : vals(FrTable::make(std::size_t(1) << num_vars)), nVars(num_vars)
{
}

Mle::Mle(std::vector<Fr> evals_in)
{
    const std::size_t n = evals_in.size();
    assert(isPowerOfTwo(n) && "MLE table must be a power of two");
    // Vector-built tables (witness synthesis, product trees) honor the
    // streaming policy too: at/above the threshold the values move onto a
    // mapped slab (so the table's pages are reclaimable) instead of
    // adopting the heap vector. Same bytes either way.
    if (n >= currentStorePolicy().thresholdElems) {
        vals = arenaAcquire(n);
        vals.assign(evals_in);
    } else {
        vals = FrTable::adopt(std::move(evals_in));
    }
    nVars = log2Exact(n);
}

Mle::Mle(FrTable table) : vals(std::move(table))
{
    assert(isPowerOfTwo(vals.size()) && "MLE table must be a power of two");
    nVars = log2Exact(vals.size());
}

Mle
Mle::constant(unsigned num_vars, const Fr &c)
{
    Mle m(num_vars);
    for (auto &v : m.vals)
        v = c;
    return m;
}

Mle
Mle::random(unsigned num_vars, ff::Rng &rng)
{
    Mle m(num_vars);
    for (auto &v : m.vals)
        v = Fr::random(rng);
    return m;
}

Mle
Mle::randomSparse(unsigned num_vars, ff::Rng &rng, double p_zero, double p_one)
{
    assert(p_zero + p_one <= 1.0);
    Mle m(num_vars);
    for (auto &v : m.vals) {
        double u = rng.nextDouble();
        if (u < p_zero)
            v = Fr::zero();
        else if (u < p_zero + p_one)
            v = Fr::one();
        else
            v = Fr::random(rng);
    }
    return m;
}

Mle
Mle::eqTable(std::span<const Fr> r)
{
    // Arena-acquired: eq tables are among the biggest per-proof allocations
    // (one per ZeroCheck/OpenCheck), and on the mapped backend a freshly
    // fallocated slab pays first-touch I/O costs a recycled warm slab does
    // not. eqTableInto overwrites every entry, so recycled contents never
    // leak through.
    FrTable out = arenaAcquire(std::size_t(1) << r.size());
    eqTableInto(r, out);
    return Mle(std::move(out));
}

void
eqTableInto(std::span<const Fr> r, FrTable &out)
{
    const unsigned n = unsigned(r.size());
    out.resize(std::size_t(1) << n);

    // Suffix table over the low s variables, built by the classic doubling
    // construction: variable i doubles the table, placing its 0/1 split at
    // bit i of the index (x_i = 0 keeps the lower copy). This is the
    // O(N)-multiplication Build MLE kernel run by the Multifunction Forest
    // in hardware; here it is capped at the stream chunk size.
    unsigned s = 0;
    const std::size_t chunkElems = currentStorePolicy().chunkElems;
    while (s < n && (std::size_t(1) << (s + 1)) <= chunkElems)
        ++s;

    std::vector<Fr> suffix{Fr::one()};
    suffix.reserve(std::size_t(1) << s);
    for (unsigned i = 0; i < s; ++i) {
        const std::size_t half = suffix.size();
        std::vector<Fr> next(half * 2);
        rt::parallelFor(
            0, half,
            [&](std::size_t j) {
                Fr hi = suffix[j] * r[i];
                next[j] = suffix[j] - hi; // e*(1 - r_i)
                next[j + half] = hi;      // e*r_i
            },
            /*grain=*/0, /*minGrain=*/kParallelThreshold);
        suffix = std::move(next);
    }

    const std::size_t chunk = std::size_t(1) << s;
    if (s == n) {
        std::copy(suffix.begin(), suffix.end(), out.data());
        return;
    }

    // Tensor step: chunk c of the output is the suffix table scaled by the
    // prefix weight prod_{i>=s} (c_i r_i + (1-c_i)(1-r_i)). Exact field
    // multiplication makes every entry the same element — hence the same
    // bytes — as the doubling construction's. Each chunk is written by one
    // pool thread, so slab pages are first-touched by their consumer.
    const std::size_t numChunks = std::size_t(1) << (n - s);
    rt::parallelFor(0, numChunks, [&](std::size_t c) {
        Fr w = Fr::one();
        for (unsigned i = s; i < n; ++i) {
            Fr hi = w * r[i];
            w = ((c >> (i - s)) & 1) != 0 ? hi : w - hi;
        }
        Fr *dst = out.data() + c * chunk;
        for (std::size_t j = 0; j < chunk; ++j)
            dst[j] = w * suffix[j];
    });
}

void
Mle::fixFirstVarInPlace(const Fr &r)
{
    FrTable scratch;
    fixFirstVarInPlace(r, scratch);
}

void
Mle::fixFirstVarInPlace(const Fr &r, FrTable &scratch)
{
    assert(nVars > 0 && "cannot fold a 0-variable MLE");
    const std::size_t half = vals.size() / 2;
    // Inside a pool worker the parallel branch would run inline anyway, so
    // take the allocation-free in-place fold there too (this is what makes
    // VirtualPoly's table-parallel fold cheap per table).
    if (rt::currentThreads() <= 1 || rt::ThreadPool::insideWorker() ||
        half < kParallelThreshold) {
        // In-place is safe serially: the write at j precedes every later
        // read, which happens at index >= 2(j+1).
        for (std::size_t j = 0; j < half; ++j) {
            Fr lo = vals[2 * j];
            Fr hi = vals[2 * j + 1];
            vals[j] = lo + r * (hi - lo);
        }
        vals.resize(half);
    } else {
        // Concurrent chunks would race on the in-place overlap (chunk k
        // writes [b,e) while chunk k-1 still reads [2b,2e)), so the parallel
        // path folds into the scratch buffer and swaps: after the swap the
        // old table becomes the next round's scratch, so repeated folds
        // alternate between two buffers instead of allocating. Same
        // arithmetic per index, hence bit-identical values. A fresh scratch
        // comes from the ambient arena so consecutive proofs on one context
        // recycle the same buffer.
        if (scratch.capacity() == 0)
            scratch = arenaAcquire(half);
        else
            scratch.resize(half);
        foldInto(vals.data(), scratch.data(), half, r);
        vals.swap(scratch);
    }
    --nVars;
}

void
Mle::swapFolded(FrTable &folded)
{
    assert(nVars > 0 && folded.size() * 2 == vals.size());
    vals.swap(folded);
    --nVars;
}

Mle
Mle::fixFirstVar(const Fr &r) const
{
    assert(nVars > 0 && "cannot fold a 0-variable MLE");
    // Reads this table and writes a half-size arena table: no full-size
    // working copy. Same per-index formula as the in-place fold.
    const std::size_t half = vals.size() / 2;
    FrTable out = arenaAcquire(half);
    foldInto(vals.data(), out.data(), half, r);
    return Mle(std::move(out));
}

Fr
Mle::evaluate(std::span<const Fr> point) const
{
    assert(point.size() == nVars && "evaluation point dimension mismatch");
    if (nVars == 0)
        return vals[0];
    // The first fold writes a half-size arena table; the rest fold that one
    // in place. Both buffers go back to the arena.
    Mle tmp = fixFirstVar(point[0]);
    FrTable scratch;
    for (std::size_t i = 1; i < point.size(); ++i)
        tmp.fixFirstVarInPlace(point[i], scratch);
    const Fr out = tmp.vals[0];
    arenaRelease(std::move(tmp.vals));
    arenaRelease(std::move(scratch));
    return out;
}

Fr
Mle::sumOverHypercube() const
{
    // Exact modular addition: chunked partial sums equal the serial sum.
    return rt::parallelReduce<Fr>(
        0, vals.size(), Fr::zero(),
        [&](std::size_t b, std::size_t e) {
            Fr part = Fr::zero();
            for (std::size_t i = b; i < e; ++i)
                part += vals[i];
            return part;
        },
        [](Fr acc, Fr part) { return acc + part; },
        /*grain=*/0, /*minGrain=*/kParallelThreshold);
}

SparsityStats
Mle::sparsity() const
{
    SparsityStats s;
    if (vals.empty())
        return s;
    std::size_t zeros = 0, ones = 0;
    for (const Fr &v : vals) {
        if (v.isZero())
            ++zeros;
        else if (v.isOne())
            ++ones;
    }
    s.fracZero = double(zeros) / double(vals.size());
    s.fracOne = double(ones) / double(vals.size());
    return s;
}

Mle
linearCombination(std::span<const Mle *const> tables,
                  std::span<const Fr> coeffs)
{
    assert(!tables.empty() && tables.size() == coeffs.size());
    // A table listed more than once is walked once, with its coefficients
    // summed: exact arithmetic gives the same entries either way.
    std::vector<const Mle *> uniq;
    std::vector<Fr> c;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        assert(tables[i]->size() == tables[0]->size());
        const auto it = std::find(uniq.begin(), uniq.end(), tables[i]);
        if (it != uniq.end()) {
            c[std::size_t(it - uniq.begin())] += coeffs[i];
        } else {
            uniq.push_back(tables[i]);
            c.push_back(coeffs[i]);
        }
    }
    // Entry-parallel: each chunk walks the tables in order, so every entry
    // sees the serial accumulation sequence at any thread count.
    Mle out(arenaAcquire(tables[0]->size()));
    rt::parallelForChunks(
        0, out.size(),
        [&](std::size_t b, std::size_t e) {
            Fr *dst = out.data() + b;
            const Fr *src = uniq[0]->data() + b;
            // The first table writes (the arena table holds stale entries);
            // a unit coefficient skips its multiply (1 * x is exactly x).
            if (c[0].isOne())
                std::copy(src, src + (e - b), dst);
            else
                for (std::size_t j = 0; j < e - b; ++j)
                    dst[j] = c[0] * src[j];
            for (std::size_t t = 1; t < uniq.size(); ++t) {
                if (c[t].isOne())
                    ff::addVec(dst, uniq[t]->data() + b, e - b);
                else
                    ff::addMulVec(dst, c[t], uniq[t]->data() + b, e - b);
            }
        },
        /*grain=*/0, /*minGrain=*/kParallelThreshold);
    return out;
}

Fr
eqEval(std::span<const Fr> x, std::span<const Fr> y)
{
    assert(x.size() == y.size());
    Fr acc = Fr::one();
    for (std::size_t i = 0; i < x.size(); ++i) {
        Fr xy = x[i] * y[i];
        // x*y + (1-x)(1-y) = 2xy - x - y + 1
        acc *= xy.dbl() - x[i] - y[i] + Fr::one();
    }
    return acc;
}

} // namespace zkphire::poly
