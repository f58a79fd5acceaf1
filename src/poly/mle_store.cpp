#include "poly/mle_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "rt/failpoint.hpp"
#include "rt/parallel.hpp"

#ifdef __linux__
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace zkphire::poly {

namespace {

std::atomic<std::uint64_t> g_ramAllocs{0};
std::atomic<std::uint64_t> g_ramBytes{0};
std::atomic<std::uint64_t> g_mappedAllocs{0};
std::atomic<std::uint64_t> g_mappedBytes{0};
std::atomic<std::uint64_t> g_arenaHits{0};
std::atomic<std::uint64_t> g_arenaMisses{0};

thread_local BufferArena *t_arena = nullptr;

/** "12" (< 64) means 2^12 elements; larger values are raw element counts. */
std::size_t
parseSizeEnv(const char *name, std::size_t fallback)
{
    const char *s = std::getenv(name);
    if (s == nullptr || *s == '\0')
        return fallback;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s)
        return fallback;
    if (v == 0)
        return 0;
    if (v < 64)
        return std::size_t(1) << v;
    return std::size_t(v);
}

/** Environment-derived defaults, resolved once per process. */
const StorePolicy &
envPolicy()
{
    static const StorePolicy policy = [] {
        StorePolicy p;
        // Streaming is on by default above 2^22 elements (128 MiB of Fr):
        // large jobs pick the mapped backend automatically, small proofs
        // never see it. ZKPHIRE_STREAM_THRESHOLD moves the threshold; a
        // value above every table's size turns streaming off.
        p.thresholdElems =
            parseSizeEnv("ZKPHIRE_STREAM_THRESHOLD", std::size_t(1) << 22);
        if (p.thresholdElems == 0)
            p.thresholdElems = 1;
        p.chunkElems =
            parseSizeEnv("ZKPHIRE_STREAM_CHUNK", std::size_t(1) << 20);
        if (p.chunkElems == 0)
            p.chunkElems = std::size_t(1) << 20;
        return p;
    }();
    return policy;
}

#ifdef __linux__
std::size_t
pageSize()
{
    static const std::size_t ps = std::size_t(sysconf(_SC_PAGESIZE));
    return ps;
}

std::size_t
pageRound(std::size_t bytes)
{
    const std::size_t ps = pageSize();
    return (bytes + ps - 1) / ps * ps;
}

/** posix_fallocate with EINTR retry (it reports errors as a return value,
 *  not errno) plus the ftruncate fallback for filesystems without extent
 *  support, also EINTR-retried. 0 on success, else the failing errno. */
int
reserveExtent(int fd, off_t bytes)
{
    int r;
    do {
        r = ::posix_fallocate(fd, 0, bytes);
    } while (r == EINTR);
    if (r == 0)
        return 0;
    int t;
    do {
        t = ::ftruncate(fd, bytes);
    } while (t == -1 && errno == EINTR);
    return t == 0 ? 0 : (errno != 0 ? errno : r);
}

/** One process-wide warning the first time slab allocation degrades to the
 *  Ram backend: silent fallback is correct (values are backend-independent)
 *  but an operator watching RSS deserves to know streaming is off. */
void
warnSlabFallbackOnce(const char *what, int err)
{
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed))
        std::fprintf(stderr,
                     "zkphire: %s failed (errno %d); falling back to the "
                     "in-RAM table backend (data is unaffected; RSS bounds "
                     "are not)\n",
                     what, err);
}
#endif

} // namespace

StorePolicy
currentStorePolicy()
{
    StorePolicy p = envPolicy();
    if (std::size_t t = rt::currentStreamThreshold(); t != 0)
        p.thresholdElems = t;
    if (std::size_t c = rt::currentStreamChunk(); c != 0)
        p.chunkElems = c;
    return p;
}

namespace {

/** The backend currentStorePolicy() picks for an n-element table. */
StoreKind
policyKind(std::size_t n)
{
    return n >= currentStorePolicy().thresholdElems ? StoreKind::Mapped
                                                    : StoreKind::Ram;
}

} // namespace

const char *
streamDir()
{
    static const char *dir = [] {
        if (const char *d = std::getenv("ZKPHIRE_STREAM_DIR");
            d != nullptr && *d != '\0')
            return d;
        if (const char *d = std::getenv("TMPDIR"); d != nullptr && *d != '\0')
            return d;
        return "/tmp";
    }();
    return dir;
}

StoreCounters
storeCounters()
{
    StoreCounters c;
    c.ramAllocs = g_ramAllocs.load(std::memory_order_relaxed);
    c.ramBytes = g_ramBytes.load(std::memory_order_relaxed);
    c.mappedAllocs = g_mappedAllocs.load(std::memory_order_relaxed);
    c.mappedBytes = g_mappedBytes.load(std::memory_order_relaxed);
    c.arenaHits = g_arenaHits.load(std::memory_order_relaxed);
    c.arenaMisses = g_arenaMisses.load(std::memory_order_relaxed);
    return c;
}

// ---------------------------------------------------------------------------
// FrTable
// ---------------------------------------------------------------------------

FrTable::~FrTable() { clear(); }

void
FrTable::moveFrom(FrTable &o) noexcept
{
    ptr_ = o.ptr_;
    size_ = o.size_;
    vec_ = std::move(o.vec_);
    map_ = o.map_;
    mapBytes_ = o.mapBytes_;
    fd_ = o.fd_;
    o.ptr_ = nullptr;
    o.size_ = 0;
    o.map_ = nullptr;
    o.mapBytes_ = 0;
    o.fd_ = -1;
}

FrTable &
FrTable::operator=(FrTable &&o) noexcept
{
    if (this != &o) {
        clear();
        moveFrom(o);
    }
    return *this;
}

FrTable::FrTable(const FrTable &o)
{
    // A copy stays Mapped when its source is, and is Mapped whenever the
    // ambient policy maps its size: the proving key's RAM tables copied
    // under forced streaming must not land in RAM. Copies handed to a
    // VirtualPoly go back to the arena with it, so they come from the
    // arena too; otherwise the pool grows with every proof.
    const StoreKind kind =
        o.isMapped() ? StoreKind::Mapped : policyKind(o.size_);
    if (o.size_ != 0 && t_arena != nullptr)
        *this = t_arena->acquire(o.size_, kind);
    else
        *this = make(o.size_, kind);
    if (size_ != 0)
        std::memcpy(ptr_, o.ptr_, size_ * sizeof(Fr));
}

FrTable &
FrTable::operator=(const FrTable &o)
{
    if (this != &o) {
        FrTable copy(o);
        *this = std::move(copy);
    }
    return *this;
}

void
FrTable::clear()
{
#ifdef __linux__
    if (map_ != nullptr) {
        ::munmap(map_, mapBytes_);
        ::close(fd_);
    }
#endif
    map_ = nullptr;
    mapBytes_ = 0;
    fd_ = -1;
    vec_.clear();
    vec_.shrink_to_fit();
    ptr_ = nullptr;
    size_ = 0;
}

std::size_t
FrTable::capacity() const
{
    if (map_ != nullptr)
        return mapBytes_ / sizeof(Fr);
    return vec_.capacity();
}

void
FrTable::allocMapped(std::size_t n)
{
#ifdef __linux__
    // slab.create simulates the syscall-level failures this path can hit
    // in production: ENOSPC/EMFILE from mkstemp or the extent reservation.
    int err = rt::failpointErrno("slab.create");
    if (err == 0 || err == EINTR) {
        std::string tmpl = std::string(streamDir()) + "/zkphire-slab-XXXXXX";
        const int fd = ::mkstemp(tmpl.data());
        if (fd >= 0) {
            ::unlink(tmpl.c_str());
            const std::size_t bytes =
                pageRound(std::max<std::size_t>(n, 1) * sizeof(Fr));
            // Preallocate extents: with a hole-only file (ftruncate) every
            // first-touch write fault does filesystem block allocation +
            // journaling, ~100x slower than an anonymous-page fault.
            // posix_fallocate moves that cost to one syscall here;
            // ftruncate stays as the fallback for filesystems without
            // extent support. Both are EINTR-retried inside reserveExtent.
            err = reserveExtent(fd, off_t(bytes));
            if (err == 0) {
                void *m = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                 MAP_SHARED, fd, 0);
                if (m != MAP_FAILED) {
                    map_ = m;
                    mapBytes_ = bytes;
                    fd_ = fd;
                    ptr_ = static_cast<Fr *>(m);
                    size_ = n;
                    g_mappedAllocs.fetch_add(1, std::memory_order_relaxed);
                    g_mappedBytes.fetch_add(bytes,
                                            std::memory_order_relaxed);
                    return;
                }
                err = errno;
            }
            ::close(fd);
        } else {
            err = errno;
        }
    }
    warnSlabFallbackOnce("slab creation", err);
#endif
    // No usable slab directory (or non-Linux): fall back to RAM. Values are
    // backend-independent, so this only costs memory, never correctness.
    vec_.assign(n, Fr::zero());
    ptr_ = vec_.data();
    size_ = n;
    g_ramAllocs.fetch_add(1, std::memory_order_relaxed);
    g_ramBytes.fetch_add(n * sizeof(Fr), std::memory_order_relaxed);
}

void
FrTable::growMapped(std::size_t n)
{
#ifdef __linux__
    const std::size_t bytes = pageRound(n * sizeof(Fr));
    int err = rt::failpointErrno("slab.grow");
    if (err == 0 || err == EINTR) {
        err = reserveExtent(fd_, off_t(bytes));
        if (err == 0) {
            void *m = ::mremap(map_, mapBytes_, bytes, MREMAP_MAYMOVE);
            if (m != MAP_FAILED) {
                map_ = m;
                mapBytes_ = bytes;
                ptr_ = static_cast<Fr *>(m);
                g_mappedBytes.fetch_add(bytes, std::memory_order_relaxed);
                return;
            }
            err = errno;
        }
    }
    // The slab cannot grow (disk full, mremap address-space failure):
    // migrate the live prefix to the Ram backend instead of poisoning the
    // proof mid-flight. The vector is built BEFORE the map is torn down, so
    // an allocation failure here propagates with the table intact.
    warnSlabFallbackOnce("slab growth", err);
    std::vector<Fr> moved(n, Fr::zero());
    if (size_ != 0)
        std::memcpy(moved.data(), ptr_, size_ * sizeof(Fr));
    ::munmap(map_, mapBytes_);
    ::close(fd_);
    map_ = nullptr;
    mapBytes_ = 0;
    fd_ = -1;
    vec_ = std::move(moved);
    ptr_ = vec_.data();
    g_ramAllocs.fetch_add(1, std::memory_order_relaxed);
    g_ramBytes.fetch_add(n * sizeof(Fr), std::memory_order_relaxed);
#else
    (void)n;
#endif
}

FrTable
FrTable::make(std::size_t n)
{
    return make(n, policyKind(n));
}

FrTable
FrTable::make(std::size_t n, StoreKind kind)
{
    FrTable t;
    if (kind == StoreKind::Mapped) {
        t.allocMapped(n);
        return t;
    }
    t.vec_.assign(n, Fr::zero());
    t.ptr_ = t.vec_.data();
    t.size_ = n;
    g_ramAllocs.fetch_add(1, std::memory_order_relaxed);
    g_ramBytes.fetch_add(n * sizeof(Fr), std::memory_order_relaxed);
    return t;
}

FrTable
FrTable::adopt(std::vector<Fr> v)
{
    FrTable t;
    t.vec_ = std::move(v);
    t.ptr_ = t.vec_.data();
    t.size_ = t.vec_.size();
    return t;
}

void
FrTable::resize(std::size_t n)
{
    if (n == size_)
        return;
    if (map_ == nullptr) {
        // Empty default-constructed tables route through the policy so a
        // scratch buffer sized for a big table lands on the mapped backend.
        if (ptr_ == nullptr && policyKind(n) == StoreKind::Mapped) {
            allocMapped(n);
            return;
        }
        vec_.resize(n, Fr::zero());
        ptr_ = vec_.data();
        size_ = n;
        return;
    }
    if (n < size_) {
        // Keep the slab (capacity semantics) but drop the dead tail from
        // RSS — this is what bounds the fold chain's resident set by the
        // live half instead of the original table.
        const std::size_t old = size_;
        size_ = n;
        releaseWindow(n, old);
        return;
    }
    if (n > capacity())
        growMapped(n);
    // Slab regions past any previous size() were never written and read as
    // zero straight off the fresh file extent; regions recycled by a shrink
    // may hold stale bytes, so zero the grown range explicitly.
    std::memset(static_cast<void *>(ptr_ + size_), 0,
                (n - size_) * sizeof(Fr));
    size_ = n;
}

void
FrTable::assign(std::span<const Fr> src)
{
    resize(src.size());
    if (!src.empty())
        std::memcpy(ptr_, src.data(), src.size() * sizeof(Fr));
}

void
FrTable::swap(FrTable &o) noexcept
{
    FrTable tmp(std::move(o));
    o = std::move(*this);
    *this = std::move(tmp);
}

void
FrTable::adviseSequential() const
{
#ifdef __linux__
    if (map_ != nullptr)
        ::madvise(map_, mapBytes_, MADV_SEQUENTIAL);
#endif
}

void
FrTable::releaseWindow(std::size_t beginElem, std::size_t endElem) const
{
#ifdef __linux__
    if (map_ == nullptr || endElem <= beginElem)
        return;
    const std::size_t ps = pageSize();
    std::size_t b = pageRound(beginElem * sizeof(Fr));
    std::size_t e = endElem * sizeof(Fr) / ps * ps;
    e = std::min(e, mapBytes_);
    if (e > b)
        ::madvise(static_cast<char *>(map_) + b, e - b, MADV_DONTNEED);
#else
    (void)beginElem;
    (void)endElem;
#endif
}

bool
FrTable::operator==(const FrTable &o) const
{
    if (size_ != o.size_)
        return false;
    return std::equal(begin(), end(), o.begin());
}

// ---------------------------------------------------------------------------
// BufferArena
// ---------------------------------------------------------------------------

FrTable
BufferArena::acquire(std::size_t n, StoreKind kind)
{
    {
        std::lock_guard<std::mutex> lk(arenaMu);
        std::size_t best = free_.size();
        for (std::size_t i = 0; i < free_.size(); ++i) {
            const std::size_t cap = free_[i].capacity();
            if (cap >= n && free_[i].kind() == kind &&
                (best == free_.size() || cap < free_[best].capacity()))
                best = i;
        }
        if (best != free_.size()) {
            FrTable t = std::move(free_[best]);
            free_.erase(free_.begin() + std::ptrdiff_t(best));
            g_arenaHits.fetch_add(1, std::memory_order_relaxed);
            t.resize(n);
            return t;
        }
    }
    g_arenaMisses.fetch_add(1, std::memory_order_relaxed);
    return FrTable::make(n, kind);
}

void
BufferArena::release(FrTable &&t)
{
    if (t.capacity() == 0)
        return;
    std::lock_guard<std::mutex> lk(arenaMu);
    free_.push_back(std::move(t));
}

void
BufferArena::clear()
{
    std::lock_guard<std::mutex> lk(arenaMu);
    free_.clear();
}

std::size_t
BufferArena::pooled() const
{
    std::lock_guard<std::mutex> lk(arenaMu);
    return free_.size();
}

ScopedArena::ScopedArena(BufferArena *a) : saved(t_arena)
{
    // Null inherits the enclosing arena (same rule as rt::ScopedConfig's
    // zero fields), so a prover entry point can apply its options' arena
    // unconditionally without cancelling a caller's installation.
    if (a != nullptr)
        t_arena = a;
}

ScopedArena::~ScopedArena() { t_arena = saved; }

FrTable
arenaAcquire(std::size_t n)
{
    if (t_arena != nullptr)
        return t_arena->acquire(n, policyKind(n));
    return FrTable::make(n);
}

void
arenaRelease(FrTable &&t)
{
    if (t_arena != nullptr)
        t_arena->release(std::move(t));
}

} // namespace zkphire::poly
