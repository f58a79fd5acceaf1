/**
 * @file
 * Storage backend for dense Fr evaluation tables (the MleStore seam).
 *
 * Every big prover table — MLE evaluation tables, fold scratch buffers,
 * opening quotients — lives in an FrTable, which picks one of two backends
 * at allocation time:
 *
 *   - Ram:    a plain std::vector<Fr>, exactly the pre-existing behavior.
 *   - Mapped: an unlinked temp-file slab mapped MAP_SHARED. Pages are
 *             file-backed, so under memory pressure (or an explicit
 *             releaseWindow) the kernel can write them back and reclaim —
 *             peak RSS for a streaming walk is O(chunk), not O(N).
 *
 * Routing is ambient: tables at or above the current stream threshold
 * (rt::Config::streamThreshold via ScopedConfig, else the
 * ZKPHIRE_STREAM_THRESHOLD environment default) go to the Mapped backend.
 * Values are bit-identical under either backend — the backend only decides
 * where the bytes live, never what they are.
 *
 * A BufferArena recycles tables across proofs (fold scratch, opening
 * quotients): engine::ProverContext owns one, prover entry points install
 * it with ScopedArena, and allocation sites use arenaAcquire/arenaRelease.
 * StoreCounters tracks allocations so the reuse is measurable.
 */
#ifndef ZKPHIRE_POLY_MLE_STORE_HPP
#define ZKPHIRE_POLY_MLE_STORE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "ff/fr.hpp"

namespace zkphire::poly {

using ff::Fr;

static_assert(std::is_trivially_copyable_v<Fr>,
              "FrTable maps raw slabs; Fr must be trivially copyable");

/** Which backend holds a table's bytes. */
enum class StoreKind : std::uint8_t {
    Ram,   ///< std::vector<Fr>
    Mapped ///< mmap'd unlinked temp file (falls back to Ram off-Linux)
};

/** Ambient streaming policy (resolved from ScopedConfig overrides / env). */
struct StorePolicy {
    /** Tables of >= this many elements allocate Mapped. SIZE_MAX = never. */
    std::size_t thresholdElems = SIZE_MAX;
    /** Elements per chunk for streaming walks (commit, eq build). */
    std::size_t chunkElems = std::size_t(1) << 20;
};

/** Policy for the current thread: rt::Config stream overrides when set,
 *  else the ZKPHIRE_STREAM_THRESHOLD / ZKPHIRE_STREAM_CHUNK environment
 *  defaults. */
StorePolicy currentStorePolicy();

/** Directory streaming slabs are created in (ZKPHIRE_STREAM_DIR, TMPDIR,
 *  /tmp — first set wins). */
const char *streamDir();

/** Process-wide allocation counters (monotonic; snapshot-and-subtract). */
struct StoreCounters {
    std::uint64_t ramAllocs = 0;
    std::uint64_t ramBytes = 0;
    std::uint64_t mappedAllocs = 0;
    std::uint64_t mappedBytes = 0;
    std::uint64_t arenaHits = 0;
    std::uint64_t arenaMisses = 0;
};
StoreCounters storeCounters();

/**
 * A dense table of Fr values behind the Ram/Mapped backend seam.
 * Move-only-cheap (moves steal the backing), copyable (deep copy: Mapped
 * when the source is Mapped or the ambient policy maps its size, else Ram;
 * storage from the ambient arena when one is installed, so a copy the
 * arena later takes back does not grow its pool). resize
 * preserves the prefix and zero-fills growth, matching
 * std::vector semantics; on the Mapped backend a shrink additionally
 * releases the tail pages (madvise(MADV_DONTNEED)), which is what keeps
 * the sumcheck fold chain's RSS proportional to the live half.
 */
class FrTable
{
  public:
    FrTable() = default;
    ~FrTable();
    FrTable(FrTable &&o) noexcept { moveFrom(o); }
    FrTable &operator=(FrTable &&o) noexcept;
    FrTable(const FrTable &o);
    FrTable &operator=(const FrTable &o);

    /** n zero elements on the backend the ambient policy picks. */
    static FrTable make(std::size_t n);
    /** n zero elements on an explicit backend. */
    static FrTable make(std::size_t n, StoreKind kind);
    /** Adopt an existing vector (Ram backend, no copy). */
    static FrTable adopt(std::vector<Fr> v);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Allocated elements the table can grow to without reallocating. */
    std::size_t capacity() const;
    StoreKind kind() const
    {
        return map_ != nullptr ? StoreKind::Mapped : StoreKind::Ram;
    }
    bool isMapped() const { return map_ != nullptr; }

    Fr *data() { return ptr_; }
    const Fr *data() const { return ptr_; }
    Fr &operator[](std::size_t i) { return ptr_[i]; }
    const Fr &operator[](std::size_t i) const { return ptr_[i]; }
    Fr *begin() { return ptr_; }
    Fr *end() { return ptr_ + size_; }
    const Fr *begin() const { return ptr_; }
    const Fr *end() const { return ptr_ + size_; }

    operator std::span<const Fr>() const { return {ptr_, size_}; }
    operator std::span<Fr>() { return {ptr_, size_}; }
    std::span<const Fr> span() const { return {ptr_, size_}; }

    /** Keep [0, min(old,n)), zero-fill growth, release Mapped tail pages
     *  on shrink. Grows in place when capacity allows (Mapped uses mremap
     *  past capacity, so spans/pointers are invalidated by growth). */
    void resize(std::size_t n);
    /** resize(src.size()) + copy — reuses the existing backing. */
    void assign(std::span<const Fr> src);
    void swap(FrTable &o) noexcept;
    /** Drop the backing entirely (munmap / free). */
    void clear();

    /** Hint a front-to-back walk (madvise(MADV_SEQUENTIAL); Mapped only). */
    void adviseSequential() const;
    /** Drop the pages of [beginElem, endElem) from RSS (Mapped only; range
     *  is shrunk inward to whole pages). The data survives in the backing
     *  file — a later access faults it back in. */
    void releaseWindow(std::size_t beginElem, std::size_t endElem) const;

    bool operator==(const FrTable &o) const;

  private:
    void moveFrom(FrTable &o) noexcept;
    void allocMapped(std::size_t n);
    void growMapped(std::size_t n);

    Fr *ptr_ = nullptr;
    std::size_t size_ = 0;
    std::vector<Fr> vec_;         // Ram backing (ptr_ aliases vec_.data())
    void *map_ = nullptr;         // Mapped backing
    std::size_t mapBytes_ = 0;    // mmap'd length (bytes, page-rounded)
    int fd_ = -1;                 // backing file (already unlinked)
};

/**
 * Free-list of FrTables recycled across proofs, keyed by capacity.
 * Thread-safe: concurrent service lanes share the context's arena.
 */
class BufferArena
{
  public:
    BufferArena() = default;
    BufferArena(const BufferArena &) = delete;
    BufferArena &operator=(const BufferArena &) = delete;

    /** Smallest free table on backend `kind` with capacity >= n, resized
     *  to n; a fresh table on that backend when none fits. */
    FrTable acquire(std::size_t n, StoreKind kind);
    /** Return a table to the free list (empty tables are dropped). */
    void release(FrTable &&t);
    /** Drop every pooled table. */
    void clear();
    std::size_t pooled() const;

  private:
    mutable std::mutex arenaMu; // leaf lock: nothing is acquired under it
    std::vector<FrTable> free_;
};

/** RAII installation of an arena as the current thread's ambient arena.
 *  Null inherits the enclosing installation (rt::ScopedConfig's rule). */
class ScopedArena
{
  public:
    explicit ScopedArena(BufferArena *a);
    ~ScopedArena();
    ScopedArena(const ScopedArena &) = delete;
    ScopedArena &operator=(const ScopedArena &) = delete;

  private:
    BufferArena *saved;
};

/** A table on the backend the ambient policy picks for n, from the
 *  ambient arena or fresh. */
FrTable arenaAcquire(std::size_t n);
/** release to the ambient arena, or drop. */
void arenaRelease(FrTable &&t);

} // namespace zkphire::poly

#endif // ZKPHIRE_POLY_MLE_STORE_HPP
