/**
 * @file
 * A dlmalloc-style boundary-tag allocator (Lea, 2000) operating inside
 * the simulated tagged address space.
 *
 * This is the substrate the paper's dlmalloc_cherivoke extends (§5.2):
 * binned free lists with constant-time coalescing via boundary tags, a
 * wilderness (top) chunk grown by simulated mmap, and 16-byte
 * granularity matching the shadow map. Returned capabilities are
 * bounded to the allocation ("bounds-setting allocator", §2.2), padded
 * to the representable alignment for very large objects as CheriABI
 * does.
 *
 * The allocator is part of the trusted computing base (§3.6): it
 * accesses memory through the whole-address-space root capability
 * whose base is never quarantined, so revocation sweeps can never cut
 * off allocator metadata.
 */

#ifndef CHERIVOKE_ALLOC_DLMALLOC_HH
#define CHERIVOKE_ALLOC_DLMALLOC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "alloc/chunk.hh"
#include "cap/capability.hh"
#include "mem/addr_space.hh"
#include "stats/summary.hh"

namespace cherivoke {
namespace alloc {

/** Allocator configuration. */
struct DlConfig
{
    uint64_t initialHeapBytes = 4 * MiB;
    uint64_t growthChunkBytes = 4 * MiB;
};

/** The boundary-tag allocator. */
class DlAllocator
{
  public:
    explicit DlAllocator(mem::AddressSpace &space,
                         DlConfig config = DlConfig{});

    DlAllocator(const DlAllocator &) = delete;
    DlAllocator &operator=(const DlAllocator &) = delete;

    /** @name Program-facing API */
    /// @{

    /**
     * Allocate @p size bytes; returns a tagged capability bounded to
     * the allocation. Zero-size requests receive a minimal
     * allocation, as dlmalloc does.
     */
    cap::Capability malloc(uint64_t size);

    /** Allocate zeroed memory for @p count elements of @p size. */
    cap::Capability calloc(uint64_t count, uint64_t size);

    /**
     * Resize the allocation referenced by @p capability. Grows in
     * place when the neighbouring chunk allows, else moves. Returns
     * a capability for the (possibly moved) allocation.
     */
    cap::Capability realloc(const cap::Capability &capability,
                            uint64_t new_size);

    /**
     * Free through a capability: the capability must be tagged and
     * its base must be the start of a live allocation.
     * @throws HeapFault (kind double-free / wild-free /
     *         header-corruption) on invalid input — catchable at a
     *         tenant containment boundary, fatal when uncontained.
     */
    void free(const cap::Capability &capability);

    /** Free by payload address (TCB-internal path). */
    void freeAddr(uint64_t payload);

    /** Payload bytes usable at this allocation. */
    uint64_t usableSize(uint64_t payload) const;
    /// @}

    /** @name Quarantine integration (used by CherivokeAllocator) */
    /// @{

    /** Payload -> chunk address. */
    static uint64_t chunkOf(uint64_t payload)
    {
        return payload - kChunkHeader;
    }

    /**
     * Validate a free request and mark the chunk quarantined instead
     * of releasing it. Returns the chunk address and full chunk size.
     * The chunk stays "in use" from the coalescer's perspective.
     */
    struct QuarantinedChunk
    {
        uint64_t addr = 0;
        uint64_t size = 0;
    };
    QuarantinedChunk quarantineFree(const cap::Capability &capability);

    /**
     * Extend a quarantined run's header over a neighbouring
     * quarantined chunk (the dlmalloc constant-time aggregation of
     * §5.2). The absorbed chunk's header becomes dead bytes.
     */
    void mergeQuarantinedRun(uint64_t addr, uint64_t new_size);

    /**
     * Release a quarantined run back to the free lists, coalescing
     * with genuinely free neighbours (the "internal free" of §5.2;
     * aggregation means there are fewer of these than program frees).
     * @param addr the run's first chunk address
     * @param size the total run size (possibly several merged chunks)
     */
    void internalFree(uint64_t addr, uint64_t size);
    /// @}

    /** @name Introspection */
    /// @{
    struct WalkChunk
    {
        uint64_t addr = 0;
        uint64_t size = 0;
        bool cinuse = false;
        bool quarantined = false;
        bool isTop = false;
    };

    /** Every chunk from heap base through the top chunk, in order. */
    std::vector<WalkChunk> walkHeap() const;

    /**
     * Memory-pressure reclaim: release every whole backing page of
     * dead free-chunk payload (and of the wilderness chunk) back to
     * the page store, preserving all boundary-tag metadata. The
     * caller must guarantee no sweep is in flight over this heap.
     * @return pages released
     */
    uint64_t releaseColdPages();

    /** Assert every boundary-tag invariant (including bin-bitmap /
     *  bin-list consistency and raw-span tag invalidation); throws
     *  PanicError. */
    void validateHeap() const;

    /** Bin-occupancy bitmap word (for tests); bit i of word w set
     *  iff bins_[w * 64 + i] is non-empty. */
    uint64_t binBitmapWord(unsigned w) const { return bin_map_[w]; }

    /** Sum of live (allocated, non-quarantined) payload bytes. */
    uint64_t liveBytes() const { return live_bytes_; }
    /** Bytes currently sitting in quarantined chunks. */
    uint64_t quarantinedBytes() const { return quarantined_bytes_; }
    /** Mapped heap footprint. */
    uint64_t footprintBytes() const { return heap_end_ - heap_base_; }
    uint64_t heapBase() const { return heap_base_; }

    /** Mutator-path counters; the quarantine's owner adds its run
     *  merges through the non-const overload. */
    stats::MutatorPathSummary &counters() { return counters_; }
    const stats::MutatorPathSummary &counters() const
    {
        return counters_;
    }
    /// @}

  private:
    static constexpr unsigned kSmallBins = 64;
    static constexpr unsigned kLargeBins = 32;
    static constexpr unsigned kNumBins = kSmallBins + kLargeBins;
    /** Largest chunk size served by small (exact) bins. */
    static constexpr uint64_t kMaxSmallChunk =
        kMinChunk + (kSmallBins - 1) * 16;

    /** Words in the bin-occupancy bitmap (96 bins -> 2 words). */
    static constexpr unsigned kBinMapWords = (kNumBins + 63) / 64;

    ChunkView view(uint64_t addr) const
    {
        return ChunkView(*mem_, addr, &counters_);
    }

    /** Uncounted view for inspection paths (walkHeap/validateHeap):
     *  keeps the header-access counts a pure mutator-path metric,
     *  unskewed by how often validation runs. */
    ChunkView viewUncounted(uint64_t addr) const
    {
        return ChunkView(*mem_, addr);
    }

    static unsigned binIndexFor(uint64_t chunk_size);

    /** First non-empty bin >= @p from, or kNumBins; countr_zero over
     *  the occupancy bitmap — no per-bin scanning. */
    unsigned
    firstOccupiedBin(unsigned from) const
    {
        for (unsigned w = from >> 6; w < kBinMapWords; ++w) {
            uint64_t word = bin_map_[w];
            if (w == from >> 6)
                word &= ~uint64_t{0} << (from & 63);
            if (word)
                return w * 64 + std::countr_zero(word);
        }
        return kNumBins;
    }

    void
    markBinOccupied(unsigned idx)
    {
        bin_map_[idx >> 6] |= uint64_t{1} << (idx & 63);
    }

    void
    markBinEmpty(unsigned idx)
    {
        bin_map_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
    }

    /** Bounds + boundary-tag sanity for a free/realloc target;
     *  raises the typed HeapFault on tenant-attributable damage. */
    ChunkView checkedFreeView(uint64_t addr) const;

    void insertFreeChunk(uint64_t addr, uint64_t size);
    void unlinkChunk(uint64_t addr);
    void extendTop(uint64_t min_bytes);

    /** Carve an in-use chunk of @p chunk_size from the top chunk. */
    uint64_t allocFromTop(uint64_t chunk_size);

    /** Find + unlink a free chunk >= @p chunk_size, or 0. */
    uint64_t takeFromBins(uint64_t chunk_size);

    /** Split the in-use chunk if the remainder is worth keeping. */
    void maybeSplit(uint64_t addr, uint64_t chunk_size);

    /** Free an in-use chunk: coalesce with neighbours and bin it. */
    void releaseChunk(uint64_t addr, uint64_t size);

    /** Allocate an in-use chunk whose payload is @p align aligned. */
    uint64_t allocAligned(uint64_t chunk_size, uint64_t align);

    cap::Capability capForPayload(uint64_t payload,
                                  uint64_t requested) const;

    mem::AddressSpace *space_;
    mem::TaggedMemory *mem_;
    DlConfig config_;

    uint64_t heap_base_ = 0;
    uint64_t heap_end_ = 0;
    uint64_t top_ = 0; //!< address of the wilderness chunk

    /** Bin heads: chunk addresses, 0 = empty. */
    std::vector<uint64_t> bins_;
    /** Occupancy bitmap over bins_: bit set iff the bin is
     *  non-empty, so takeFromBins finds the first candidate bin with
     *  countr_zero instead of scanning 96 heads. */
    std::array<uint64_t, kBinMapWords> bin_map_{};

    uint64_t live_bytes_ = 0;
    uint64_t quarantined_bytes_ = 0;
    /** mutable: counted views are built on const read paths too. */
    mutable stats::MutatorPathSummary counters_;
};

} // namespace alloc
} // namespace cherivoke

#endif // CHERIVOKE_ALLOC_DLMALLOC_HH
