/**
 * @file
 * Tagged memory: the simulated virtual address space with one validity
 * tag per 16-byte granule (paper §2.2).
 *
 * The tag is the architectural feature CHERIvoke is built on: it
 * distinguishes capability words from data with neither false
 * positives nor false negatives. Non-capability writes clear the tags
 * of every granule they touch; capability stores set exactly one tag
 * and mark the page's PTE CapDirty.
 *
 * Checked accessors take an authorising capability and enforce the
 * CheriABI rules (tag, bounds, permissions); raw accessors exist for
 * the trusted computing base (the allocator and the revoker).
 */

#ifndef CHERIVOKE_MEM_TAGGED_MEMORY_HH
#define CHERIVOKE_MEM_TAGGED_MEMORY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <vector>

#include "cap/capability.hh"
#include "mem/page_table.hh"
#include "mem/radix_table.hh"
#include "support/bitops.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace cherivoke {
namespace mem {

/** Backing store for one simulated page: data plus granule tags. */
struct Page
{
    alignas(16) std::array<uint8_t, kPageBytes> data{};
    /** One bit per 16-byte granule: 256 bits. */
    std::array<uint64_t, kGranulesPerPage / 64> tags{};
    /** Cached population count of tags, for cheap page-level queries. */
    uint32_t tagCount = 0;

    bool granuleTag(unsigned g) const
    {
        return (tags[g >> 6] >> (g & 63)) & 1;
    }
    void setGranuleTag(unsigned g);
    void clearGranuleTag(unsigned g);
};

/**
 * A raw host window onto one simulated page's backing store: the
 * mutator-side analogue of the sweeper's cached region pages. The
 * allocator's chunk metadata (boundary tags, bin links) clusters on
 * one or two pages per chunk, so alloc::ChunkView resolves the page
 * once and then reads/writes fields through plain host loads and
 * stores instead of paying a page lookup and a page-table walk per
 * field.
 *
 * The span is part of the trusted computing base: accesses skip
 * page-table protection checks (the allocator only touches its own
 * heap metadata) but MUST preserve tagged-memory semantics — every
 * write invalidates the granule tag it overwrites, exactly as
 * TaggedMemory::writeBytes would. writeU64 enforces that here;
 * TaggedMemory::assertSpanSemantics() cross-checks a span against
 * the checked path in tests.
 *
 * A span stays valid for the lifetime of the owning TaggedMemory
 * (pages are never deallocated while the directory lives).
 */
class HostSpan
{
  public:
    HostSpan() = default;
    HostSpan(Page *page, uint64_t page_base)
        : page_(page), base_(page_base)
    {}

    /** Is [addr, addr+size) inside this span's page? */
    bool
    covers(uint64_t addr, uint64_t size) const
    {
        return page_ && addr - base_ <= kPageBytes - size;
    }

    /** Raw 8-byte load; caller guarantees covers(addr, 8). */
    uint64_t
    readU64(uint64_t addr) const
    {
        uint64_t value;
        std::memcpy(&value, page_->data.data() + (addr - base_), 8);
        return value;
    }

    /**
     * Raw 8-byte store with data-write tag semantics: the covered
     * granule's capability tag is invalidated (an untagged overwrite
     * of a capability word must kill it, §2.2). Caller guarantees
     * covers(addr, 8); the store must not straddle a granule.
     */
    void
    writeU64(uint64_t addr, uint64_t value)
    {
        CHERIVOKE_ASSERT(isAligned(addr, 8),
                         "(raw span store must be 8-byte aligned)");
        const uint64_t off = addr - base_;
        std::memcpy(page_->data.data() + off, &value, 8);
        page_->clearGranuleTag(
            static_cast<unsigned>(off >> kGranuleShift));
    }

    uint64_t pageBase() const { return base_; }
    explicit operator bool() const { return page_ != nullptr; }

  private:
    Page *page_ = nullptr;
    uint64_t base_ = 0;
};

/**
 * Two-level direct-map page directory: the sweep/paint hot paths'
 * O(1) page store. It is a RadixTable of page pointers (18/18 split,
 * each leaf spanning 1 GiB), plain pointer arrays on lazily zeroed
 * memory that are accessed through std::atomic_ref:
 *
 *  - lookups are lock-free (two acquire loads), so sweep workers and
 *    the §3.3 shadow lookup never contend;
 *  - materialisation takes a striped lock keyed by the slot, so
 *    several painter threads can fault in shadow pages concurrently
 *    without a global bottleneck, and double-allocation is impossible.
 *
 * Pages are never deallocated while the directory lives, so a pointer
 * obtained from lookup() stays valid for the directory's lifetime —
 * the property the sweeper relies on when it caches region pages.
 */
class PageDirectory
{
  public:
    static constexpr size_t kStripes = 64;

    PageDirectory() = default;
    ~PageDirectory();

    PageDirectory(const PageDirectory &) = delete;
    PageDirectory &operator=(const PageDirectory &) = delete;

    /** Lock-free O(1) lookup; nullptr when never materialised (or
     *  the vpn is beyond the supported virtual-address width). */
    Page *
    lookup(uint64_t vpn) const
    {
        Page **slot = slots_.find(vpn);
        return slot ? std::atomic_ref<Page *>(*slot).load(
                          std::memory_order_acquire)
                    : nullptr;
    }

    /** Materialise-on-demand; striped-lock slow path, lock-free when
     *  the page already exists. Thread-safe. */
    Page &getOrCreate(uint64_t vpn);

    /**
     * Deallocate every resident page in [vpn_lo, vpn_hi) — the one
     * exception to "pages are never deallocated": tenant teardown.
     * The caller must guarantee quiescence over the range (no sweep
     * in flight, no cached HostSpan/Page pointers into it — i.e. the
     * owning allocator is gone and no revocation epoch is open).
     * A page that comes back via getOrCreate() is a fresh zero page,
     * indistinguishable from one never touched.
     * @return pages released
     */
    size_t releaseRange(uint64_t vpn_lo, uint64_t vpn_hi);

    /** Pages materialised so far. */
    size_t
    resident() const
    {
        return resident_.load(std::memory_order_relaxed);
    }

  private:
    RadixTable<Page *> slots_;
    std::array<std::mutex, kStripes> stripes_;
    std::atomic<size_t> resident_{0};
};

/** The event counts TaggedMemory keeps; callers read the fields. */
struct MemoryCounters
{
    uint64_t tagsClearedByOverwrite = 0; //!< tags killed by data writes
    uint64_t capWrites = 0;              //!< tagged capability stores
    uint64_t capDirtyTraps = 0;          //!< PTE clean→dirty, §3.4.2
    uint64_t loadBarrierStrips = 0;      //!< loads the barrier stripped
};

/**
 * The simulated tagged virtual memory. Pages materialise lazily on
 * first write; reads of untouched mapped pages observe zeros.
 */
class TaggedMemory
{
  public:
    TaggedMemory() = default;

    // Not copyable: pages can be large and identity matters.
    TaggedMemory(const TaggedMemory &) = delete;
    TaggedMemory &operator=(const TaggedMemory &) = delete;

    PageTable &pageTable() { return pt_; }
    const PageTable &pageTable() const { return pt_; }

    /** @name Raw (TCB) access — no capability checks */
    /// @{
    void writeBytes(uint64_t addr, const void *src, uint64_t size);
    void readBytes(uint64_t addr, void *dst, uint64_t size) const;

    /**
     * Counter-free read for the sweeper's inner loop: no page-table
     * checks, no statistics, safe to call concurrently from several
     * sweep threads (pages are read-shared; tag clears are confined
     * to each thread's page partition).
     */
    void peekBytes(uint64_t addr, void *dst, uint64_t size) const;
    void writeU64(uint64_t addr, uint64_t value);
    uint64_t readU64(uint64_t addr) const;
    /** memset-style fill; clears covered tags like any data write. */
    void fill(uint64_t addr, uint8_t byte, uint64_t size);
    /// @}

    /** @name Raw host-span (TCB metadata) path */
    /// @{

    /**
     * Host window onto the page containing @p addr, materialising it
     * if needed — the allocator hot path's per-chunk page resolution.
     * O(1): two acquire loads when the page exists.
     */
    HostSpan
    hostSpan(uint64_t addr)
    {
        const uint64_t base = addr & ~(kPageBytes - 1);
        return HostSpan(&dir_.getOrCreate(addr >> kPageShift), base);
    }

    /**
     * Raw counter-free u64 load for allocator metadata that falls
     * outside a cached span (e.g.\ a boundary-tag footer on the next
     * page). Never materialises: untouched pages read as zero.
     */
    uint64_t
    spanReadU64(uint64_t addr) const
    {
        const Page *page = pageIfPresent(addr);
        if (!page)
            return 0;
        uint64_t value;
        std::memcpy(&value,
                    page->data.data() + (addr & (kPageBytes - 1)), 8);
        return value;
    }

    /** Raw counter-free u64 store with HostSpan::writeU64's
     *  tag-invalidation semantics, for out-of-span metadata. */
    void
    spanWriteU64(uint64_t addr, uint64_t value)
    {
        hostSpan(addr).writeU64(addr, value);
    }

    /**
     * Test hook: panic unless the raw span path and the checked path
     * agree about [addr, addr+size) — same bytes, and no surviving
     * capability tag on any granule a raw store overwrote.
     */
    void assertSpanSemantics(uint64_t addr, uint64_t size) const;
    /// @}

    /** @name Raw shadow-store path (thread-safe) */
    /// @{

    /**
     * Byte-fill for the revocation shadow region: no page-table
     * checks, no capability-tag clearing (shadow bytes never carry
     * tags), and no shared counters — the per-shard
     * alloc::PaintStats are the accounting, so there is nothing to
     * race on. Pages materialise under the directory's striped
     * locks, and painter shards partition the granule space so no
     * two threads ever fill the same byte: safe to call from several
     * painting threads concurrently.
     */
    void shadowFill(uint64_t addr, uint8_t byte, uint64_t size);

    /**
     * Atomically OR @p mask into (set) or AND it out of (clear) the
     * shadow byte at @p addr. This is the partial-byte
     * read-modify-write of a paint head/tail; adjacent shards may
     * share the byte, so the RMW must be atomic for threaded
     * painting to produce byte-identical shadow contents.
     */
    void shadowApplyBits(uint64_t addr, uint8_t mask, bool set);

    /** Lock-free single-byte read (zero when the page was never
     *  written); the §3.3 shadow-lookup fast path. */
    uint8_t
    peekU8(uint64_t addr) const
    {
        const Page *page = pageIfPresent(addr);
        return page ? page->data[addr & (kPageBytes - 1)] : 0;
    }
    /// @}

    /** @name Capability-width (tag-carrying) access */
    /// @{

    /** Store a capability word (16-byte aligned). Sets/clears the tag
     *  to match cap.tag(); a tagged store marks the PTE CapDirty and
     *  counts a trap on the clean→dirty transition. */
    void writeCap(uint64_t addr, const cap::Capability &capability);

    /** Load the 16-byte word at @p addr as a capability + its tag. */
    cap::Capability readCap(uint64_t addr) const;

    /** The tag of the granule containing @p addr. */
    bool readTag(uint64_t addr) const;

    /** Revoke: clear the tag of the granule at @p addr (16B aligned).
     *  Data is left intact, matching tag-clearing semantics. */
    void clearTagAt(uint64_t addr);

    /**
     * Copy [src, src+size) to dst preserving capability tags, the way
     * a CHERI memcpy compiled to capability loads/stores would.
     * Ranges must not overlap; both addresses 16-byte aligned.
     */
    void copyPreservingTags(uint64_t dst, uint64_t src, uint64_t size);
    /// @}

    /** @name Capability-store listeners (tier tracking) */
    /// @{

    /**
     * Observe every *tagged* capability store whose address falls in
     * [lo, hi) — the hook the adaptive policy's generation-tier map
     * uses to track which pages recently received capabilities, so a
     * tier-scoped sweep can skip pages that cannot hold a pointer to
     * a young chunk. Untagged (tag-clearing) stores are not
     * reported: they cannot create a dangling capability.
     *
     * Listeners fire on the storing thread with no synchronisation;
     * register/remove only at quiet points (no stores in flight).
     * @return an id for removeCapStoreListener
     */
    uint64_t addCapStoreListener(uint64_t lo, uint64_t hi,
                                 std::function<void(uint64_t)> fn);

    /** Remove a listener by the id addCapStoreListener returned. */
    void removeCapStoreListener(uint64_t id);
    /// @}

    /** @name Checked (CheriABI) access through a capability */
    /// @{
    uint64_t loadU64(const cap::Capability &auth, uint64_t addr) const;
    void storeU64(const cap::Capability &auth, uint64_t addr,
                  uint64_t value);
    cap::Capability loadCap(const cap::Capability &auth,
                            uint64_t addr) const;
    void storeCap(const cap::Capability &auth, uint64_t addr,
                  const cap::Capability &value);
    /// @}

    /** @name Revocation load barrier (Cornucopia-style) */
    /// @{

    /**
     * Install a load-side revocation check: while active, any
     * capability load whose base the predicate reports as revoked
     * has its tag stripped — in the loaded value *and* in place.
     * This is the barrier that makes revocation sound while a sweep
     * runs concurrently with the program (§3.5): a dangling
     * capability copied out of a not-yet-swept region is caught at
     * the load. CHERIvoke's successor (Cornucopia) deploys exactly
     * this check in hardware.
     */
    void installLoadBarrier(std::function<bool(uint64_t)> is_revoked);

    /** Remove the barrier (the epoch's sweep has completed). */
    void removeLoadBarrier();

    bool loadBarrierActive() const
    {
        return static_cast<bool>(load_barrier_);
    }
    /// @}

    /** @name Sweep support */
    /// @{
    /** 4-bit mask of capability tags in the 64-byte line (CLoadTags). */
    uint8_t lineTagMask(uint64_t line_addr) const;

    /** True if the page containing @p addr holds any tagged granule. */
    bool pageHasTags(uint64_t addr) const;

    /** Tag population of the page containing @p addr. */
    uint32_t pageTagCount(uint64_t addr) const;

    /** Direct page lookup for the sweeper's inner loop: O(1) and
     *  lock-free through the page directory; nullptr when the page
     *  was never written. */
    const Page *
    pageIfPresent(uint64_t addr) const
    {
        return dir_.lookup(addr >> kPageShift);
    }
    Page *
    pageIfPresentMutable(uint64_t addr)
    {
        return dir_.lookup(addr >> kPageShift);
    }
    /// @}

    /**
     * Tenant-teardown bulk release: deallocate the backing pages of
     * [base, base+size) (page-aligned), wiping the range's data,
     * tags and residency in one pass, so a later occupant observes
     * exactly what a never-touched range shows — zero data, zero
     * tags, not resident. Note: the range's *shadow bytes* live at
     * shadowAddrOf(base), outside the range; a teardown that must
     * also clear them issues a second releaseRange over the shadow
     * window (see tenant::TenantManager's slot teardown). Requires
     * the same quiescence as PageDirectory::releaseRange.
     * @return pages released
     */
    size_t releaseRange(uint64_t base, uint64_t size);

    /** Pages that have been materialised (touched by a write). */
    size_t residentPages() const { return dir_.resident(); }

    /** @name Soft page budget (memory-pressure modelling) */
    /// @{

    /**
     * Install a soft budget on resident pages (0 = unlimited, the
     * default). The budget is advisory: nothing here ever fails an
     * allocation — a host (tenant::TenantManager) polls
     * overSoftBudget() and walks its escalation ladder (emergency
     * revocation → cold-page reclaim → tenant OOM-kill) to get back
     * under it.
     */
    void setSoftPageBudget(size_t pages) { soft_budget_ = pages; }
    bool
    overSoftBudget() const
    {
        return soft_budget_ != 0 && dir_.resident() > soft_budget_;
    }
    /// @}

    const MemoryCounters &counters() const { return counters_; }

  private:
    Page &pageForWrite(uint64_t addr);
    /** The PTE of the page holding @p addr; CapFault unless it is
     *  mapped with read (or, for @p write, write) permission. */
    const Pte &mappedPte(uint64_t addr, bool write) const;
    void checkMapped(uint64_t addr, uint64_t size, bool write) const;
    void checkAccess(const cap::Capability &auth, uint64_t addr,
                     uint64_t size, uint16_t perm_needed) const;
    /** Clear tags of all granules overlapping [addr, addr+size). */
    void clearTagsInRange(uint64_t addr, uint64_t size);

    struct CapStoreListener
    {
        uint64_t id = 0;
        uint64_t lo = 0;
        uint64_t hi = 0;
        std::function<void(uint64_t)> fn;
    };

    PageDirectory dir_;
    PageTable pt_;
    std::vector<CapStoreListener> cap_store_listeners_;
    uint64_t next_listener_id_ = 1;
    size_t soft_budget_ = 0; //!< resident-page soft cap; 0 = none
    /** mutable: a barrier strip is counted on the const load path. */
    mutable MemoryCounters counters_;
    std::function<bool(uint64_t)> load_barrier_;
};

} // namespace mem
} // namespace cherivoke

#endif // CHERIVOKE_MEM_TAGGED_MEMORY_HH
