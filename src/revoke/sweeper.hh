/**
 * @file
 * The revocation sweeper (paper §3.3–§3.5): walks every memory region
 * that can hold capabilities — heap, stack, globals, and the register
 * file — and clears the tag of every capability whose base lands in a
 * painted shadow-map granule.
 *
 * Work elimination:
 *  - PTE CapDirty (§3.4.2): pages whose PTE never saw a capability
 *    store are skipped entirely.
 *  - CLoadTags (§3.4.1): lines whose 4-bit tag mask is zero are
 *    skipped without fetching their data from DRAM.
 *
 * The sweep is embarrassingly parallel (§3.5): without a cache model
 * the page worklist is partitioned into contiguous index ranges, one
 * per thread, and the shadow map is read-only for the duration. A
 * sweep that models traffic feeds the cache::Hierarchy inline, on the
 * calling thread, in worklist order: the hierarchy is one stateful
 * model whose totals depend on the order of its events.
 */

#ifndef CHERIVOKE_REVOKE_SWEEPER_HH
#define CHERIVOKE_REVOKE_SWEEPER_HH

#include <cstdint>
#include <vector>

#include "alloc/shadow_map.hh"
#include "cache/hierarchy.hh"
#include "mem/addr_space.hh"
#include "revoke/sweep_loop.hh"

namespace cherivoke {
namespace revoke {

/** Sweep configuration. */
struct SweepOptions
{
    /** Use PTE CapDirty to skip capability-free pages. */
    bool usePteCapDirty = true;
    /** Use CLoadTags to skip capability-free lines. */
    bool useCloadTags = true;
    /** §3.4.1 future work: prefetch lines whose CLoadTags response
     *  is non-zero, hiding the data fetch behind the tag query. */
    bool cloadTagsPrefetch = false;
    /** Clear CapDirty on pages found tag-free (§3.4.2). */
    bool cleanFalsePositivePages = true;
    /** Kernel cost model to account (functional result identical). */
    SweepKernel kernel = SweepKernel::Vector;
    /** Sweep threads (1 = the paper's measured configuration).
     *  Applies only to sweeps without a cache::Hierarchy; a sweep
     *  that models traffic runs on the calling thread. */
    unsigned threads = 1;
};

/** Statistics from one revocation sweep. */
struct SweepStats
{
    uint64_t pagesConsidered = 0;  //!< pages in sweepable segments
    uint64_t pagesSwept = 0;       //!< pages actually walked
    uint64_t pagesSkippedPte = 0;  //!< skipped via PTE CapDirty
    uint64_t pagesSkippedTier = 0; //!< skipped by tier-scoped epochs
    uint64_t pagesCleaned = 0;     //!< CapDirty false positives reset
    uint64_t linesSwept = 0;       //!< lines whose data was visited
    uint64_t linesSkippedTags = 0; //!< skipped via CLoadTags
    uint64_t capsExamined = 0;     //!< tagged words inspected
    uint64_t capsRevoked = 0;      //!< tags cleared
    uint64_t regsExamined = 0;
    uint64_t regsRevoked = 0;
    double kernelCycles = 0;       //!< modelled CPU cycles

    /** Bytes of memory whose data was actually read. */
    uint64_t bytesSwept() const { return linesSwept * kLineBytes; }

    SweepStats &operator+=(const SweepStats &o);
    bool operator==(const SweepStats &o) const;
    bool operator!=(const SweepStats &o) const { return !(*this == o); }
};

/** The sweeping engine. */
class Sweeper
{
  public:
    explicit Sweeper(SweepOptions options = SweepOptions{})
        : options_(options)
    {}

    SweepOptions &options() { return options_; }
    const SweepOptions &options() const { return options_; }

    /**
     * Perform a complete revocation sweep.
     * @param space the process address space (heap/stack/globals +
     *              registers)
     * @param shadow the painted revocation shadow map
     * @param hierarchy optional cache/DRAM model for traffic
     *        accounting (fed inline; see sweepPages)
     */
    SweepStats sweep(mem::AddressSpace &space,
                     const alloc::ShadowMap &shadow,
                     cache::Hierarchy *hierarchy = nullptr);

    /** @name Epoch building blocks (§3.5) */
    /// @{

    /**
     * Build the page worklist for a sweep, applying PTE CapDirty
     * elimination and accounting the skipped pages in @p stats.
     */
    std::vector<uint64_t> buildWorklist(mem::AddressSpace &space,
                                        SweepStats &stats) const;

    /**
     * Sweep the index range [lo, hi) of @p pages (one increment of an
     * epoch). Without @p hierarchy the range is split across
     * options().threads workers; with one, the range is swept on the
     * calling thread so the model sees the serial event order.
     */
    SweepStats sweepPages(mem::AddressSpace &space,
                          const alloc::ShadowMap &shadow,
                          const std::vector<uint64_t> &pages,
                          size_t lo, size_t hi,
                          cache::Hierarchy *hierarchy = nullptr);

    /**
     * Serially sweep the index range [lo, hi) of @p pages, accounting
     * modelled traffic into @p hierarchy (nullable). The single-worker
     * kernel; thread-safe for disjoint page ranges when @p hierarchy
     * is null.
     */
    SweepStats sweepPageRange(mem::AddressSpace &space,
                              const alloc::ShadowMap &shadow,
                              const std::vector<uint64_t> &pages,
                              size_t lo, size_t hi,
                              cache::Hierarchy *hierarchy = nullptr);

    /** Sweep the capability register file. */
    SweepStats sweepRegisters(mem::AddressSpace &space,
                              const alloc::ShadowMap &shadow);
    /// @}

  private:
    SweepOptions options_;
};

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_SWEEPER_HH
