/**
 * @file
 * The quarantine buffer (paper §3.1): freed allocations detained until
 * a revocation sweep, with constant-time aggregation of contiguous
 * frees (§5.2: "the dlmalloc constant-time algorithm for aggregating
 * contiguous allocations"). Aggregation means the number of internal
 * frees after a sweep can be far smaller than the number of program
 * frees (§6.1.1).
 *
 * The mutator-side structure is O(1) per free: runs live in a dense
 * slab, indexed by a flat open-addressing hash table over their
 * *boundary* addresses (each run registers its start and its end).
 * add() probes the two boundaries a merge could happen at — a run
 * ending where the chunk starts, a run starting where it ends — so a
 * quarantined free costs two hash probes and at most one slab write,
 * replacing the former std::map's O(log n) ordered insert.
 *
 * Address order is only needed once per sweep (deterministic paint,
 * release and shard order), so the ordered view is materialised
 * lazily and cached; prepareSweep/finishSweep/shardedRuns share one
 * materialisation instead of copying every run per call.
 */

#ifndef CHERIVOKE_ALLOC_QUARANTINE_HH
#define CHERIVOKE_ALLOC_QUARANTINE_HH

#include <cstdint>
#include <vector>

#include "alloc/dlmalloc.hh"

namespace cherivoke {
namespace alloc {

/** A contiguous run of quarantined chunks. */
struct QuarantineRun
{
    uint64_t addr = 0;
    uint64_t size = 0;
    /**
     * Oldest birth stamp of any chunk merged into the run (0 =
     * unstamped). Merging takes the minimum so a run is exactly as
     * old as its oldest member — a tier-scoped release that requires
     * birth >= cutoff can never free a byte older than the cutoff.
     */
    uint32_t birth = 0;

    uint64_t end() const { return addr + size; }
};

/**
 * One address band of a sharded revocation set: the runs whose start
 * address falls in [lo, hi), in address order. Sharding keeps whole
 * runs together (a run starting in a band may extend past its upper
 * bound), so concatenating the shards reproduces runs() exactly —
 * painting shard by shard performs the identical store sequence to
 * an unsharded paint.
 */
struct QuarantineShard
{
    uint64_t lo = 0;
    uint64_t hi = 0;
    std::vector<QuarantineRun> runs;
};

/**
 * Flat open-addressing map from a run *boundary* address (the
 * quarantine keeps one index over starts and one over ends) to the
 * run's slab slot. Linear probing with backward-shift deletion — no
 * tombstones, so lookup cost stays bounded no matter how many
 * epochs of adds and releases pass through.
 */
class BoundaryIndex
{
  public:
    static constexpr uint32_t kNotFound = UINT32_MAX;

    BoundaryIndex();

    /** Slab slot registered for boundary @p key, or kNotFound. */
    uint32_t find(uint64_t key) const;

    /** Register @p key -> @p slot (key must not be present). */
    void insert(uint64_t key, uint32_t slot);

    /** Re-point an existing @p key at @p slot (key must be present). */
    void update(uint64_t key, uint32_t slot);

    /** Remove @p key (must be present). */
    void erase(uint64_t key);

    size_t size() const { return size_; }
    void clear();

  private:
    struct Entry
    {
        uint64_t key = 0; //!< 0 = empty (boundaries are never 0)
        uint32_t slot = 0;
    };

    size_t probeOf(uint64_t key) const;
    void grow();

    std::vector<Entry> table_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

/** The quarantine buffer. */
class Quarantine
{
  public:
    /**
     * Add a freshly quarantined chunk, merging with adjacent
     * quarantined runs in constant time. Rewrites the surviving run
     * header through the allocator.
     * @return merges performed for this add (0, 1 or 2)
     */
    unsigned add(DlAllocator &dl, uint64_t addr, uint64_t size,
                 uint32_t birth = 0);

    /** Total quarantined bytes (chunk sizes, headers included). */
    uint64_t totalBytes() const { return total_bytes_; }

    /** Number of distinct runs (after aggregation). */
    size_t runCount() const { return runs_.size(); }

    /** Number of merges performed so far. */
    uint64_t merges() const { return merges_; }

    /** Chunks added so far (program frees that reached quarantine). */
    uint64_t adds() const { return adds_; }

    /** Runs in address order (deterministic painting order). */
    std::vector<QuarantineRun> runs() const { return orderedRuns(); }

    /**
     * Runs in address order, materialised lazily and cached until
     * the next add — the no-copy view the sweep protocol iterates.
     * prepareSweep, finishSweep and shardedRuns on a frozen epoch
     * all share one materialisation.
     */
    const std::vector<QuarantineRun> &orderedRuns() const;

    /**
     * Partition the runs into @p shards address bands for parallel
     * or per-shard-view painting. Every run appears in exactly one
     * shard; shards are in address order and may be empty. Built
     * straight from the ordered view — no intermediate full copy.
     */
    std::vector<QuarantineShard> shardedRuns(size_t shards) const;

    /**
     * Hand every run back to the allocator's free lists ("internal
     * frees", in address order) and empty the buffer. Returns the
     * number of internal frees performed.
     */
    uint64_t release(DlAllocator &dl);

    /** Quarantined bytes in runs with birth >= @p min_birth. */
    uint64_t bytesBornSince(uint32_t min_birth) const;

    /**
     * Split off every run with birth >= @p min_birth into a new
     * quarantine (the tier-scoped freeze of a hierarchical epoch),
     * leaving older runs behind. Runs never straddle the cutoff:
     * merging keeps the minimum birth, so any run containing an
     * older-than-cutoff chunk stays behind whole. Deterministic
     * (partition walks the address-ordered view); no chunk headers
     * are rewritten.
     */
    Quarantine splitBornSince(uint32_t min_birth);

    bool empty() const { return runs_.empty(); }

  private:
    void eraseSlot(uint32_t slot);
    void adoptRun(const QuarantineRun &run);

    /** Dense, unordered run slab; hash entries point into it. */
    std::vector<QuarantineRun> runs_;
    BoundaryIndex by_start_;
    BoundaryIndex by_end_;
    uint64_t total_bytes_ = 0;
    uint64_t merges_ = 0;
    uint64_t adds_ = 0;

    /** Lazily sorted snapshot of runs_; valid while no add() lands. */
    mutable std::vector<QuarantineRun> ordered_;
    mutable bool ordered_valid_ = false;
};

} // namespace alloc
} // namespace cherivoke

#endif // CHERIVOKE_ALLOC_QUARANTINE_HH
