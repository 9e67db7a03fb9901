/**
 * @file
 * dlmalloc_cherivoke (paper §5.2): the public temporal-safety
 * allocator. free() quarantines instead of releasing; when the
 * quarantine reaches a configurable fraction of the live heap a
 * revocation sweep is due. The caller (revoke::RevocationEngine, or
 * a test) drives the prepare → sweep → finish sequence:
 *
 *     if (alloc.needsSweep()) {
 *         alloc.prepareSweep();   // paint the shadow map
 *         sweeper.sweep(...);     // clear dangling capability tags
 *         alloc.finishSweep();    // unpaint, internal frees
 *     }
 */

#ifndef CHERIVOKE_ALLOC_CHERIVOKE_ALLOC_HH
#define CHERIVOKE_ALLOC_CHERIVOKE_ALLOC_HH

#include <cstdint>

#include "alloc/dlmalloc.hh"
#include "alloc/quarantine.hh"
#include "alloc/shadow_map.hh"

namespace cherivoke {
namespace alloc {

/** Tunables for the temporal-safety allocator. */
struct CherivokeConfig
{
    /**
     * Sweep when quarantined bytes reach this fraction of the live
     * heap (paper default: 25%, §3.1/§6).
     */
    double quarantineFraction = 0.25;
    /** Never sweep below this many quarantined bytes. */
    uint64_t minQuarantineBytes = 64 * KiB;
    DlConfig dl{};
};

/** How a freed chunk becomes safe to reuse. */
enum class FreeRouting
{
    Quarantine,  //!< hold until a revocation sweep (CHERIvoke)
    ReleaseNow,  //!< reuse immediately; safety comes from metadata
};

/**
 * Revocation-backend hook into the allocation hot path. A backend
 * that mints per-allocation metadata (capability colors, inline
 * object IDs) installs itself here: onAlloc decorates the returned
 * capability and/or stamps the chunk header; onFree decides whether
 * the chunk quarantines (sweep-style) or releases immediately
 * (color/ID-style, where stale references are caught by a metadata
 * check instead of a tag sweep). The default implementation is the
 * classic CHERIvoke behaviour, so an allocator without an observer
 * is bit-identical to one with a pure-sweep observer.
 */
class AllocObserver
{
  public:
    virtual ~AllocObserver() = default;

    /** Decorate a freshly allocated capability (e.g. with a color). */
    virtual cap::Capability onAlloc(const cap::Capability &capability)
    {
        return capability;
    }

    /** Route a free: quarantine (default) or release immediately. */
    virtual FreeRouting
    onFree(uint64_t chunk_addr, uint64_t chunk_size, uint64_t payload)
    {
        (void)chunk_addr;
        (void)chunk_size;
        (void)payload;
        return FreeRouting::Quarantine;
    }
};

/**
 * Birth-stamp source for hierarchical (generation-tier) epochs. The
 * adaptive policy installs one per domain; the allocator then stamps
 * every chunk at allocation time with the stamper's current epoch
 * sequence (saturated to kBirthSaturated) so quarantined runs can be
 * classified hot/warm/cold by age. Allocators without a stamper
 * never touch the birth bits — their size words, and everything
 * downstream, stay bit-identical to pre-adaptive builds.
 */
class TierStamper
{
  public:
    virtual ~TierStamper() = default;

    /** Stamp for a chunk allocated now (>= 1; 0 means unstamped). */
    virtual uint32_t currentBirthStamp() const = 0;
};

/**
 * Paint every shard's quarantined runs, one worker thread per
 * non-empty shard, each through a shard-restricted ShadowMap::View
 * (payload spans only: run headers are skipped exactly as the serial
 * paint does). Views cover disjoint granule ranges and the shadow
 * store path is thread-safe, so the result — shadow contents and the
 * returned PaintStats, merged in shard order — is identical to
 * painting the same shards serially.
 */
PaintStats paintShardsConcurrent(
    ShadowMap &shadow, const std::vector<QuarantineShard> &shards);

/** The CHERIvoke allocator facade. */
class CherivokeAllocator
{
  public:
    CherivokeAllocator(mem::AddressSpace &space,
                       CherivokeConfig config = CherivokeConfig{});

    /** @name Program-facing API (CheriABI malloc/free) */
    /// @{
    cap::Capability
    malloc(uint64_t size)
    {
        const cap::Capability c = dl_.malloc(size);
        if (stamper_)
            stampBirth(c);
        return observer_ ? observer_->onAlloc(c) : c;
    }
    cap::Capability
    calloc(uint64_t n, uint64_t size)
    {
        const cap::Capability c = dl_.calloc(n, size);
        if (stamper_)
            stampBirth(c);
        return observer_ ? observer_->onAlloc(c) : c;
    }

    /**
     * Temporal-safe free: quarantine the allocation. The memory is
     * not reusable until a sweep revokes every dangling reference.
     */
    void free(const cap::Capability &capability);

    /**
     * Temporal-safe realloc: always allocate-copy-quarantine (no
     * in-place growth, which would leave stale capabilities with
     * different bounds aliasing the grown object).
     */
    cap::Capability realloc(const cap::Capability &capability,
                            uint64_t new_size);

    uint64_t usableSize(uint64_t payload) const
    {
        return dl_.usableSize(payload);
    }
    /// @}

    /** @name Sweep protocol */
    /// @{
    /** Quarantine at/over its budget (paper: Q >= fraction * heap)? */
    bool needsSweep() const;

    /**
     * Freeze the current quarantine as this epoch's revocation set
     * and paint the shadow map for every frozen run (payload spans
     * only: a live one-past-the-end capability of the *previous*
     * object has its base in our header granule and must survive).
     * Frees issued while the epoch is open join a fresh quarantine
     * and are NOT released by this epoch's finishSweep — required
     * for incremental/concurrent revocation (§3.5).
     *
     * With @p paint_shards > 1 the revocation set is partitioned
     * into address bands and each band is painted *concurrently*, on
     * its own worker thread, through its own shard-restricted
     * shadow-map view (the raw shadow-store path is thread-safe).
     * Whole runs stay within one shard, so the store sequence per
     * shard — and the returned statistics, merged in shard order —
     * are identical for every shard count, and the painted shadow
     * bytes are identical to a serial paint.
     * @return paint statistics for the cost model
     *
     * With @p min_birth > 0 the freeze is *tier-scoped*: only runs
     * whose (minimum-member) birth stamp is >= min_birth freeze and
     * paint; older runs stay quarantined for a deeper epoch. The
     * default (0) freezes everything — bit-identical to the
     * historical unscoped path.
     */
    PaintStats prepareSweep(unsigned paint_shards = 1,
                            uint32_t min_birth = 0);

    /** Unpaint and return the *frozen* runs to the free lists.
     *  @return number of internal frees (after aggregation) */
    uint64_t finishSweep();

    /** True between prepareSweep() and finishSweep(). */
    bool epochOpen() const { return !frozen_.empty(); }
    /// @}

    /** @name Introspection */
    /// @{
    DlAllocator &dl() { return dl_; }
    const DlAllocator &dl() const { return dl_; }
    ShadowMap &shadowMap() { return shadow_; }
    Quarantine &quarantine() { return quarantine_; }
    const Quarantine &quarantine() const { return quarantine_; }
    const CherivokeConfig &config() const { return config_; }

    uint64_t liveBytes() const { return dl_.liveBytes(); }
    uint64_t quarantinedBytes() const
    {
        return quarantine_.totalBytes() + frozen_.totalBytes();
    }
    /** Bytes in the open epoch's (possibly tier-scoped) freeze. */
    uint64_t frozenBytes() const { return frozen_.totalBytes(); }
    uint64_t footprintBytes() const { return dl_.footprintBytes(); }

    uint64_t sweepsPrepared() const { return sweeps_; }

    /** Install/replace the revocation-backend hook (may be null). */
    void setObserver(AllocObserver *observer) { observer_ = observer; }
    AllocObserver *observer() const { return observer_; }

    /** Install/remove the birth stamper (may be null). */
    void setTierStamper(TierStamper *stamper) { stamper_ = stamper; }
    TierStamper *tierStamper() const { return stamper_; }
    /// @}

  private:
    void stampBirth(const cap::Capability &capability);
    DlAllocator dl_;
    ShadowMap shadow_;
    Quarantine quarantine_; //!< frees since the last prepareSweep
    Quarantine frozen_;     //!< the open epoch's revocation set
    CherivokeConfig config_;
    mem::TaggedMemory *mem_;
    uint64_t sweeps_ = 0;
    AllocObserver *observer_ = nullptr;
    TierStamper *stamper_ = nullptr;
};

} // namespace alloc
} // namespace cherivoke

#endif // CHERIVOKE_ALLOC_CHERIVOKE_ALLOC_HH
