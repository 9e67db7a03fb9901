/**
 * @file
 * Pluggable revocation backends: the abstraction over "how freed
 * memory becomes safe to reuse". The engine owns epoch arbitration,
 * policies, and statistics accumulation; a backend owns the epoch
 * *mechanics* for one domain and hooks the allocator hot path
 * (alloc::AllocObserver) to mint per-allocation metadata:
 *
 *  - sweep (CHERIvoke, the paper): frees quarantine; an epoch paints
 *    the shadow map and sweeps capability memory, clearing dangling
 *    tags, then releases the quarantine.
 *  - color (PICASSO-style): every allocation carries a color from a
 *    bounded pool in the capability's spare metadata bits; a color
 *    whose cohort is fully dead retires, and a *recycling scan* —
 *    rarer than quarantine-triggered sweeps — revokes stale colored
 *    capabilities and returns retired colors (generation bumped) to
 *    the pool.
 *  - objid (CHERI-D-style): every allocation carries an inline
 *    object ID in its chunk header; each dereference is modelled as
 *    an ID check (counter + traffic), frees retire the ID in O(1)
 *    and the memory is reusable immediately; epochs compact the ID
 *    table instead of sweeping memory.
 *
 * All three run on the same DlAllocator, trace pipeline, and
 * RevocationEngine policy surface; the sweep backend behind this
 * interface is bit-identical to the pre-backend engine.
 */

#ifndef CHERIVOKE_REVOKE_BACKENDS_BACKEND_HH
#define CHERIVOKE_REVOKE_BACKENDS_BACKEND_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/sweeper.hh"

namespace cherivoke {
namespace revoke {

/**
 * Tier scope for the next epoch (hierarchical epochs, PoisonCap
 * style). A scoped epoch releases only quarantined runs whose birth
 * stamp is >= minBirth, and may skip sweeping pages the
 * @p pageQualifies predicate rules out (pages that provably hold no
 * capability stored recently enough to reference a chunk that young;
 * skipped pages are counted in SweepStats::pagesSkippedTier). The
 * default value is a full-depth epoch — the classic behaviour.
 * Backends whose revocation mechanics cannot be scoped (color
 * recycling scans, object-ID compaction) ignore it.
 */
struct EpochScope
{
    uint32_t minBirth = 0;
    std::function<bool(uint64_t page_addr)> pageQualifies;

    bool scoped() const { return minBirth != 0; }
};

/** Statistics for one complete revocation epoch. */
struct EpochStats
{
    alloc::PaintStats paint;
    SweepStats sweep;
    uint64_t internalFrees = 0;
    uint64_t bytesReleased = 0;
    /** Bounded sweep pauses the epoch was divided into. */
    uint64_t slices = 0;
};

/** The revocation-backend implementations. */
enum class BackendKind
{
    Sweep,    //!< quarantine + sweeping revocation (CHERIvoke)
    Color,    //!< colored capabilities + recycling scan (PICASSO)
    ObjectId, //!< inline object IDs + per-use check (CHERI-D)
};

/** Human-readable backend name ("sweep", "color", "objid"). */
const char *backendName(BackendKind kind);

/** Parse a backend name ("sweep", "color", "objid").
 *  @return true and sets @p out on success. */
bool parseBackend(const std::string &name, BackendKind &out);

/** Tunables for the metadata-bearing backends. */
struct BackendConfig
{
    /** Colored-capability pool size (clamped to the architectural
     *  field: at most cap::kMaxColors - 1 usable colors; color 0 is
     *  "uncolored"). */
    unsigned colors = 16;
    /** Seal a color after this many allocations share it. */
    uint64_t allocsPerColor = 256;
    /** Run a recycling scan once this fraction of the pool is
     *  retired. */
    double recycleFraction = 0.5;
    /** Object-ID backend: compact once this many IDs are retired. */
    uint64_t idCompactRetired = 4096;
    /** Modelled bytes per color-table / ID-table entry. */
    uint64_t tableEntryBytes = 16;
};

/** Backend-specific modelled statistics (cumulative per domain). */
struct BackendStats
{
    /** @name Colored-capability backend */
    /// @{
    uint64_t colorAssigns = 0;          //!< capabilities colored
    uint64_t colorsRetired = 0;         //!< cohorts fully dead
    uint64_t colorsRecycled = 0;        //!< returned to the pool
    uint64_t recycleScans = 0;          //!< recycling-scan epochs
    uint64_t colorExhaustionStalls = 0; //!< pool empty at alloc
    uint64_t colorForcedShares = 0;     //!< cohort shared under stall
    /// @}

    /** @name Object-ID backend */
    /// @{
    uint64_t idsAssigned = 0;
    uint64_t idsRetired = 0;
    uint64_t idChecks = 0;      //!< modelled per-dereference checks
    uint64_t idCompactions = 0; //!< table-compaction epochs
    uint64_t idTableEntriesCompacted = 0;
    /// @}

    /** Modelled metadata traffic (table scans, per-check header
     *  reads) beyond what the sweeper accounts. */
    uint64_t metadataBytes = 0;

    bool operator==(const BackendStats &o) const = default;
};

/** What a backend operates on: one engine domain's objects. */
struct BackendContext
{
    alloc::CherivokeAllocator *allocator = nullptr;
    mem::AddressSpace *space = nullptr;
    Sweeper *sweeper = nullptr;
};

/**
 * One domain's revocation mechanics. Also an AllocObserver: the
 * engine installs the backend as its allocator's observer, so
 * onAlloc/onFree run inline in the mutator hot path.
 *
 * Epoch contract (driven by the engine, which owns open/closed
 * state and policy arbitration): beginEpoch → step until 0 remains
 * → finishEpoch, all against the same EpochStats object. A backend
 * with no page-granular work (objid) does its work in beginEpoch /
 * finishEpoch and returns 0 from step.
 */
class RevocationBackend : public alloc::AllocObserver
{
  public:
    explicit RevocationBackend(const BackendConfig &config)
        : config_(config)
    {}

    virtual BackendKind kind() const = 0;
    virtual const char *name() const = 0;

    /** Attach to a domain's allocator/space/sweeper. */
    void
    bind(const BackendContext &ctx)
    {
        ctx_ = ctx;
        onBind();
    }

    /** Revocation work due (the engine's quarantinePressure)? */
    virtual bool needsRevocation() const = 0;

    /** Open an epoch. @p want_barrier: the governing policy runs
     *  concurrently with the mutator and wants the load-side
     *  revocation barrier (sweep-family backends install it). */
    virtual void beginEpoch(EpochStats &epoch, bool want_barrier) = 0;

    /** Set the tier scope for subsequent epochs (hierarchical
     *  epochs). Default: ignored — every epoch is full-depth.
     *  Backends that honour it (sweep) apply it in beginEpoch. */
    virtual void setEpochScope(EpochScope scope) { (void)scope; }

    /** Advance the epoch by up to @p max_pages units of work.
     *  @return units still remaining */
    virtual size_t step(EpochStats &epoch, size_t max_pages,
                        cache::Hierarchy *hierarchy) = 0;

    /** Close the epoch (all work drained). */
    virtual void finishEpoch(EpochStats &epoch) = 0;

    /** Work units remaining in the open epoch (0 when idle). */
    virtual size_t pagesRemaining() const { return 0; }

    /** The open epoch's frozen page worklist, for backends that
     *  sweep page-granular memory (the engine's sweeper supervision
     *  records its size at dispatch). nullptr for backends with no
     *  such worklist (objid): the engine then records no sweeper
     *  event for the epoch and leaves its injection unfired. */
    virtual const std::vector<uint64_t> *frozenWorklist() const
    {
        return nullptr;
    }

    /** Drop any installed load barrier (engine-destructor safety;
     *  no-op for barrier-free backends). */
    virtual void releaseBarrier() {}

    /** Model @p n pointer dereferences through this backend's
     *  per-use check (no-op unless the backend checks on use). */
    virtual void onPointerUse(uint64_t n) { (void)n; }

    const BackendStats &stats() const { return stats_; }
    const BackendConfig &config() const { return config_; }

  protected:
    /** Late-bind hook for subclasses needing ctx_ at attach time. */
    virtual void onBind() {}

    BackendContext ctx_{};
    BackendConfig config_{};
    BackendStats stats_{};
};

/** Instantiate the built-in backend for @p kind. */
std::unique_ptr<RevocationBackend>
makeBackend(BackendKind kind, const BackendConfig &config = BackendConfig{});

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_BACKENDS_BACKEND_HH
