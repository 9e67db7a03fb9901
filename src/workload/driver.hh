/**
 * @file
 * The trace driver: replays a workload trace against the CHERIvoke
 * allocator inside the simulated machine, running revocation epochs
 * as the quarantine fills, and measuring the quantities the paper's
 * tables and figures report (free rates, pointer densities at page
 * and line granularity, sweep statistics, peak memory).
 */

#ifndef CHERIVOKE_WORKLOAD_DRIVER_HH
#define CHERIVOKE_WORKLOAD_DRIVER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "cache/hierarchy.hh"
#include "revoke/revocation_engine.hh"
#include "support/fault.hh"
#include "workload/object_table.hh"
#include "workload/trace.hh"

namespace cherivoke {
namespace workload {

/** Densities of capability-bearing memory in the heap. */
struct DensitySample
{
    double pageDensity = 0; //!< fraction of heap pages with >=1 tag
    double lineDensity = 0; //!< fraction of heap lines with >=1 tag
};

/** Measure current heap pointer densities (table 2 / figure 8a). */
DensitySample measureDensities(const mem::AddressSpace &space);

/** Aggregate results of one trace replay. */
struct DriverResult
{
    double virtualSeconds = 0;
    uint64_t allocCalls = 0;
    uint64_t freeCalls = 0;
    uint64_t freedBytes = 0;
    uint64_t ptrStores = 0;

    uint64_t peakLiveBytes = 0;
    uint64_t peakQuarantineBytes = 0;
    uint64_t peakFootprintBytes = 0;
    /** Most allocations simultaneously live (PICASSO-style scale). */
    uint64_t peakLiveAllocs = 0;

    /** Rates over virtual time (table 2 columns, at trace scale). */
    double measuredFreeRateMiBps = 0;
    double measuredFreesPerSec = 0;

    /** Densities averaged over sweep-time samples (like the paper's
     *  core dumps, §5.3); falls back to an end-of-run sample. */
    double pageDensity = 0;
    double lineDensity = 0;
    uint64_t densitySamples = 0;

    revoke::EngineTotals revoker;
};

/**
 * One-op-at-a-time trace replay: the stepping core TraceDriver::run
 * is built on, exposed so the tenant scheduler can interleave many
 * tenants' streams op by op through one shared revocation engine.
 *
 * Each step applies the next trace op to the allocator/memory and,
 * after Malloc/Free, samples pointer densities when an epoch is
 * about to open and pumps the engine (the default pump calls
 * engine->maybeRevoke(); a multi-tenant host installs its own pump
 * to select the engine domain and apply its revocation scope first).
 */
class TraceReplayer
{
  public:
    using PumpFn = std::function<void(cache::Hierarchy *)>;
    using DrainFn = std::function<void(cache::Hierarchy *)>;
    using LifecycleFn = std::function<void(const TraceOp &)>;
    using DerefFn = std::function<void(uint64_t)>;

    /**
     * @param engine nullable: without it, frees quarantine but no
     *        sweeps run (the fig. 6 "quarantine only" configuration)
     * @param trace shared, not borrowed: the replayer keeps its own
     *        handle to the ops, so @p trace may be a temporary
     */
    TraceReplayer(mem::AddressSpace &space,
                  alloc::CherivokeAllocator &allocator,
                  revoke::RevocationEngine *engine,
                  const Trace &trace);

    /** Replace the engine pump (multi-tenant scheduling hook). */
    void setPump(PumpFn pump) { pump_ = std::move(pump); }

    /**
     * Replace the pointer-dereference hook, called with a use count
     * for every applied pointer op (StorePtr/StoreData/RootPtr). The
     * default reports to the engine's active domain
     * (RevocationEngine::notePointerUse) so per-use-check backends
     * account their check cost; a multi-tenant host narrows it to
     * this tenant's own domain.
     */
    void setDeref(DerefFn deref) { deref_ = std::move(deref); }

    /**
     * Replace finish()'s end-of-replay drain. The default drains
     * whatever epoch the engine has open; a multi-tenant host narrows
     * it to this tenant's own domain so finishing (or retiring) one
     * tenant never completes a neighbour's in-flight epoch.
     */
    void setDrain(DrainFn drain) { drain_ = std::move(drain); }

    /**
     * Receive SpawnTenant/RetireTenant ops (a TenantManager resolves
     * them against its definition registry). Without a handler a
     * lifecycle op is fatal: it cannot mean anything to a
     * single-process replay.
     */
    void setLifecycle(LifecycleFn fn) { lifecycle_ = std::move(fn); }

    /** All ops applied (finish() may still be outstanding). */
    bool done() const { return next_ >= ops_.size(); }
    size_t opsApplied() const { return next_; }
    size_t opsTotal() const { return ops_.size(); }

    /** Currently live (not yet freed) trace allocations. */
    uint64_t liveObjects() const { return objects_.size(); }

    /**
     * Apply the next op; must not be called once done(). The first
     * step indexes the trace's allocation ids first (and throws
     * FatalError, before any op applies, if the trace stores root
     * pointers but the globals segment holds no capability slot).
     */
    void step(cache::Hierarchy *hierarchy = nullptr);

    /**
     * Drain any open epoch and finalise rates and densities.
     * Callable once, after done(); the replayer is spent afterwards.
     */
    DriverResult finish(cache::Hierarchy *hierarchy = nullptr);

    /** Results accumulated so far (peaks, counters; not yet rates). */
    const DriverResult &partial() const { return result_; }

    /**
     * Record a revocation-epoch boundary at the current replay
     * position (called from the engine's epoch-open hook, so the
     * recorded value is the number of ops applied when the epoch's
     * revocation set froze). The mutator front-end's traffic count
     * treats these as flush-and-drain points.
     */
    void noteEpochBoundary() { epoch_ops_.push_back(next_); }

    /** Op indices at which revocation epochs opened, in replay
     *  order (non-decreasing; duplicates possible when an epoch
     *  opens twice at one op, e.g. drain-then-revoke). */
    const std::vector<uint64_t> &epochOpenOps() const
    {
        return epoch_ops_;
    }

    /**
     * Chaos hook: perform a real faulting operation of @p kind
     * against this replay's allocator (a genuine double free, a
     * free of an address outside the heap, a free through a smashed
     * boundary tag...), so the planned injection exercises exactly
     * the detection path an organic fault would. Always throws
     * HeapFault; never advances the trace. Deterministic: the same
     * replay state produces the same faulting operation.
     */
    [[noreturn]] void injectFault(HeapFaultKind kind);

  private:
    void indexObjects();
    void pumpEngine(cache::Hierarchy *hierarchy);
    void trackPeaks();

    mem::AddressSpace *space_;
    alloc::CherivokeAllocator *alloc_;
    revoke::RevocationEngine *engine_;
    TraceOps ops_;
    PumpFn pump_;
    DrainFn drain_;
    LifecycleFn lifecycle_;
    DerefFn deref_;

    /** Live trace allocations; built by the first step. */
    ObjectTable objects_;
    DriverResult result_;
    double page_density_acc_ = 0;
    double line_density_acc_ = 0;
    size_t next_ = 0;
    bool finished_ = false;
    /** Replay positions (ops applied) of every epoch open. */
    std::vector<uint64_t> epoch_ops_;
};

/** Replays traces against an allocator + revocation engine. */
class TraceDriver
{
  public:
    /**
     * @param engine nullable: without it, frees quarantine but no
     *        sweeps run (the fig. 6 "quarantine only" configuration)
     */
    TraceDriver(mem::AddressSpace &space,
                alloc::CherivokeAllocator &allocator,
                revoke::RevocationEngine *engine)
        : space_(&space), alloc_(&allocator), engine_(engine)
    {}

    /** Replay @p trace; optionally model traffic via @p hierarchy.
     *  Pumps the engine after every allocator operation so that
     *  concurrent-policy epochs interleave with trace progress; any
     *  epoch still open at end of trace is drained. */
    DriverResult run(const Trace &trace,
                     cache::Hierarchy *hierarchy = nullptr);

  private:
    mem::AddressSpace *space_;
    alloc::CherivokeAllocator *alloc_;
    revoke::RevocationEngine *engine_;
};

} // namespace workload
} // namespace cherivoke

#endif // CHERIVOKE_WORKLOAD_DRIVER_HH
