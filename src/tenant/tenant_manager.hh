/**
 * @file
 * The multi-tenant workload host: N isolated CheriABI process images
 * — each with its own address-space region, CHERIvoke allocator, and
 * quarantine — consolidated onto ONE shared mem::TaggedMemory, one
 * optional cache hierarchy, and one shared revoke::RevocationEngine,
 * so revocation work done for one tenant genuinely contends with the
 * others (the consolidation regime CHERIvoke's §6 sweep-cost model
 * says hits first as heap size and free rate aggregate).
 *
 * Ownership:
 *
 *     TenantManager
 *       ├── mem::TaggedMemory            (shared physical image)
 *       ├── revoke::RevocationEngine     (one engine, one domain per
 *       │                                 tenant slot)
 *       └── Tenant[slot]
 *             ├── mem::AddressSpace      (layout shifted by
 *             │                           slot * kTenantStride, bound
 *             │                           to the shared memory)
 *             ├── alloc::CherivokeAllocator (+ its quarantine and
 *             │                           shadow map over the shared
 *             │                           shadow region)
 *             └── workload::Trace        (the tenant's op stream: a
 *                                         handle sharing the caller's
 *                                         immutable op buffer)
 *
 * run() interleaves the tenants' traces op-by-op under a smooth
 * weighted round-robin TenantScheduler and pumps the shared engine
 * after every allocator operation. Revocation triggers under two
 * scopes: PerTenant (only the pressured tenant's region is swept —
 * sound because tenants are isolated, and exactly the per-region
 * sweep scoping PoisonCap-style hierarchical schedules assume) or
 * Global (any tenant hitting its budget drains every tenant's
 * quarantine in one pause, the worst-case consolidation stall).
 * Tenants are heterogeneous: each TenantConfig may carry its own
 * revocation policy, so one tenant runs concurrent revocation while
 * a neighbour stops the world on the same engine (arbitration lives
 * in the engine: the open epoch's owner wins).
 *
 * Tenants also come and go mid-run. defineTenant() registers a
 * spawnable definition; a SpawnTenant trace op (or a direct
 * spawnTenant() call between runs) activates it in the lowest free
 * 2 GiB slot — reusing a retired tenant's slot when one is free —
 * and a RetireTenant op tears a live tenant down: its domain's open
 * epoch is drained, its partial results are captured, its PTEs
 * (image + shadow window) are unmapped, and every backing page of
 * its slot is released, so the next occupant of the slot observes
 * exactly what a fresh slot shows — zero data, zero tags, zero
 * shadow bytes, nothing resident.
 *
 * The manager is also the process's fault-containment boundary: a
 * HeapFault raised while a tenant steps (a double free in its trace,
 * a smashed boundary tag, an injected chaos fault) retires exactly
 * that tenant through the standard teardown path and the run
 * continues; under per-tenant scope every surviving tenant's
 * modelled statistics are bit-identical to a run where the faulty
 * tenant's trace simply ended at its fault point. A soft page
 * budget on the shared memory adds memory-pressure degradation: the
 * escalation ladder first force-revokes the pressured tenant
 * (flushing its quarantine) and releases cold heap pages, then —
 * after a backoff window — reclaims globally, and OOM-kills the
 * pressured tenant only as the last resort.
 *
 * Everything is deterministic: same tenant configs + same traces →
 * bit-identical per-tenant and aggregate statistics (lifecycle
 * wall-clock measurements excepted — they are reporting, not
 * model state). A 1-tenant manager is op-for-op identical to the
 * classic single-process workload::TraceDriver pipeline (tenant 0's
 * layout shift is zero).
 */

#ifndef CHERIVOKE_TENANT_TENANT_MANAGER_HH
#define CHERIVOKE_TENANT_TENANT_MANAGER_HH

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/addr_space.hh"
#include "revoke/revocation_engine.hh"
#include "stats/summary.hh"
#include "support/fault.hh"
#include "tenant/mutator_threads.hh"
#include "tenant/scheduler.hh"
#include "workload/driver.hh"

namespace cherivoke {
namespace tenant {

/** What a quarantine-budget trigger sweeps. */
enum class RevocationScope
{
    PerTenant, //!< only the pressured tenant's region
    Global,    //!< every tenant's quarantine, one pause
};

const char *scopeName(RevocationScope scope);
bool parseScope(const std::string &name, RevocationScope &out);

/**
 * Address-space stride between tenants: each tenant's segment bases
 * are the single-process bases shifted up by index * kTenantStride,
 * so tenant 0 occupies exactly the classic layout. 2 GiB covers the
 * full classic image (globals + heap + stack end below 0x8000'0000)
 * and keeps 512 tenants under the shadow region base.
 */
constexpr uint64_t kTenantStride = 0x8000'0000ULL;
constexpr size_t kMaxTenants = mem::kShadowBase / kTenantStride;

/** Segment layout of tenant @p index (fatal when index too large). */
mem::AddressSpace::Layout layoutForTenant(size_t index);

/** The shadow-region window that covers slot @p index's stride:
 *  disjoint between slots and page-aligned (the stride is a multiple
 *  of 128 pages), so a slot teardown can release it wholesale. */
std::pair<uint64_t, uint64_t> shadowWindowForTenant(size_t index);

/** Per-tenant knobs. */
struct TenantConfig
{
    std::string name;
    /** Scheduler share: ops per rotation relative to other tenants.
     *  Must be positive (a zero share could never be scheduled and
     *  is rejected up front, not at run()). */
    double weight = 1.0;
    alloc::CherivokeConfig alloc{};
    uint64_t globalsBytes = 512 * KiB;
    uint64_t stackBytes = 512 * KiB;
    /** Revocation policy for this tenant's engine domain; unset →
     *  the engine-wide default. Mixing policies on one engine is
     *  supported (epoch-owner-wins arbitration). */
    std::optional<revoke::PolicyKind> policy;
    /** Revocation backend for this tenant's engine domain; unset →
     *  the engine-wide default. Backends mix freely across tenants
     *  (each domain owns its backend and metadata). */
    std::optional<revoke::BackendKind> backend;
};

/** One hosted tenant: its region, allocator, and trace. */
class Tenant
{
  public:
    Tenant(size_t index, const TenantConfig &config,
           mem::TaggedMemory &shared, workload::Trace trace);

    size_t index() const { return index_; }
    const std::string &name() const { return config_.name; }
    const TenantConfig &config() const { return config_; }
    mem::AddressSpace &space() { return space_; }
    alloc::CherivokeAllocator &allocator() { return allocator_; }
    const workload::Trace &trace() const { return trace_; }

  private:
    size_t index_;
    TenantConfig config_;
    workload::Trace trace_;
    mem::AddressSpace space_;
    alloc::CherivokeAllocator allocator_;
};

/** One tenant's replay outcome. */
struct TenantResult
{
    std::string name;
    /** The tenant's stable id (lifecycle namespace). */
    uint64_t tenantId = 0;
    /** The 2 GiB slot the tenant occupied. */
    size_t index = 0;
    double weight = 1.0;
    /** Trace ops actually applied; < opsTotal when the tenant was
     *  retired before its trace finished. */
    uint64_t opsApplied = 0;
    uint64_t opsTotal = 0;
    bool retiredMidRun = false;
    /** Per-tenant driver statistics; .revoker holds this tenant's
     *  domain totals, not the engine-wide aggregate. */
    workload::DriverResult run;
    /** The mutator front-end's message traffic over this tenant's
     *  applied trace prefix (config.mutator threads, epoch
     *  boundaries from the replay). It never feeds back into `run`:
     *  modelled statistics are bit-identical across thread counts
     *  by construction. */
    MutatorRaceResult mutator;

    /** @name Fault containment (set when the tenant was retired by
     *  a contained HeapFault rather than by its own trace) */
    /// @{
    bool faulted = false;
    HeapFaultKind faultKind = HeapFaultKind::DoubleFree;
    /** opsApplied when the fault was contained. */
    uint64_t faultOp = 0;
    std::string faultMessage;
    /// @}
};

/** One contained fault, as the manager handled it. */
struct FaultRecord
{
    HeapFaultKind kind = HeapFaultKind::DoubleFree;
    uint64_t tenantId = 0;
    size_t slot = 0;
    /** Scheduler steps completed when the fault was contained. */
    uint64_t step = 0;
    /** Ops the faulting tenant had applied. */
    uint64_t opIndex = 0;
    /** Planned (fault-plan) injection vs organic trace damage. */
    bool injected = false;
    std::string message;
    /** Host wall-clock cost of the containment (drain + capture +
     *  teardown). Reporting only: excluded from fingerprints. */
    double wallSec = 0;
};

/** One tenant arrival or departure, as it was applied. */
struct LifecycleEvent
{
    enum class Kind { Spawn, Retire };

    Kind kind = Kind::Spawn;
    uint64_t tenantId = 0;
    size_t slot = 0;
    /** Scheduler steps completed when the event applied (0 when it
     *  happened before run()). */
    uint64_t step = 0;
    /** Spawn: the slot previously hosted a retired tenant. */
    bool reusedSlot = false;
    /** Retire: backing pages released (image + shadow window). */
    uint64_t pagesReleased = 0;
    /** Host wall-clock cost of the transition. Reporting only:
     *  non-deterministic, excluded from replay fingerprints. */
    double wallSec = 0;
};

/** Everything one multi-tenant replay produces. */
struct MultiTenantResult
{
    /** Retired tenants in retirement order, then survivors in slot
     *  order (a no-churn run is therefore slot order, as before). */
    std::vector<TenantResult> tenants;

    /** Engine-wide revocation totals (sum over all tenants). */
    revoke::EngineTotals engine;

    /** @name Aggregate mutator counters */
    /// @{
    uint64_t totalOps = 0;
    uint64_t allocCalls = 0;
    uint64_t freeCalls = 0;
    uint64_t freedBytes = 0;
    uint64_t ptrStores = 0;
    /// @}

    /** @name Mutator front-end aggregates (sum over tenants).
     *  Deterministic functions of traces + MutatorConfig; the
     *  fingerprint folds every tenant's traffic fingerprint in
     *  result order, so two runs of one configuration must match
     *  exactly. */
    /// @{
    uint64_t mutatorLocalFrees = 0;
    uint64_t mutatorRemoteFrees = 0;
    uint64_t mutatorEpochBarriers = 0;
    uint64_t mutatorFingerprint = 0;
    /// @}

    /** @name Tenant-lifecycle log (spawn/retire mid-run) */
    /// @{
    std::vector<LifecycleEvent> lifecycle;
    uint64_t spawns = 0;
    uint64_t retires = 0;
    /** Spawns that landed in a previously retired tenant's slot. */
    uint64_t slotsReused = 0;
    /// @}

    /** @name Fault containment and memory pressure */
    /// @{
    /** Every contained fault, in containment order. */
    std::vector<FaultRecord> faults;
    uint64_t faultsContained = 0;
    /** Tenants killed by the pressure ladder's last resort. */
    uint64_t oomKills = 0;
    /** Escalation-ladder activations (any rung). */
    uint64_t pressureEvents = 0;
    /** Pages reclaimed by emergency revocation + cold-page
     *  release while over the soft page budget. */
    uint64_t pressurePagesReclaimed = 0;
    /// @}

    /** @name Background-sweeper supervision (bg mode only) */
    /// @{
    /** Every supervision transition, in engine order (typed;
     *  deterministic fields only — see revoke/supervisor.hh). */
    std::vector<revoke::SweeperEvent> sweeperEvents;
    uint64_t sweeperDispatches = 0;
    uint64_t sweeperCompletions = 0;
    uint64_t sweeperStalls = 0;  //!< stall detections
    uint64_t sweeperRetries = 0; //!< watchdog retries granted
    uint64_t sweeperCrashes = 0;
    uint64_t sweeperReassigns = 0;   //!< ladder rung 1
    uint64_t sweeperStwCatchups = 0; //!< ladder rung 2
    uint64_t sweeperContainments = 0; //!< ladder rung 3
    /// @}

    /** @name Aggregate peaks across the consolidated image.
     *  Live-allocation count is tracked exactly (updated every op);
     *  byte aggregates are sampled every kAggregateSampleOps ops,
     *  which is deterministic and tight at these op rates. */
    /// @{
    uint64_t peakAggLiveAllocs = 0;
    uint64_t peakAggLiveBytes = 0;
    uint64_t peakAggQuarantineBytes = 0;
    uint64_t peakAggFootprintBytes = 0;
    /// @}

    /** Longest per-tenant virtual duration (tenants run
     *  concurrently, so wall-clock-like time is the max). */
    double virtualSeconds = 0;

    /** @name Per-tenant distributions (one sample per tenant) */
    /// @{
    stats::Summary tenantEpochs;
    stats::Summary tenantCapsRevoked;
    stats::Summary tenantPagesSwept;
    stats::Summary tenantPeakLiveAllocs;
    /// @}
};

/** Manager-wide knobs. */
struct TenantManagerConfig
{
    revoke::EngineConfig engine{};
    RevocationScope scope = RevocationScope::PerTenant;
    /** Mutator front-end fan-out counted over every tenant's replay
     *  (threads == 1: the classic serial front-end, no message
     *  traffic). */
    MutatorConfig mutator{};

    /** Deterministic chaos schedule (CHERIVOKE_FAULT_PLAN /
     *  CHERIVOKE_FAULT_SEED); empty = no injections. */
    FaultPlan faultPlan{};

    /** Soft resident-page budget over the shared TaggedMemory
     *  (CHERIVOKE_PAGE_BUDGET_MIB); 0 = unlimited. Exceeding it
     *  walks the escalation ladder: emergency revocation of the
     *  pressured tenant → backoff and a global reclaim pass →
     *  tenant OOM-kill as the last resort. */
    size_t pageBudgetPages = 0;

    /** Scheduler steps between ladder escalations (retry window
     *  for reclamation to catch up before the next rung). */
    uint64_t pressureBackoffSteps = 64;
};

/** Aggregate-byte-peak sampling period, in scheduler steps. */
constexpr uint64_t kAggregateSampleOps = 32;

/** Hosts tenants and replays their traces against shared state. */
class TenantManager
{
  public:
    /** Throws FatalError when config.mutator has zero threads or a
     *  zero remote-free batch (checkMutatorConfig). */
    explicit TenantManager(
        TenantManagerConfig config = TenantManagerConfig{});

    /**
     * Add a tenant before run(): occupies the lowest free slot and
     * registers it as a domain of the shared engine (created on
     * first add). Its tenant id equals the returned slot. The
     * tenant shares @p trace's ops with the caller; none are copied.
     * @return the tenant's slot
     */
    size_t addTenant(const TenantConfig &config,
                     workload::Trace trace);

    /**
     * Register a spawnable tenant definition under @p id (must not
     * collide with a live tenant's id or another definition). A
     * SpawnTenant trace op — or a direct spawnTenant() call —
     * activates it later.
     */
    void defineTenant(uint64_t id, const TenantConfig &config,
                      workload::Trace trace);

    /**
     * Activate registered definition @p id in the lowest free slot
     * (reusing a retired slot when one exists). Fatal when @p id is
     * unknown or already live. @return the slot spawned into
     */
    size_t spawnTenant(uint64_t id);

    /**
     * Tear live tenant @p id down: drain its domain's open epoch (if
     * it owns one), capture its partial results, retire its engine
     * domain, unmap its PTEs (image segments + shadow window),
     * release every backing page of its slot, and put the slot on
     * the free list. Fatal when @p id is not live.
     */
    void retireTenant(uint64_t id);

    size_t freeSlotCount() const { return free_slots_.size(); }
    bool tenantLive(uint64_t id) const
    {
        return live_ids_.count(id) != 0;
    }
    /** Slot of live tenant @p id (fatal when not live). */
    size_t slotOf(uint64_t id) const;

    /** The tenant in slot @p index (must be live). */
    Tenant &tenant(size_t index);
    mem::TaggedMemory &memory() { return memory_; }
    const TenantManagerConfig &config() const { return config_; }

    /** The shared engine; valid once a tenant has been added. */
    revoke::RevocationEngine &engine() { return *engine_; }

    /**
     * Interleave every tenant's trace to completion under the
     * weighted scheduler, pumping the shared engine per operation
     * and applying SpawnTenant/RetireTenant ops as they replay.
     * Callable once. @param hierarchy optional shared cache model
     */
    MultiTenantResult run(cache::Hierarchy *hierarchy = nullptr);

  private:
    /** One 2 GiB slot: its tenant + replayer while occupied. */
    struct Slot
    {
        std::unique_ptr<Tenant> tenant;
        std::unique_ptr<workload::TraceReplayer> replayer;
        uint64_t id = 0;
    };

    /** A registered spawnable tenant. */
    struct Definition
    {
        TenantConfig config;
        workload::Trace trace;
    };

    void pumpFor(size_t index, cache::Hierarchy *hierarchy);
    size_t takeSlot(bool &reused);
    size_t activate(uint64_t id, const TenantConfig &config,
                    workload::Trace trace);
    void onLifecycleOp(const workload::TraceOp &op);
    void applyPendingLifecycle();
    TenantResult captureResult(size_t slot, bool retired_mid_run);
    uint64_t releaseSlotMemory(size_t slot);

    /** Fire any planned injection due for the tenant in @p slot
     *  (throws HeapFault via the replayer when one is due). */
    void maybeInjectFault(size_t slot);

    /** Containment boundary: record @p fault, retire the tenant in
     *  @p slot through the standard teardown path. */
    void containFault(size_t slot, const HeapFault &fault);

    /** Emergency revocation + cold-page reclaim for one tenant.
     *  @return pages released */
    uint64_t emergencyReclaim(size_t slot,
                              cache::Hierarchy *hierarchy);

    /** Walk the escalation ladder for the tenant about to step.
     *  @return true when the ladder OOM-killed it (slot is gone) */
    bool applyPressureLadder(size_t slot,
                             cache::Hierarchy *hierarchy);

    TenantManagerConfig config_;
    mem::TaggedMemory memory_;
    std::vector<Slot> slots_;
    std::vector<size_t> free_slots_; //!< ascending; reuse lowest
    std::unordered_map<uint64_t, size_t> live_ids_; //!< id → slot
    std::unordered_map<uint64_t, Definition> definitions_;
    std::unique_ptr<revoke::RevocationEngine> engine_;
    TenantScheduler scheduler_;
    std::vector<TenantResult> retired_results_;
    std::vector<LifecycleEvent> events_;
    std::vector<FaultRecord> faults_;
    /** Fault being contained right now; captureResult stamps it
     *  into the retiring tenant's result. */
    std::optional<FaultRecord> containing_;
    /** The in-flight injection (set across injectFault's throw so
     *  containFault can tell planned from organic). */
    bool inject_in_flight_ = false;
    /** @name Escalation-ladder state */
    /// @{
    unsigned pressure_strikes_ = 0;  //!< rungs climbed this episode
    uint64_t pressure_retry_at_ = 0; //!< next rung no sooner than
                                     //!< this scheduler step
    uint64_t oom_kills_ = 0;
    uint64_t pressure_events_ = 0;
    uint64_t pressure_pages_reclaimed_ = 0;
    /// @}
    std::optional<workload::TraceOp> pending_; //!< lifecycle op from
                                               //!< the current step
    cache::Hierarchy *hierarchy_ = nullptr; //!< while run() executes
    uint64_t live_allocs_ = 0; //!< exact aggregate live allocations
    uint64_t steps_ = 0;
    uint64_t spawns_ = 0;
    uint64_t retires_ = 0;
    uint64_t slots_reused_ = 0;
    bool running_ = false;
    bool ran_ = false;
};

} // namespace tenant
} // namespace cherivoke

#endif // CHERIVOKE_TENANT_TENANT_MANAGER_HH
