/**
 * @file
 * The unified revocation subsystem: a single RevocationEngine owns
 * the CHERIvoke epoch protocol (figure 3) — quarantine fills → paint
 * the shadow map → sweep memory and registers → unpaint → release the
 * quarantine for reuse — and dispatches its *scheduling* to a
 * pluggable RevocationPolicy:
 *
 *  - stop-the-world: the paper's measured configuration; a full
 *    epoch runs to completion whenever the quarantine reaches its
 *    budget.
 *  - incremental: the §3.5 direction made sound by a Cornucopia-style
 *    load barrier; an epoch runs as a sequence of bounded pauses, the
 *    mutator running between pauses.
 *  - concurrent: epochs stay open across allocator operations; every
 *    call into the engine advances the open epoch by one slice
 *    (mutator-assist scheduling), so sweep work interleaves with
 *    program progress instead of stalling it.
 *
 * The engine exposes the epoch building blocks (beginEpoch / step /
 * finishEpoch) directly, so drivers and tests can interleave sweeping
 * with mutator work under any barrier-bearing policy.
 *
 * One engine can serve several *domains* — (allocator, address-space)
 * pairs, one per hosted tenant, all over the same shared TaggedMemory.
 * selectDomain() binds pressure checks and newly opened epochs to a
 * domain; an open epoch stays bound to the domain it began on, so
 * under the concurrent policy any tenant's pump advances whichever
 * epoch is in flight (mutator-assist across tenants — the cross-tenant
 * sweep interference the multi-tenant experiments measure). Statistics
 * accumulate both engine-wide (totals()) and per domain
 * (domainTotals()).
 *
 * Domains are *heterogeneous* on two axes: each can carry its own
 * scheduling policy (setDomainPolicy), so one tenant runs concurrent
 * revocation while a neighbour stops the world on the same engine —
 * and each carries its own *revocation backend* (setDomainBackend,
 * revoke/backends/): the CHERIvoke quarantine+sweep pipeline, the
 * PICASSO-style colored-capability recycler, or the CHERI-D-style
 * inline object-ID checker. The engine delegates the epoch mechanics
 * (beginEpoch / step / finishEpoch bodies) to the owning domain's
 * backend and keeps arbitration, policies, and statistics here. Arbitration is
 * epoch-owner-wins: at most one epoch is open engine-wide, and while
 * it is open every pump — whichever domain issued it — advances it
 * under the *owning* domain's policy (cross-tenant assist); a
 * stop-the-world trigger elsewhere waits its turn, and an explicit
 * revokeNow() (the global-scope pause) first drains the in-flight
 * epoch to its owner, then runs the requesting domain's own epoch.
 *
 * Domains also *retire* (tenant teardown): retireDomain() drains the
 * open epoch if — and only if — this domain owns it, then removes
 * the domain from service; bindDomain() later reuses the slot for a
 * new tenant with fresh statistics.
 */

#ifndef CHERIVOKE_REVOKE_REVOCATION_ENGINE_HH
#define CHERIVOKE_REVOKE_REVOCATION_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/adaptive.hh"
#include "revoke/backends/backend.hh"
#include "revoke/supervisor.hh"
#include "revoke/sweeper.hh"
#include "support/fault.hh"

namespace cherivoke {
namespace revoke {

/** Cumulative statistics across all epochs. */
struct EngineTotals
{
    uint64_t epochs = 0;
    alloc::PaintStats paint;
    SweepStats sweep;
    uint64_t internalFrees = 0;
    uint64_t bytesReleased = 0;
    uint64_t slices = 0;

    bool operator==(const EngineTotals &o) const = default;
};

/** Scheduling strategies the engine can dispatch to. */
enum class PolicyKind
{
    StopTheWorld,
    Incremental,
    Concurrent,
    Adaptive,
};

/** Human-readable policy name ("stop-the-world", ...). */
const char *policyName(PolicyKind kind);

/**
 * Parse a policy name ("stw" / "stop-the-world", "incremental",
 * "concurrent", "adaptive"). @return true and sets @p out on
 * success.
 */
bool parsePolicy(const std::string &name, PolicyKind &out);

/**
 * The policy registry: every PolicyKind, with its canonical name.
 * Benches iterate this instead of hard-coding policy lists, so a
 * new policy cannot be silently skipped (bench/policy_sweep gates
 * coverage against it in ctest).
 */
const std::vector<PolicyKind> &allPolicies();

/** Engine configuration. */
struct EngineConfig
{
    SweepOptions sweep{};
    PolicyKind policy = PolicyKind::StopTheWorld;
    /** Pages per bounded pause for incremental/concurrent epochs. */
    size_t pagesPerSlice = 64;
    /** Read by nothing: the paint runs on sweep.threads. Kept
     *  because perfbench/bench.cc assigns it. */
    unsigned paintShards = 1;
    /** Default revocation backend for every domain (overridable per
     *  domain via setDomainBackend, like per-domain policies). */
    BackendKind backend = BackendKind::Sweep;
    /** Tunables for the metadata-bearing backends. */
    BackendConfig backendConfig{};
    /** Supervise each epoch's sweep as a background sweeper would
     *  be: record its dispatch and completion, and walk the
     *  degradation ladder for every injection in sweeperPlan (see
     *  supervisor.hh). The modelled statistics still come from the
     *  mutator-assist slices, so they do not depend on this flag. */
    bool backgroundSweeper = false;
    /** Read by nothing: the ladder is walked at step points, never
     *  against a clock. Kept because perfbench/bench.cc assigns it. */
    double epochDeadlineMs = 0;
    /** Retries a stalled sweeper is granted before it takes a
     *  strike. */
    unsigned sweeperRetries = 2;
    /** Adaptive-policy tunables (used when any domain runs
     *  PolicyKind::Adaptive; inert otherwise). */
    AdaptiveConfig adaptive{};
    /** Deterministic sweeper fault injections
     *  (`sweeper-stall@domain:epoch` and friends), consumed as
     *  matching epochs open. A non-empty plan needs
     *  backgroundSweeper: the constructor throws FatalError
     *  otherwise. */
    std::vector<SweeperInjection> sweeperPlan;
};

class RevocationEngine;

/**
 * A revocation scheduling policy. Policies drive epochs through the
 * engine's public building blocks; the engine owns all state.
 */
class RevocationPolicy
{
  public:
    virtual ~RevocationPolicy() = default;

    virtual PolicyKind kind() const = 0;
    virtual const char *name() const = 0;

    /** Epochs opened by this policy run concurrently with the
     *  mutator and need the load-side revocation barrier. */
    virtual bool needsLoadBarrier() const = 0;

    /**
     * React to allocator state: open, advance, or complete epochs as
     * the policy schedules them. Called by the engine on every
     * maybeRevoke(). Default: run a full epoch on quarantine
     * pressure. @return true iff an epoch completed.
     */
    virtual bool pump(RevocationEngine &engine,
                      cache::Hierarchy *hierarchy);

    /** Run one full epoch to completion now (no epoch may be open).
     *  Default: a sequence of bounded pagesPerSlice pauses. */
    virtual EpochStats runEpoch(RevocationEngine &engine,
                                cache::Hierarchy *hierarchy);

    /**
     * Domain @p index is being retired (its allocator is still
     * alive, but will not be after this returns). Policies holding
     * per-domain state (adaptive) detach it here; default: no-op.
     */
    virtual void onDomainRetired(RevocationEngine &engine,
                                 size_t index)
    {
        (void)engine;
        (void)index;
    }
};

/** Instantiate the built-in policy for @p kind. */
std::unique_ptr<RevocationPolicy> makePolicy(PolicyKind kind);

/**
 * Couples a CherivokeAllocator with a Sweeper and runs revocation
 * epochs under the configured policy.
 */
class RevocationEngine
{
  public:
    RevocationEngine(alloc::CherivokeAllocator &allocator,
                     mem::AddressSpace &space,
                     EngineConfig config = EngineConfig{});

    /** Convenience: stop-the-world with explicit sweep options. */
    RevocationEngine(alloc::CherivokeAllocator &allocator,
                     mem::AddressSpace &space, SweepOptions sweep);

    ~RevocationEngine();

    RevocationEngine(const RevocationEngine &) = delete;
    RevocationEngine &operator=(const RevocationEngine &) = delete;

    /** @name Domains (multi-tenant operation) */
    /// @{

    /**
     * Register another (allocator, space) pair — a tenant — with
     * this engine; the constructor's pair is domain 0. Both objects
     * must outlive the engine (or be retired first). @return the new
     * domain's index
     */
    size_t addDomain(alloc::CherivokeAllocator &allocator,
                     mem::AddressSpace &space);

    /**
     * Bind (or re-bind) domain slot @p index to a tenant: @p index
     * must be the next fresh slot (== domainCount()) or a retired
     * slot, whose statistics restart from zero — the engine-side
     * half of tenant-slot reuse. @return @p index
     */
    size_t bindDomain(size_t index,
                      alloc::CherivokeAllocator &allocator,
                      mem::AddressSpace &space);

    /**
     * Give domain @p index its own scheduling policy (overriding the
     * engine-wide default from EngineConfig). Must not be changed
     * while this domain's epoch is open.
     */
    void setDomainPolicy(size_t index, PolicyKind kind);

    /** As above with an explicit policy object (tests injecting a
     *  configured adaptive policy). Null restores the default. */
    void setDomainPolicyObject(size_t index,
                               std::unique_ptr<RevocationPolicy> policy);

    /**
     * Give domain @p index its own revocation backend (overriding
     * the engine-wide default from EngineConfig). The fresh backend
     * starts with empty metadata, so switch before the domain
     * allocates. Must not be changed while this domain's epoch is
     * open.
     */
    void setDomainBackend(size_t index, BackendKind kind);

    /** The backend serving domain @p index. */
    RevocationBackend &domainBackend(size_t index);
    const RevocationBackend &domainBackend(size_t index) const;

    /** Backend-specific statistics of domain @p index. */
    const BackendStats &domainBackendStats(size_t index) const
    {
        return domainBackend(index).stats();
    }

    /**
     * Take domain @p index out of service (tenant teardown): drains
     * the open epoch iff this domain owns it, then marks the slot
     * retired. The active domain must be moved elsewhere first when
     * other domains remain. Statistics of the retired slot stay
     * readable until bindDomain() reuses it.
     */
    void retireDomain(size_t index,
                      cache::Hierarchy *hierarchy = nullptr);

    /** Drain the open epoch iff domain @p index owns it. */
    void drainDomain(size_t index,
                     cache::Hierarchy *hierarchy = nullptr);

    /**
     * Bind quarantine-pressure checks and the *next* beginEpoch() to
     * domain @p index (must not be retired). Legal while an epoch is
     * open: the open epoch stays bound to the domain it began on.
     */
    void selectDomain(size_t index);

    size_t activeDomain() const { return active_; }
    size_t domainCount() const { return domains_.size(); }
    bool domainRetired(size_t index) const
    {
        return domains_.at(index).retired;
    }

    /** True when every domain has been retired. */
    bool allRetired() const;

    /** The domain owning the open epoch (active when none is open). */
    size_t epochDomainIndex() const { return epoch_domain_; }

    /** The policy governing domain @p index (its override, or the
     *  engine-wide default). */
    RevocationPolicy &domainPolicy(size_t index);

    /** Cumulative statistics of epochs begun on domain @p index. */
    const EngineTotals &domainTotals(size_t index) const;

    /** Domain @p index's allocator / address space (policy and test
     *  access; the domain must not be retired). */
    alloc::CherivokeAllocator &domainAllocator(size_t index)
    {
        return *domains_.at(index).allocator;
    }
    mem::AddressSpace &domainSpace(size_t index)
    {
        return *domains_.at(index).space;
    }
    /// @}

    /** @name Policy-driven operation */
    /// @{

    /**
     * Let the policy react to allocator pressure: run an epoch
     * (stop-the-world, incremental) or advance the open one by a
     * slice (concurrent). @return true if an epoch completed
     */
    bool maybeRevoke(cache::Hierarchy *hierarchy = nullptr);

    /** Run a full epoch now (drains any open epoch first). Used by a
     *  strict-UAF mode that sweeps on every free, §3.7. */
    EpochStats revokeNow(cache::Hierarchy *hierarchy = nullptr);

    /**
     * Strict use-after-free debugging (§3.7: "CHERI could facilitate
     * strict use-after-free for debugging if a sweep was performed
     * on every free"): free the allocation and immediately revoke
     * every reference to it — not merely before reallocation.
     * Far more expensive than batched revocation; for debug builds.
     */
    EpochStats freeAndRevoke(const cap::Capability &capability,
                             cache::Hierarchy *hierarchy = nullptr);

    /** Finish any open epoch (no-op when none is open).
     *  @return the last completed epoch's statistics */
    EpochStats drain(cache::Hierarchy *hierarchy = nullptr);
    /// @}

    /** @name Epoch protocol building blocks */
    /// @{

    /**
     * Open an epoch: freeze + paint the quarantine (on
     * config().sweep.threads threads), install the load
     * barrier if the policy requires one, sweep the registers, build
     * the page worklist.
     */
    void beginEpoch();

    /**
     * Sweep up to @p max_pages pages of the worklist (one bounded
     * pause, parallelised across config().sweep.threads workers
     * unless @p hierarchy models its traffic).
     * @return pages still remaining in the worklist
     */
    size_t step(size_t max_pages,
                cache::Hierarchy *hierarchy = nullptr);

    /**
     * Close the epoch: worklist must be drained; sweeps registers
     * once more if a barrier was active, removes the barrier,
     * unpaints and releases the frozen quarantine.
     */
    void finishEpoch();

    /** Convenience: run one whole epoch in bounded steps. */
    EpochStats revokeIncrementally(size_t pages_per_step,
                                   cache::Hierarchy *hierarchy =
                                       nullptr);

    /** True while an epoch is open. */
    bool epochOpen() const { return open_; }

    /**
     * Observe every epoch open: @p hook fires inside beginEpoch()
     * (after the revocation set is frozen) with the epoch's domain
     * index. The tenant manager uses this to record epoch boundaries
     * in each tenant's replay: the flush points where the mutator
     * front-end's count (tenant/mutator_threads.hh) sends every
     * partial remote-free batch and drains every inbox.
     */
    void setEpochOpenHook(std::function<void(size_t domain)> hook)
    {
        epoch_open_hook_ = std::move(hook);
    }

    /** Work units remaining in the open epoch (0 when closed). */
    size_t pagesRemaining() const;

    /**
     * Model @p n pointer dereferences against the active domain's
     * backend (the object-ID backend counts a per-use check; sweep
     * and color backends check nothing on use). The trace replayer
     * calls this for every pointer-op it applies.
     */
    void notePointerUse(uint64_t n = 1);
    /** As above, against an explicit domain (multi-tenant hosts). */
    void notePointerUse(size_t domain, uint64_t n);
    /// @}

    /** @name Introspection */
    /// @{
    /** Quarantine at/over budget (paper: Q >= fraction * heap)? */
    bool quarantinePressure() const;

    Sweeper &sweeper() { return sweeper_; }
    RevocationPolicy &policy() { return *policy_; }
    const EngineConfig &config() const { return config_; }

    /** The deterministic model-time clock the adaptive policy
     *  consumes; trace drivers advance it by each operation's
     *  virtual duration. Never wall time. */
    CostModelClock &modelClock() { return model_clock_; }
    const CostModelClock &modelClock() const { return model_clock_; }
    const EngineTotals &totals() const { return totals_; }
    const EpochStats &lastEpoch() const { return last_; }

    /** Every supervision transition so far (typed, deterministic). */
    const std::vector<SweeperEvent> &sweeperEvents() const
    {
        return supervisor_.events();
    }
    /// @}

  private:
    /** One hosted (allocator, space) pair and its statistics. */
    struct Domain
    {
        alloc::CherivokeAllocator *allocator;
        mem::AddressSpace *space;
        EngineTotals totals;
        /** Per-domain policy override; null → the engine default. */
        std::unique_ptr<RevocationPolicy> policy;
        /** The domain's revocation backend (always present on a
         *  live domain; also its allocator's observer). */
        std::unique_ptr<RevocationBackend> backend;
        /** Out of service (tenant retired); slot reusable. */
        bool retired = false;
    };

    /** Instantiate + bind a backend for a live domain and install
     *  it as the allocator's observer. */
    void attachBackend(size_t index, BackendKind kind);

    /** @name Sweeper supervision (see supervisor.hh) */
    /// @{
    /** beginEpoch tail: record the dispatch and take this epoch's
     *  injection from the plan. */
    void openSweeperWalk();
    /** The first step that needs a page: walk the injected state.
     *  @return true when that step must drain the worklist (rung 2);
     *  throws HeapFaultKind::SweeperFailure at rung 3. */
    bool walkSweeperInjection();
    /** Record @p kind for the open epoch, at the retries so far. */
    void noteSweeper(SweeperEventKind kind, uint64_t pages = 0);
    /// @}

    /** The active domain's allocator (pressure checks, new epochs). */
    alloc::CherivokeAllocator &allocator() const
    {
        return *domains_[active_].allocator;
    }
    /** The open epoch's domain (falls back to active when closed). */
    Domain &epochDomain() { return domains_[epoch_domain_]; }

    std::vector<Domain> domains_;
    size_t active_ = 0;       //!< domain new epochs bind to
    size_t epoch_domain_ = 0; //!< domain of the open epoch
    /** Fired by beginEpoch() with the epoch's domain (may be null). */
    std::function<void(size_t)> epoch_open_hook_;
    Sweeper sweeper_;
    EngineConfig config_;
    CostModelClock model_clock_;
    std::unique_ptr<RevocationPolicy> policy_;
    EngineTotals totals_;
    EpochStats last_;

    EpochStats epoch_;
    bool open_ = false;

    /** @name Sweeper supervision state */
    /// @{
    SweeperSupervisor supervisor_;
    /** Engine-owned copy of config().sweeperPlan (fired flags). */
    std::vector<SweeperInjection> sweeper_plan_;
    bool bg_active_ = false; //!< dispatched, no strike taken yet
    /** The open epoch's injection, until a step needs a page. */
    const SweeperInjection *bg_inject_ = nullptr;
    uint64_t bg_total_ = 0;     //!< worklist pages at dispatch
    uint64_t bg_epoch_seq_ = 0; //!< domain-local ordinal at open
    uint64_t bg_retries_ = 0;   //!< retries granted this epoch
    /// @}
};

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_REVOCATION_ENGINE_HH
