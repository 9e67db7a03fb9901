/**
 * @file
 * The experiment runner shared by the benchmark harness: synthesises
 * a table-2-calibrated workload, replays it through the CHERIvoke
 * allocator + revoker on a machine profile, and derives the
 * normalised quantities the paper's figures report.
 *
 * Scale invariance: heap size and allocation rates are scaled down
 * together by `scale`, which preserves sweep *frequency*
 * (= FreeRate / QuarantineSize) exactly; per-sweep work shrinks by
 * `scale`, so byte- and cycle-proportional times are multiplied back
 * by 1/scale while per-epoch fixed costs are not (see sim/machine).
 * Overhead fractions therefore match an unscaled run.
 *
 * The run produces three separable cost components, matching the
 * figure 6 decomposition:
 *  - quarantine effect: cache-locality penalty from delayed reuse
 *    (temporal fragmentation, §6.1.1) minus the free-batching gain,
 *    computed from a calibrated model because our simulator does not
 *    execute the application's own loads/stores;
 *  - shadow-map maintenance: modelled time for the measured paint
 *    operations (§6.1.2);
 *  - sweeping: modelled time for the measured sweep statistics
 *    (§6.1.3), the dominant term.
 */

#ifndef CHERIVOKE_SIM_EXPERIMENT_HH
#define CHERIVOKE_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/machine.hh"
#include "tenant/tenant_manager.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

namespace cherivoke {
namespace sim {

/** Experiment knobs. */
struct ExperimentConfig
{
    double quarantineFraction = 0.25; //!< the paper's default
    revoke::SweepKernel kernel = revoke::SweepKernel::Vector;
    bool usePteCapDirty = true; //!< modelled in the x86 runs (§5.3)
    bool useCloadTags = false;  //!< not modelled on x86 (§5.3)
    /** Sweep threads; applies only to sweeps without a cache model
     *  (a modelled sweep feeds its hierarchy on one thread). */
    unsigned threads = 1;
    /** Epoch scheduling policy the revocation engine dispatches to. */
    revoke::PolicyKind policy = revoke::PolicyKind::StopTheWorld;
    /** How freed memory becomes safe to reuse (CHERIVOKE_BACKEND):
     *  quarantine+sweep, colored capabilities, or inline object IDs. */
    revoke::BackendKind backend = revoke::BackendKind::Sweep;
    /** Backend tuning (color pool size, compaction thresholds...). */
    revoke::BackendConfig backendConfig{};
    /** Pages per bounded pause (incremental/concurrent policies). */
    size_t pagesPerSlice = 64;
    /** Quarantine address bands painted concurrently at epoch open
     *  (1 = unsharded serial paint); results are bit-identical to
     *  serial for every shard count. */
    unsigned paintShards = 1;
    double scale = 1.0 / 64;
    double durationSec = 1.5;
    uint64_t seed = 42;
    bool modelTraffic = false; //!< attach the cache hierarchy
    /** Non-heap segments, scaled so the heap dominates the process
     *  image as it does at reference scale. */
    uint64_t globalsBytes = 512 * KiB;
    uint64_t stackBytes = 512 * KiB;

    /** @name Multi-tenant consolidation axis
     *  (runMultiTenantBenchmark; CHERIVOKE_TENANT_SCOPE et al.) */
    /// @{
    /** Co-resident tenant processes sharing one memory + engine. */
    unsigned tenants = 1;
    /** What one tenant's quarantine-budget trigger sweeps. */
    tenant::RevocationScope tenantScope =
        tenant::RevocationScope::PerTenant;
    /** Per-tenant live-heap target in MiB; 0 = the profile's own. */
    double tenantHeapMiB = 0;
    /** Scheduling weights, one per tenant; empty = all equal. */
    std::vector<double> tenantWeights;
    /** Per-tenant revocation policies (CHERIVOKE_TENANT_POLICIES,
     *  comma-separated); empty = every tenant runs `policy`. A
     *  mixed list makes tenants heterogeneous on the one shared
     *  engine (epoch-owner-wins arbitration). */
    std::vector<revoke::PolicyKind> tenantPolicies;
    /** Per-tenant revocation backends (CHERIVOKE_TENANT_BACKENDS,
     *  comma-separated); empty = every tenant runs `backend`. The
     *  second heterogeneity axis beside tenantPolicies: domains on
     *  the one shared engine may mix sweep/color/objid backends. */
    std::vector<revoke::BackendKind> tenantBackends;
    /** Tenant-churn cycles (CHERIVOKE_TENANT_CHURN): when > 0,
     *  tenant 0's trace gains that many deterministic
     *  spawn→retire cycles of short-lived extra tenants, exercising
     *  mid-run arrival/departure and slot reuse. */
    unsigned tenantChurn = 0;
    /// @}

    /** @name Mutator front-end traffic count
     *  (CHERIVOKE_MUTATOR_THREADS / CHERIVOKE_REMOTE_BATCH) */
    /// @{
    /** Modelled mutator threads per tenant; 1 = the classic serial
     *  front-end. They change only the counted message traffic
     *  (tenant/mutator_threads.hh), never a modelled statistic
     *  (gated in test_mutator_threads and test_mutator_fuzz). */
    unsigned mutatorThreads = 1;
    /** Remote frees per batch message between mutator threads. */
    unsigned remoteBatch = 32;
    /// @}

    /** @name Fault injection and memory pressure
     *  (CHERIVOKE_FAULT_PLAN / CHERIVOKE_FAULT_SEED /
     *  CHERIVOKE_PAGE_BUDGET_MIB; bench/fault_matrix) */
    /// @{
    /** Explicit chaos schedule, `kind@tenant:op[,...]` (strict
     *  grammar, see parseFaultPlan); empty = none. Takes precedence
     *  over faultSeed. */
    std::string faultPlanText;
    /** Seed for a generated plan (one injection per fault kind,
     *  spread across the tenants); 0 = no seeded plan. */
    uint64_t faultSeed = 0;
    /** Soft resident-page budget over the shared memory, in MiB;
     *  0 = unlimited. Exceeding it walks the manager's escalation
     *  ladder (emergency revocation → global reclaim → OOM-kill). */
    double pageBudgetMiB = 0;
    /// @}

    /** @name Supervised background revocation
     *  (CHERIVOKE_BG_SWEEPER / CHERIVOKE_EPOCH_DEADLINE_MS /
     *  CHERIVOKE_SWEEPER_RETRIES; bench/fault_matrix supervision
     *  matrix) */
    /// @{
    /** Run a true background sweeper thread per engine, racing the
     *  mutators over a frozen worklist snapshot. Modelled statistics
     *  stay bit-identical to the mutator-assist build (gated in
     *  tests and the bench harness). */
    bool bgSweeper = false;
    /** Explicit per-epoch sweeper deadline in milliseconds; 0 =
     *  derive from the §6.1.3 sweep-cost model (worklist bytes over
     *  an assumed scan rate, with slack). */
    double epochDeadlineMs = 0;
    /** Bounded watchdog retries (exponential backoff) before the
     *  degradation ladder takes over. */
    unsigned sweeperRetries = 2;
    /// @}
};

/** Everything one benchmark run produces. */
struct BenchResult
{
    std::string name;
    workload::DriverResult run;

    /** @name Figure 6 components (fractions of baseline runtime) */
    /// @{
    double quarantinePenalty = 0; //!< cache effect (can be ~0)
    double batchingGain = 0;      //!< free batching speedup
    double shadowOverhead = 0;
    double sweepOverhead = 0;
    /// @}

    /** Figure 5a: 1 + net overhead. */
    double normalizedTime = 1;
    /** Figure 5b: heap-relative memory utilisation. */
    double normalizedMemory = 1;
    /** §6.1.3 equation evaluated on measured quantities. */
    double predictedSweepOverhead = 0;
    /** Figure 7: achieved sweep bandwidth (bytes/s, real scale). */
    double achievedScanRate = 0;
    /** Figure 10: sweep off-core traffic / app traffic (percent). */
    double trafficOverheadPct = 0;
    /** Sweep DRAM traffic: modelled hierarchy totals when
     *  modelTraffic is on, the shared approximation otherwise. */
    uint64_t sweepDramBytes = 0;

    /** Backend-specific counters (color table churn, ID checks...)
     *  from the run's revocation backend (domain 0). */
    revoke::BackendStats backendStats{};
};

/** Run one benchmark profile under one configuration. */
BenchResult runBenchmark(const workload::BenchmarkProfile &profile,
                         const ExperimentConfig &config,
                         const MachineProfile &machine =
                             MachineProfile::x86());

/** Everything one multi-tenant consolidation run produces. */
struct MultiTenantBenchResult
{
    std::string name;
    tenant::MultiTenantResult run;

    /** @name Aggregate modelled overheads (over max virtual time) */
    /// @{
    double shadowOverhead = 0;
    double sweepOverhead = 0;
    double achievedScanRate = 0;      //!< bytes/s, real scale
    double trafficOverheadPct = 0;    //!< vs all tenants' app traffic
    uint64_t sweepDramBytes = 0;
    /// @}

    /** Per-tenant sweep overhead (same model on domain totals). */
    std::vector<double> tenantSweepOverhead;

    /** @name Simulator mutator throughput (wall clock, not model) */
    /// @{
    /** Wall seconds the interleaved trace replay itself took. */
    double mutatorWallSec = 0;
    /** Trace ops the replay retired per wall second — the
     *  mutator-side hot-path figure bench/alloc_hotpath tracks. */
    double mutatorOpsPerSec = 0;
    /// @}
};

/** Tenant-id base for experiment-generated churn tenants: far above
 *  the static tenants' slot-number ids. */
constexpr uint64_t kChurnTenantIdBase = 1000;

/**
 * The deterministic churn schedule config.tenantChurn implies: churn
 * tenant k (id kChurnTenantIdBase + k) is spawned by an op inserted
 * into tenant 0's trace and retired by a later one, cycles strictly
 * in sequence so cycle k+1 reuses cycle k's freed slot. Every cycle
 * replays the same short trace, so with per-tenant scope its
 * statistics are a pure function of the trace — a reused slot must
 * reproduce the fresh slot's results bit for bit.
 */
struct TenantChurnPlan
{
    /** One spawn→retire cycle, positioned by host-trace op index. */
    struct Cycle
    {
        uint64_t id = 0;
        size_t spawnAt = 0;  //!< op index in tenant 0's trace
        size_t retireAt = 0; //!< must be > spawnAt
    };

    std::vector<Cycle> cycles;
    tenant::TenantConfig config; //!< shared by every churn tenant
    workload::Trace trace;       //!< shared by every churn tenant
};

/** Build the churn plan for @p config (empty when tenantChurn == 0).
 *  @param host_ops op count of tenant 0's trace, which positions
 *         the spawn/retire ops */
TenantChurnPlan
makeTenantChurnPlan(const workload::BenchmarkProfile &profile,
                    const ExperimentConfig &config, size_t host_ops);

/** Insert @p plan's SpawnTenant/RetireTenant ops into @p host
 *  (tenant 0's trace) at their scheduled positions. */
void injectChurnOps(workload::Trace &host,
                    const TenantChurnPlan &plan);

/**
 * The per-tenant op streams a multi-tenant run replays: one trace
 * per tenant, each synthesised with a distinct seed so tenants are
 * independent processes with the same statistical shape. Tenant 0
 * keeps the experiment seed, so a 1-tenant run replays runBenchmark's
 * exact trace. With config.tenantChurn > 0, tenant 0's trace carries
 * the churn plan's spawn/retire ops (so recording the traces through
 * the binary codec captures the lifecycle schedule too). Tenants
 * synthesise in parallel, one thread each; the traces are the serial
 * ones byte for byte, and a failure rethrows the lowest failing
 * tenant's exception. Exposed so benches can record traces once
 * (through tenant/trace_codec) and replay them deterministically.
 */
std::vector<workload::Trace>
synthesizeTenantTraces(const workload::BenchmarkProfile &profile,
                       const ExperimentConfig &config);

/**
 * Host config.tenants copies of @p profile on one shared
 * TaggedMemory/RevocationEngine and model the aggregate revocation
 * cost. config.tenants == 1 reproduces runBenchmark's measured
 * statistics exactly.
 * @param traces replay these per-tenant op streams (count must match
 *        config.tenants) instead of synthesising fresh ones
 */
MultiTenantBenchResult
runMultiTenantBenchmark(const workload::BenchmarkProfile &profile,
                        const ExperimentConfig &config,
                        const MachineProfile &machine =
                            MachineProfile::x86(),
                        const std::vector<workload::Trace> *traces =
                            nullptr);

} // namespace sim
} // namespace cherivoke

#endif // CHERIVOKE_SIM_EXPERIMENT_HH
