/**
 * @file
 * Shared helpers for the benchmark harness: the table 1 system
 * banner, default experiment settings used across figures, and the
 * tenant_slice profile of the consolidation benches.
 */

#ifndef CHERIVOKE_BENCH_BENCH_COMMON_HH
#define CHERIVOKE_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>

#include "support/env.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "sim/experiment.hh"
#include "workload/spec_profiles.hh"

namespace cherivoke {
namespace bench {

/** Print the table 1 system banner every bench leads with. */
inline void
printSystems(const char *title)
{
    std::printf("==============================================\n");
    std::printf("%s\n", title);
    std::printf("==============================================\n");
    std::printf("Systems (paper table 1):\n");
    std::printf("  x86-64 : 2.9 GHz OoO, AVX2, 8 MiB LLC, "
                "DDR4 19405 MiB/s read\n");
    std::printf("  CHERI  : 100 MHz FPGA, in-order, 256 KiB LLC, "
                "DDR2\n\n");
}

/**
 * Default experiment configuration used by the figure benches.
 *
 * Every figure driver honours the policy/threads/paint-shard
 * overrides so the whole suite can be reproduced under any engine
 * configuration; the tenant knobs configure drivers built on
 * sim::runMultiTenantBenchmark (bench/tenant_scale):
 *   CHERIVOKE_POLICY         = stw | stop-the-world | incremental |
 *                              concurrent | adaptive
 *   CHERIVOKE_THREADS        = sweep worker count (default 1)
 *   CHERIVOKE_PAINT_SHARDS   = concurrent painter threads (default 1)
 *   CHERIVOKE_TENANTS        = co-resident tenant count (default 1)
 *   CHERIVOKE_TENANT_SCOPE   = per-tenant | global
 *   CHERIVOKE_TENANT_HEAP_MIB= per-tenant live-heap target override
 *   CHERIVOKE_TENANT_WEIGHTS = scheduling shares, e.g. "2,1,1"
 *   CHERIVOKE_TENANT_POLICIES= per-tenant revocation policies, one
 *                              per tenant, e.g. "concurrent,stw"
 *                              (mixed policies share one engine)
 *   CHERIVOKE_TENANT_CHURN   = mid-run spawn->retire cycles of
 *                              short-lived extra tenants (default 0)
 *   CHERIVOKE_MUTATOR_THREADS= mutator threads per tenant (default
 *                              1 = the classic serial front-end)
 *   CHERIVOKE_REMOTE_BATCH   = remote frees per batch message on
 *                              the MPSC queues (default 32)
 *   CHERIVOKE_FAULT_PLAN     = chaos schedule `kind@tenant:op[,...]`
 *                              (kinds: double-free, wild-free,
 *                              header-corruption, oom,
 *                              codec-corruption); default none
 *   CHERIVOKE_FAULT_SEED     = seed a generated plan (one injection
 *                              per kind) instead; 0 = off. The
 *                              explicit plan wins when both are set
 *   CHERIVOKE_PAGE_BUDGET_MIB= soft resident-page budget over the
 *                              shared tenant memory, in MiB
 *                              (escalation ladder; default 0 = off)
 *   CHERIVOKE_BACKEND        = revocation backend: sweep | color |
 *                              objid (how freed memory becomes safe
 *                              to reuse; default sweep)
 *   CHERIVOKE_TENANT_BACKENDS= per-tenant backends, one per tenant,
 *                              e.g. "sweep,color,objid" (mixed
 *                              backends share one engine)
 *   CHERIVOKE_COLORS         = color-pool size of the colored-
 *                              capability backend (1..63, default 16)
 *   CHERIVOKE_ALLOCS_PER_COLOR = allocations before a color seals
 *                              (default 256)
 *   CHERIVOKE_RECYCLE_FRACTION = retired-color fraction that
 *                              triggers a recycling scan (default 0.5)
 *   CHERIVOKE_ID_COMPACT     = retired object-IDs that trigger a
 *                              table-compaction epoch (default 4096)
 *   CHERIVOKE_BG_SWEEPER     = 1 runs a true background sweeper
 *                              thread per engine racing the mutators
 *                              (modelled statistics stay
 *                              bit-identical; default 0)
 *   CHERIVOKE_EPOCH_DEADLINE_MS = explicit per-epoch sweeper
 *                              deadline in ms, > 0; leave unset to
 *                              derive it from the sweep-cost model
 *   CHERIVOKE_SWEEPER_RETRIES= bounded watchdog retries with
 *                              exponential backoff before the
 *                              degradation ladder fires (default 2)
 *
 * Parsing is strict (support/env.hh): a set-but-malformed value such
 * as CHERIVOKE_THREADS=abc fails the run with a clear error instead
 * of silently running the default configuration. Every query lands
 * in the env-knob registry; printKnobs() dumps the effective set.
 */
inline sim::ExperimentConfig
defaultConfig()
{
    // First: reject misspelled CHERIVOKE_* variables outright, with
    // a nearest-knob suggestion. A typo'd knob is never queried, so
    // strict per-knob parsing alone cannot catch it.
    validateEnvironment();
    sim::ExperimentConfig cfg;
    cfg.quarantineFraction = 0.25;
    cfg.kernel = revoke::SweepKernel::Vector;
    cfg.scale = 1.0 / 128;
    cfg.durationSec = 0.4;
    cfg.seed = 42;
    const std::string policy =
        envStr("CHERIVOKE_POLICY", revoke::policyName(cfg.policy));
    if (!revoke::parsePolicy(policy, cfg.policy))
        fatal("CHERIVOKE_POLICY: unknown policy '%s'",
              policy.c_str());
    cfg.threads = envUnsigned("CHERIVOKE_THREADS", cfg.threads);
    cfg.paintShards =
        envUnsigned("CHERIVOKE_PAINT_SHARDS", cfg.paintShards);
    cfg.tenants = envUnsigned("CHERIVOKE_TENANTS", cfg.tenants);
    const std::string scope = envStr(
        "CHERIVOKE_TENANT_SCOPE", tenant::scopeName(cfg.tenantScope));
    if (!tenant::parseScope(scope, cfg.tenantScope))
        fatal("CHERIVOKE_TENANT_SCOPE: unknown scope '%s' "
              "(expected per-tenant or global)",
              scope.c_str());
    cfg.tenantHeapMiB =
        envF64("CHERIVOKE_TENANT_HEAP_MIB", cfg.tenantHeapMiB, 0);
    cfg.tenantWeights = envF64List("CHERIVOKE_TENANT_WEIGHTS");
    if (!cfg.tenantWeights.empty() &&
        cfg.tenantWeights.size() != cfg.tenants)
        fatal("CHERIVOKE_TENANT_WEIGHTS: %zu weights for %u tenants",
              cfg.tenantWeights.size(), cfg.tenants);
    for (const std::string &item :
         envStrList("CHERIVOKE_TENANT_POLICIES")) {
        revoke::PolicyKind kind;
        if (!revoke::parsePolicy(item, kind))
            fatal("CHERIVOKE_TENANT_POLICIES: unknown policy '%s'",
                  item.c_str());
        cfg.tenantPolicies.push_back(kind);
    }
    if (!cfg.tenantPolicies.empty() &&
        cfg.tenantPolicies.size() != cfg.tenants)
        fatal("CHERIVOKE_TENANT_POLICIES: %zu policies for %u "
              "tenants",
              cfg.tenantPolicies.size(), cfg.tenants);
    const std::string backend = envStr(
        "CHERIVOKE_BACKEND", revoke::backendName(cfg.backend));
    if (!revoke::parseBackend(backend, cfg.backend))
        fatal("CHERIVOKE_BACKEND: unknown backend '%s' (expected "
              "sweep, color, or objid)",
              backend.c_str());
    for (const std::string &item :
         envStrList("CHERIVOKE_TENANT_BACKENDS")) {
        revoke::BackendKind kind;
        if (!revoke::parseBackend(item, kind))
            fatal("CHERIVOKE_TENANT_BACKENDS: unknown backend '%s'",
                  item.c_str());
        cfg.tenantBackends.push_back(kind);
    }
    if (!cfg.tenantBackends.empty() &&
        cfg.tenantBackends.size() != cfg.tenants)
        fatal("CHERIVOKE_TENANT_BACKENDS: %zu backends for %u "
              "tenants",
              cfg.tenantBackends.size(), cfg.tenants);
    cfg.backendConfig.colors =
        envUnsigned("CHERIVOKE_COLORS", cfg.backendConfig.colors);
    cfg.backendConfig.allocsPerColor = static_cast<uint64_t>(
        envI64("CHERIVOKE_ALLOCS_PER_COLOR",
               static_cast<int64_t>(
                   cfg.backendConfig.allocsPerColor)));
    cfg.backendConfig.recycleFraction =
        envF64("CHERIVOKE_RECYCLE_FRACTION",
               cfg.backendConfig.recycleFraction);
    cfg.backendConfig.idCompactRetired = static_cast<uint64_t>(
        envI64("CHERIVOKE_ID_COMPACT",
               static_cast<int64_t>(
                   cfg.backendConfig.idCompactRetired)));
    cfg.tenantChurn =
        envUnsigned("CHERIVOKE_TENANT_CHURN", cfg.tenantChurn, 0);
    cfg.mutatorThreads =
        envUnsigned("CHERIVOKE_MUTATOR_THREADS", cfg.mutatorThreads);
    cfg.remoteBatch =
        envUnsigned("CHERIVOKE_REMOTE_BATCH", cfg.remoteBatch);
    const std::string plan = envStr("CHERIVOKE_FAULT_PLAN", "");
    if (!plan.empty()) {
        parseFaultPlan(plan); // strict: reject malformed text here
        cfg.faultPlanText = plan;
    }
    cfg.faultSeed = static_cast<uint64_t>(
        envI64("CHERIVOKE_FAULT_SEED", 0, 0));
    cfg.pageBudgetMiB =
        envF64("CHERIVOKE_PAGE_BUDGET_MIB", cfg.pageBudgetMiB, 0);
    cfg.bgSweeper = envI64("CHERIVOKE_BG_SWEEPER", 0, 0) != 0;
    cfg.epochDeadlineMs = envF64("CHERIVOKE_EPOCH_DEADLINE_MS",
                                 cfg.epochDeadlineMs, 0);
    cfg.sweeperRetries =
        envUnsigned("CHERIVOKE_SWEEPER_RETRIES", cfg.sweeperRetries, 0);
    return cfg;
}

/**
 * The consolidated-service profile for N tenants (bench/tenant_scale
 * and alloc_hotpath's tenant phase): each tenant is a 1/N slice of a
 * constant aggregate — live bytes and free traffic — so sweep period
 * and total work are comparable across tenant counts. Lifetimes are
 * FIFO (temporalFragmentation 0): the axis here is tenant count, so
 * lifetime interleaving (§6.1.1) is held at its simplest.
 */
inline workload::BenchmarkProfile
sliceProfile(unsigned tenants, uint64_t agg_allocs)
{
    /** Mean allocation size the profile implies (table 2 identity). */
    constexpr double kMeanAllocBytes = 128.0;
    /** Aggregate free traffic, split evenly across tenants. */
    constexpr double kAggFreeRateMiBps = 64.0;
    workload::BenchmarkProfile p;
    p.name = "tenant_slice";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    // Ramp target: agg_allocs allocations of ~125 B expected size,
    // plus margin so the allocation *count* target is certainly met.
    const double agg_heap_bytes =
        static_cast<double>(agg_allocs) * kMeanAllocBytes * 1.10;
    p.liveHeapMiB = agg_heap_bytes / MiB / tenants;
    p.freeRateMiBps = kAggFreeRateMiBps / tenants;
    p.freesPerSec =
        kAggFreeRateMiBps * MiB / kMeanAllocBytes / tenants;
    p.appDramMiBps = 2000.0 / tenants; //!< per-tenant app traffic
    return p;
}

/**
 * Print the effective knob set — every CHERIVOKE_* variable this
 * process has queried, with the value it actually ran under — to
 * stderr, so figure data on stdout stays byte-stable across
 * default and configured runs. Each bench calls this once, after
 * its configuration is fully parsed.
 */
inline void
printKnobs()
{
    announceEnvKnobs();
}

} // namespace bench
} // namespace cherivoke

#endif // CHERIVOKE_BENCH_BENCH_COMMON_HH
