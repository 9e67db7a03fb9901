#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "revoke/analytical_model.hh"
#include "support/fork_join.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace sim {

namespace {

/** Calibrated §6.1.1 quarantine cache-effect model. */
double
quarantineCachePenalty(const workload::BenchmarkProfile &profile,
                       double quarantine_fraction)
{
    // Temporal fragmentation leaves quarantined holes inside hot
    // cache lines; a larger quarantine lets lines fall wholly out of
    // use before reuse, shrinking the penalty (§6.4, figure 9).
    const double intensity = std::min(
        1.0, profile.freesPerSec / 1.0e6 +
                 profile.freeRateMiBps / 500.0);
    return profile.temporalFragmentation * intensity * 0.55 /
           (1.0 + quarantine_fraction / 0.5);
}

/** Free-batching gain: quarantine insertion is roughly half the
 *  cost of a real free (§6.1.1), so heavy free traffic gets faster. */
double
freeBatchingGain(double frees_per_sec_real)
{
    constexpr double kFreeCostSeconds = 100e-9;
    return std::min(0.04,
                    0.5 * kFreeCostSeconds * frees_per_sec_real);
}

/**
 * Synthesis settings for one process: the virtual duration must
 * cover several sweep periods (period = Q * heap / free rate, which
 * scaling leaves unchanged), or slow-freeing benchmarks would never
 * trigger a sweep inside the run.
 */
workload::SynthConfig
synthConfigFor(const workload::BenchmarkProfile &profile,
               const ExperimentConfig &config)
{
    workload::SynthConfig synth_cfg;
    synth_cfg.scale = config.scale;
    synth_cfg.durationSec = config.durationSec;
    if (profile.allocationIntensive()) {
        // Use the *effective scaled* live target (the synthesiser
        // floors tiny scaled heaps at minLiveBytes) and scaled free
        // rate, so the floor cannot push sweeps past the run's end.
        const double live_scaled = std::max<double>(
            profile.liveHeapMiB * MiB * config.scale,
            static_cast<double>(synth_cfg.minLiveBytes));
        const double rate_scaled =
            profile.freeRateMiBps * MiB * config.scale;
        const double period =
            config.quarantineFraction * live_scaled / rate_scaled;
        synth_cfg.durationSec = std::max(
            config.durationSec, std::min(60.0, 3.0 * period));
    }
    synth_cfg.seed = config.seed;
    return synth_cfg;
}

/** The allocator tuning every experiment process uses: map the heap
 *  in small steps so the mapped footprint tracks the scaled working
 *  set (a reference-scale run maps 4 MiB chunks against hundreds of
 *  MiB of heap). */
alloc::CherivokeConfig
allocConfigFor(const ExperimentConfig &config)
{
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = config.quarantineFraction;
    acfg.minQuarantineBytes = 64 * KiB;
    acfg.dl.initialHeapBytes = 1 * MiB;
    acfg.dl.growthChunkBytes = 512 * KiB;
    return acfg;
}

/** Throw FatalError before any synthesis thread starts when the
 *  tenant manager has no slot for every tenant. */
void
checkTenantCount(unsigned tenants)
{
    if (tenants > tenant::kMaxTenants)
        fatal("%u tenants exceed the limit of %zu "
              "(tenant::kMaxTenants)",
              tenants, tenant::kMaxTenants);
}

revoke::EngineConfig
engineConfigFor(const ExperimentConfig &config)
{
    revoke::EngineConfig engine_cfg;
    engine_cfg.sweep.kernel = config.kernel;
    engine_cfg.sweep.usePteCapDirty = config.usePteCapDirty;
    engine_cfg.sweep.useCloadTags = config.useCloadTags;
    engine_cfg.sweep.threads = config.threads;
    engine_cfg.policy = config.policy;
    engine_cfg.pagesPerSlice = config.pagesPerSlice;
    engine_cfg.backend = config.backend;
    engine_cfg.backendConfig = config.backendConfig;
    engine_cfg.backgroundSweeper = config.bgSweeper;
    engine_cfg.sweeperRetries = config.sweeperRetries;
    return engine_cfg;
}

} // namespace

BenchResult
runBenchmark(const workload::BenchmarkProfile &profile,
             const ExperimentConfig &config,
             const MachineProfile &machine)
{
    BenchResult result;
    result.name = profile.name;

    // Synthesise the workload at scale.
    const workload::Trace trace =
        workload::synthesize(profile, synthConfigFor(profile, config));

    // Build the machine and replay.
    mem::AddressSpace space(config.globalsBytes, config.stackBytes);
    alloc::CherivokeAllocator allocator(space,
                                        allocConfigFor(config));
    revoke::RevocationEngine revoker(allocator, space,
                                     engineConfigFor(config));
    std::unique_ptr<cache::Hierarchy> hierarchy;
    if (config.modelTraffic) {
        hierarchy = std::make_unique<cache::Hierarchy>(
            machine.hierarchyConfig());
    }

    workload::TraceDriver driver(space, allocator, &revoker);
    result.run = driver.run(trace, hierarchy.get());
    result.backendStats = revoker.domainBackendStats(0);
    const workload::DriverResult &run = result.run;
    const double vt = std::max(run.virtualSeconds, 1e-9);

    // --- Figure 6 components ---
    result.quarantinePenalty =
        quarantineCachePenalty(profile, config.quarantineFraction);
    result.batchingGain =
        freeBatchingGain(run.measuredFreesPerSec / config.scale);

    result.shadowOverhead =
        paintSeconds(machine, run.revoker.paint, config.scale) / vt;

    const uint64_t dram_bytes =
        hierarchy ? hierarchy->dram().totalBytes()
                  : approxSweepDramBytes(run.revoker.sweep);
    result.sweepDramBytes = dram_bytes;
    const double sweep_secs =
        sweepSeconds(machine, run.revoker.sweep, dram_bytes,
                     run.revoker.epochs, config.scale);
    result.sweepOverhead = sweep_secs / vt;

    result.normalizedTime = 1.0 + result.quarantinePenalty -
                            result.batchingGain +
                            result.shadowOverhead +
                            result.sweepOverhead;

    // --- Figure 5b ---
    // The paper normalises *total* process memory; the quarantine
    // and shadow map grow only the heap share of it. Model the
    // non-heap residency (code, stack, globals, page tables) as a
    // constant ~100 MiB at reference scale.
    constexpr double kNonHeapMiB = 100.0;
    const double heap_share =
        profile.liveHeapMiB / (profile.liveHeapMiB + kNonHeapMiB);
    const double live =
        std::max<double>(static_cast<double>(run.peakLiveBytes), 1);
    const double heap_growth =
        static_cast<double>(run.peakQuarantineBytes) / live +
        1.0 / 128.0;
    result.normalizedMemory = 1.0 + heap_share * heap_growth;

    // --- §6.1.3 prediction on measured inputs ---
    result.achievedScanRate = achievedSweepBandwidth(
        machine, run.revoker.sweep, run.revoker.epochs, config.scale);
    if (result.achievedScanRate > 0 && run.revoker.epochs > 0) {
        // §6.1.3: sweep frequency = FreeRate / (Q * heap); work per
        // sweep = density * heap / ScanRate, so heap cancels.
        revoke::OverheadParams params;
        params.freeRateBytesPerSec =
            run.measuredFreeRateMiBps * MiB / config.scale;
        params.pointerDensity = run.pageDensity;
        params.scanRateBytesPerSec = result.achievedScanRate;
        params.quarantineFraction = config.quarantineFraction;
        result.predictedSweepOverhead =
            revoke::predictedRuntimeOverhead(params);
    }

    // --- Figure 10 ---
    const double sweep_dram_per_sec =
        static_cast<double>(approxSweepDramBytes(run.revoker.sweep)) /
        config.scale / vt;
    result.trafficOverheadPct =
        100.0 * sweep_dram_per_sec / (profile.appDramMiBps * MiB);

    return result;
}

TenantChurnPlan
makeTenantChurnPlan(const workload::BenchmarkProfile &profile,
                    const ExperimentConfig &config, size_t host_ops)
{
    TenantChurnPlan plan;
    if (config.tenantChurn == 0)
        return plan;

    workload::BenchmarkProfile tenant_profile = profile;
    if (config.tenantHeapMiB > 0)
        tenant_profile.liveHeapMiB = config.tenantHeapMiB;

    // Every cycle spawns the same definition shape: a short-lived
    // tenant aggressive enough to revoke at least once in its
    // lifetime, so reusing a stale slot would corrupt *measured*
    // statistics, not just idle state.
    plan.config.name = "churn";
    plan.config.weight = 1.0;
    plan.config.alloc = allocConfigFor(config);
    plan.config.alloc.quarantineFraction =
        std::min(config.quarantineFraction, 0.1);
    plan.config.alloc.minQuarantineBytes = 16 * KiB;
    plan.config.alloc.dl.initialHeapBytes = 256 * KiB;
    plan.config.alloc.dl.growthChunkBytes = 128 * KiB;
    plan.config.globalsBytes = config.globalsBytes;
    plan.config.stackBytes = config.stackBytes;

    workload::SynthConfig synth_cfg =
        synthConfigFor(tenant_profile, config);
    synth_cfg.seed = config.seed ^ 0x5bd1e995ULL;
    synth_cfg.durationSec =
        std::min(synth_cfg.durationSec, 0.25 * config.durationSec);
    plan.trace = workload::synthesize(tenant_profile, synth_cfg);

    if (host_ops == 0)
        return plan; // definitions only; no schedule requested

    // Cycles partition the host trace into equal windows, strictly
    // in sequence so cycle k+1 reuses cycle k's freed slot. The
    // churn trace is truncated far below the window's turn budget
    // (the smooth scheduler gives a live tenant roughly one turn
    // per host op) so every cycle replays to completion — that is
    // what makes a reused-slot cycle comparable bit-for-bit with
    // the fresh-slot one.
    const size_t windows = 2 * (config.tenantChurn + 1);
    const size_t gap = host_ops / windows;
    if (gap == 0)
        fatal("tenant churn %u needs a host trace of at least %zu "
              "ops (got %zu)",
              config.tenantChurn, windows, host_ops);
    const size_t ops_cap = std::max<size_t>(gap / 8, 16);
    if (plan.trace.ops.size() > ops_cap)
        plan.trace.ops = plan.trace.ops.prefix(ops_cap);

    plan.cycles.reserve(config.tenantChurn);
    for (unsigned k = 0; k < config.tenantChurn; ++k) {
        TenantChurnPlan::Cycle cycle;
        cycle.id = kChurnTenantIdBase + k;
        cycle.spawnAt = (2 * k + 1) * gap;
        cycle.retireAt = (2 * k + 2) * gap;
        plan.cycles.push_back(cycle);
    }
    return plan;
}

void
injectChurnOps(workload::Trace &host, const TenantChurnPlan &plan)
{
    if (plan.cycles.empty())
        return;
    // Schedule entries in position order (cycles are sequential and
    // non-overlapping by construction).
    std::vector<std::pair<size_t, workload::TraceOp>> schedule;
    schedule.reserve(plan.cycles.size() * 2);
    for (const TenantChurnPlan::Cycle &cycle : plan.cycles) {
        CHERIVOKE_ASSERT(cycle.spawnAt < cycle.retireAt);
        workload::TraceOp spawn;
        spawn.kind = workload::OpKind::SpawnTenant;
        spawn.id = cycle.id;
        workload::TraceOp retire;
        retire.kind = workload::OpKind::RetireTenant;
        retire.id = cycle.id;
        schedule.emplace_back(cycle.spawnAt, spawn);
        schedule.emplace_back(cycle.retireAt, retire);
    }

    workload::OpVector merged;
    merged.reserve(host.ops.size() + schedule.size());
    size_t next_event = 0;
    for (size_t i = 0; i < host.ops.size(); ++i) {
        while (next_event < schedule.size() &&
               schedule[next_event].first <= i) {
            merged.push_back(schedule[next_event].second);
            ++next_event;
        }
        merged.push_back(host.ops[i]);
    }
    for (; next_event < schedule.size(); ++next_event)
        merged.push_back(schedule[next_event].second);
    host.ops = std::move(merged);
}

std::vector<workload::Trace>
synthesizeTenantTraces(const workload::BenchmarkProfile &profile,
                       const ExperimentConfig &config)
{
    checkTenantCount(config.tenants);
    workload::BenchmarkProfile tenant_profile = profile;
    if (config.tenantHeapMiB > 0)
        tenant_profile.liveHeapMiB = config.tenantHeapMiB;
    // Tenants are independent: one thread each. Each trace depends
    // only on its own seed, so the set is the serial one.
    std::vector<workload::Trace> traces(config.tenants);
    forkJoin(config.tenants, [&](size_t i) {
        workload::SynthConfig synth_cfg =
            synthConfigFor(tenant_profile, config);
        synth_cfg.seed = config.seed + 0x9e3779b9ULL * i;
        traces[i] = workload::synthesize(tenant_profile, synth_cfg);
    });
    if (config.tenantChurn > 0) {
        const TenantChurnPlan plan = makeTenantChurnPlan(
            profile, config, traces[0].ops.size());
        injectChurnOps(traces[0], plan);
    }
    return traces;
}

MultiTenantBenchResult
runMultiTenantBenchmark(const workload::BenchmarkProfile &profile,
                        const ExperimentConfig &config,
                        const MachineProfile &machine,
                        const std::vector<workload::Trace> *traces)
{
    CHERIVOKE_ASSERT(config.tenants >= 1);
    checkTenantCount(config.tenants);
    // Each per-tenant list is empty or has one entry per tenant.
    auto check_list = [&](const char *knob, size_t entries) {
        if (entries != 0 && entries != config.tenants)
            fatal("%s: expected one entry per tenant (%u), got %zu",
                  knob, config.tenants, entries);
    };
    check_list("CHERIVOKE_TENANT_WEIGHTS", config.tenantWeights.size());
    check_list("CHERIVOKE_TENANT_POLICIES",
               config.tenantPolicies.size());
    check_list("CHERIVOKE_TENANT_BACKENDS",
               config.tenantBackends.size());

    MultiTenantBenchResult result;
    result.name = profile.name;

    std::vector<workload::Trace> synthesized;
    if (!traces) {
        synthesized = synthesizeTenantTraces(profile, config);
        traces = &synthesized;
    } else if (traces->size() != config.tenants) {
        fatal("%zu supplied traces for %u tenants", traces->size(),
              config.tenants);
    }

    tenant::TenantManagerConfig mgr_cfg;
    mgr_cfg.engine = engineConfigFor(config);
    mgr_cfg.scope = config.tenantScope;
    mgr_cfg.mutator.threads = config.mutatorThreads;
    mgr_cfg.mutator.remoteBatch = config.remoteBatch;
    if (!config.faultPlanText.empty()) {
        mgr_cfg.faultPlan = parseFaultPlan(config.faultPlanText);
    } else if (config.faultSeed != 0) {
        // Seeded chaos: one injection of every kind, spread over the
        // static tenants (ids == slots before any churn), each at an
        // op index inside the target tenant's own trace.
        std::vector<uint64_t> ids(config.tenants);
        std::vector<uint64_t> ops(config.tenants);
        for (unsigned i = 0; i < config.tenants; ++i) {
            ids[i] = i;
            ops[i] = (*traces)[i].ops.size();
        }
        mgr_cfg.faultPlan =
            generateFaultPlan(config.faultSeed, ids, ops);
    }
    mgr_cfg.pageBudgetPages = static_cast<size_t>(
        config.pageBudgetMiB * MiB / kPageBytes);
    tenant::TenantManager manager(mgr_cfg);

    for (unsigned i = 0; i < config.tenants; ++i) {
        tenant::TenantConfig tcfg;
        tcfg.name = profile.name + "#" + std::to_string(i);
        tcfg.weight = config.tenantWeights.empty()
                          ? 1.0
                          : config.tenantWeights[i];
        tcfg.alloc = allocConfigFor(config);
        tcfg.globalsBytes = config.globalsBytes;
        tcfg.stackBytes = config.stackBytes;
        if (!config.tenantPolicies.empty())
            tcfg.policy = config.tenantPolicies[i];
        if (!config.tenantBackends.empty())
            tcfg.backend = config.tenantBackends[i];
        manager.addTenant(tcfg, (*traces)[i]);
    }

    if (config.tenantChurn > 0) {
        // The definitions the host trace's SpawnTenant ops resolve
        // against: rebuild the same deterministic plan the traces
        // were recorded with (the supplied trace 0 carries
        // 2 * tenantChurn injected lifecycle ops on top of its
        // synthesised op count).
        const size_t injected = 2 * config.tenantChurn;
        if ((*traces)[0].ops.size() < injected)
            fatal("tenant 0's trace is too short to carry %u churn "
                  "cycles",
                  config.tenantChurn);
        const TenantChurnPlan plan = makeTenantChurnPlan(
            profile, config, (*traces)[0].ops.size() - injected);
        for (unsigned k = 0; k < config.tenantChurn; ++k) {
            tenant::TenantConfig ccfg = plan.config;
            ccfg.name = "churn#" + std::to_string(k);
            manager.defineTenant(kChurnTenantIdBase + k, ccfg,
                                 plan.trace);
        }
    }

    std::unique_ptr<cache::Hierarchy> hierarchy;
    if (config.modelTraffic) {
        hierarchy = std::make_unique<cache::Hierarchy>(
            machine.hierarchyConfig());
    }
    const auto wall0 = std::chrono::steady_clock::now();
    result.run = manager.run(hierarchy.get());
    result.mutatorWallSec =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    const tenant::MultiTenantResult &run = result.run;
    if (result.mutatorWallSec > 0) {
        result.mutatorOpsPerSec =
            static_cast<double>(run.totalOps) /
            result.mutatorWallSec;
    }
    const double vt = std::max(run.virtualSeconds, 1e-9);

    // Aggregate model, exactly as the single-process path: shadow
    // paint time + sweep time over the (concurrent) virtual duration.
    result.shadowOverhead =
        paintSeconds(machine, run.engine.paint, config.scale) / vt;
    const uint64_t dram_bytes =
        hierarchy ? hierarchy->dram().totalBytes()
                  : approxSweepDramBytes(run.engine.sweep);
    result.sweepDramBytes = dram_bytes;
    result.sweepOverhead =
        sweepSeconds(machine, run.engine.sweep, dram_bytes,
                     run.engine.epochs, config.scale) /
        vt;
    result.achievedScanRate = achievedSweepBandwidth(
        machine, run.engine.sweep, run.engine.epochs, config.scale);

    // Figure 10 generalised: the denominator is every tenant's
    // baseline off-core traffic — consolidation grows both sides.
    const double sweep_dram_per_sec =
        static_cast<double>(approxSweepDramBytes(run.engine.sweep)) /
        config.scale / vt;
    result.trafficOverheadPct =
        100.0 * sweep_dram_per_sec /
        (config.tenants * profile.appDramMiBps * MiB);

    result.tenantSweepOverhead.reserve(run.tenants.size());
    for (const tenant::TenantResult &tr : run.tenants) {
        const double tvt = std::max(tr.run.virtualSeconds, 1e-9);
        result.tenantSweepOverhead.push_back(
            sweepSeconds(machine, tr.run.revoker.sweep,
                         approxSweepDramBytes(tr.run.revoker.sweep),
                         tr.run.revoker.epochs, config.scale) /
            tvt);
    }
    return result;
}

} // namespace sim
} // namespace cherivoke
