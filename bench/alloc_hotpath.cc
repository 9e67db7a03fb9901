/**
 * @file
 * Mutator-side allocator/quarantine hot-path throughput bench: how
 * fast do the *simulated program's* malloc and free run, independent
 * of the modelled cycle counts? The sweep-side twin is
 * bench/sweep_hotpath; this bench covers the other half of the
 * CHERIvoke cost story — the paper's premise is that temporal safety
 * costs live in the sweep, so the mutator path must stay cheap even
 * at PICASSO scale (millions of live allocations).
 *
 * Phases, all deterministic (fixed RNG seed):
 *  - ramp: malloc LIVE allocations from an empty heap
 *    (-> malloc ops/s at a growing heap);
 *  - free burst: free the oldest half FIFO, which maximises §5.2 run
 *    aggregation; sweeps that trigger are timed and subtracted
 *    (-> pure quarantine add rate);
 *  - churn: random-victim malloc/free pairs across several sweep
 *    epochs, including sweep time (-> sustained mutator ops/s, the
 *    figure that exercises takeFromBins against populated bins);
 *  - tenant: the bench/tenant_scale mutator loop (8 tenants, the
 *    aggregate-allocation target) timed wall-clock
 *    (-> trace ops/s through the full sim + tenant stack).
 *
 * Correctness gates (any failure exits non-zero): validateHeap()
 * after every phase — which also asserts bin-bitmap/bin-list
 * consistency and the raw-span tag-invalidation contract — plus
 * quarantine byte accounting and post-sweep reuse.
 *
 * Results go to stdout and BENCH_alloc.json (trajectory tracking,
 * uploaded by CI next to BENCH_sweep.json / BENCH_tenant.json).
 *
 * Knobs: CHERIVOKE_ALLOC_LIVE (live-allocation target),
 * CHERIVOKE_ALLOC_CHURN (churn-phase op pairs),
 * CHERIVOKE_TENANT_AGG_ALLOCS and CHERIVOKE_TENANT_MAX (the tenant
 * phase's aggregate target and tenant count).
 */

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "report.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "support/rng.hh"

using namespace cherivoke;
using bench::Json;

namespace {

/** Run any due sweep to completion; returns the wall seconds it
 *  spent so mutator-phase timings can subtract it. */
double
sweepIfDue(alloc::CherivokeAllocator &heap, uint64_t &sweeps)
{
    if (!heap.needsSweep())
        return 0;
    const bench::Stopwatch t0;
    heap.prepareSweep();
    heap.finishSweep();
    ++sweeps;
    return t0.seconds();
}

int
benchMain()
{
    const uint64_t live_target = knobInt("CHERIVOKE_ALLOC_LIVE");
    const uint64_t churn_knob = knobInt("CHERIVOKE_ALLOC_CHURN");
    const uint64_t churn_pairs =
        churn_knob ? churn_knob : live_target / 2;
    const uint64_t agg_allocs = knobInt("CHERIVOKE_TENANT_AGG_ALLOCS");
    const unsigned tenants = knobUnsigned("CHERIVOKE_TENANT_MAX");

    bench::printSystems(
        "Mutator allocator/quarantine hot-path throughput "
        "(bench/alloc_hotpath)");
    // Phase D runs under the common experiment knobs: pull them into
    // the registry now so the startup printout is the complete set.
    sim::ExperimentConfig cfg = bench::defaultConfig();
    announceEnvKnobs();
    std::printf("live-allocation target: %llu\n\n",
                static_cast<unsigned long long>(live_target));

    bool ok = true;
    mem::AddressSpace space;
    alloc::CherivokeAllocator heap(space, alloc::CherivokeConfig{});
    Rng rng(99);
    std::deque<cap::Capability> live;

    // ---- Phase A: ramp — malloc ops/s on a growing heap ---------
    const bench::Stopwatch ramp;
    for (uint64_t i = 0; i < live_target; ++i)
        live.push_back(heap.malloc(rng.nextLogUniform(16, 512)));
    const double ramp_sec = ramp.seconds();
    const double malloc_ops =
        static_cast<double>(live_target) / ramp_sec;
    heap.dl().validateHeap();

    // ---- Phase B: FIFO free burst — quarantine add rate ---------
    const uint64_t burst = live.size() / 2;
    uint64_t sweeps = 0;
    double sweep_sec = 0;
    const bench::Stopwatch burst_watch;
    for (uint64_t i = 0; i < burst; ++i) {
        heap.free(live.front());
        live.pop_front();
        sweep_sec += sweepIfDue(heap, sweeps);
    }
    const double burst_sec = burst_watch.seconds() - sweep_sec;
    const double free_ops = static_cast<double>(burst) / burst_sec;
    heap.dl().validateHeap();
    if (heap.quarantinedBytes() >
        heap.liveBytes() + heap.footprintBytes()) {
        std::printf("FAILED: quarantine accounting out of range\n");
        ok = false;
    }

    // ---- Phase C: churn — sustained malloc+free incl. sweeps ----
    uint64_t churn_sweeps = 0;
    double churn_sweep_sec = 0;
    const bench::Stopwatch churn;
    for (uint64_t i = 0; i < churn_pairs; ++i) {
        const size_t victim = rng.nextBounded(live.size());
        heap.free(live[victim]);
        live[victim] = heap.malloc(rng.nextLogUniform(16, 512));
        churn_sweep_sec += sweepIfDue(heap, churn_sweeps);
    }
    const double churn_sec = churn.seconds();
    const double churn_ops =
        static_cast<double>(2 * churn_pairs) / churn_sec;
    heap.dl().validateHeap();
    if (churn_sweeps == 0 && churn_pairs >= live_target / 4) {
        std::printf("FAILED: churn phase never swept — the bench "
                    "is not exercising post-sweep reuse\n");
        ok = false;
    }

    const stats::MutatorPathSummary mutator = heap.dl().counters();

    // ---- Phase D: the tenant_scale mutator loop -----------------
    const workload::BenchmarkProfile profile =
        bench::sliceProfile(tenants, agg_allocs);
    cfg.tenants = tenants;
    cfg.tenantWeights.clear();
    cfg.tenantHeapMiB = 0;
    cfg.scale = 1.0;
    cfg.durationSec = 2.0;
    const std::vector<workload::Trace> traces =
        sim::synthesizeTenantTraces(profile, cfg);
    const bench::Stopwatch tenant_watch;
    const sim::MultiTenantBenchResult r = sim::runMultiTenantBenchmark(
        profile, cfg, sim::MachineProfile::x86(), &traces);
    const double tenant_wall = tenant_watch.seconds();
    const uint64_t tenant_ops = r.run.totalOps;
    const double tenant_ops_per_sec =
        static_cast<double>(tenant_ops) / tenant_wall;
    if (r.run.peakAggLiveAllocs < agg_allocs) {
        std::printf("FAILED: tenant phase peaked at %llu live "
                    "allocations, below the %llu target\n",
                    static_cast<unsigned long long>(
                        r.run.peakAggLiveAllocs),
                    static_cast<unsigned long long>(agg_allocs));
        ok = false;
    }

    // ---- Report -------------------------------------------------
    stats::TextTable table({"phase", "ops", "wall s", "Mops/s"});
    table.addRow({"malloc ramp",
                  std::to_string(live_target),
                  stats::TextTable::num(ramp_sec, 2),
                  stats::TextTable::num(malloc_ops / 1e6, 3)});
    table.addRow({"free burst (quarantine add)",
                  std::to_string(burst),
                  stats::TextTable::num(burst_sec, 2),
                  stats::TextTable::num(free_ops / 1e6, 3)});
    table.addRow({"churn (malloc+free+sweeps)",
                  std::to_string(2 * churn_pairs),
                  stats::TextTable::num(churn_sec, 2),
                  stats::TextTable::num(churn_ops / 1e6, 3)});
    table.addRow({"tenant_scale mutator", std::to_string(tenant_ops),
                  stats::TextTable::num(tenant_wall, 2),
                  stats::TextTable::num(tenant_ops_per_sec / 1e6, 3)});
    std::printf("%s\n", table.render().c_str());
    std::printf("%s\n", mutator.render().c_str());
    std::printf("sweeps during free burst: %llu (excluded from its "
                "rate), during churn: %llu (%.2f s, included)\n\n",
                static_cast<unsigned long long>(sweeps),
                static_cast<unsigned long long>(churn_sweeps),
                churn_sweep_sec);

    // ---- BENCH_alloc.json ---------------------------------------
    bench::Report report{"alloc_hotpath"};
    report.deterministic.set("live_target", live_target)
        .set("mean_bin_scan", mutator.meanBinScanLength())
        .set("raw_span_rate", mutator.rawSpanRate())
        .set("quarantine_merge_ratio", mutator.mergeRatio())
        .set("tenant", Json()
                           .set("tenants", tenants)
                           .set("agg_allocs", agg_allocs)
                           .set("ops", tenant_ops))
        .set("ok", ok);
    report.timing.set("malloc_ops_per_sec", malloc_ops)
        .set("quarantine_add_ops_per_sec", free_ops)
        .set("churn_ops_per_sec", churn_ops)
        .set("tenant", Json()
                           .set("wall_sec", tenant_wall)
                           .set("ops_per_sec", tenant_ops_per_sec));
    report.write("BENCH_alloc.json");

    std::printf(ok ? "OK: heap valid after every phase\n"
                   : "FAILED: see gates above\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
