/**
 * @file
 * Multi-tenant consolidation scaling bench: sweep throughput and
 * traffic overhead versus tenant count, at a constant aggregate of
 * 1M+ live allocations (PICASSO-scale) split across N co-resident
 * tenants sharing one TaggedMemory and one RevocationEngine.
 *
 * The aggregate workload is held constant across rows — per-tenant
 * heap and free rate are 1/N of the aggregate — so the tenant-count
 * axis isolates *consolidation density*: same total live data, same
 * total free traffic, more isolated quarantines and more (smaller)
 * per-region sweeps.
 *
 * Gates (any failure exits non-zero):
 *  - scale: the max-tenant row must sustain >= the configured
 *    aggregate live allocations (default 1M across 8 tenants);
 *  - determinism: the max-tenant row is replayed twice from the
 *    *same binary-codec round-tripped traces*; every reported
 *    statistic must be bit-identical;
 *  - single-tenant equivalence: a 1-tenant manager run must
 *    reproduce the classic single-process TraceDriver pipeline's
 *    revocation statistics bit-identically.
 *
 * The tenant_churn phase exercises mid-run arrival/departure: churn
 * cycles spawn a short-lived tenant from tenant 0's trace, retire it
 * (epoch drain, PTE unmap, bulk page release), and spawn the next
 * cycle into the freed slot. Its gates:
 *  - every cycle after the first reuses the retired slot;
 *  - every cycle's per-tenant statistics are bit-identical to the
 *    first (fresh-slot) cycle — slot reuse resurrects nothing;
 *  - the whole churn run replays bit-identically from the same
 *    codec-round-tripped traces (v2 lifecycle records included).
 *
 * The mixed-policy phase runs a concurrent tenant next to a
 * stop-the-world tenant on the one shared engine, gates on replay
 * determinism, and reports the per-tenant sweep overheads
 * separately.
 *
 * Results go to stdout and BENCH_tenant.json (trajectory tracking,
 * uploaded by CI next to BENCH_sweep.json).
 *
 * Knobs: the shared engine knobs apply (the churn and mixed-policy
 * phases pin scope and policy: they are correctness gates, not
 * configuration axes), plus CHERIVOKE_TENANT_AGG_ALLOCS (aggregate
 * live-allocation target), CHERIVOKE_TENANT_MAX (largest tenant
 * count) and CHERIVOKE_TENANT_CHURN (churn-phase cycles; 0 skips the
 * phase, 1 is raised to 2 so slot reuse is always exercised).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "report.hh"
#include "stats/table.hh"

using namespace cherivoke;
using bench::Json;

namespace {

sim::ExperimentConfig
rowConfig(unsigned tenants)
{
    sim::ExperimentConfig cfg = bench::defaultConfig();
    // The tenant count IS this bench's x-axis and the heap targets
    // come from sliceProfile, so the CHERIVOKE_TENANT_WEIGHTS /
    // _TENANT_HEAP_MIB / _TENANT_POLICIES / _TENANT_BACKENDS
    // overrides do not apply to the scaling rows (policy, backend,
    // threads and _TENANT_SCOPE still do; churn has its own
    // phase below).
    cfg.tenants = tenants;
    cfg.tenantWeights.clear();
    cfg.tenantHeapMiB = 0;
    cfg.tenantPolicies.clear();
    cfg.tenantBackends.clear();
    cfg.scale = 1.0; //!< real allocation counts, no scaling
    cfg.durationSec = 2.0;
    return cfg;
}

struct Row
{
    unsigned tenants = 0;
    sim::MultiTenantBenchResult bench;
    double wallSec = 0;
};

int
benchMain()
{
    const uint64_t agg_allocs = knobInt("CHERIVOKE_TENANT_AGG_ALLOCS");
    const unsigned max_tenants = knobUnsigned("CHERIVOKE_TENANT_MAX");
    // 0 skips the churn phase; any other request runs at least 2
    // cycles so the slot-reuse gate is always exercised.
    unsigned churn_cycles = knobUnsigned("CHERIVOKE_TENANT_CHURN");
    if (churn_cycles == 1)
        churn_cycles = 2;

    bench::printSystems("Multi-tenant consolidation scaling "
                        "(bench/tenant_scale)");
    (void)bench::defaultConfig();
    announceEnvKnobs();
    std::printf("aggregate live-allocation target: %llu across up "
                "to %u tenants\n\n",
                static_cast<unsigned long long>(agg_allocs),
                max_tenants);

    std::vector<unsigned> counts;
    for (unsigned n = 1; n <= max_tenants; n *= 2)
        counts.push_back(n);
    if (counts.back() != max_tenants)
        counts.push_back(max_tenants);

    bool ok = true, rerun_identical = true;
    std::vector<Row> rows;

    for (unsigned n : counts) {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(n, agg_allocs);
        const sim::ExperimentConfig cfg = rowConfig(n);

        // Record once through the binary codec, then replay — the
        // deterministic-replay interchange path, not a side channel.
        const std::vector<workload::Trace> traces =
            bench::codecRoundTrip(
                sim::synthesizeTenantTraces(profile, cfg));

        Row row;
        row.tenants = n;
        const bench::Stopwatch watch;
        row.bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        row.wallSec = watch.seconds();

        if (n == counts.back()) {
            // Determinism gate: identical traces, fresh manager —
            // every statistic must come out bit-identical.
            const Json first = bench::multiTenantJson(row.bench);
            rerun_identical =
                first == bench::multiTenantJson(
                             sim::runMultiTenantBenchmark(
                                 profile, cfg,
                                 sim::MachineProfile::x86(), &traces));
            if (!rerun_identical) {
                std::printf("FAILED: max-tenant replay diverged "
                            "between two runs of the same traces\n");
                ok = false;
            }
            if (row.bench.run.peakAggLiveAllocs < agg_allocs) {
                std::printf(
                    "FAILED: peak aggregate live allocations %llu "
                    "below the %llu target\n",
                    static_cast<unsigned long long>(
                        row.bench.run.peakAggLiveAllocs),
                    static_cast<unsigned long long>(agg_allocs));
                ok = false;
            }
            // Background-sweeper parity gate: the same traces with
            // the supervision ladder walked every epoch must
            // reproduce every modelled statistic bit for bit.
            sim::ExperimentConfig bg_cfg = cfg;
            bg_cfg.bgSweeper = true;
            const sim::MultiTenantBenchResult bg_run =
                sim::runMultiTenantBenchmark(
                    profile, bg_cfg, sim::MachineProfile::x86(),
                    &traces);
            if (bench::multiTenantJson(bg_run) != first) {
                std::printf("FAILED: background-sweeper run "
                            "diverged from the mutator-assist "
                            "run over the same traces\n");
                ok = false;
            }
        }
        rows.push_back(std::move(row));
    }

    // Single-tenant equivalence gate: the classic single-process
    // pipeline (runBenchmark -> TraceDriver) must match the 1-tenant
    // manager run statistic for statistic.
    bool single_match = true;
    {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(1, agg_allocs);
        const sim::ExperimentConfig cfg = rowConfig(1);
        const sim::BenchResult classic =
            sim::runBenchmark(profile, cfg);
        const workload::DriverResult &a = classic.run;
        const workload::DriverResult &b = rows[0].bench.run
                                              .tenants[0].run;
        Json a_json, b_json;
        single_match = a.revoker == b.revoker &&
                       bench::addDriver(a_json, a) ==
                           bench::addDriver(b_json, b);
        if (!single_match) {
            std::printf("FAILED: 1-tenant manager run diverged from "
                        "the single-process TraceDriver pipeline\n");
            ok = false;
        }
    }

    // ---- tenant_churn phase -------------------------------------
    // Mid-run arrival/departure at a reduced aggregate: C cycles of
    // spawn -> run -> retire, driven by lifecycle ops recorded in
    // tenant 0's (codec-round-tripped) trace. Scope and policies are
    // pinned (per-tenant + stop-the-world) so each churn tenant's
    // statistics are a pure function of its trace: the fresh-slot
    // cycle and every reused-slot cycle must match bit for bit.
    sim::MultiTenantBenchResult churn_bench;
    bool churn_reuse_ok = true, churn_identical = true,
         churn_complete = true, churn_deterministic = true;
    if (churn_cycles > 0) {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(2, std::max<uint64_t>(agg_allocs / 4, 20000));
        sim::ExperimentConfig cfg = rowConfig(2);
        cfg.tenantChurn = churn_cycles;
        cfg.tenantScope = tenant::RevocationScope::PerTenant;
        cfg.policy = revoke::PolicyKind::StopTheWorld;
        cfg.durationSec = 1.0;

        const std::vector<workload::Trace> traces =
            bench::codecRoundTrip(
                sim::synthesizeTenantTraces(profile, cfg));
        churn_bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        const tenant::MultiTenantResult &m = churn_bench.run;

        // Gate: every cycle after the first landed in the slot the
        // previous cycle freed.
        size_t churn_slot = SIZE_MAX;
        for (const tenant::LifecycleEvent &ev : m.lifecycle) {
            if (ev.tenantId < sim::kChurnTenantIdBase ||
                ev.kind != tenant::LifecycleEvent::Kind::Spawn)
                continue;
            if (churn_slot == SIZE_MAX) {
                churn_slot = ev.slot; // fresh slot, first cycle
                churn_reuse_ok &= !ev.reusedSlot;
            } else {
                churn_reuse_ok &=
                    ev.reusedSlot && ev.slot == churn_slot;
            }
        }
        churn_reuse_ok &= m.retires == churn_cycles &&
                          m.slotsReused == churn_cycles - 1;
        if (!churn_reuse_ok) {
            std::printf("FAILED: churn spawn did not reuse the "
                        "retired slot\n");
            ok = false;
        }

        // Gate: every cycle ran its whole trace and produced stats
        // bit-identical to the fresh-slot first cycle.
        std::vector<Json> churn_tenants;
        for (const tenant::TenantResult &t : m.tenants) {
            if (t.tenantId < sim::kChurnTenantIdBase)
                continue;
            churn_complete &= t.opsApplied == t.opsTotal;
            churn_tenants.push_back(bench::tenantJson(t));
            churn_identical &= churn_tenants.back() == churn_tenants[0];
        }
        if (!churn_complete) {
            std::printf("FAILED: a churn tenant was retired before "
                        "finishing its trace (cycle windows too "
                        "tight)\n");
            ok = false;
        }
        if (churn_tenants.empty() || !churn_identical) {
            std::printf("FAILED: reused-slot churn cycle diverged "
                        "from the fresh-slot cycle\n");
            ok = false;
            churn_identical = false;
        }

        // Gate: the whole churn run replays bit-identically.
        const sim::MultiTenantBenchResult again =
            sim::runMultiTenantBenchmark(
                profile, cfg, sim::MachineProfile::x86(), &traces);
        churn_deterministic =
            bench::multiTenantJson(churn_bench) ==
            bench::multiTenantJson(again);
        if (!churn_deterministic) {
            std::printf("FAILED: churn replay diverged between two "
                        "runs of the same traces\n");
            ok = false;
        }

        std::printf("churn phase: %u cycles, %llu retires, %llu "
                    "slot reuses, reuse %s fresh-slot stats\n\n",
                    churn_cycles,
                    static_cast<unsigned long long>(m.retires),
                    static_cast<unsigned long long>(m.slotsReused),
                    churn_identical ? "matches" : "DIVERGED from");
    }

    // ---- mixed-policy phase -------------------------------------
    // One concurrent tenant next to one stop-the-world tenant on the
    // same engine (epoch-owner-wins arbitration), gated on replay
    // determinism; per-tenant sweep overheads are reported
    // separately in the JSON.
    sim::MultiTenantBenchResult mixed_bench;
    bool mixed_deterministic = true;
    const char *mixed_policies[2] = {"concurrent", "stop-the-world"};
    {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(2, std::max<uint64_t>(agg_allocs / 4, 20000));
        sim::ExperimentConfig cfg = rowConfig(2);
        cfg.tenantScope = tenant::RevocationScope::PerTenant;
        cfg.tenantPolicies = {revoke::PolicyKind::Concurrent,
                              revoke::PolicyKind::StopTheWorld};
        cfg.pagesPerSlice = 16; // several slices per concurrent epoch
        cfg.durationSec = 1.0;

        const std::vector<workload::Trace> traces =
            bench::codecRoundTrip(
                sim::synthesizeTenantTraces(profile, cfg));
        mixed_bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        const sim::MultiTenantBenchResult again =
            sim::runMultiTenantBenchmark(
                profile, cfg, sim::MachineProfile::x86(), &traces);
        mixed_deterministic =
            bench::multiTenantJson(mixed_bench) ==
            bench::multiTenantJson(again);
        if (!mixed_deterministic) {
            std::printf("FAILED: mixed-policy replay diverged "
                        "between two runs of the same traces\n");
            ok = false;
        }
        // The concurrent tenant must actually have run sliced
        // epochs next to the stop-the-world one.
        const tenant::MultiTenantResult &m = mixed_bench.run;
        if (m.tenants.size() == 2 &&
            (m.tenants[0].run.revoker.epochs == 0 ||
             m.tenants[1].run.revoker.epochs == 0 ||
             m.tenants[0].run.revoker.slices <=
                 m.tenants[0].run.revoker.epochs)) {
            std::printf("FAILED: mixed-policy phase did not "
                        "exercise both policies (t0 epochs %llu "
                        "slices %llu, t1 epochs %llu)\n",
                        static_cast<unsigned long long>(
                            m.tenants[0].run.revoker.epochs),
                        static_cast<unsigned long long>(
                            m.tenants[0].run.revoker.slices),
                        static_cast<unsigned long long>(
                            m.tenants[1].run.revoker.epochs));
            ok = false;
        }
        std::printf("mixed-policy phase: concurrent + stop-the-world "
                    "on one engine, per-tenant sweep overhead %.2f%% "
                    "/ %.2f%%\n\n",
                    mixed_bench.tenantSweepOverhead.size() > 0
                        ? mixed_bench.tenantSweepOverhead[0] * 100
                        : 0.0,
                    mixed_bench.tenantSweepOverhead.size() > 1
                        ? mixed_bench.tenantSweepOverhead[1] * 100
                        : 0.0);
    }

    // ---- Report -------------------------------------------------
    stats::TextTable table({"tenants", "ops", "peak live allocs",
                            "epochs", "Mpages swept", "sweep ovh %",
                            "traffic %", "wall s", "ops/s"});
    for (const Row &r : rows) {
        const tenant::MultiTenantResult &m = r.bench.run;
        table.addRow(
            {std::to_string(r.tenants),
             std::to_string(m.totalOps),
             std::to_string(m.peakAggLiveAllocs),
             std::to_string(m.engine.epochs),
             stats::TextTable::num(
                 static_cast<double>(m.engine.sweep.pagesSwept) /
                     1e6, 3),
             stats::TextTable::num(r.bench.sweepOverhead * 100, 2),
             stats::TextTable::num(r.bench.trafficOverheadPct, 2),
             stats::TextTable::num(r.wallSec, 2),
             stats::TextTable::num(
                 static_cast<double>(m.totalOps) / r.wallSec, 0)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("per-tenant epoch spread (max row): mean %.1f "
                "min %.0f max %.0f\n",
                rows.back().bench.run.tenantEpochs.mean(),
                rows.back().bench.run.tenantEpochs.min(),
                rows.back().bench.run.tenantEpochs.max());

    // ---- BENCH_tenant.json --------------------------------------
    bench::Report report{"tenant_scale"};
    Json row_det = Json::array(), row_time = Json::array();
    for (const Row &r : rows) {
        Json det;
        det.set("tenants", r.tenants);
        row_det.push(std::move(bench::addMultiTenant(det, r.bench)));
        const double ops = static_cast<double>(r.bench.run.totalOps);
        row_time.push(
            Json()
                .set("tenants", r.tenants)
                .set("wall_sec", r.wallSec)
                .set("ops_per_sec", ops / r.wallSec)
                .set("mutator_ops_per_sec", r.bench.mutatorOpsPerSec));
    }
    // Arrival/departure rows from the churn phase: the host cost of
    // each spawn (region + allocator setup) or retire (epoch drain +
    // PTE unmap + bulk page release) is timing; the rest replays.
    Json churn;
    churn.set("cycles", churn_cycles)
        .set("reuse_bit_identical", churn_identical)
        .set("deterministic", churn_deterministic);
    Json churn_time = Json::array();
    for (const tenant::LifecycleEvent &ev : churn_bench.run.lifecycle)
        churn_time.push(ev.wallSec);
    // Mixed-policy phase: per-tenant sweep overhead, reported
    // separately per policy.
    Json mixed_tenants = Json::array();
    for (size_t i = 0; i < mixed_bench.run.tenants.size() && i < 2;
         ++i) {
        const tenant::TenantResult &t = mixed_bench.run.tenants[i];
        mixed_tenants.push(
            Json()
                .set("policy", mixed_policies[i])
                .set("epochs", t.run.revoker.epochs)
                .set("slices", t.run.revoker.slices)
                .set("caps_revoked", t.run.revoker.sweep.capsRevoked)
                .set("sweep_overhead",
                     i < mixed_bench.tenantSweepOverhead.size()
                         ? mixed_bench.tenantSweepOverhead[i]
                         : 0.0));
    }
    report.deterministic.set("agg_alloc_target", agg_allocs)
        .set("rows", std::move(row_det))
        .set("churn",
             std::move(bench::addMultiTenant(churn, churn_bench)))
        .set("mixed_policy",
             Json()
                 .set("deterministic", mixed_deterministic)
                 .set("tenants", std::move(mixed_tenants))
                 .set("run", bench::multiTenantJson(mixed_bench)))
        .set("rerun_identical", rerun_identical)
        .set("single_tenant_match", single_match)
        .set("ok", ok);
    report.timing.set("rows", std::move(row_time))
        .set("churn_event_wall_sec", std::move(churn_time));
    report.write("BENCH_tenant.json");

    if (ok) {
        std::printf("OK: deterministic replay, %llu+ aggregate live "
                    "allocations, single-tenant parity\n",
                    static_cast<unsigned long long>(agg_allocs));
    } else {
        std::printf("FAILED: see gates above\n");
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
