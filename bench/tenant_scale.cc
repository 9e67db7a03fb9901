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
 * Environment (strict parsing; see bench_common.hh for the shared
 * engine knobs which all apply here too; the churn and mixed-policy
 * phases pin scope/policy knobs — they are correctness gates, not
 * configuration axes):
 *   CHERIVOKE_TENANT_AGG_ALLOCS = aggregate live-allocation target
 *                                 (default 1000000)
 *   CHERIVOKE_TENANT_MAX        = largest tenant count (default 8)
 *   CHERIVOKE_TENANT_CHURN     = churn cycles in the churn phase
 *                                 (default 4; 0 skips the phase;
 *                                 1 is raised to 2 so slot reuse
 *                                 is always exercised)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"
#include "tenant/trace_codec.hh"

using namespace cherivoke;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

sim::ExperimentConfig
rowConfig(unsigned tenants)
{
    sim::ExperimentConfig cfg = bench::defaultConfig();
    // The tenant count IS this bench's x-axis and the heap targets
    // come from sliceProfile, so the CHERIVOKE_TENANTS /
    // _TENANT_WEIGHTS / _TENANT_HEAP_MIB / _TENANT_POLICIES /
    // _TENANT_BACKENDS / _TENANT_CHURN overrides do not apply to the
    // scaling rows (policy, backend, threads, shards, and
    // _TENANT_SCOPE still do; churn has its own phase below).
    cfg.tenants = tenants;
    cfg.tenantWeights.clear();
    cfg.tenantHeapMiB = 0;
    cfg.tenantPolicies.clear();
    cfg.tenantBackends.clear();
    cfg.tenantChurn = 0;
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

/**
 * Render every statistic the row reports into one string; rows are
 * "bit-identical" when these strings match byte for byte. Doubles
 * print with %.17g, which round-trips IEEE doubles exactly.
 */
std::string
statsFingerprint(const sim::MultiTenantBenchResult &r)
{
    std::string out;
    char buf[256];
    auto add = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
        out += buf;
    };
    auto addU = [&](const char *key, uint64_t v) {
        std::snprintf(buf, sizeof(buf), "%s=%llu\n", key,
                      static_cast<unsigned long long>(v));
        out += buf;
    };
    const tenant::MultiTenantResult &m = r.run;
    addU("ops", m.totalOps);
    addU("allocs", m.allocCalls);
    addU("frees", m.freeCalls);
    addU("freed_bytes", m.freedBytes);
    addU("ptr_stores", m.ptrStores);
    addU("peak_agg_live_allocs", m.peakAggLiveAllocs);
    addU("peak_agg_live_bytes", m.peakAggLiveBytes);
    addU("peak_agg_quarantine", m.peakAggQuarantineBytes);
    addU("peak_agg_footprint", m.peakAggFootprintBytes);
    addU("epochs", m.engine.epochs);
    addU("slices", m.engine.slices);
    addU("paint_ops", m.engine.paint.total());
    addU("pages_swept", m.engine.sweep.pagesSwept);
    addU("pages_skipped", m.engine.sweep.pagesSkippedPte);
    addU("lines_swept", m.engine.sweep.linesSwept);
    addU("caps_examined", m.engine.sweep.capsExamined);
    addU("caps_revoked", m.engine.sweep.capsRevoked);
    addU("internal_frees", m.engine.internalFrees);
    addU("bytes_released", m.engine.bytesReleased);
    add("virtual_sec", m.virtualSeconds);
    add("sweep_overhead", r.sweepOverhead);
    add("shadow_overhead", r.shadowOverhead);
    add("traffic_pct", r.trafficOverheadPct);
    add("scan_rate", r.achievedScanRate);
    addU("spawns", m.spawns);
    addU("retires", m.retires);
    addU("slots_reused", m.slotsReused);
    for (const tenant::LifecycleEvent &ev : m.lifecycle) {
        // wallSec deliberately excluded: host time, not model state.
        addU("ev_kind", ev.kind == tenant::LifecycleEvent::Kind::Spawn
                            ? 0 : 1);
        addU("ev_id", ev.tenantId);
        addU("ev_slot", ev.slot);
        addU("ev_step", ev.step);
        addU("ev_reused", ev.reusedSlot ? 1 : 0);
        addU("ev_pages_released", ev.pagesReleased);
    }
    for (const tenant::TenantResult &t : m.tenants) {
        addU("t_id", t.tenantId);
        addU("t_slot", t.index);
        addU("t_ops_applied", t.opsApplied);
        addU("t_epochs", t.run.revoker.epochs);
        addU("t_caps_revoked", t.run.revoker.sweep.capsRevoked);
        addU("t_peak_live_allocs", t.run.peakLiveAllocs);
        add("t_virtual_sec", t.run.virtualSeconds);
        add("t_page_density", t.run.pageDensity);
        add("t_line_density", t.run.lineDensity);
    }
    return out;
}

/**
 * Per-tenant statistics fingerprint: everything a tenant's replay
 * produces, minus its identity (name/id). Two tenants replaying the
 * same trace under the same config — one in a fresh slot, one in a
 * reused slot — must match byte for byte.
 */
std::string
tenantFingerprint(const tenant::TenantResult &t)
{
    std::string out;
    char buf[256];
    auto add = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
        out += buf;
    };
    auto addU = [&](const char *key, uint64_t v) {
        std::snprintf(buf, sizeof(buf), "%s=%llu\n", key,
                      static_cast<unsigned long long>(v));
        out += buf;
    };
    addU("ops_applied", t.opsApplied);
    addU("ops_total", t.opsTotal);
    addU("allocs", t.run.allocCalls);
    addU("frees", t.run.freeCalls);
    addU("freed_bytes", t.run.freedBytes);
    addU("ptr_stores", t.run.ptrStores);
    addU("peak_live_bytes", t.run.peakLiveBytes);
    addU("peak_live_allocs", t.run.peakLiveAllocs);
    addU("peak_quarantine", t.run.peakQuarantineBytes);
    addU("peak_footprint", t.run.peakFootprintBytes);
    addU("epochs", t.run.revoker.epochs);
    addU("slices", t.run.revoker.slices);
    addU("paint_ops", t.run.revoker.paint.total());
    addU("pages_swept", t.run.revoker.sweep.pagesSwept);
    addU("lines_swept", t.run.revoker.sweep.linesSwept);
    addU("caps_examined", t.run.revoker.sweep.capsExamined);
    addU("caps_revoked", t.run.revoker.sweep.capsRevoked);
    addU("internal_frees", t.run.revoker.internalFrees);
    addU("bytes_released", t.run.revoker.bytesReleased);
    add("virtual_sec", t.run.virtualSeconds);
    add("page_density", t.run.pageDensity);
    add("line_density", t.run.lineDensity);
    return out;
}

/** Round every tenant trace through the binary codec: record once,
 *  replay exactly. */
std::vector<workload::Trace>
codecRoundTrip(const std::vector<workload::Trace> &traces)
{
    std::vector<workload::Trace> out;
    out.reserve(traces.size());
    for (const workload::Trace &t : traces)
        out.push_back(tenant::decodeTrace(tenant::encodeTrace(t)));
    return out;
}

} // namespace

int
main()
{
    const uint64_t agg_allocs = static_cast<uint64_t>(
        envI64("CHERIVOKE_TENANT_AGG_ALLOCS", 1000000));
    const unsigned max_tenants =
        envUnsigned("CHERIVOKE_TENANT_MAX", 8);

    bench::printSystems("Multi-tenant consolidation scaling "
                        "(bench/tenant_scale)");
    (void)bench::defaultConfig();
    bench::printKnobs();
    std::printf("aggregate live-allocation target: %llu across up "
                "to %u tenants\n\n",
                static_cast<unsigned long long>(agg_allocs),
                max_tenants);

    std::vector<unsigned> counts;
    for (unsigned n = 1; n <= max_tenants; n *= 2)
        counts.push_back(n);
    if (counts.back() != max_tenants)
        counts.push_back(max_tenants);

    bool ok = true;
    std::vector<Row> rows;
    std::string det_fingerprint_a, det_fingerprint_b;

    for (unsigned n : counts) {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(n, agg_allocs);
        const sim::ExperimentConfig cfg = rowConfig(n);

        // Record once through the binary codec, then replay — the
        // deterministic-replay interchange path, not a side channel.
        const std::vector<workload::Trace> traces = codecRoundTrip(
            sim::synthesizeTenantTraces(profile, cfg));

        Row row;
        row.tenants = n;
        const double t0 = now();
        row.bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        row.wallSec = now() - t0;

        if (n == counts.back()) {
            // Determinism gate: identical traces, fresh manager —
            // every statistic must come out bit-identical.
            det_fingerprint_a = statsFingerprint(row.bench);
            const sim::MultiTenantBenchResult again =
                sim::runMultiTenantBenchmark(
                    profile, cfg, sim::MachineProfile::x86(),
                    &traces);
            det_fingerprint_b = statsFingerprint(again);
            if (det_fingerprint_a != det_fingerprint_b) {
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
            // a true sweeper thread racing the mutators must
            // reproduce every modelled statistic bit for bit.
            sim::ExperimentConfig bg_cfg = cfg;
            bg_cfg.bgSweeper = true;
            const sim::MultiTenantBenchResult bg_run =
                sim::runMultiTenantBenchmark(
                    profile, bg_cfg, sim::MachineProfile::x86(),
                    &traces);
            if (statsFingerprint(bg_run) != det_fingerprint_a) {
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
        single_match =
            a.revoker == b.revoker &&
            a.allocCalls == b.allocCalls &&
            a.freeCalls == b.freeCalls &&
            a.freedBytes == b.freedBytes &&
            a.ptrStores == b.ptrStores &&
            a.peakLiveBytes == b.peakLiveBytes &&
            a.peakQuarantineBytes == b.peakQuarantineBytes &&
            a.peakFootprintBytes == b.peakFootprintBytes &&
            a.pageDensity == b.pageDensity &&
            a.lineDensity == b.lineDensity &&
            a.virtualSeconds == b.virtualSeconds;
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
    // 0 skips the phase (matching the knob's meaning everywhere
    // else); any non-zero request runs at least 2 cycles so the
    // slot-reuse gate is always exercised.
    unsigned churn_cycles = envUnsigned("CHERIVOKE_TENANT_CHURN", 4, 0);
    if (churn_cycles == 1)
        churn_cycles = 2;
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

        const std::vector<workload::Trace> traces = codecRoundTrip(
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
        std::string first_fp;
        for (const tenant::TenantResult &t : m.tenants) {
            if (t.tenantId < sim::kChurnTenantIdBase)
                continue;
            churn_complete &= t.opsApplied == t.opsTotal;
            const std::string fp = tenantFingerprint(t);
            if (first_fp.empty()) {
                first_fp = fp;
            } else if (fp != first_fp) {
                churn_identical = false;
            }
        }
        if (!churn_complete) {
            std::printf("FAILED: a churn tenant was retired before "
                        "finishing its trace (cycle windows too "
                        "tight)\n");
            ok = false;
        }
        if (first_fp.empty() || !churn_identical) {
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
            statsFingerprint(churn_bench) == statsFingerprint(again);
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

        const std::vector<workload::Trace> traces = codecRoundTrip(
            sim::synthesizeTenantTraces(profile, cfg));
        mixed_bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        const sim::MultiTenantBenchResult again =
            sim::runMultiTenantBenchmark(
                profile, cfg, sim::MachineProfile::x86(), &traces);
        mixed_deterministic =
            statsFingerprint(mixed_bench) == statsFingerprint(again);
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
    FILE *json = std::fopen("BENCH_tenant.json", "w");
    if (json) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"bench\": \"tenant_scale\",\n");
        std::fprintf(json, "  \"agg_alloc_target\": %llu,\n",
                     static_cast<unsigned long long>(agg_allocs));
        std::fprintf(json, "  \"rows\": [\n");
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            const tenant::MultiTenantResult &m = r.bench.run;
            std::fprintf(
                json,
                "    {\"tenants\": %u, \"ops\": %llu, "
                "\"peak_live_allocs\": %llu, "
                "\"peak_live_bytes\": %llu, \"epochs\": %llu, "
                "\"pages_swept\": %llu, \"caps_revoked\": %llu, "
                "\"sweep_overhead\": %.6g, "
                "\"shadow_overhead\": %.6g, "
                "\"traffic_pct\": %.6g, \"scan_rate\": %.6g, "
                "\"wall_sec\": %.6g, \"ops_per_sec\": %.6g, "
                "\"mutator_ops_per_sec\": %.6g}%s\n",
                r.tenants,
                static_cast<unsigned long long>(m.totalOps),
                static_cast<unsigned long long>(
                    m.peakAggLiveAllocs),
                static_cast<unsigned long long>(m.peakAggLiveBytes),
                static_cast<unsigned long long>(m.engine.epochs),
                static_cast<unsigned long long>(
                    m.engine.sweep.pagesSwept),
                static_cast<unsigned long long>(
                    m.engine.sweep.capsRevoked),
                r.bench.sweepOverhead, r.bench.shadowOverhead,
                r.bench.trafficOverheadPct, r.bench.achievedScanRate,
                r.wallSec,
                static_cast<double>(m.totalOps) / r.wallSec,
                r.bench.mutatorOpsPerSec,
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        // Arrival/departure overhead rows from the churn phase: one
        // row per lifecycle transition, wall_sec being the host cost
        // of the spawn (region + allocator setup) or retire (epoch
        // drain + PTE unmap + bulk page release).
        std::fprintf(json, "  \"churn\": {\n");
        std::fprintf(json, "    \"cycles\": %u,\n", churn_cycles);
        std::fprintf(json, "    \"spawns\": %llu,\n",
                     static_cast<unsigned long long>(
                         churn_bench.run.spawns));
        std::fprintf(json, "    \"retires\": %llu,\n",
                     static_cast<unsigned long long>(
                         churn_bench.run.retires));
        std::fprintf(json, "    \"slots_reused\": %llu,\n",
                     static_cast<unsigned long long>(
                         churn_bench.run.slotsReused));
        std::fprintf(json, "    \"reuse_bit_identical\": %s,\n",
                     churn_identical ? "true" : "false");
        std::fprintf(json, "    \"deterministic\": %s,\n",
                     churn_deterministic ? "true" : "false");
        std::fprintf(json, "    \"events\": [\n");
        const auto &events = churn_bench.run.lifecycle;
        for (size_t i = 0; i < events.size(); ++i) {
            const tenant::LifecycleEvent &ev = events[i];
            std::fprintf(
                json,
                "      {\"event\": \"%s\", \"tenant_id\": %llu, "
                "\"slot\": %zu, \"step\": %llu, "
                "\"reused_slot\": %s, \"pages_released\": %llu, "
                "\"wall_sec\": %.6g}%s\n",
                ev.kind == tenant::LifecycleEvent::Kind::Spawn
                    ? "spawn" : "retire",
                static_cast<unsigned long long>(ev.tenantId),
                ev.slot,
                static_cast<unsigned long long>(ev.step),
                ev.reusedSlot ? "true" : "false",
                static_cast<unsigned long long>(ev.pagesReleased),
                ev.wallSec, i + 1 < events.size() ? "," : "");
        }
        std::fprintf(json, "    ]\n");
        std::fprintf(json, "  },\n");
        // Mixed-policy phase: per-tenant sweep overhead, reported
        // separately per policy.
        std::fprintf(json, "  \"mixed_policy\": {\n");
        std::fprintf(json, "    \"deterministic\": %s,\n",
                     mixed_deterministic ? "true" : "false");
        std::fprintf(json, "    \"tenants\": [\n");
        for (size_t i = 0;
             i < mixed_bench.run.tenants.size() && i < 2; ++i) {
            const tenant::TenantResult &t = mixed_bench.run.tenants[i];
            std::fprintf(
                json,
                "      {\"policy\": \"%s\", \"epochs\": %llu, "
                "\"slices\": %llu, \"caps_revoked\": %llu, "
                "\"sweep_overhead\": %.6g}%s\n",
                mixed_policies[i],
                static_cast<unsigned long long>(
                    t.run.revoker.epochs),
                static_cast<unsigned long long>(
                    t.run.revoker.slices),
                static_cast<unsigned long long>(
                    t.run.revoker.sweep.capsRevoked),
                i < mixed_bench.tenantSweepOverhead.size()
                    ? mixed_bench.tenantSweepOverhead[i] : 0.0,
                i + 1 < mixed_bench.run.tenants.size() && i + 1 < 2
                    ? "," : "");
        }
        std::fprintf(json, "    ]\n");
        std::fprintf(json, "  },\n");
        std::fprintf(json, "  \"deterministic\": %s,\n",
                     det_fingerprint_a == det_fingerprint_b
                         ? "true" : "false");
        std::fprintf(json, "  \"single_tenant_match\": %s,\n",
                     single_match ? "true" : "false");
        std::fprintf(json, "  \"ok\": %s\n", ok ? "true" : "false");
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("wrote BENCH_tenant.json\n");
    }

    if (ok) {
        std::printf("OK: deterministic replay, %llu+ aggregate live "
                    "allocations, single-tenant parity\n",
                    static_cast<unsigned long long>(agg_allocs));
    } else {
        std::printf("FAILED: see gates above\n");
    }
    return ok ? 0 : 1;
}
