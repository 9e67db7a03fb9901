/**
 * @file
 * Fault-containment chaos matrix: one cell per HeapFault kind, each
 * injecting that fault into the middle tenant of a 3-tenant
 * consolidation run via the deterministic fault plan, plus a
 * memory-pressure cell that drives the soft-page-budget escalation
 * ladder to an OOM-kill. Gates (any failure exits non-zero):
 *
 *  - containment: every injected fault retires exactly the faulting
 *    tenant (recorded in the result's fault log) and the process —
 *    and every other tenant — runs to completion;
 *  - survivor bit-identity: each survivor's per-tenant statistics
 *    match, byte for byte, a control run in which the faulty
 *    tenant's trace simply ends at the recorded fault op (valid
 *    under the pinned per-tenant scope + stop-the-world policy);
 *  - pressure ladder: with the budget set between one- and
 *    two-survivor residency, the ladder must reclaim pages, OOM-kill
 *    at least one tenant, and leave at least one tenant to finish;
 *  - seeded-plan determinism: the same CHERIVOKE_FAULT_SEED yields
 *    the same plan text and a bit-identical replay;
 *  - supervision matrix: with the background sweeper enabled, one
 *    cell per degradation-ladder rung (slow sweeper that recovers on
 *    bounded retries; stall that falls back to mutator-assist; two
 *    stalls that trigger the stop-the-world catch-up; three stalls
 *    that contain the domain; a crash that falls back to assist) —
 *    each must fire exactly the expected typed SweeperEvent counts,
 *    and survivors must stay bit-identical to a sweeper-off control;
 *  - matrix determinism: the whole matrix runs twice and every
 *    deterministic statistic (fault and sweeper-event logs included,
 *    wall-clock excluded) must come out byte-identical.
 *
 * Results go to stdout and BENCH_fault.json. The JSON separates the
 * "deterministic" section (gated byte-identical across same-seed
 * runs) from the "reporting" section (containment latency and
 * survivor throughput — host wall-clock, excluded from the gate).
 *
 * Environment: the shared bench_common.hh knobs; the matrix pins
 * tenants/scope/policy/plan per cell (they are the experiment, not
 * configuration), so CHERIVOKE_FAULT_PLAN / CHERIVOKE_PAGE_BUDGET_MIB
 * are ignored here while CHERIVOKE_FAULT_SEED seeds the seeded phase.
 *
 * CHERIVOKE_FAULT_SUPERVISION_ONLY=1 runs just the supervision
 * matrix (control + sweeper stall/crash/slow cells, both
 * determinism passes) and skips the kind matrix, pressure ladder,
 * seeded phase, and JSON emission — the reduced configuration CI's
 * TSan leg runs so the racing sweeper gets sanitizer coverage
 * without the full matrix's wall-clock under instrumentation.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "support/fault.hh"
#include "tenant/trace_codec.hh"

using namespace cherivoke;

namespace {

constexpr double kMeanAllocBytes = 128.0;

workload::BenchmarkProfile
faultProfile()
{
    workload::BenchmarkProfile p;
    p.name = "fault_matrix";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    p.liveHeapMiB = 2.0;
    p.freeRateMiBps = 4.0;
    p.freesPerSec = 4.0 * MiB / kMeanAllocBytes;
    p.appDramMiBps = 2000.0;
    return p;
}

/** Pinned 3-tenant configuration: per-tenant scope + stop-the-world
 *  make each survivor's statistics a pure function of its own trace,
 *  which is what the survivor bit-identity gate relies on. */
sim::ExperimentConfig
baseConfig()
{
    sim::ExperimentConfig cfg = bench::defaultConfig();
    cfg.tenants = 3;
    cfg.tenantScope = tenant::RevocationScope::PerTenant;
    cfg.policy = revoke::PolicyKind::StopTheWorld;
    cfg.tenantWeights.clear();
    cfg.tenantPolicies.clear();
    cfg.tenantBackends.clear();
    cfg.tenantHeapMiB = 0;
    cfg.tenantChurn = 0;
    cfg.scale = 1.0;
    cfg.durationSec = 1.0;
    cfg.faultPlanText.clear();
    cfg.faultSeed = 0;
    cfg.pageBudgetMiB = 0;
    return cfg;
}

/** Per-tenant statistics fingerprint (identity and host wall-clock
 *  excluded); survivors are "bit-identical" when these match. */
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
    addU("mutator_fp", t.mutator.fingerprint());
    add("virtual_sec", t.run.virtualSeconds);
    add("page_density", t.run.pageDensity);
    add("line_density", t.run.lineDensity);
    return out;
}

/** The fault log rendered without its wall-clock field. */
std::string
faultLogText(const tenant::MultiTenantResult &m)
{
    std::string out;
    char buf[512];
    for (const tenant::FaultRecord &f : m.faults) {
        std::snprintf(
            buf, sizeof(buf),
            "fault kind=%s tenant=%llu slot=%zu step=%llu op=%llu "
            "injected=%d msg=%s\n",
            heapFaultKindName(f.kind),
            static_cast<unsigned long long>(f.tenantId), f.slot,
            static_cast<unsigned long long>(f.step),
            static_cast<unsigned long long>(f.opIndex),
            f.injected ? 1 : 0, f.message.c_str());
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "contained=%llu oom_kills=%llu pressure=%llu "
                  "reclaimed=%llu\n",
                  static_cast<unsigned long long>(m.faultsContained),
                  static_cast<unsigned long long>(m.oomKills),
                  static_cast<unsigned long long>(m.pressureEvents),
                  static_cast<unsigned long long>(
                      m.pressurePagesReclaimed));
    out += buf;
    return out;
}

const tenant::TenantResult *
findTenant(const tenant::MultiTenantResult &m, uint64_t id)
{
    for (const tenant::TenantResult &t : m.tenants)
        if (t.tenantId == id)
            return &t;
    return nullptr;
}

std::vector<workload::Trace>
codecRoundTrip(const std::vector<workload::Trace> &traces)
{
    std::vector<workload::Trace> out;
    out.reserve(traces.size());
    for (const workload::Trace &t : traces)
        out.push_back(tenant::decodeTrace(tenant::encodeTrace(t)));
    return out;
}

struct Cell
{
    HeapFaultKind kind = HeapFaultKind::DoubleFree;
    bool ok = true;
    bool survivorMatch = true;
    uint64_t faultOp = 0;
    uint64_t pagesReleased = 0; //!< at the containment retire
    /** Deterministic cell statistics (gated byte-identical). */
    std::string detText;
    /** @name Reporting only (host wall-clock; not gated) */
    /// @{
    double containSec = 0;
    double faultedOpsPerSec = 0;
    double controlOpsPerSec = 0;
    /// @}
};

constexpr uint64_t kFaultyTenant = 1;

/** One matrix cell: inject @p kind into tenant 1 mid-trace, gate
 *  containment, and diff the survivors against the truncated-trace
 *  control run. */
Cell
runCell(HeapFaultKind kind,
        const workload::BenchmarkProfile &profile,
        const sim::ExperimentConfig &base,
        const std::vector<workload::Trace> &traces)
{
    Cell cell;
    cell.kind = kind;

    const uint64_t inject_at =
        traces[kFaultyTenant].ops.size() / 2;
    sim::ExperimentConfig cfg = base;
    cfg.faultPlanText = std::string(heapFaultKindName(kind)) + "@" +
                        std::to_string(kFaultyTenant) + ":" +
                        std::to_string(inject_at);
    const sim::MultiTenantBenchResult faulted =
        sim::runMultiTenantBenchmark(profile, cfg,
                                     sim::MachineProfile::x86(),
                                     &traces);
    const tenant::MultiTenantResult &m = faulted.run;
    cell.faultedOpsPerSec = faulted.mutatorOpsPerSec;

    // Containment gates: exactly one fault, the right kind, the
    // right tenant, flagged as planned, tenant retired mid-run.
    if (m.faultsContained != 1 || m.faults.size() != 1 ||
        m.faults[0].kind != kind ||
        m.faults[0].tenantId != kFaultyTenant ||
        !m.faults[0].injected) {
        std::printf("FAILED [%s]: expected one planned fault on "
                    "tenant %llu, got %llu record(s)\n",
                    heapFaultKindName(kind),
                    static_cast<unsigned long long>(kFaultyTenant),
                    static_cast<unsigned long long>(
                        m.faultsContained));
        cell.ok = false;
        return cell;
    }
    cell.faultOp = m.faults[0].opIndex;
    cell.containSec = m.faults[0].wallSec;

    const tenant::TenantResult *faulty =
        findTenant(m, kFaultyTenant);
    if (!faulty || !faulty->retiredMidRun || !faulty->faulted ||
        faulty->faultKind != kind ||
        faulty->faultOp != cell.faultOp) {
        std::printf("FAILED [%s]: faulting tenant was not retired "
                    "with the fault stamped\n",
                    heapFaultKindName(kind));
        cell.ok = false;
        return cell;
    }
    for (const tenant::TenantResult &t : m.tenants) {
        if (t.tenantId != kFaultyTenant &&
            t.opsApplied != t.opsTotal) {
            std::printf("FAILED [%s]: survivor %llu did not finish "
                        "its trace (%llu/%llu ops)\n",
                        heapFaultKindName(kind),
                        static_cast<unsigned long long>(t.tenantId),
                        static_cast<unsigned long long>(t.opsApplied),
                        static_cast<unsigned long long>(t.opsTotal));
            cell.ok = false;
        }
    }

    // The containment retire event carries the pages released when
    // the faulty slot was torn down.
    for (const tenant::LifecycleEvent &ev : m.lifecycle)
        if (ev.kind == tenant::LifecycleEvent::Kind::Retire &&
            ev.tenantId == kFaultyTenant)
            cell.pagesReleased = ev.pagesReleased;

    // Control: the same traces with the faulty tenant's stream
    // simply ending at the fault op, no injection. Survivors must
    // not be able to tell the difference.
    std::vector<workload::Trace> control = traces;
    control[kFaultyTenant].ops =
        control[kFaultyTenant].ops.prefix(cell.faultOp);
    const sim::MultiTenantBenchResult ctrl =
        sim::runMultiTenantBenchmark(profile, base,
                                     sim::MachineProfile::x86(),
                                     &control);
    cell.controlOpsPerSec = ctrl.mutatorOpsPerSec;
    for (const tenant::TenantResult &t : m.tenants) {
        if (t.tenantId == kFaultyTenant)
            continue;
        const tenant::TenantResult *c =
            findTenant(ctrl.run, t.tenantId);
        if (!c || tenantFingerprint(t) != tenantFingerprint(*c)) {
            std::printf("FAILED [%s]: survivor %llu diverged from "
                        "the control run\n",
                        heapFaultKindName(kind),
                        static_cast<unsigned long long>(t.tenantId));
            cell.survivorMatch = false;
            cell.ok = false;
        }
    }

    cell.detText = std::string("cell ") + heapFaultKindName(kind) +
                   " plan=" + cfg.faultPlanText + "\n" +
                   faultLogText(m) + "pages_released=" +
                   std::to_string(cell.pagesReleased) + "\n";
    for (const tenant::TenantResult &t : m.tenants)
        cell.detText += "tenant " + std::to_string(t.tenantId) +
                        "\n" + tenantFingerprint(t);
    return cell;
}

/** One supervision-matrix cell: a sweeper fault plan against the
 *  domain of tenant 1 and the exact ladder response it must draw. */
struct SupervisionCell
{
    const char *name = "";
    const char *plan = ""; //!< sweeper-kind fault plan ("" = none)
    /** @name Expected victim-domain event counts */
    /// @{
    uint64_t stalls = 0;
    uint64_t retries = 0;
    uint64_t crashes = 0;
    uint64_t reassigns = 0;
    uint64_t stwCatchups = 0;
    uint64_t containments = 0;
    /// @}
    bool ok = true;
    bool survivorMatch = true;
    std::string detText;
};

/** The ladder rungs, one cell each, with sweeperRetries pinned to 2
 *  (each failed episode costs 1 stall + 2 retries before
 *  escalating). Strikes accumulate per domain across epochs. */
std::vector<SupervisionCell>
supervisionCells()
{
    std::vector<SupervisionCell> cells;
    cells.push_back({.name = "bg-parity", .detText = {}});
    cells.push_back({.name = "slow-recovers",
                     .plan = "sweeper-slow@1:1:2",
                     .stalls = 1, .retries = 2, .detText = {}});
    cells.push_back({.name = "stall-assist",
                     .plan = "sweeper-stall@1:1",
                     .stalls = 1, .retries = 2, .reassigns = 1,
                     .detText = {}});
    cells.push_back({.name = "stall-stw",
                     .plan = "sweeper-stall@1:1,sweeper-stall@1:2",
                     .stalls = 2, .retries = 4, .reassigns = 1,
                     .stwCatchups = 1, .detText = {}});
    cells.push_back({.name = "stall-contain",
                     .plan = "sweeper-stall@1:1,sweeper-stall@1:2,"
                             "sweeper-stall@1:3",
                     .stalls = 3, .retries = 6, .reassigns = 1,
                     .stwCatchups = 1, .containments = 1,
                     .detText = {}});
    cells.push_back({.name = "crash-assist",
                     .plan = "sweeper-crash@1:1",
                     .crashes = 1, .reassigns = 1, .detText = {}});
    return cells;
}

/** Run one supervision cell and gate it against @p control (the
 *  sweeper-off run over the same traces). */
SupervisionCell
runSupervisionCell(SupervisionCell cell,
                   const workload::BenchmarkProfile &profile,
                   const sim::ExperimentConfig &base,
                   const std::vector<workload::Trace> &traces,
                   const tenant::MultiTenantResult &control)
{
    sim::ExperimentConfig cfg = base;
    cfg.bgSweeper = true;
    cfg.sweeperRetries = 2; // the expected counts assume this
    cfg.faultPlanText = cell.plan;
    const sim::MultiTenantBenchResult res =
        sim::runMultiTenantBenchmark(profile, cfg,
                                     sim::MachineProfile::x86(),
                                     &traces);
    const tenant::MultiTenantResult &m = res.run;

    // Count the victim domain's ladder events; Dispatch/Completed
    // pairs from healthy epochs (every domain has them) are not
    // part of the expectation.
    uint64_t stalls = 0, retries = 0, crashes = 0, reassigns = 0,
             stw = 0, contain = 0;
    for (const revoke::SweeperEvent &ev : m.sweeperEvents) {
        if (ev.domain != kFaultyTenant)
            continue;
        switch (ev.kind) {
          case revoke::SweeperEventKind::StallDetected: ++stalls; break;
          case revoke::SweeperEventKind::Retry: ++retries; break;
          case revoke::SweeperEventKind::Crash: ++crashes; break;
          case revoke::SweeperEventKind::ReassignToAssist:
            ++reassigns;
            break;
          case revoke::SweeperEventKind::StwCatchup: ++stw; break;
          case revoke::SweeperEventKind::Containment:
            ++contain;
            break;
          default: break;
        }
    }
    if (stalls != cell.stalls || retries != cell.retries ||
        crashes != cell.crashes || reassigns != cell.reassigns ||
        stw != cell.stwCatchups || contain != cell.containments) {
        std::printf(
            "FAILED [supervision %s]: event counts "
            "stall/retry/crash/assist/stw/contain = "
            "%llu/%llu/%llu/%llu/%llu/%llu, expected "
            "%llu/%llu/%llu/%llu/%llu/%llu\n",
            cell.name, static_cast<unsigned long long>(stalls),
            static_cast<unsigned long long>(retries),
            static_cast<unsigned long long>(crashes),
            static_cast<unsigned long long>(reassigns),
            static_cast<unsigned long long>(stw),
            static_cast<unsigned long long>(contain),
            static_cast<unsigned long long>(cell.stalls),
            static_cast<unsigned long long>(cell.retries),
            static_cast<unsigned long long>(cell.crashes),
            static_cast<unsigned long long>(cell.reassigns),
            static_cast<unsigned long long>(cell.stwCatchups),
            static_cast<unsigned long long>(cell.containments));
        cell.ok = false;
    }

    if (cell.containments > 0) {
        // Rung 3 must retire exactly the victim via the standard
        // containment path, stamped as an organic (not replayer-
        // injected) sweeper failure...
        if (m.faultsContained != 1 || m.faults.size() != 1 ||
            m.faults[0].kind != HeapFaultKind::SweeperFailure ||
            m.faults[0].tenantId != kFaultyTenant ||
            m.faults[0].injected) {
            std::printf("FAILED [supervision %s]: expected one "
                        "organic sweeper-failure containment of "
                        "tenant %llu\n",
                        cell.name,
                        static_cast<unsigned long long>(
                            kFaultyTenant));
            cell.ok = false;
        }
        // ...with the survivors bit-identical to a sweeper-off
        // control whose victim trace simply ends at the fault op.
        if (cell.ok) {
            std::vector<workload::Trace> cut = traces;
            cut[kFaultyTenant].ops =
                cut[kFaultyTenant].ops.prefix(m.faults[0].opIndex);
            const sim::MultiTenantBenchResult ctrl =
                sim::runMultiTenantBenchmark(
                    profile, base, sim::MachineProfile::x86(), &cut);
            for (const tenant::TenantResult &t : m.tenants) {
                if (t.tenantId == kFaultyTenant)
                    continue;
                const tenant::TenantResult *c =
                    findTenant(ctrl.run, t.tenantId);
                if (!c ||
                    tenantFingerprint(t) != tenantFingerprint(*c)) {
                    cell.survivorMatch = false;
                    cell.ok = false;
                }
            }
        }
    } else {
        // Every other rung recovers the run: all tenants finish and
        // every per-tenant statistic is bit-identical to the
        // sweeper-off control — the headline guarantee that the
        // racing background thread never perturbs modelled results.
        for (const tenant::TenantResult &t : m.tenants) {
            const tenant::TenantResult *c =
                findTenant(control, t.tenantId);
            if (t.opsApplied != t.opsTotal || !c ||
                tenantFingerprint(t) != tenantFingerprint(*c)) {
                cell.survivorMatch = false;
                cell.ok = false;
            }
        }
    }
    if (!cell.survivorMatch)
        std::printf("FAILED [supervision %s]: tenant statistics "
                    "diverged from the sweeper-off control\n",
                    cell.name);

    cell.detText = std::string("supervision ") + cell.name +
                   " plan=" + cell.plan + "\n";
    for (const revoke::SweeperEvent &ev : m.sweeperEvents)
        cell.detText += revoke::sweeperEventLine(ev) + "\n";
    cell.detText += faultLogText(m);
    for (const tenant::TenantResult &t : m.tenants)
        cell.detText += "tenant " + std::to_string(t.tenantId) +
                        "\n" + tenantFingerprint(t);
    return cell;
}

struct PressureResult
{
    bool ok = true;
    double budgetMiB = 0;
    uint64_t pressureEvents = 0;
    uint64_t pagesReclaimed = 0;
    uint64_t oomKills = 0;
    unsigned survivors = 0;
    std::string detText;
    double wallSec = 0; //!< reporting only
};

/** The memory-pressure cell: budget between one- and two-survivor
 *  residency, so the ladder must reclaim, then kill, then settle. */
PressureResult
runPressure(const workload::BenchmarkProfile &profile,
            const sim::ExperimentConfig &base,
            const std::vector<workload::Trace> &traces)
{
    PressureResult pr;

    // Calibrate against an unconstrained run: 60% of its peak
    // aggregate footprint is below three tenants' steady residency
    // but above two survivors', so the ladder has to escalate past
    // reclamation into an OOM-kill and then stabilise.
    const sim::MultiTenantBenchResult calib =
        sim::runMultiTenantBenchmark(profile, base,
                                     sim::MachineProfile::x86(),
                                     &traces);
    pr.budgetMiB = 0.6 *
                   static_cast<double>(
                       calib.run.peakAggFootprintBytes) /
                   MiB;

    sim::ExperimentConfig cfg = base;
    cfg.pageBudgetMiB = pr.budgetMiB;
    const sim::MultiTenantBenchResult res =
        sim::runMultiTenantBenchmark(profile, cfg,
                                     sim::MachineProfile::x86(),
                                     &traces);
    const tenant::MultiTenantResult &m = res.run;
    pr.pressureEvents = m.pressureEvents;
    pr.pagesReclaimed = m.pressurePagesReclaimed;
    pr.oomKills = m.oomKills;
    pr.wallSec = res.mutatorWallSec;
    for (const tenant::TenantResult &t : m.tenants)
        if (!t.faulted && t.opsApplied == t.opsTotal)
            ++pr.survivors;

    if (m.pressureEvents == 0) {
        std::printf("FAILED [pressure]: the %g MiB budget never "
                    "triggered the ladder\n",
                    pr.budgetMiB);
        pr.ok = false;
    }
    if (m.oomKills == 0) {
        std::printf("FAILED [pressure]: ladder never escalated to "
                    "an OOM-kill (%llu events, %llu pages "
                    "reclaimed)\n",
                    static_cast<unsigned long long>(
                        m.pressureEvents),
                    static_cast<unsigned long long>(
                        m.pressurePagesReclaimed));
        pr.ok = false;
    }
    for (const tenant::FaultRecord &f : m.faults) {
        if (f.kind != HeapFaultKind::OutOfMemory || f.injected) {
            std::printf("FAILED [pressure]: unexpected %s fault in "
                        "the pressure cell\n",
                        heapFaultKindName(f.kind));
            pr.ok = false;
        }
    }
    if (pr.survivors == 0) {
        std::printf("FAILED [pressure]: the ladder killed every "
                    "tenant — budget calibration too tight\n");
        pr.ok = false;
    }

    char buf[128];
    std::snprintf(buf, sizeof(buf), "pressure budget_mib=%.17g\n",
                  pr.budgetMiB);
    pr.detText = buf;
    pr.detText += faultLogText(m);
    for (const tenant::TenantResult &t : m.tenants)
        pr.detText += "tenant " + std::to_string(t.tenantId) + "\n" +
                      tenantFingerprint(t);
    return pr;
}

struct SeededResult
{
    bool ok = true;
    uint64_t seed = 0;
    std::string planText;
    uint64_t faultsContained = 0;
    std::string detText;
};

/** Seeded phase: generate the plan from a seed, check the plan and
 *  a full replay are deterministic functions of it. */
SeededResult
runSeeded(uint64_t seed, const workload::BenchmarkProfile &profile,
          const sim::ExperimentConfig &base,
          const std::vector<workload::Trace> &traces)
{
    SeededResult sr;
    sr.seed = seed;

    std::vector<uint64_t> ids(base.tenants), ops(base.tenants);
    for (unsigned i = 0; i < base.tenants; ++i) {
        ids[i] = i;
        ops[i] = traces[i].ops.size();
    }
    const FaultPlan plan = generateFaultPlan(seed, ids, ops);
    const FaultPlan again = generateFaultPlan(seed, ids, ops);
    sr.planText = plan.text();
    if (sr.planText != again.text() ||
        parseFaultPlan(sr.planText).text() != sr.planText) {
        std::printf("FAILED [seeded]: plan generation or the "
                    "parse round-trip is not deterministic\n");
        sr.ok = false;
        return sr;
    }

    sim::ExperimentConfig cfg = base;
    cfg.faultSeed = seed;
    const sim::MultiTenantBenchResult a =
        sim::runMultiTenantBenchmark(profile, cfg,
                                     sim::MachineProfile::x86(),
                                     &traces);
    const sim::MultiTenantBenchResult b =
        sim::runMultiTenantBenchmark(profile, cfg,
                                     sim::MachineProfile::x86(),
                                     &traces);
    sr.faultsContained = a.run.faultsContained;

    auto det = [](const sim::MultiTenantBenchResult &r) {
        std::string out = faultLogText(r.run);
        for (const tenant::TenantResult &t : r.run.tenants)
            out += "tenant " + std::to_string(t.tenantId) + "\n" +
                   tenantFingerprint(t);
        return out;
    };
    sr.detText = "seeded plan=" + sr.planText + "\n" + det(a);
    if (det(a) != det(b)) {
        std::printf("FAILED [seeded]: two replays of seed %llu "
                    "diverged\n",
                    static_cast<unsigned long long>(seed));
        sr.ok = false;
    }
    if (a.run.faultsContained == 0) {
        std::printf("FAILED [seeded]: the seeded plan contained no "
                    "fault\n");
        sr.ok = false;
    }
    return sr;
}

struct Pass
{
    bool ok = true;
    std::vector<Cell> cells;
    std::vector<SupervisionCell> supervision;
    PressureResult pressure;
    SeededResult seeded;
    std::string detText;
};

Pass
runPass(uint64_t seed, const workload::BenchmarkProfile &profile,
        const sim::ExperimentConfig &base,
        const std::vector<workload::Trace> &traces,
        bool supervision_only)
{
    Pass pass;
    if (!supervision_only) {
        for (size_t k = 0; k < kNumHeapFaultKinds; ++k) {
            Cell cell = runCell(static_cast<HeapFaultKind>(k),
                                profile, base, traces);
            pass.ok &= cell.ok;
            pass.detText += cell.detText;
            pass.cells.push_back(std::move(cell));
        }
    }
    // The sweeper-off control every supervision cell diffs against.
    const sim::MultiTenantBenchResult control =
        sim::runMultiTenantBenchmark(profile, base,
                                     sim::MachineProfile::x86(),
                                     &traces);
    for (SupervisionCell cell : supervisionCells()) {
        cell = runSupervisionCell(cell, profile, base, traces,
                                  control.run);
        pass.ok &= cell.ok;
        pass.detText += cell.detText;
        pass.supervision.push_back(std::move(cell));
    }
    if (!supervision_only) {
        pass.pressure = runPressure(profile, base, traces);
        pass.ok &= pass.pressure.ok;
        pass.detText += pass.pressure.detText;
        pass.seeded = runSeeded(seed, profile, base, traces);
        pass.ok &= pass.seeded.ok;
        pass.detText += pass.seeded.detText;
    }
    return pass;
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

int
main()
{
    bench::printSystems("Fault-containment chaos matrix "
                        "(bench/fault_matrix)");

    const workload::BenchmarkProfile profile = faultProfile();
    const sim::ExperimentConfig base = baseConfig();
    bench::printKnobs();
    const bool supervision_only =
        envI64("CHERIVOKE_FAULT_SUPERVISION_ONLY", 0, 0) != 0;
    const uint64_t seed =
        base.faultSeed ? base.faultSeed : 0xC0FFEEULL;

    // One recording, through the binary codec, shared by every cell
    // and both determinism passes.
    const std::vector<workload::Trace> traces = codecRoundTrip(
        sim::synthesizeTenantTraces(profile, base));

    Pass a = runPass(seed, profile, base, traces, supervision_only);
    const Pass b =
        runPass(seed, profile, base, traces, supervision_only);
    bool ok = a.ok && b.ok;

    const bool rerun_identical = a.detText == b.detText;
    if (!rerun_identical) {
        std::printf("FAILED: the matrix is not deterministic — two "
                    "same-seed passes produced different "
                    "statistics\n");
        ok = false;
    }

    if (!supervision_only) {
        std::printf("%-18s %-10s %9s %14s %12s %12s\n", "kind",
                    "contained", "fault op", "pages released",
                    "contain ms", "survivors");
        for (const Cell &c : a.cells) {
            std::printf(
                "%-18s %-10s %9llu %14llu %12.3f %12s\n",
                heapFaultKindName(c.kind), c.ok ? "yes" : "NO",
                static_cast<unsigned long long>(c.faultOp),
                static_cast<unsigned long long>(c.pagesReleased),
                c.containSec * 1e3,
                c.survivorMatch ? "bit-identical" : "DIVERGED");
        }
    }
    std::printf("\n%-15s %-42s %-6s %s\n", "supervision",
                "plan", "ok", "events s/r/c/a/w/x");
    for (const SupervisionCell &c : a.supervision) {
        std::printf("%-15s %-42s %-6s "
                    "%llu/%llu/%llu/%llu/%llu/%llu\n",
                    c.name, c.plan[0] ? c.plan : "(none)",
                    c.ok ? "yes" : "NO",
                    static_cast<unsigned long long>(c.stalls),
                    static_cast<unsigned long long>(c.retries),
                    static_cast<unsigned long long>(c.crashes),
                    static_cast<unsigned long long>(c.reassigns),
                    static_cast<unsigned long long>(c.stwCatchups),
                    static_cast<unsigned long long>(c.containments));
    }

    if (!supervision_only) {
        std::printf(
            "\npressure: budget %.2f MiB, %llu ladder events, "
            "%llu pages reclaimed, %llu OOM-kill(s), %u "
            "survivor(s)\n",
            a.pressure.budgetMiB,
            static_cast<unsigned long long>(
                a.pressure.pressureEvents),
            static_cast<unsigned long long>(
                a.pressure.pagesReclaimed),
            static_cast<unsigned long long>(a.pressure.oomKills),
            a.pressure.survivors);
        std::printf(
            "seeded: seed %llu -> plan %s (%llu contained)\n\n",
            static_cast<unsigned long long>(seed),
            a.seeded.planText.c_str(),
            static_cast<unsigned long long>(
                a.seeded.faultsContained));
    }

    // The reduced TSan configuration emits no artifact: a subset
    // run must never become the regression baseline.
    FILE *json = supervision_only
                     ? nullptr
                     : std::fopen("BENCH_fault.json", "w");
    if (json) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"bench\": \"fault_matrix\",\n");
        std::fprintf(json, "  \"deterministic\": {\n");
        std::fprintf(json, "    \"seed\": %llu,\n",
                     static_cast<unsigned long long>(seed));
        std::fprintf(json, "    \"seeded_plan\": \"%s\",\n",
                     a.seeded.planText.c_str());
        std::fprintf(json, "    \"cells\": [\n");
        for (size_t i = 0; i < a.cells.size(); ++i) {
            const Cell &c = a.cells[i];
            std::fprintf(
                json,
                "      {\"kind\": \"%s\", \"contained\": %s, "
                "\"fault_op\": %llu, \"pages_released\": %llu, "
                "\"survivors_bit_identical\": %s}%s\n",
                heapFaultKindName(c.kind), c.ok ? "true" : "false",
                static_cast<unsigned long long>(c.faultOp),
                static_cast<unsigned long long>(c.pagesReleased),
                c.survivorMatch ? "true" : "false",
                i + 1 < a.cells.size() ? "," : "");
        }
        std::fprintf(json, "    ],\n");
        std::fprintf(json, "    \"supervision\": [\n");
        for (size_t i = 0; i < a.supervision.size(); ++i) {
            const SupervisionCell &c = a.supervision[i];
            std::fprintf(
                json,
                "      {\"cell\": \"%s\", \"plan\": \"%s\", "
                "\"ok\": %s, \"stalls\": %llu, \"retries\": %llu, "
                "\"crashes\": %llu, \"reassigns\": %llu, "
                "\"stw_catchups\": %llu, \"containments\": %llu, "
                "\"survivors_bit_identical\": %s}%s\n",
                c.name, c.plan, c.ok ? "true" : "false",
                static_cast<unsigned long long>(c.stalls),
                static_cast<unsigned long long>(c.retries),
                static_cast<unsigned long long>(c.crashes),
                static_cast<unsigned long long>(c.reassigns),
                static_cast<unsigned long long>(c.stwCatchups),
                static_cast<unsigned long long>(c.containments),
                c.survivorMatch ? "true" : "false",
                i + 1 < a.supervision.size() ? "," : "");
        }
        std::fprintf(json, "    ],\n");
        std::fprintf(json, "    \"pressure\": {\"events\": %llu, "
                           "\"pages_reclaimed\": %llu, "
                           "\"oom_kills\": %llu, "
                           "\"survivors\": %u},\n",
                     static_cast<unsigned long long>(
                         a.pressure.pressureEvents),
                     static_cast<unsigned long long>(
                         a.pressure.pagesReclaimed),
                     static_cast<unsigned long long>(
                         a.pressure.oomKills),
                     a.pressure.survivors);
        std::fprintf(json, "    \"fingerprint\": \"%016llx\",\n",
                     static_cast<unsigned long long>(
                         fnv1a(a.detText)));
        std::fprintf(json, "    \"rerun_identical\": %s\n",
                     rerun_identical ? "true" : "false");
        std::fprintf(json, "  },\n");
        std::fprintf(json, "  \"reporting\": {\n");
        std::fprintf(json, "    \"cells\": [\n");
        for (size_t i = 0; i < a.cells.size(); ++i) {
            const Cell &c = a.cells[i];
            std::fprintf(
                json,
                "      {\"kind\": \"%s\", "
                "\"containment_sec\": %.6g, "
                "\"faulted_ops_per_sec\": %.6g, "
                "\"control_ops_per_sec\": %.6g}%s\n",
                heapFaultKindName(c.kind), c.containSec,
                c.faultedOpsPerSec, c.controlOpsPerSec,
                i + 1 < a.cells.size() ? "," : "");
        }
        std::fprintf(json, "    ],\n");
        std::fprintf(json,
                     "    \"pressure_wall_sec\": %.6g,\n",
                     a.pressure.wallSec);
        std::fprintf(json, "    \"pressure_budget_mib\": %.6g\n",
                     a.pressure.budgetMiB);
        std::fprintf(json, "  },\n");
        std::fprintf(json, "  \"ok\": %s\n", ok ? "true" : "false");
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("wrote BENCH_fault.json\n");
    }

    if (ok && supervision_only) {
        std::printf("OK: %zu supervision rungs fired as planned "
                    "(reduced supervision-only run), deterministic "
                    "replay\n",
                    a.supervision.size());
    } else if (ok) {
        std::printf("OK: %zu fault kinds contained, %zu supervision "
                    "rungs fired as planned, pressure ladder "
                    "killed %llu and spared %u, deterministic "
                    "replay\n",
                    kNumHeapFaultKinds, a.supervision.size(),
                    static_cast<unsigned long long>(
                        a.pressure.oomKills),
                    a.pressure.survivors);
    } else {
        std::printf("FAILED: see gates above\n");
    }
    return ok ? 0 : 1;
}
