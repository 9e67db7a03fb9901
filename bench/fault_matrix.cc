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
 *  - matrix determinism: the whole matrix runs twice and the two
 *    passes' rendered report blocks (fault and sweeper-event logs
 *    included, wall-clock excluded) must come out byte-identical.
 *
 * Results go to stdout and BENCH_fault.json: the report's
 * "deterministic" block is what the determinism gate compares, its
 * "timing" block holds containment latency and survivor throughput.
 *
 * Knobs: the shared engine knobs; the matrix pins tenants, scope,
 * policy and plan per cell (they are the experiment, not
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

#include "report.hh"
#include "support/fault.hh"

using namespace cherivoke;
using bench::Json;

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
baseConfig(sim::ExperimentConfig cfg)
{
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

const tenant::TenantResult *
findTenant(const tenant::MultiTenantResult &m, uint64_t id)
{
    for (const tenant::TenantResult &t : m.tenants)
        if (t.tenantId == id)
            return &t;
    return nullptr;
}

/** Every tenant of @p run but @p skip has a namesake in @p control
 *  with bit-identical statistics. */
bool
survivorsMatch(const tenant::MultiTenantResult &run,
               const tenant::MultiTenantResult &control,
               uint64_t skip)
{
    bool match = true;
    for (const tenant::TenantResult &t : run.tenants) {
        if (t.tenantId == skip)
            continue;
        const tenant::TenantResult *c = findTenant(control, t.tenantId);
        match = match && c && bench::tenantJson(t) == bench::tenantJson(*c);
    }
    return match;
}

struct Cell
{
    HeapFaultKind kind = HeapFaultKind::DoubleFree;
    bool ok = true;
    bool survivorMatch = true;
    uint64_t faultOp = 0;
    uint64_t pagesReleased = 0; //!< at the containment retire
    std::string plan;
    Json run; //!< the faulted run, rendered
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
    cell.plan = cfg.faultPlanText;
    cell.run = bench::multiTenantJson(faulted);
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
    if (!survivorsMatch(m, ctrl.run, kFaultyTenant)) {
        std::printf("FAILED [%s]: a survivor diverged from the "
                    "control run\n",
                    heapFaultKindName(kind));
        cell.survivorMatch = false;
        cell.ok = false;
    }
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
    Json events = Json::array(); //!< every SweeperEvent, as a line
    Json run = Json();
};

/** The ladder rungs, one cell each, with sweeperRetries pinned to 2
 *  (each failed episode costs 1 stall + 2 retries before
 *  escalating). Strikes accumulate per domain across epochs. */
std::vector<SupervisionCell>
supervisionCells()
{
    std::vector<SupervisionCell> cells;
    cells.push_back({.name = "bg-parity"});
    cells.push_back({.name = "slow-recovers",
                     .plan = "sweeper-slow@1:1:2",
                     .stalls = 1, .retries = 2});
    cells.push_back({.name = "stall-assist",
                     .plan = "sweeper-stall@1:1",
                     .stalls = 1, .retries = 2, .reassigns = 1});
    cells.push_back({.name = "stall-stw",
                     .plan = "sweeper-stall@1:1,sweeper-stall@1:2",
                     .stalls = 2, .retries = 4, .reassigns = 1,
                     .stwCatchups = 1});
    cells.push_back({.name = "stall-contain",
                     .plan = "sweeper-stall@1:1,sweeper-stall@1:2,"
                             "sweeper-stall@1:3",
                     .stalls = 3, .retries = 6, .reassigns = 1,
                     .stwCatchups = 1, .containments = 1});
    cells.push_back({.name = "crash-assist",
                     .plan = "sweeper-crash@1:1",
                     .crashes = 1, .reassigns = 1});
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
    // A deadline no run reaches: only the injected states drive the
    // ladder (an injected stall is walked with the watchdog's own
    // deadline as "now"), never a slow host's real clock.
    cfg.epochDeadlineMs = 1e9;
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
            cell.survivorMatch = survivorsMatch(
                m,
                sim::runMultiTenantBenchmark(
                    profile, base, sim::MachineProfile::x86(), &cut)
                    .run,
                kFaultyTenant);
        }
    } else {
        // Every other rung recovers the run: all tenants finish and
        // every per-tenant statistic is bit-identical to the
        // sweeper-off control — the headline guarantee that the
        // racing background thread never perturbs modelled results.
        for (const tenant::TenantResult &t : m.tenants)
            cell.survivorMatch &= t.opsApplied == t.opsTotal;
        cell.survivorMatch &= survivorsMatch(m, control, UINT64_MAX);
    }
    if (!cell.survivorMatch) {
        std::printf("FAILED [supervision %s]: tenant statistics "
                    "diverged from the sweeper-off control\n",
                    cell.name);
        cell.ok = false;
    }

    for (const revoke::SweeperEvent &ev : m.sweeperEvents)
        cell.events.push(revoke::sweeperEventLine(ev));
    cell.run = bench::multiTenantJson(res);
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
    Json run;
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

    pr.run = bench::multiTenantJson(res);
    return pr;
}

struct SeededResult
{
    bool ok = true;
    uint64_t seed = 0;
    std::string planText;
    uint64_t faultsContained = 0;
    Json run;
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
    sr.run = bench::multiTenantJson(a);
    if (sr.run != bench::multiTenantJson(b)) {
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
            pass.cells.push_back(runCell(static_cast<HeapFaultKind>(k),
                                         profile, base, traces));
            pass.ok &= pass.cells.back().ok;
        }
    }
    // The sweeper-off control every supervision cell diffs against.
    const sim::MultiTenantBenchResult control =
        sim::runMultiTenantBenchmark(profile, base,
                                     sim::MachineProfile::x86(),
                                     &traces);
    for (const SupervisionCell &cell : supervisionCells()) {
        pass.supervision.push_back(runSupervisionCell(
            cell, profile, base, traces, control.run));
        pass.ok &= pass.supervision.back().ok;
    }
    if (!supervision_only) {
        pass.pressure = runPressure(profile, base, traces);
        pass.ok &= pass.pressure.ok;
        pass.seeded = runSeeded(seed, profile, base, traces);
        pass.ok &= pass.seeded.ok;
    }
    return pass;
}

/** Everything a pass reproduces; two passes must render alike. */
Json
passJson(const Pass &pass)
{
    Json cells = Json::array(), supervision = Json::array();
    for (const Cell &c : pass.cells) {
        cells.push(Json()
                       .set("kind", heapFaultKindName(c.kind))
                       .set("contained", c.ok)
                       .set("fault_op", c.faultOp)
                       .set("pages_released", c.pagesReleased)
                       .set("survivors_bit_identical", c.survivorMatch)
                       .set("plan", c.plan)
                       .set("run", c.run));
    }
    for (const SupervisionCell &c : pass.supervision) {
        supervision.push(Json()
                             .set("cell", c.name)
                             .set("plan", c.plan)
                             .set("ok", c.ok)
                             .set("stalls", c.stalls)
                             .set("retries", c.retries)
                             .set("crashes", c.crashes)
                             .set("reassigns", c.reassigns)
                             .set("stw_catchups", c.stwCatchups)
                             .set("containments", c.containments)
                             .set("survivors_bit_identical",
                                  c.survivorMatch)
                             .set("events", c.events)
                             .set("run", c.run));
    }
    const PressureResult &p = pass.pressure;
    return Json()
        .set("seed", pass.seeded.seed)
        .set("seeded_plan", pass.seeded.planText)
        .set("seeded_run", pass.seeded.run)
        .set("cells", std::move(cells))
        .set("supervision", std::move(supervision))
        .set("pressure", Json()
                             .set("budget_mib", p.budgetMiB)
                             .set("events", p.pressureEvents)
                             .set("pages_reclaimed", p.pagesReclaimed)
                             .set("oom_kills", p.oomKills)
                             .set("survivors", p.survivors)
                             .set("run", p.run));
}

int
benchMain()
{
    bench::printSystems("Fault-containment chaos matrix "
                        "(bench/fault_matrix)");

    const workload::BenchmarkProfile profile = faultProfile();
    const sim::ExperimentConfig shared = bench::defaultConfig();
    const sim::ExperimentConfig base = baseConfig(shared);
    const bool supervision_only =
        knobInt("CHERIVOKE_FAULT_SUPERVISION_ONLY") != 0;
    announceEnvKnobs();
    const uint64_t seed =
        shared.faultSeed ? shared.faultSeed : 0xC0FFEEULL;

    // One recording, through the binary codec, shared by every cell
    // and both determinism passes.
    const std::vector<workload::Trace> traces = bench::codecRoundTrip(
        sim::synthesizeTenantTraces(profile, base));

    const Pass a = runPass(seed, profile, base, traces,
                           supervision_only);
    bench::Report report{"fault_matrix", passJson(a)};
    const Pass b = runPass(seed, profile, base, traces,
                           supervision_only);
    bool ok = a.ok && b.ok;

    const bool rerun_identical = report.deterministic == passJson(b);
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
    if (!supervision_only) {
        Json cells = Json::array();
        for (const Cell &c : a.cells) {
            cells.push(Json()
                           .set("kind", heapFaultKindName(c.kind))
                           .set("containment_sec", c.containSec)
                           .set("faulted_ops_per_sec", c.faultedOpsPerSec)
                           .set("control_ops_per_sec",
                                c.controlOpsPerSec));
        }
        report.deterministic.set("rerun_identical", rerun_identical)
            .set("ok", ok);
        report.timing.set("cells", std::move(cells))
            .set("pressure_wall_sec", a.pressure.wallSec);
        report.write("BENCH_fault.json");
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

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
