/**
 * @file
 * Background-sweeper supervision: the strike ledger and event
 * rendering, the modelled-statistics parity guarantee (a run with
 * the sweeper on is bit-identical to the mutator-assist build), the
 * injected degradation-ladder walks through the engine, pinned line
 * for line, and containment of a terminally failing domain through
 * the TenantManager.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/revocation_engine.hh"
#include "revoke/supervisor.hh"
#include "support/fault.hh"
#include "tenant/tenant_manager.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

namespace cherivoke {
namespace revoke {
namespace {

using alloc::CherivokeAllocator;

/** A trace sized to trigger a dozen-odd epochs (fewer when
 *  @p duration_sec is cut below the default 10 s). */
workload::Trace
sweepTrace(uint64_t seed = 7, double duration_sec = 10.0)
{
    workload::BenchmarkProfile profile =
        workload::profileFor("dealII");
    workload::SynthConfig cfg;
    cfg.scale = 1.0 / 512;
    cfg.durationSec = duration_sec;
    cfg.seed = seed;
    return workload::synthesize(profile, cfg);
}

struct RunOutput
{
    SweepStats sweep;
    alloc::PaintStats paint;
    uint64_t epochs = 0;
    uint64_t slices = 0;
    uint64_t internalFrees = 0;
    std::vector<SweeperEvent> events;
};

RunOutput
runWithEngine(const EngineConfig &ecfg, const workload::Trace &trace)
{
    mem::AddressSpace space;
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = 0.05;
    acfg.minQuarantineBytes = 16 * KiB;
    CherivokeAllocator allocator(space, acfg);
    RevocationEngine engine(allocator, space, ecfg);
    workload::TraceDriver driver(space, allocator, &engine);
    driver.run(trace, nullptr);

    RunOutput out;
    out.sweep = engine.totals().sweep;
    out.paint = engine.totals().paint;
    out.epochs = engine.totals().epochs;
    out.slices = engine.totals().slices;
    out.internalFrees = engine.totals().internalFrees;
    out.events = engine.sweeperEvents();
    return out;
}

std::string
eventsText(const std::vector<SweeperEvent> &events)
{
    std::string out;
    for (const SweeperEvent &ev : events)
        out += sweeperEventLine(ev) + "\n";
    return out;
}

uint64_t
countKind(const std::vector<SweeperEvent> &events,
          SweeperEventKind kind)
{
    uint64_t n = 0;
    for (const SweeperEvent &ev : events)
        n += ev.kind == kind ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------
// The strike ledger and event rendering.
// ---------------------------------------------------------------

TEST(SweeperSupervisor, StrikesAccumulateAndReset)
{
    SweeperSupervisor sup;
    EXPECT_EQ(sup.strikes(3), 0u);
    EXPECT_EQ(sup.addStrike(3), 1u);
    EXPECT_EQ(sup.addStrike(3), 2u);
    EXPECT_EQ(sup.addStrike(1), 1u);
    EXPECT_EQ(sup.strikes(3), 2u);
    sup.resetStrikes(3); // slot reuse: a new tenant starts clean
    EXPECT_EQ(sup.strikes(3), 0u);
    EXPECT_EQ(sup.strikes(1), 1u);
    EXPECT_EQ(sup.addStrike(3), 1u);
}

TEST(SweeperSupervisor, EventLogAndRendering)
{
    SweeperSupervisor sup;
    sup.record({SweeperEventKind::Dispatch, 1, 4, 77, 0});
    sup.record({SweeperEventKind::ReassignToAssist, 1, 4, 12, 2});
    ASSERT_EQ(sup.events().size(), 2u);
    EXPECT_EQ(sweeperEventLine(sup.events()[0]),
              "dispatch@d1:e4 pages=77 attempt=0");
    EXPECT_EQ(sweeperEventLine(sup.events()[1]),
              "reassign-to-assist@d1:e4 pages=12 attempt=2");
}

TEST(SweeperSupervisor, EveryEventKindHasAName)
{
    for (size_t k = 0; k < kNumSweeperEventKinds; ++k) {
        const char *name =
            sweeperEventKindName(static_cast<SweeperEventKind>(k));
        EXPECT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

// ---------------------------------------------------------------
// The parity guarantee through the engine.
// ---------------------------------------------------------------

/** Bit-identical modelled statistics, background sweeper on or off,
 *  for every barrier-bearing policy (the race is realest under the
 *  incremental/concurrent slicing). */
TEST(BackgroundSweeperParity, ModeledStatsBitIdentical)
{
    const workload::Trace trace = sweepTrace();
    for (const PolicyKind policy :
         {PolicyKind::StopTheWorld, PolicyKind::Incremental,
          PolicyKind::Concurrent}) {
        EngineConfig off;
        off.policy = policy;
        off.pagesPerSlice = 8;
        EngineConfig on = off;
        on.backgroundSweeper = true;

        const RunOutput a = runWithEngine(off, trace);
        const RunOutput b = runWithEngine(on, trace);

        EXPECT_GT(a.epochs, 3u);
        EXPECT_EQ(a.sweep.pagesSwept, b.sweep.pagesSwept);
        EXPECT_EQ(a.sweep.linesSwept, b.sweep.linesSwept);
        EXPECT_EQ(a.sweep.capsExamined, b.sweep.capsExamined);
        EXPECT_EQ(a.sweep.capsRevoked, b.sweep.capsRevoked);
        EXPECT_EQ(a.paint.total(), b.paint.total());
        EXPECT_EQ(a.epochs, b.epochs);
        EXPECT_EQ(a.slices, b.slices);
        EXPECT_EQ(a.internalFrees, b.internalFrees);

        // The assist build records no sweeper activity at all; the
        // background build completes every epoch it dispatched.
        EXPECT_TRUE(a.events.empty());
        const uint64_t dispatches =
            countKind(b.events, SweeperEventKind::Dispatch);
        EXPECT_EQ(dispatches, b.epochs);
        EXPECT_EQ(countKind(b.events, SweeperEventKind::Completed),
                  dispatches);
        EXPECT_EQ(countKind(b.events,
                            SweeperEventKind::StallDetected),
                  0u);
    }
}

/** Two background runs over the same trace: the typed event log —
 *  epoch ordinals, page counts, attempts — is byte-identical. */
TEST(BackgroundSweeperParity, EventLogIsDeterministic)
{
    const workload::Trace trace = sweepTrace(9);
    EngineConfig on;
    on.policy = PolicyKind::Incremental;
    on.pagesPerSlice = 8;
    on.backgroundSweeper = true;
    const RunOutput a = runWithEngine(on, trace);
    const RunOutput b = runWithEngine(on, trace);
    EXPECT_FALSE(a.events.empty());
    EXPECT_EQ(eventsText(a.events), eventsText(b.events));
}

// ---------------------------------------------------------------
// Injected ladder walks through the engine.
// ---------------------------------------------------------------

EngineConfig
injectedConfig(std::vector<SweeperInjection> plan)
{
    EngineConfig cfg;
    cfg.policy = PolicyKind::Incremental;
    cfg.pagesPerSlice = 8;
    cfg.backgroundSweeper = true;
    cfg.sweeperRetries = 2;
    cfg.sweeperPlan = std::move(plan);
    return cfg;
}

TEST(SweeperLadder, SlowEpisodeRecoversOnRetries)
{
    const workload::Trace trace = sweepTrace();
    // Slow for two retries, two retries granted: recovers in-episode.
    const RunOutput out = runWithEngine(
        injectedConfig({{SweeperFaultKind::Slow, 0, 1, 2}}), trace);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::StallDetected),
              1u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::Retry), 2u);
    EXPECT_EQ(
        countKind(out.events, SweeperEventKind::ReassignToAssist),
        0u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::Completed),
              countKind(out.events, SweeperEventKind::Dispatch));
}

TEST(SweeperLadder, StallWalksRetriesThenReassigns)
{
    const workload::Trace trace = sweepTrace();
    const RunOutput out = runWithEngine(
        injectedConfig({{SweeperFaultKind::Stall, 0, 1, 1}}), trace);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::StallDetected),
              1u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::Retry), 2u);
    EXPECT_EQ(
        countKind(out.events, SweeperEventKind::ReassignToAssist),
        1u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::StwCatchup),
              0u);
}

TEST(SweeperLadder, SecondStrikeTriggersStwCatchup)
{
    const workload::Trace trace = sweepTrace();
    const RunOutput out = runWithEngine(
        injectedConfig({{SweeperFaultKind::Stall, 0, 1, 1},
                        {SweeperFaultKind::Stall, 0, 2, 1}}),
        trace);
    EXPECT_EQ(
        countKind(out.events, SweeperEventKind::ReassignToAssist),
        1u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::StwCatchup),
              1u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::Containment),
              0u);
    // The ladder is ordered: rung 1 strictly before rung 2.
    size_t reassign_at = 0, stw_at = 0;
    for (size_t i = 0; i < out.events.size(); ++i) {
        if (out.events[i].kind == SweeperEventKind::ReassignToAssist)
            reassign_at = i;
        if (out.events[i].kind == SweeperEventKind::StwCatchup)
            stw_at = i;
    }
    EXPECT_LT(reassign_at, stw_at);
}

TEST(SweeperLadder, CrashGoesStraightToTheLadder)
{
    const workload::Trace trace = sweepTrace();
    const RunOutput out = runWithEngine(
        injectedConfig({{SweeperFaultKind::Crash, 0, 1, 1}}), trace);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::Crash), 1u);
    EXPECT_EQ(countKind(out.events, SweeperEventKind::Retry), 0u);
    EXPECT_EQ(
        countKind(out.events, SweeperEventKind::ReassignToAssist),
        1u);
}

/** Injected episodes must not perturb the modelled statistics: the
 *  epoch falls back to the very assist path the stats come from. */
TEST(SweeperLadder, FailedEpisodesKeepStatsBitIdentical)
{
    const workload::Trace trace = sweepTrace();
    EngineConfig off;
    off.policy = PolicyKind::Incremental;
    off.pagesPerSlice = 8;
    const RunOutput a = runWithEngine(off, trace);
    const RunOutput b = runWithEngine(
        injectedConfig({{SweeperFaultKind::Stall, 0, 1, 1},
                        {SweeperFaultKind::Crash, 0, 3, 1}}),
        trace);
    EXPECT_EQ(a.sweep.capsExamined, b.sweep.capsExamined);
    EXPECT_EQ(a.sweep.capsRevoked, b.sweep.capsRevoked);
    EXPECT_EQ(a.sweep.pagesSwept, b.sweep.pagesSwept);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.internalFrees, b.internalFrees);
}

// ---------------------------------------------------------------
// Containment through the TenantManager.
// ---------------------------------------------------------------

tenant::TenantConfig
smallTenant(const std::string &name)
{
    tenant::TenantConfig cfg;
    cfg.name = name;
    cfg.alloc.quarantineFraction = 0.05;
    cfg.alloc.minQuarantineBytes = 16 * KiB;
    cfg.alloc.dl.initialHeapBytes = 256 * KiB;
    cfg.alloc.dl.growthChunkBytes = 128 * KiB;
    return cfg;
}

TEST(SweeperContainment, ThirdStrikeRetiresOnlyTheVictim)
{
    tenant::TenantManagerConfig mgr_cfg;
    mgr_cfg.engine.backgroundSweeper = true;
    mgr_cfg.engine.sweeperRetries = 2;
    mgr_cfg.faultPlan.sweeper = {
        {SweeperFaultKind::Stall, 1, 1, 1},
        {SweeperFaultKind::Stall, 1, 2, 1},
        {SweeperFaultKind::Stall, 1, 3, 1}};
    tenant::TenantManager manager(mgr_cfg);
    manager.addTenant(smallTenant("survivor"), sweepTrace(21));
    manager.addTenant(smallTenant("victim"), sweepTrace(22));
    const tenant::MultiTenantResult result = manager.run();

    // Rung counts: 1 reassign, 1 catch-up, then containment.
    EXPECT_EQ(result.sweeperStalls, 3u);
    EXPECT_EQ(result.sweeperRetries, 6u);
    EXPECT_EQ(result.sweeperReassigns, 1u);
    EXPECT_EQ(result.sweeperStwCatchups, 1u);
    EXPECT_EQ(result.sweeperContainments, 1u);

    // The victim was contained with an organic sweeper-failure
    // fault; the survivor finished untouched.
    EXPECT_EQ(result.faultsContained, 1u);
    ASSERT_EQ(result.faults.size(), 1u);
    EXPECT_EQ(result.faults[0].kind, HeapFaultKind::SweeperFailure);
    EXPECT_EQ(result.faults[0].tenantId, 1u);
    EXPECT_FALSE(result.faults[0].injected);
    ASSERT_EQ(result.tenants.size(), 2u);
    for (const tenant::TenantResult &t : result.tenants) {
        if (t.tenantId == 1) {
            EXPECT_TRUE(t.faulted);
            EXPECT_TRUE(t.retiredMidRun);
            EXPECT_EQ(t.faultKind, HeapFaultKind::SweeperFailure);
        } else {
            EXPECT_FALSE(t.faulted);
            EXPECT_EQ(t.opsApplied, t.opsTotal);
        }
    }
}

// ---------------------------------------------------------------
// The event stream itself, line for line.
// ---------------------------------------------------------------

/** One pinned supervision scenario and the exact stream it emits. */
struct PinnedStream
{
    const char *name = "";
    std::vector<SweeperInjection> plan;
    unsigned retries = 2;
    BackendKind backend = BackendKind::Sweep;
    /** Run two tenants (seeds 21 and 22) under a TenantManager
     *  instead of one engine over seed 7. */
    bool twoTenants = false;
    /** Every sweeperEventLine, in order, newline-terminated. */
    std::string events{};
    /** The HeapFault text the single-engine run ends with, if any. */
    std::string fault{};
};

/** Trace length for the pinned streams: a few epochs each, so the
 *  expected text stays short enough to read. */
constexpr double kPinnedSec = 4.0;

/** The full event text of one scenario, plus the fault it raised. */
std::pair<std::string, std::string>
pinnedStreamOf(const PinnedStream &c)
{
    EngineConfig cfg = injectedConfig(c.plan);
    cfg.sweeperRetries = c.retries;
    cfg.backend = c.backend;
    if (c.twoTenants) {
        tenant::TenantManagerConfig mgr_cfg;
        mgr_cfg.engine = cfg;
        tenant::TenantManager manager(mgr_cfg);
        manager.addTenant(smallTenant("t0"),
                          sweepTrace(21, kPinnedSec));
        manager.addTenant(smallTenant("t1"),
                          sweepTrace(22, kPinnedSec));
        return {eventsText(manager.run().sweeperEvents), ""};
    }
    mem::AddressSpace space;
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = 0.05;
    acfg.minQuarantineBytes = 16 * KiB;
    CherivokeAllocator allocator(space, acfg);
    RevocationEngine engine(allocator, space, cfg);
    workload::TraceDriver driver(space, allocator, &engine);
    std::string fault;
    try {
        driver.run(sweepTrace(7, kPinnedSec), nullptr);
    } catch (const HeapFault &err) {
        fault = err.what();
    }
    return {eventsText(engine.sweeperEvents()), fault};
}

/**
 * The ladder's exact output for each injected state, retry budget
 * and rung, recorded from the threaded supervisor: every domain,
 * epoch ordinal, page count and attempt, and the containment text.
 */
TEST(SweeperLadder, EventLinesArePinned)
{
    // Seed 7's four epochs, healthy; each case below afflicts one
    // or more of epochs 1-3 between dispatch and close.
    const std::string e0 = "dispatch@d0:e0 pages=396 attempt=0\n"
                           "completed@d0:e0 pages=396 attempt=0\n";
    const std::string open1 = "dispatch@d0:e1 pages=397 attempt=0\n";
    const std::string close1 =
        "completed@d0:e1 pages=397 attempt=0\n";
    const std::string e2 = "dispatch@d0:e2 pages=439 attempt=0\n"
                           "completed@d0:e2 pages=439 attempt=0\n";
    const std::string e3 = "dispatch@d0:e3 pages=465 attempt=0\n"
                           "completed@d0:e3 pages=465 attempt=0\n";
    const std::string stall1 =
        "stall-detected@d0:e1 pages=0 attempt=0\n"
        "retry@d0:e1 pages=0 attempt=1\n"
        "retry@d0:e1 pages=0 attempt=2\n"
        "reassign-to-assist@d0:e1 pages=0 attempt=2\n";

    const std::vector<PinnedStream> cases = {
        {.name = "crash",
         .plan = {{SweeperFaultKind::Crash, 0, 1, 1}},
         .events = e0 + open1 +
                   "crash@d0:e1 pages=0 attempt=0\n"
                   "reassign-to-assist@d0:e1 pages=0 attempt=0\n" +
                   e2 + e3},
        {.name = "stall",
         .plan = {{SweeperFaultKind::Stall, 0, 1, 1}},
         .events = e0 + open1 + stall1 + e2 + e3},
        {.name = "slow-1",
         .plan = {{SweeperFaultKind::Slow, 0, 1, 1}},
         .events = e0 + open1 +
                   "stall-detected@d0:e1 pages=0 attempt=0\n"
                   "retry@d0:e1 pages=0 attempt=1\n"
                   "completed@d0:e1 pages=397 attempt=1\n" +
                   e2 + e3},
        {.name = "slow-2",
         .plan = {{SweeperFaultKind::Slow, 0, 1, 2}},
         .events = e0 + open1 +
                   "stall-detected@d0:e1 pages=0 attempt=0\n"
                   "retry@d0:e1 pages=0 attempt=1\n"
                   "retry@d0:e1 pages=0 attempt=2\n"
                   "completed@d0:e1 pages=397 attempt=2\n" +
                   e2 + e3},
        {.name = "slow-3",
         .plan = {{SweeperFaultKind::Slow, 0, 1, 3}},
         .events = e0 + open1 + stall1 + e2 + e3},
        {.name = "stall-r0",
         .plan = {{SweeperFaultKind::Stall, 0, 1, 1}},
         .retries = 0,
         .events = e0 + open1 +
                   "stall-detected@d0:e1 pages=0 attempt=0\n"
                   "reassign-to-assist@d0:e1 pages=0 attempt=0\n" +
                   e2 + e3},
        {.name = "stall-r3",
         .plan = {{SweeperFaultKind::Stall, 0, 1, 1}},
         .retries = 3,
         .events = e0 + open1 +
                   "stall-detected@d0:e1 pages=0 attempt=0\n"
                   "retry@d0:e1 pages=0 attempt=1\n"
                   "retry@d0:e1 pages=0 attempt=2\n"
                   "retry@d0:e1 pages=0 attempt=3\n"
                   "reassign-to-assist@d0:e1 pages=0 attempt=3\n" +
                   e2 + e3},
        {.name = "two-strikes",
         .plan = {{SweeperFaultKind::Stall, 0, 1, 1},
                  {SweeperFaultKind::Stall, 0, 2, 1}},
         .events = e0 + open1 + stall1 +
                   "dispatch@d0:e2 pages=439 attempt=0\n"
                   "stall-detected@d0:e2 pages=0 attempt=0\n"
                   "retry@d0:e2 pages=0 attempt=1\n"
                   "retry@d0:e2 pages=0 attempt=2\n"
                   "stw-catchup@d0:e2 pages=0 attempt=2\n" +
                   e3},
        {.name = "three-strikes",
         .plan = {{SweeperFaultKind::Stall, 0, 1, 1},
                  {SweeperFaultKind::Stall, 0, 2, 1},
                  {SweeperFaultKind::Stall, 0, 3, 1}},
         .events = e0 + open1 + stall1 +
                   "dispatch@d0:e2 pages=439 attempt=0\n"
                   "stall-detected@d0:e2 pages=0 attempt=0\n"
                   "retry@d0:e2 pages=0 attempt=1\n"
                   "retry@d0:e2 pages=0 attempt=2\n"
                   "stw-catchup@d0:e2 pages=0 attempt=2\n"
                   "dispatch@d0:e3 pages=465 attempt=0\n"
                   "stall-detected@d0:e3 pages=0 attempt=0\n"
                   "retry@d0:e3 pages=0 attempt=1\n"
                   "retry@d0:e3 pages=0 attempt=2\n"
                   "containment@d0:e3 pages=0 attempt=2\n",
         .fault = "heap fault (sweeper-failure): domain 0 background "
                  "sweeper failed 3 epochs (stalled at page 0/465 of "
                  "epoch 3)"},
        {.name = "domain-1",
         .plan = {{SweeperFaultKind::Stall, 1, 1, 1}},
         .twoTenants = true,
         .events = "dispatch@d1:e0 pages=370 attempt=0\n"
                   "completed@d1:e0 pages=370 attempt=0\n"
                   "dispatch@d0:e0 pages=441 attempt=0\n"
                   "completed@d0:e0 pages=441 attempt=0\n"
                   "dispatch@d1:e1 pages=411 attempt=0\n"
                   "stall-detected@d1:e1 pages=0 attempt=0\n"
                   "retry@d1:e1 pages=0 attempt=1\n"
                   "retry@d1:e1 pages=0 attempt=2\n"
                   "reassign-to-assist@d1:e1 pages=0 attempt=2\n"
                   "dispatch@d1:e2 pages=421 attempt=0\n"
                   "completed@d1:e2 pages=421 attempt=0\n"
                   "dispatch@d0:e1 pages=475 attempt=0\n"
                   "completed@d0:e1 pages=475 attempt=0\n"
                   "dispatch@d1:e3 pages=419 attempt=0\n"
                   "completed@d1:e3 pages=419 attempt=0\n"
                   "dispatch@d0:e2 pages=490 attempt=0\n"
                   "completed@d0:e2 pages=490 attempt=0\n"
                   "dispatch@d0:e3 pages=489 attempt=0\n"
                   "completed@d0:e3 pages=489 attempt=0\n"},
        {.name = "never-opens",
         .plan = {{SweeperFaultKind::Stall, 0, 1000, 1}},
         .events = e0 + open1 + close1 + e2 + e3},
        {.name = "objid",
         .plan = {{SweeperFaultKind::Stall, 0, 1, 1}},
         .backend = BackendKind::ObjectId},
    };
    for (const PinnedStream &c : cases) {
        const auto [events, fault] = pinnedStreamOf(c);
        EXPECT_EQ(events, c.events) << c.name;
        EXPECT_EQ(fault, c.fault) << c.name;
    }
}

} // namespace
} // namespace revoke
} // namespace cherivoke
