/**
 * @file
 * The supervised background revocation thread: the BackgroundSweeper
 * state machine in isolation (dispatch/slice/cancel/crash/stall/slow
 * transitions, watermark and heartbeat publication), the headline
 * modelled-statistics parity guarantee (a run with the sweeper
 * genuinely racing the mutators is bit-identical to the
 * mutator-assist build), deterministic per-slice logs, the injected
 * degradation-ladder walks through the engine, and containment of a
 * terminally failing domain through the TenantManager.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/background_sweeper.hh"
#include "revoke/revocation_engine.hh"
#include "support/clock.hh"
#include "support/fault.hh"
#include "tenant/tenant_manager.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

namespace cherivoke {
namespace revoke {
namespace {

using alloc::CherivokeAllocator;

/**
 * The watchdog clock for every engine here. It never advances, so a
 * running worker can never overrun its deadline however loaded the
 * host is: only the injected sweeper states drive the ladder.
 */
support::FakeClock frozen_clock;

/** A trace sized to trigger a dozen-odd epochs. */
workload::Trace
sweepTrace(uint64_t seed = 7)
{
    workload::BenchmarkProfile profile =
        workload::profileFor("dealII");
    workload::SynthConfig cfg;
    cfg.scale = 1.0 / 512;
    cfg.durationSec = 10.0;
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
// BackgroundSweeper state machine in isolation.
// ---------------------------------------------------------------

TEST(BackgroundSweeperUnit, EmptyWorklistCompletesImmediately)
{
    BackgroundSweeper bg;
    // No caps anywhere, so the shadow map is never consulted and a
    // null shadow is safe.
    bg.dispatch(FrozenWorklist{}, nullptr, 4,
                BackgroundSweeper::Inject::None, 1);
    bg.cancel(); // doubles as join
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Done);
    EXPECT_EQ(bg.watermark(), 0u);
    EXPECT_TRUE(bg.sliceLogs().empty());
}

TEST(BackgroundSweeperUnit, CapFreePagesSliceDeterministically)
{
    FrozenWorklist wl;
    for (int i = 0; i < 10; ++i)
        wl.pages.push_back({static_cast<uint64_t>(i) * kPageBytes,
                            0, 0}); // no caps: shadow never touched

    BackgroundSweeper bg;
    bg.dispatch(std::move(wl), nullptr, 4,
                BackgroundSweeper::Inject::None, 1);
    EXPECT_TRUE(bg.waitProgress(10, 1'000'000'000));
    bg.cancel();
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Done);
    EXPECT_EQ(bg.watermark(), 10u);
    // 10 pages in slices of 4: [0,4) [4,8) [8,10), always.
    ASSERT_EQ(bg.sliceLogs().size(), 3u);
    EXPECT_EQ(bg.sliceLogs()[0].firstPage, 0u);
    EXPECT_EQ(bg.sliceLogs()[0].pages, 4u);
    EXPECT_EQ(bg.sliceLogs()[1].firstPage, 4u);
    EXPECT_EQ(bg.sliceLogs()[2].pages, 2u);
    EXPECT_GE(bg.heartbeats(), 3u);
}

TEST(BackgroundSweeperUnit, CrashInjectionDiesBeforeAnySlice)
{
    FrozenWorklist wl;
    wl.pages.push_back({0, 0, 0});
    BackgroundSweeper bg;
    bg.dispatch(std::move(wl), nullptr, 1,
                BackgroundSweeper::Inject::Crash, 1);
    // The corpse is observable without any timeout machinery: the
    // worker transitions before releasing its first progress notify.
    EXPECT_FALSE(bg.waitProgress(1, 1'000'000'000));
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Crashed);
    EXPECT_EQ(bg.watermark(), 0u);
}

TEST(BackgroundSweeperUnit, StallHoldsUntilCancel)
{
    FrozenWorklist wl;
    wl.pages.push_back({0, 0, 0});
    BackgroundSweeper bg;
    bg.dispatch(std::move(wl), nullptr, 1,
                BackgroundSweeper::Inject::Stall, 1);
    EXPECT_FALSE(bg.waitProgress(1, 1'000'000'000));
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Stalled);
    bg.nudge(); // nudges never rescue a hard stall
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Stalled);
    bg.cancel();
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Cancelled);
    EXPECT_EQ(bg.watermark(), 0u);
}

TEST(BackgroundSweeperUnit, SlowRecoversAfterFactorNudges)
{
    FrozenWorklist wl;
    for (int i = 0; i < 3; ++i)
        wl.pages.push_back({static_cast<uint64_t>(i) * kPageBytes,
                            0, 0});
    BackgroundSweeper bg;
    bg.dispatch(std::move(wl), nullptr, 8,
                BackgroundSweeper::Inject::Slow, 2);
    EXPECT_FALSE(bg.waitProgress(1, 1'000'000'000));
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Stalled);
    bg.nudge(); // credit 1 of 2
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Stalled);
    bg.nudge(); // final credit: resumes synchronously
    EXPECT_NE(bg.state(), BackgroundSweeper::State::Stalled);
    EXPECT_TRUE(bg.waitProgress(3, 1'000'000'000));
    bg.cancel();
    EXPECT_EQ(bg.state(), BackgroundSweeper::State::Done);
}

TEST(BackgroundSweeperUnit, RedispatchAfterEveryTerminalState)
{
    BackgroundSweeper bg;
    for (int round = 0; round < 3; ++round) {
        FrozenWorklist wl;
        wl.pages.push_back({0, 0, 0});
        bg.dispatch(std::move(wl), nullptr, 1,
                    round == 1 ? BackgroundSweeper::Inject::Crash
                               : BackgroundSweeper::Inject::None,
                    1);
        bg.cancel();
        const BackgroundSweeper::State state = bg.state();
        EXPECT_TRUE(state == BackgroundSweeper::State::Done ||
                    state == BackgroundSweeper::State::Crashed ||
                    state == BackgroundSweeper::State::Cancelled);
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
        off.clock = &frozen_clock;
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
    on.clock = &frozen_clock;
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
    cfg.clock = &frozen_clock;
    return cfg;
}

TEST(SweeperLadder, SlowEpisodeRecoversOnRetries)
{
    const workload::Trace trace = sweepTrace();
    // Two retry credits, two watchdog retries: recovers in-episode.
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
    mgr_cfg.engine.clock = &frozen_clock;
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

} // namespace
} // namespace revoke
} // namespace cherivoke
