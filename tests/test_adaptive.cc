/**
 * @file
 * Tests for adaptive hierarchical revocation scheduling: the §6.1.3
 * analytical model's properties (monotonicity, saturation), the
 * AdaptiveController's control law (monotone response to free rate,
 * knob clamping, tier promote/demote hysteresis), the TierMap's
 * sound page-skip condition, birth stamps through the allocator and
 * quarantine, tier-scoped epochs on a live engine, bit-identical
 * two-run adaptive replay, and per-backend parity of the
 * non-adaptive paths.
 */

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "alloc/chunk.hh"
#include "revoke/adaptive.hh"
#include "revoke/analytical_model.hh"
#include "revoke/revocation_engine.hh"
#include "sim/experiment.hh"
#include "workload/spec_profiles.hh"

namespace cherivoke {
namespace revoke {
namespace {

using alloc::CherivokeAllocator;
using alloc::CherivokeConfig;
using cap::Capability;

// ---------------------------------------------------------------
// Analytical model (§6.1.3) properties
// ---------------------------------------------------------------

OverheadParams
baseParams()
{
    OverheadParams p;
    p.freeRateBytesPerSec = 100.0 * MiB;
    p.pointerDensity = 0.05;
    p.scanRateBytesPerSec = 10.0 * GiB;
    p.quarantineFraction = 0.25;
    return p;
}

TEST(AnalyticalModel, OverheadMonotoneInFreeRateAndDensity)
{
    OverheadParams p = baseParams();
    double prev = predictedRuntimeOverhead(p);
    for (double f = 200.0 * MiB; f <= 3200.0 * MiB; f *= 2) {
        p.freeRateBytesPerSec = f;
        const double cur = predictedRuntimeOverhead(p);
        EXPECT_GT(cur, prev);
        prev = cur;
    }
    p = baseParams();
    prev = predictedRuntimeOverhead(p);
    for (double d = 0.1; d <= 0.9; d += 0.2) {
        p.pointerDensity = d;
        const double cur = predictedRuntimeOverhead(p);
        EXPECT_GT(cur, prev);
        prev = cur;
    }
}

TEST(AnalyticalModel, OverheadInverseInScanRateAndQuarantine)
{
    OverheadParams p = baseParams();
    double prev = predictedRuntimeOverhead(p);
    for (double r = 20.0 * GiB; r <= 160.0 * GiB; r *= 2) {
        p.scanRateBytesPerSec = r;
        const double cur = predictedRuntimeOverhead(p);
        EXPECT_LT(cur, prev);
        prev = cur;
    }
    p = baseParams();
    prev = predictedRuntimeOverhead(p);
    for (double q = 0.30; q <= 0.95; q += 0.15) {
        p.quarantineFraction = q;
        const double cur = predictedRuntimeOverhead(p);
        EXPECT_LT(cur, prev);
        prev = cur;
    }
}

TEST(AnalyticalModel, DegenerateInputsSaturateWithoutNanOrInf)
{
    // Zero scan rate with a live free rate: saturated, finite.
    OverheadParams p = baseParams();
    p.scanRateBytesPerSec = 0;
    double v = predictedRuntimeOverhead(p);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 1e12);

    // Zero quarantine fraction: same saturation.
    p = baseParams();
    p.quarantineFraction = 0;
    v = predictedRuntimeOverhead(p);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 1e12);

    // Degenerate supply *and* demand: nothing to sweep, no cost.
    p = OverheadParams{};
    p.freeRateBytesPerSec = 0;
    p.scanRateBytesPerSec = 0;
    p.quarantineFraction = 0;
    EXPECT_EQ(predictedRuntimeOverhead(p), 0.0);

    // Negative inputs behave like zero, never produce NaN.
    p = baseParams();
    p.scanRateBytesPerSec = -5;
    EXPECT_TRUE(std::isfinite(predictedRuntimeOverhead(p)));

    EXPECT_TRUE(std::isfinite(sweepPeriodSeconds(64 * MiB, 0)));
    EXPECT_GT(sweepPeriodSeconds(64 * MiB, 0), 1e12);
    EXPECT_EQ(sweepPeriodSeconds(0, 0), 0.0);
    EXPECT_TRUE(std::isfinite(sweepSeconds(64 * MiB, 0)));
    EXPECT_GT(sweepSeconds(64 * MiB, 0), 1e12);
    EXPECT_EQ(sweepSeconds(0, 0), 0.0);
}

// ---------------------------------------------------------------
// AdaptiveController: control law
// ---------------------------------------------------------------

/** A steady-state epoch sample: @p freed bytes per model second
 *  against a fixed heap, sweep size and pointer density. */
EpochSample
steadySample(uint64_t freed, double hot_share = 0)
{
    EpochSample s;
    s.dtSeconds = 1.0;
    s.freedBytes = freed;
    s.liveBytes = 256 * MiB;
    s.sweptBytes = 128 * MiB;
    s.capsExamined = s.sweptBytes / (kCapBytes * 16); // D = 1/16
    s.kernelCycles = 0; // DRAM-bound under the cost model
    s.releasedBytes = freed;
    s.hotShare = hot_share;
    return s;
}

AdaptiveController::Pressure
steadyPressure()
{
    AdaptiveController::Pressure p;
    p.liveBytes = 256 * MiB;
    p.quarantinedBytes = 64 * MiB;
    p.fullSweepBytes = 256 * MiB;
    p.quarantineCeiling = 0.25;
    p.epochSeq = 1;
    p.attachSeq = 1;
    return p;
}

TEST(CostModelClock, AdvanceSecondsSaturates)
{
    CostModelClock clock;
    clock.advanceSeconds(1.5);
    EXPECT_EQ(clock.peekNs(), 1500000000u);
    // Non-positive and NaN steps leave the clock where it is.
    clock.advanceSeconds(-1);
    clock.advanceSeconds(std::nan(""));
    EXPECT_EQ(clock.peekNs(), 1500000000u);
    // A step past 2^64 - 1 ns, or a sum past it, stops there.
    clock.advanceSeconds(1e30);
    EXPECT_EQ(clock.peekNs(), UINT64_MAX);
    clock.set(UINT64_MAX - 5);
    clock.advanceSeconds(1e-6);
    EXPECT_EQ(clock.peekNs(), UINT64_MAX);
    clock.set(0);
    clock.advanceSeconds(std::numeric_limits<double>::infinity());
    EXPECT_EQ(clock.peekNs(), UINT64_MAX);
}

TEST(AdaptiveController, EmptyWindowUsesConservativeDefaults)
{
    const AdaptiveConfig cfg;
    AdaptiveController ctl(cfg);
    EXPECT_EQ(ctl.samples(), 0u);
    EXPECT_EQ(ctl.freeRate(), 0.0);
    EXPECT_EQ(ctl.pointerDensity(), 0.0);
    EXPECT_EQ(ctl.scanRate(), 0.0);

    const ScheduleDecision dec = ctl.decide(steadyPressure());
    EXPECT_DOUBLE_EQ(dec.triggerFraction, 0.25);
    EXPECT_EQ(dec.sweepThreads, 1u);
    EXPECT_EQ(dec.depth, cfg.tiers - 1); // full depth
    EXPECT_EQ(dec.minBirth, 0u);
    EXPECT_GE(dec.pagesPerSlice, cfg.minPagesPerSlice);
    EXPECT_LE(dec.pagesPerSlice, cfg.maxPagesPerSlice);
}

TEST(AdaptiveController, WindowedEstimatesMatchTheirDefinitions)
{
    const AdaptiveConfig cfg;
    AdaptiveController ctl(cfg);
    const EpochSample s = steadySample(32 * MiB);
    ctl.recordSample(s);
    ctl.recordSample(s);

    EXPECT_DOUBLE_EQ(ctl.freeRate(), 32.0 * MiB);
    EXPECT_DOUBLE_EQ(ctl.pointerDensity(), 1.0 / 16.0);
    // DRAM-bound: R = swept / (swept/dramRate + startup), per epoch.
    const double per_epoch =
        static_cast<double>(s.sweptBytes) / cfg.dramBytesPerSec +
        cfg.sweepStartupSeconds;
    EXPECT_DOUBLE_EQ(ctl.scanRate(),
                     2.0 * static_cast<double>(s.sweptBytes) /
                         (2.0 * per_epoch));
}

TEST(AdaptiveController, WindowSlidesAndDropsOldSamples)
{
    AdaptiveConfig cfg;
    cfg.windowEpochs = 4;
    AdaptiveController ctl(cfg);
    // Six old samples at one rate, then four at another: only the
    // last four survive in the window.
    for (int i = 0; i < 6; ++i)
        ctl.recordSample(steadySample(1 * MiB));
    for (int i = 0; i < 4; ++i)
        ctl.recordSample(steadySample(64 * MiB));
    EXPECT_EQ(ctl.samples(), 4u);
    EXPECT_DOUBLE_EQ(ctl.freeRate(), 64.0 * MiB);
}

TEST(AdaptiveController, ThreadsAndSliceRespondMonotonicallyToFreeRate)
{
    // Rising free rate shrinks the epoch period: the controller must
    // never respond with fewer threads or a larger slice.
    const AdaptiveConfig cfg;
    unsigned prev_threads = 0;
    size_t prev_slice = cfg.maxPagesPerSlice + 1;
    bool threads_moved = false, slice_moved = false;
    for (double f = 1.0 * MiB; f <= 16.0 * GiB; f *= 4) {
        AdaptiveController ctl(cfg);
        for (int i = 0; i < 4; ++i)
            ctl.recordSample(steadySample(static_cast<uint64_t>(f)));
        const ScheduleDecision dec = ctl.decide(steadyPressure());
        EXPECT_GE(dec.sweepThreads, prev_threads);
        EXPECT_LE(dec.pagesPerSlice, prev_slice);
        threads_moved |= prev_threads != 0 &&
                         dec.sweepThreads != prev_threads;
        slice_moved |= prev_slice <= cfg.maxPagesPerSlice &&
                       dec.pagesPerSlice != prev_slice;
        prev_threads = dec.sweepThreads;
        prev_slice = dec.pagesPerSlice;
    }
    // The sweep across five decades must actually exercise the law,
    // not sit at one clamp the whole way.
    EXPECT_TRUE(threads_moved);
    EXPECT_TRUE(slice_moved);
}

TEST(AdaptiveController, DecisionsClampAtKnobBounds)
{
    const AdaptiveConfig cfg;
    // Torrential frees: both knobs pinned at their aggressive bound.
    {
        AdaptiveController ctl(cfg);
        for (int i = 0; i < 4; ++i)
            ctl.recordSample(steadySample(1ULL << 40));
        const ScheduleDecision dec = ctl.decide(steadyPressure());
        EXPECT_EQ(dec.sweepThreads, cfg.maxSweepThreads);
        EXPECT_EQ(dec.pagesPerSlice, cfg.minPagesPerSlice);
    }
    // A trickle: both knobs pinned at their relaxed bound.
    {
        AdaptiveController ctl(cfg);
        for (int i = 0; i < 4; ++i)
            ctl.recordSample(steadySample(1));
        const ScheduleDecision dec = ctl.decide(steadyPressure());
        EXPECT_EQ(dec.sweepThreads, 1u);
        EXPECT_EQ(dec.pagesPerSlice, cfg.maxPagesPerSlice);
    }
}

TEST(AdaptiveController, TriggerNeverExceedsTheAllocatorCeiling)
{
    const AdaptiveConfig cfg;
    for (const double ceiling : {0.01, 0.05, 0.25, 0.5, 0.9}) {
        AdaptiveController ctl(cfg);
        for (int i = 0; i < 4; ++i)
            ctl.recordSample(steadySample(64 * MiB));
        AdaptiveController::Pressure p = steadyPressure();
        p.quarantineCeiling = ceiling;
        const ScheduleDecision dec = ctl.decide(p);
        EXPECT_LE(dec.triggerFraction, ceiling);
        EXPECT_GT(dec.triggerFraction, 0.0);
    }
}

TEST(AdaptiveController, TierHysteresisRequiresAFullStreak)
{
    AdaptiveConfig cfg;
    cfg.promoteAfter = 3;
    cfg.demoteAfter = 3;
    AdaptiveController ctl(cfg);

    // Two hot epochs then a borderline one: the mid band resets the
    // streak, so no promotion.
    ctl.recordSample(steadySample(1 * MiB, 0.9));
    ctl.recordSample(steadySample(1 * MiB, 0.9));
    EXPECT_EQ(ctl.promoteStreak(), 2u);
    EXPECT_FALSE(ctl.hotPromoted());
    ctl.recordSample(steadySample(1 * MiB, 0.4));
    EXPECT_EQ(ctl.promoteStreak(), 0u);
    EXPECT_FALSE(ctl.hotPromoted());

    // Three consecutive hot epochs promote.
    for (int i = 0; i < 3; ++i)
        ctl.recordSample(steadySample(1 * MiB, 0.9));
    EXPECT_TRUE(ctl.hotPromoted());

    // Two cold epochs are not enough to demote...
    ctl.recordSample(steadySample(1 * MiB, 0.1));
    ctl.recordSample(steadySample(1 * MiB, 0.1));
    EXPECT_EQ(ctl.demoteStreak(), 2u);
    EXPECT_TRUE(ctl.hotPromoted());
    // ...and a hot epoch resets the demote streak.
    ctl.recordSample(steadySample(1 * MiB, 0.9));
    EXPECT_EQ(ctl.demoteStreak(), 0u);

    // Three consecutive cold epochs demote.
    for (int i = 0; i < 3; ++i)
        ctl.recordSample(steadySample(1 * MiB, 0.1));
    EXPECT_FALSE(ctl.hotPromoted());
}

/** Pressure under which a promoted controller should choose a
 *  hot-tier scoped epoch. */
AdaptiveController::Pressure
shallowPressure(const AdaptiveConfig &cfg)
{
    AdaptiveController::Pressure p = steadyPressure();
    p.epochSeq = cfg.tierAgeEpochs + 8;
    p.attachSeq = 1;
    p.quarantinedBytes = 64 * MiB;
    p.hotBytes = 60 * MiB; // releasing hot clears the pressure
    p.hotSweepBytes = 32 * MiB;
    p.fullSweepBytes = 256 * MiB; // >> shallowMargin * hotSweepBytes
    return p;
}

AdaptiveController
promotedController(const AdaptiveConfig &cfg)
{
    AdaptiveController ctl(cfg);
    for (unsigned i = 0; i < cfg.promoteAfter + 1; ++i)
        ctl.recordSample(steadySample(16 * MiB, 0.9));
    return ctl;
}

TEST(AdaptiveController, ShallowEpochNeedsEveryConditionAtOnce)
{
    const AdaptiveConfig cfg;
    const AdaptiveController ctl = promotedController(cfg);

    // All conditions hold: hot-tier scoped epoch with the age cutoff.
    {
        const AdaptiveController::Pressure p = shallowPressure(cfg);
        const ScheduleDecision dec = ctl.decide(p);
        EXPECT_EQ(dec.depth, 0u);
        EXPECT_EQ(dec.minBirth,
                  p.epochSeq - cfg.tierAgeEpochs + 1);
    }
    // Not promoted: full depth no matter the pressure shape.
    {
        AdaptiveController fresh(cfg);
        fresh.recordSample(steadySample(16 * MiB, 0.9));
        const ScheduleDecision dec =
            fresh.decide(shallowPressure(cfg));
        EXPECT_EQ(dec.depth, cfg.tiers - 1);
        EXPECT_EQ(dec.minBirth, 0u);
    }
    // Cutoff at or before attach: pre-attach stores are unrecorded,
    // so the scoped skip is unsound and must not fire.
    {
        AdaptiveController::Pressure p = shallowPressure(cfg);
        p.attachSeq = p.epochSeq; // cutoff <= attachSeq
        EXPECT_EQ(ctl.decide(p).minBirth, 0u);
    }
    // Birth stamps saturated: cutoff can no longer be proven.
    {
        AdaptiveController::Pressure p = shallowPressure(cfg);
        p.epochSeq = alloc::kBirthSaturated + cfg.tierAgeEpochs;
        EXPECT_EQ(ctl.decide(p).minBirth, 0u);
    }
    // Tier-local walk not clearly cheaper than full depth.
    {
        AdaptiveController::Pressure p = shallowPressure(cfg);
        p.hotSweepBytes = p.fullSweepBytes;
        EXPECT_EQ(ctl.decide(p).minBirth, 0u);
    }
    // Releasing the hot bytes would not clear quarantine pressure.
    {
        AdaptiveController::Pressure p = shallowPressure(cfg);
        p.hotBytes = 1 * MiB;
        p.quarantinedBytes = 128 * MiB;
        EXPECT_EQ(ctl.decide(p).minBirth, 0u);
    }
    // A single-tier config never scopes.
    {
        AdaptiveConfig flat = cfg;
        flat.tiers = 1;
        const AdaptiveController one = promotedController(flat);
        const ScheduleDecision dec =
            one.decide(shallowPressure(flat));
        EXPECT_EQ(dec.depth, 0u); // tiers-1 == 0 is full depth
        EXPECT_EQ(dec.minBirth, 0u);
    }
}

// ---------------------------------------------------------------
// TierMap: sound page-skip condition
// ---------------------------------------------------------------

TEST(TierMap, TracksTaggedStoresPerPageAndEpoch)
{
    mem::AddressSpace space;
    auto &memory = space.memory();
    const uint64_t g0 = space.globals().base;
    const uint64_t g2 = g0 + 2 * kPageBytes;
    const Capability c =
        space.rootCap().setAddress(g0).setBounds(64);
    ASSERT_TRUE(c.tag());

    TierMap tm;
    tm.attach(memory, space.globals().base,
              space.globals().base + space.globals().size);
    EXPECT_TRUE(tm.attached());
    EXPECT_EQ(tm.seq(), 1u);
    EXPECT_EQ(tm.attachSeq(), 1u);

    memory.writeCap(g0, c); // epoch 1 store on page g0
    EXPECT_EQ(tm.pagesTracked(), 1u);
    tm.advanceEpoch();
    memory.writeCap(g2, c); // epoch 2 store on page g2
    EXPECT_EQ(tm.pagesTracked(), 2u);

    // min_birth 0 means unscoped: everything qualifies.
    EXPECT_TRUE(tm.pageMayHoldYoung(g0, 0));
    // min_birth <= attachSeq: pre-attach stores were unrecorded, so
    // no skip is provable.
    EXPECT_TRUE(tm.pageMayHoldYoung(g0, 1));
    // Cutoff 2: g0's last store predates it (skippable), g2's does
    // not, and a never-stored in-range page is skippable too.
    EXPECT_FALSE(tm.pageMayHoldYoung(g0, 2));
    EXPECT_TRUE(tm.pageMayHoldYoung(g2, 2));
    EXPECT_FALSE(tm.pageMayHoldYoung(g0 + 5 * kPageBytes, 2));
    // Outside the tracked range: assume the worst.
    EXPECT_TRUE(tm.pageMayHoldYoung(mem::kHeapBase, 2));

    EXPECT_EQ(tm.pagesAtOrAfter(1), 2u);
    EXPECT_EQ(tm.pagesAtOrAfter(2), 1u);
    EXPECT_EQ(tm.pagesAtOrAfter(3), 0u);

    // Untagged (data) stores never mark a page.
    memory.storeU64(space.rootCap(), g0 + 4 * kPageBytes, 0x5a);
    EXPECT_EQ(tm.pagesTracked(), 2u);

    // Detach removes the listener: further stores are invisible.
    tm.detach();
    EXPECT_FALSE(tm.attached());
    memory.writeCap(g0 + 6 * kPageBytes, c);
    EXPECT_EQ(tm.pagesTracked(), 0u);
}

TEST(TierMap, BirthStampSaturates)
{
    TierMap tm;
    EXPECT_EQ(tm.currentBirthStamp(), 1u);
    for (int i = 0; i < 400; ++i)
        tm.advanceEpoch();
    EXPECT_EQ(tm.currentBirthStamp(), alloc::kBirthSaturated - 1);
}

// ---------------------------------------------------------------
// Birth stamps: chunk header, allocator, quarantine
// ---------------------------------------------------------------

TEST(BirthStamp, RoundTripsBesideSizeFlagsAndIdTag)
{
    mem::TaggedMemory memory;
    alloc::ChunkView chunk(memory, mem::kHeapBase);
    chunk.setHeader(0x2000, alloc::kCinuse | alloc::kPinuse);
    EXPECT_EQ(chunk.birthStamp(), 0u); // setHeader clears the stamp

    chunk.setBirthStamp(7);
    EXPECT_EQ(chunk.birthStamp(), 7u);
    EXPECT_EQ(chunk.size(), 0x2000u);
    EXPECT_TRUE(chunk.cinuse());

    // Flag and id-tag updates must not clobber the stamp.
    chunk.setFlags(alloc::kCinuse | alloc::kQuarantine);
    EXPECT_EQ(chunk.birthStamp(), 7u);
    chunk.setIdTag(0xABCDEF);
    EXPECT_EQ(chunk.birthStamp(), 7u);
    EXPECT_EQ(chunk.idTag(), 0xABCDEFu);
    EXPECT_EQ(chunk.size(), 0x2000u);

    chunk.setBirthStamp(alloc::kBirthSaturated);
    EXPECT_EQ(chunk.birthStamp(), alloc::kBirthSaturated);
    EXPECT_EQ(chunk.idTag(), 0xABCDEFu);
}

/** Test stamper with a settable stamp. */
struct FixedStamper final : alloc::TierStamper
{
    uint32_t stamp = 1;
    uint32_t currentBirthStamp() const override { return stamp; }
};

CherivokeConfig
tinyHeap()
{
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 256 * KiB; // stay below pressure
    return cfg;
}

TEST(BirthStamp, AllocatorStampsOnlyWhenAStamperIsInstalled)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());

    // No stamper: the birth bits stay zero — the bit-identity
    // guarantee for non-adaptive runs.
    const Capability plain = heap.malloc(64);
    EXPECT_EQ(alloc::ChunkView(
                  space.memory(),
                  alloc::DlAllocator::chunkOf(plain.base()))
                  .birthStamp(),
              0u);

    FixedStamper stamper;
    stamper.stamp = 3;
    heap.setTierStamper(&stamper);
    const Capability stamped = heap.malloc(64);
    EXPECT_EQ(alloc::ChunkView(
                  space.memory(),
                  alloc::DlAllocator::chunkOf(stamped.base()))
                  .birthStamp(),
              3u);
    heap.setTierStamper(nullptr);
}

TEST(BirthStamp, QuarantinePartitionsRunsByBirth)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    FixedStamper stamper;
    heap.setTierStamper(&stamper);

    // Old and young chunks with a live spacer between them so their
    // quarantined runs can never merge.
    stamper.stamp = 1;
    const Capability old_c = heap.malloc(4 * KiB);
    const Capability spacer = heap.malloc(64);
    stamper.stamp = 5;
    const Capability young_c = heap.malloc(4 * KiB);
    const uint64_t old_bytes = heap.usableSize(old_c.base());
    const uint64_t young_bytes = heap.usableSize(young_c.base());
    heap.free(old_c);
    heap.free(young_c);

    alloc::Quarantine &q = heap.quarantine();
    EXPECT_EQ(q.runCount(), 2u);
    EXPECT_GE(q.bytesBornSince(1), old_bytes + young_bytes);
    EXPECT_GE(q.bytesBornSince(5), young_bytes);
    EXPECT_LT(q.bytesBornSince(5), q.totalBytes());
    EXPECT_EQ(q.bytesBornSince(6), 0u);

    // splitBornSince takes exactly the young run...
    const uint64_t total = q.totalBytes();
    alloc::Quarantine young_part = q.splitBornSince(5);
    EXPECT_EQ(young_part.totalBytes() + q.totalBytes(), total);
    EXPECT_GE(young_part.totalBytes(), young_bytes);
    EXPECT_GE(q.totalBytes(), old_bytes);
    // ...and min_birth 0 takes everything that remains.
    alloc::Quarantine rest = q.splitBornSince(0);
    EXPECT_EQ(q.totalBytes(), 0u);
    EXPECT_GE(rest.totalBytes(), old_bytes);

    heap.setTierStamper(nullptr);
    (void)spacer;
}

TEST(BirthStamp, AdjacentRunsMergeToTheOldestBirth)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    FixedStamper stamper;
    heap.setTierStamper(&stamper);

    // Two adjacent chunks freed in turn coalesce into one run whose
    // birth is the MIN of the pair — a merged run must never look
    // younger than its oldest member, or a scoped sweep could skip
    // genuinely old quarantine.
    stamper.stamp = 9;
    const Capability a = heap.malloc(256);
    stamper.stamp = 2;
    const Capability b = heap.malloc(256);
    heap.free(a);
    heap.free(b);
    ASSERT_EQ(heap.quarantine().runCount(), 1u);
    EXPECT_EQ(heap.quarantine().bytesBornSince(3), 0u);
    EXPECT_EQ(heap.quarantine().bytesBornSince(2),
              heap.quarantine().totalBytes());
    heap.setTierStamper(nullptr);
}

// ---------------------------------------------------------------
// Tier-scoped epochs on a live engine
// ---------------------------------------------------------------

/** Stamper bridging the allocator to a TierMap's epoch sequence. */
struct MapStamper final : alloc::TierStamper
{
    explicit MapStamper(const TierMap &map) : tiers(&map) {}
    uint32_t
    currentBirthStamp() const override
    {
        return tiers->currentBirthStamp();
    }
    const TierMap *tiers;
};

TEST(TierScopedEpoch, SweepsYoungTierOnlyThenFullDepthDrains)
{
    mem::AddressSpace space;
    auto &memory = space.memory();
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space, EngineConfig{});

    TierMap tm;
    tm.attach(memory, 0, ~static_cast<uint64_t>(0));
    MapStamper stamper(tm);
    heap.setTierStamper(&stamper);

    // Epoch 1: an old chunk, with a capability to it stored on
    // globals page g0.
    const uint64_t g0 = space.globals().base;
    const uint64_t g2 = g0 + 2 * kPageBytes;
    const Capability old_c = heap.malloc(8 * KiB);
    memory.writeCap(g0, old_c);
    const Capability spacer = heap.malloc(64);

    // Epoch 2: a young chunk, referenced from page g2.
    tm.advanceEpoch();
    const Capability young_c = heap.malloc(8 * KiB);
    memory.writeCap(g2, young_c);

    heap.free(old_c);
    heap.free(young_c);
    const uint64_t quarantined = heap.quarantinedBytes();
    ASSERT_GT(quarantined, 0u);

    // A hot-tier epoch scoped to births >= 2: it must freeze and
    // release only the young run, sweep only pages with recent
    // tagged stores, and revoke the young capability while leaving
    // the old one (which cannot point into the frozen set) alone.
    RevocationBackend &backend = engine.domainBackend(0);
    EpochScope scope;
    scope.minBirth = 2;
    scope.pageQualifies = [&tm](uint64_t page) {
        return tm.pageMayHoldYoung(page, 2);
    };
    backend.setEpochScope(scope);
    engine.beginEpoch();
    while (engine.step(4096) > 0) {
    }
    engine.finishEpoch();
    backend.setEpochScope(EpochScope{});

    const EpochStats &scoped = engine.lastEpoch();
    EXPECT_GT(scoped.sweep.pagesSkippedTier, 0u); // g0 at least
    EXPECT_GT(scoped.bytesReleased, 0u);
    EXPECT_LT(scoped.bytesReleased, quarantined);
    EXPECT_FALSE(memory.readCap(g2).tag()); // young cap revoked
    EXPECT_TRUE(memory.readCap(g0).tag());  // old cap survives
    const uint64_t remaining = heap.quarantinedBytes();
    EXPECT_GT(remaining, 0u); // the old run still quarantined

    // A full-depth epoch then drains the old run and revokes the
    // old capability.
    engine.beginEpoch();
    while (engine.step(4096) > 0) {
    }
    engine.finishEpoch();
    EXPECT_EQ(engine.lastEpoch().sweep.pagesSkippedTier, 0u);
    EXPECT_EQ(heap.quarantinedBytes(), 0u);
    EXPECT_FALSE(memory.readCap(g0).tag());

    heap.setTierStamper(nullptr);
    (void)spacer;
}

// ---------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------

TEST(PolicyRegistry, EveryKindRegisteredOnceAndRoundTrips)
{
    const std::vector<PolicyKind> &policies = allPolicies();
    EXPECT_EQ(policies.size(), 4u);
    for (const PolicyKind kind : policies) {
        EXPECT_EQ(1, std::count(policies.begin(), policies.end(),
                                kind));
        PolicyKind parsed;
        ASSERT_TRUE(parsePolicy(policyName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    EXPECT_EQ(1, std::count(policies.begin(), policies.end(),
                            PolicyKind::Adaptive));
    PolicyKind parsed;
    ASSERT_TRUE(parsePolicy("adaptive", parsed));
    EXPECT_EQ(parsed, PolicyKind::Adaptive);
}

// ---------------------------------------------------------------
// Replay determinism and per-backend parity
// ---------------------------------------------------------------

sim::ExperimentConfig
replayConfig(PolicyKind policy, BackendKind backend)
{
    sim::ExperimentConfig cfg;
    cfg.policy = policy;
    cfg.backend = backend;
    cfg.durationSec = 0.3;
    return cfg;
}

TEST(AdaptiveReplay, TwoRunsAreBitIdentical)
{
    const auto &profile = workload::profileFor("xalancbmk");
    const sim::ExperimentConfig cfg =
        replayConfig(PolicyKind::Adaptive, BackendKind::Sweep);
    const sim::BenchResult a = sim::runBenchmark(profile, cfg);
    const sim::BenchResult b = sim::runBenchmark(profile, cfg);

    ASSERT_GT(a.run.revoker.epochs, 0u);
    EXPECT_EQ(a.run.revoker, b.run.revoker);
    EXPECT_EQ(a.run.allocCalls, b.run.allocCalls);
    EXPECT_EQ(a.run.freeCalls, b.run.freeCalls);
    EXPECT_EQ(a.run.freedBytes, b.run.freedBytes);
    EXPECT_EQ(a.run.ptrStores, b.run.ptrStores);
    EXPECT_EQ(a.run.virtualSeconds, b.run.virtualSeconds);
    EXPECT_EQ(a.run.peakQuarantineBytes, b.run.peakQuarantineBytes);
    EXPECT_EQ(a.normalizedTime, b.normalizedTime);
    EXPECT_EQ(a.sweepOverhead, b.sweepOverhead);
    EXPECT_EQ(a.shadowOverhead, b.shadowOverhead);
    EXPECT_EQ(a.predictedSweepOverhead, b.predictedSweepOverhead);
}

TEST(AdaptiveReplay, NonAdaptivePathsMatchUnderEveryBackend)
{
    // Adaptive's default decisions reproduce the stop-the-world
    // schedule, and non-adaptive runs never see a stamper or
    // listener — so under every backend the two policies agree on
    // all schedule-level statistics, and the adaptive run stays
    // full-depth (tier skips require a promoted hot tier).
    const auto &profile = workload::profileFor("povray");
    for (const BackendKind kind :
         {BackendKind::Sweep, BackendKind::Color,
          BackendKind::ObjectId}) {
        const sim::BenchResult stw = sim::runBenchmark(
            profile, replayConfig(PolicyKind::StopTheWorld, kind));
        const sim::BenchResult adaptive = sim::runBenchmark(
            profile, replayConfig(PolicyKind::Adaptive, kind));

        EXPECT_EQ(adaptive.run.revoker.sweep.pagesSkippedTier, 0u);
        EXPECT_EQ(adaptive.run.allocCalls, stw.run.allocCalls);
        EXPECT_EQ(adaptive.run.freeCalls, stw.run.freeCalls);
        EXPECT_EQ(adaptive.run.freedBytes, stw.run.freedBytes);
        EXPECT_EQ(adaptive.run.ptrStores, stw.run.ptrStores);
        EXPECT_EQ(adaptive.run.virtualSeconds,
                  stw.run.virtualSeconds);
        EXPECT_EQ(adaptive.run.revoker.epochs,
                  stw.run.revoker.epochs);
        EXPECT_EQ(adaptive.run.revoker.sweep.pagesSwept,
                  stw.run.revoker.sweep.pagesSwept);
        EXPECT_EQ(adaptive.run.revoker.sweep.capsRevoked,
                  stw.run.revoker.sweep.capsRevoked);
        EXPECT_EQ(adaptive.run.revoker.bytesReleased,
                  stw.run.revoker.bytesReleased);
    }
}

} // namespace
} // namespace revoke
} // namespace cherivoke
