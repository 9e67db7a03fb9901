/**
 * @file
 * Tests for the unified RevocationEngine: policy scheduling
 * (stop-the-world / incremental / concurrent), the guarantee that a
 * threaded sweep reports statistics identical to the serial sweep on
 * the same trace (and, with a cache model, identical cache/DRAM
 * traffic), and the threaded paint path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/revocation_engine.hh"
#include "sim/experiment.hh"
#include "support/bitops.hh"
#include "support/rng.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

namespace cherivoke {
namespace revoke {
namespace {

using alloc::CherivokeAllocator;
using alloc::CherivokeConfig;
using cap::Capability;

CherivokeConfig
smallConfig()
{
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 64;
    return cfg;
}

EngineConfig
policyConfig(PolicyKind kind, size_t pages_per_slice = 4)
{
    EngineConfig cfg;
    cfg.policy = kind;
    cfg.pagesPerSlice = pages_per_slice;
    return cfg;
}

/** Build a deterministic pointered heap and free a subset. */
void
buildImage(mem::AddressSpace &space, CherivokeAllocator &heap,
           std::vector<uint64_t> &freed_bases, uint64_t seed = 321)
{
    Rng rng(seed);
    std::vector<Capability> live;
    for (int i = 0; i < 600; ++i) {
        const Capability c = heap.malloc(rng.nextLogUniform(32, 2048));
        space.memory().writeCap(
            mem::kGlobalsBase + static_cast<uint64_t>(i) * 16, c);
        if (!live.empty() && rng.nextBool(0.5)) {
            const Capability &other =
                live[rng.nextBounded(live.size())];
            space.memory().storeCap(other, other.base(), c);
        }
        live.push_back(c);
    }
    for (size_t i = 0; i < live.size(); i += 3) {
        freed_bases.push_back(live[i].base());
        heap.free(live[i]);
    }
}

/** The same-trace driver run under one thread count / policy, with
 *  or without a cache model. */
struct TraceRun
{
    SweepStats sweep;
    alloc::PaintStats paint;
    uint64_t epochs = 0;
    uint64_t dramReads = 0;
    uint64_t dramWrites = 0;
    uint64_t offCoreLines = 0;
};

TraceRun
runTrace(unsigned threads, PolicyKind policy,
         const workload::Trace &trace, bool model_traffic)
{
    mem::AddressSpace space;
    alloc::CherivokeConfig acfg;
    acfg.minQuarantineBytes = 64 * KiB;
    CherivokeAllocator allocator(space, acfg);
    EngineConfig ecfg;
    ecfg.policy = policy;
    ecfg.sweep.threads = threads;
    ecfg.sweep.useCloadTags = true; // exercise the CLoadTags path
    RevocationEngine engine(allocator, space, ecfg);
    cache::Hierarchy hierarchy;
    workload::TraceDriver driver(space, allocator, &engine);
    driver.run(trace, model_traffic ? &hierarchy : nullptr);

    TraceRun out;
    out.sweep = engine.totals().sweep;
    out.paint = engine.totals().paint;
    out.epochs = engine.totals().epochs;
    out.dramReads = hierarchy.dram().readBytes();
    out.dramWrites = hierarchy.dram().writeBytes();
    out.offCoreLines = hierarchy.offCoreLines();
    return out;
}

/**
 * threads=N produces SweepStats identical to threads=1 on the same
 * trace, for N in {2, 4, 8}. Without a cache model the workers really
 * run; with one the sweep stays on the calling thread, and the
 * traffic totals must match too.
 */
TEST(ParallelSweepEquality, ThreadedSweepMatchesSerialOnOneTrace)
{
    workload::SynthConfig synth_cfg;
    synth_cfg.scale = 1.0 / 64;
    synth_cfg.durationSec = 0.5;
    synth_cfg.seed = 11;
    const workload::Trace trace = workload::synthesize(
        workload::profileFor("xalancbmk"), synth_cfg);

    for (const bool model : {false, true}) {
        const TraceRun serial =
            runTrace(1, PolicyKind::StopTheWorld, trace, model);
        ASSERT_GT(serial.epochs, 0u);
        ASSERT_GT(serial.sweep.capsRevoked, 0u);
        ASSERT_EQ(serial.dramReads > 0, model);

        for (const unsigned threads : {2u, 4u, 8u}) {
            const TraceRun par =
                runTrace(threads, PolicyKind::StopTheWorld, trace, model);
            EXPECT_EQ(par.epochs, serial.epochs) << threads;
            EXPECT_TRUE(par.sweep == serial.sweep)
                << "sweep stats diverged at threads=" << threads
                << " model=" << model;
            EXPECT_EQ(par.paint.total(), serial.paint.total());
            EXPECT_EQ(par.dramReads, serial.dramReads)
                << "DRAM read traffic diverged at threads=" << threads;
            EXPECT_EQ(par.dramWrites, serial.dramWrites)
                << "DRAM write traffic diverged at threads=" << threads;
            EXPECT_EQ(par.offCoreLines, serial.offCoreLines)
                << "off-core traffic diverged at threads=" << threads;
        }
    }
}

/** One sweep of a fresh buildImage() image. */
struct ImageSweep
{
    SweepStats stats;
    uint64_t dramBytes = 0;
    std::vector<uint64_t> pages; //!< the image's worklist
};

/** Sweep worklist entries [lo, hi) of a fresh buildImage() image
 *  with CLoadTags on, feeding a hierarchy when @p model_traffic. */
ImageSweep
sweepImage(unsigned threads, bool model_traffic, size_t lo = 0,
           size_t hi = SIZE_MAX)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, CherivokeConfig{});
    std::vector<uint64_t> freed;
    buildImage(space, heap, freed);
    heap.prepareSweep();
    SweepOptions opts;
    opts.threads = threads;
    opts.useCloadTags = true;
    Sweeper sweeper(opts);
    cache::Hierarchy hierarchy;
    ImageSweep out;
    out.pages = sweeper.buildWorklist(space, out.stats);
    out.stats += sweeper.sweepPages(
        space, heap.shadowMap(), out.pages, lo,
        std::min(hi, out.pages.size()),
        model_traffic ? &hierarchy : nullptr);
    heap.finishSweep();
    out.dramBytes = hierarchy.dram().totalBytes();
    return out;
}

TEST(ParallelSweepEquality, ThreadedSweepMatchesSerialOnOneImage)
{
    // Direct sweeper-level check, with and without a cache model.
    for (const bool model : {false, true}) {
        const ImageSweep serial = sweepImage(1, model);
        ASSERT_GT(serial.stats.capsRevoked, 0u);
        for (const unsigned threads : {2u, 4u, 8u}) {
            const ImageSweep par = sweepImage(threads, model);
            EXPECT_TRUE(par.stats == serial.stats)
                << "threads=" << threads << " model=" << model;
            EXPECT_EQ(par.dramBytes, serial.dramBytes)
                << "threads=" << threads << " model=" << model;
        }
    }
}

TEST(ParallelSweepEquality, PartitionInsideTagRegionMatchesSerial)
{
    // A range whose two-worker split falls between the two pages of
    // one 8 KiB leaf-tag-line region.
    const std::vector<uint64_t> pages = sweepImage(1, false).pages;
    size_t split = 0;
    for (size_t i = 1; i < pages.size() && split == 0; ++i) {
        if (pages[i] == pages[i - 1] + kPageBytes &&
            !isAligned(pages[i], 8 * KiB))
            split = i;
    }
    ASSERT_GT(split, 0u) << "no two-page tag region in the worklist";
    const size_t half = std::min(split, pages.size() - split);
    const size_t lo = split - half, hi = split + half;

    const ImageSweep serial = sweepImage(1, false, lo, hi);
    ASSERT_GT(serial.stats.capsExamined, 0u);
    EXPECT_TRUE(sweepImage(2, false, lo, hi).stats == serial.stats);
}

TEST(RevocationEngineTest, AllPoliciesRevokeEveryDangler)
{
    for (const PolicyKind kind :
         {PolicyKind::StopTheWorld, PolicyKind::Incremental,
          PolicyKind::Concurrent}) {
        mem::AddressSpace space;
        CherivokeAllocator heap(space, smallConfig());
        RevocationEngine engine(heap, space, policyConfig(kind));
        std::vector<uint64_t> freed;
        buildImage(space, heap, freed);
        engine.revokeNow();
        EXPECT_FALSE(engine.epochOpen());
        for (uint64_t s = 0; s < 600; ++s) {
            const Capability c = space.memory().readCap(
                mem::kGlobalsBase + s * 16);
            if (!c.tag())
                continue;
            for (const uint64_t base : freed) {
                EXPECT_NE(c.base(), base)
                    << policyName(kind)
                    << " left a dangling cap in slot " << s;
            }
        }
        heap.dl().validateHeap();
    }
}

TEST(RevocationEngineTest, ConcurrentPolicyInterleavesEpochs)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, smallConfig());
    RevocationEngine engine(
        heap, space, policyConfig(PolicyKind::Concurrent, 1));

    std::vector<Capability> caps;
    for (int i = 0; i < 128; ++i) {
        const Capability c = heap.malloc(4 * KiB);
        space.memory().storeCap(c, c.base(), c);
        caps.push_back(c);
    }
    for (auto &c : caps)
        heap.free(c);

    // First pump opens the epoch and advances one slice; the epoch
    // stays open across calls (mutator-assist scheduling).
    ASSERT_TRUE(heap.needsSweep());
    EXPECT_FALSE(engine.maybeRevoke());
    EXPECT_TRUE(engine.epochOpen());
    EXPECT_TRUE(space.memory().loadBarrierActive());
    EXPECT_GT(engine.pagesRemaining(), 0u);

    int pumps = 1;
    while (!engine.maybeRevoke())
        ++pumps;
    EXPECT_GT(pumps, 2) << "epoch should span several pumps";
    EXPECT_FALSE(engine.epochOpen());
    EXPECT_FALSE(space.memory().loadBarrierActive());
    EXPECT_EQ(engine.totals().epochs, 1u);
    EXPECT_GT(engine.totals().slices, 2u);
}

TEST(RevocationEngineTest, PolicyNamesRoundTrip)
{
    for (const PolicyKind kind :
         {PolicyKind::StopTheWorld, PolicyKind::Incremental,
          PolicyKind::Concurrent}) {
        PolicyKind parsed;
        ASSERT_TRUE(parsePolicy(policyName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    PolicyKind parsed;
    EXPECT_TRUE(parsePolicy("stw", parsed));
    EXPECT_EQ(parsed, PolicyKind::StopTheWorld);
    EXPECT_FALSE(parsePolicy("nonsense", parsed));
}

TEST(RevocationEngineTest, ThreadedPaintMatchesSerial)
{
    // Identical images painted on 1 vs N threads: identical paint
    // statistics (a run's stores are counted the same whichever
    // task paints it) and identical sweep outcome.
    auto run = [](unsigned threads) {
        mem::AddressSpace space;
        CherivokeAllocator heap(space, CherivokeConfig{});
        std::vector<uint64_t> freed;
        buildImage(space, heap, freed);
        const alloc::PaintStats paint = heap.prepareSweep(threads);
        Sweeper sweeper;
        const SweepStats stats =
            sweeper.sweep(space, heap.shadowMap());
        heap.finishSweep();
        return std::make_pair(paint, stats);
    };
    const auto [paint1, sweep1] = run(1);
    ASSERT_GT(paint1.total(), 0u);
    for (const unsigned threads : {2u, 3u, 8u}) {
        const auto [paintN, sweepN] = run(threads);
        EXPECT_TRUE(paintN == paint1) << threads;
        EXPECT_TRUE(sweepN == sweep1) << threads;
    }
}

/** Every byte and tag of the sweepable pages, and the allocator's
 *  byte counts: what an epoch leaves of the image. */
std::vector<uint64_t>
heapImage(const mem::AddressSpace &space, const CherivokeAllocator &heap)
{
    std::vector<uint64_t> image{heap.liveBytes(), heap.footprintBytes()};
    for (const mem::Segment &seg : space.sweepableSegments()) {
        for (uint64_t p = seg.base; p < seg.end(); p += kPageBytes) {
            const mem::Page *page = space.memory().pageIfPresent(p);
            if (!page) {
                image.push_back(0);
                continue;
            }
            image.push_back(1);
            image.insert(image.end(), page->tags.begin(),
                         page->tags.end());
            for (size_t b = 0; b < kPageBytes; b += 8) {
                uint64_t word;
                std::memcpy(&word, &page->data[b], sizeof(word));
                image.push_back(word);
            }
        }
    }
    return image;
}

TEST(RevocationEngineTest, EngineLevelThreadedPaint)
{
    // One epoch on a 4-thread engine (threaded paint and sweep) must
    // leave the statistics and the heap of a 1-thread engine's.
    struct Outcome
    {
        EpochStats epoch;
        std::vector<uint64_t> image;
    };
    auto run = [](unsigned threads) {
        mem::AddressSpace space;
        CherivokeAllocator heap(space, smallConfig());
        EngineConfig cfg;
        cfg.sweep.threads = threads;
        RevocationEngine engine(heap, space, cfg);
        std::vector<uint64_t> freed;
        buildImage(space, heap, freed);
        Outcome out{engine.revokeNow(), {}};
        EXPECT_EQ(heap.quarantinedBytes(), 0u) << threads;
        heap.dl().validateHeap();
        out.image = heapImage(space, heap);
        return out;
    };
    const Outcome serial = run(1);
    ASSERT_GT(serial.epoch.paint.total(), 0u);
    ASSERT_GT(serial.epoch.sweep.capsRevoked, 0u);

    const Outcome threaded = run(4);
    EXPECT_TRUE(threaded.epoch.paint == serial.epoch.paint);
    EXPECT_TRUE(threaded.epoch.sweep == serial.epoch.sweep);
    EXPECT_EQ(threaded.epoch.internalFrees, serial.epoch.internalFrees);
    EXPECT_EQ(threaded.epoch.bytesReleased, serial.epoch.bytesReleased);
    EXPECT_EQ(threaded.epoch.slices, serial.epoch.slices);
    EXPECT_EQ(threaded.image, serial.image)
        << "the 4-thread epoch left a different heap";
}

TEST(RevocationEngineTest, DrainIsIdempotent)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, smallConfig());
    RevocationEngine engine(
        heap, space, policyConfig(PolicyKind::Concurrent, 1));
    const Capability a = heap.malloc(64);
    heap.free(a);
    engine.maybeRevoke();
    engine.drain();
    EXPECT_FALSE(engine.epochOpen());
    const uint64_t epochs = engine.totals().epochs;
    engine.drain();
    EXPECT_EQ(engine.totals().epochs, epochs);
}

TEST(RevocationEngineTest, FreeAndRevokeCoversOpenEpoch)
{
    // Strict §3.7 mode must revoke the just-freed allocation even if
    // a concurrent epoch (frozen before the free) is open.
    mem::AddressSpace space;
    CherivokeAllocator heap(space, smallConfig());
    RevocationEngine engine(
        heap, space, policyConfig(PolicyKind::Concurrent, 1));

    std::vector<Capability> caps;
    for (int i = 0; i < 64; ++i) {
        const Capability c = heap.malloc(4 * KiB);
        space.memory().storeCap(c, c.base(), c);
        caps.push_back(c);
    }
    for (auto &c : caps)
        heap.free(c);
    engine.maybeRevoke(); // opens an epoch over those frees
    ASSERT_TRUE(engine.epochOpen());

    const Capability victim = heap.malloc(64);
    space.memory().writeCap(mem::kGlobalsBase, victim);
    engine.freeAndRevoke(victim);
    EXPECT_FALSE(space.memory().readCap(mem::kGlobalsBase).tag())
        << "strict mode must revoke the freed cap immediately";
    EXPECT_FALSE(engine.epochOpen());
}

TEST(RevocationEngineTest, ExperimentRunsUnderEveryPolicy)
{
    // The bench drivers route through runBenchmark; every policy must
    // complete and agree on the workload's safety-relevant totals.
    for (const PolicyKind kind :
         {PolicyKind::StopTheWorld, PolicyKind::Incremental,
          PolicyKind::Concurrent}) {
        sim::ExperimentConfig cfg;
        cfg.scale = 1.0 / 128;
        cfg.durationSec = 0.2;
        cfg.policy = kind;
        const sim::BenchResult r = sim::runBenchmark(
            workload::profileFor("xalancbmk"), cfg);
        EXPECT_GT(r.run.revoker.epochs, 0u) << policyName(kind);
        EXPECT_GT(r.run.revoker.sweep.capsRevoked, 0u)
            << policyName(kind);
        EXPECT_GT(r.normalizedTime, 1.0) << policyName(kind);
    }
}

// ---- Multi-domain epoch edge cases -----------------------------

namespace {

/** Two tenants' (allocator, space) pairs on one shared memory,
 *  engine domain i == tenant i — the minimal multi-domain fixture
 *  (tenant::TenantManager builds the same shape at scale). */
struct TwoDomains
{
    mem::TaggedMemory memory;
    mem::AddressSpace space0;
    mem::AddressSpace space1;
    CherivokeAllocator heap0;
    CherivokeAllocator heap1;

    explicit TwoDomains(CherivokeConfig cfg = smallConfig())
        : space0(memory, mem::AddressSpace::Layout{}, 512 * KiB,
                 512 * KiB),
          space1(memory,
                 mem::AddressSpace::Layout{}.shifted(0x8000'0000ULL),
                 512 * KiB, 512 * KiB),
          heap0(space0, cfg), heap1(space1, cfg)
    {}
};

/** Quarantine enough of domain @p heap to put it over budget. */
void
pressurize(mem::AddressSpace &space, CherivokeAllocator &heap,
           uint64_t globals_base)
{
    std::vector<Capability> caps;
    for (int i = 0; i < 64; ++i) {
        const Capability c = heap.malloc(512);
        space.memory().writeCap(
            globals_base + static_cast<uint64_t>(i) * 16, c);
        // A self-referential store marks the heap page CapDirty, so
        // the worklist spans several pages (multi-slice epochs).
        space.memory().storeCap(c, c.base(), c);
        caps.push_back(c);
    }
    for (size_t i = 0; i < caps.size(); i += 2)
        heap.free(caps[i]);
}

} // namespace

TEST(MultiDomainEpochs, RetireWithOpenEpochDrainsOwnDomainOnly)
{
    TwoDomains d;
    RevocationEngine engine(d.heap0, d.space0,
                            policyConfig(PolicyKind::Concurrent, 1));
    engine.addDomain(d.heap1, d.space1);
    engine.setDomainPolicy(1, PolicyKind::Concurrent);

    // Open an epoch on domain 1, advanced only part way.
    pressurize(d.space1, d.heap1, d.space1.globals().base);
    engine.selectDomain(1);
    engine.maybeRevoke();
    ASSERT_TRUE(engine.epochOpen());
    ASSERT_EQ(engine.epochDomainIndex(), 1u);

    // Retiring domain 0 must not touch domain 1's open epoch.
    engine.selectDomain(1);
    engine.retireDomain(0);
    EXPECT_TRUE(engine.epochOpen());
    EXPECT_TRUE(engine.domainRetired(0));

    // Retiring domain 1 drains its own epoch to completion first.
    engine.retireDomain(1);
    EXPECT_FALSE(engine.epochOpen());
    EXPECT_EQ(engine.domainTotals(1).epochs, 1u);
    EXPECT_EQ(engine.domainTotals(0).epochs, 0u);
    EXPECT_TRUE(engine.allRetired());
}

TEST(MultiDomainEpochs, GlobalSweepRacingPerTenantEpoch)
{
    // Domain 0 runs concurrent and has an epoch in flight; domain 1
    // forces a stop-the-world pause (the global-scope trigger).
    // Arbitration: the forced pause first completes domain 0's
    // epoch — credited to domain 0 — then runs domain 1's own.
    TwoDomains d;
    RevocationEngine engine(d.heap0, d.space0,
                            policyConfig(PolicyKind::Concurrent, 1));
    engine.addDomain(d.heap1, d.space1);
    engine.setDomainPolicy(1, PolicyKind::StopTheWorld);

    pressurize(d.space0, d.heap0, d.space0.globals().base);
    engine.selectDomain(0);
    engine.maybeRevoke();
    ASSERT_TRUE(engine.epochOpen());
    ASSERT_EQ(engine.epochDomainIndex(), 0u);

    pressurize(d.space1, d.heap1, d.space1.globals().base);
    engine.selectDomain(1);
    const EpochStats last = engine.revokeNow();
    EXPECT_FALSE(engine.epochOpen());
    EXPECT_EQ(engine.domainTotals(0).epochs, 1u);
    EXPECT_EQ(engine.domainTotals(1).epochs, 1u);
    EXPECT_EQ(engine.totals().epochs, 2u);
    // revokeNow's return value is domain 1's own epoch: a single
    // stop-the-world pause (one slice).
    EXPECT_EQ(last.slices, 1u);
}

TEST(MultiDomainEpochs, MixedPolicyPumpAssistsEpochOwner)
{
    // A stop-the-world neighbour's pump advances the concurrent
    // tenant's open epoch (epoch-owner-wins) instead of opening a
    // second epoch or stalling.
    TwoDomains d;
    RevocationEngine engine(d.heap0, d.space0,
                            policyConfig(PolicyKind::Concurrent, 1));
    engine.addDomain(d.heap1, d.space1);
    engine.setDomainPolicy(1, PolicyKind::StopTheWorld);

    pressurize(d.space0, d.heap0, d.space0.globals().base);
    engine.selectDomain(0);
    engine.maybeRevoke();
    ASSERT_TRUE(engine.epochOpen());
    const size_t before = engine.pagesRemaining();
    ASSERT_GT(before, 0u);

    // Domain 1 pumps with no pressure of its own: one slice of
    // domain 0's epoch advances.
    engine.selectDomain(1);
    engine.maybeRevoke();
    EXPECT_LT(engine.pagesRemaining(), before);
    engine.drain();
    EXPECT_EQ(engine.domainTotals(0).epochs, 1u);
    EXPECT_EQ(engine.domainTotals(1).epochs, 0u);
}

TEST(MultiDomainEpochs, BindDomainReusesRetiredSlotWithFreshTotals)
{
    TwoDomains d;
    RevocationEngine engine(d.heap0, d.space0, policyConfig(
        PolicyKind::StopTheWorld));
    engine.addDomain(d.heap1, d.space1);

    pressurize(d.space1, d.heap1, d.space1.globals().base);
    engine.selectDomain(1);
    engine.revokeNow();
    ASSERT_EQ(engine.domainTotals(1).epochs, 1u);

    engine.selectDomain(0);
    engine.retireDomain(1);
    EXPECT_TRUE(engine.domainRetired(1));
    // Statistics of a retired slot stay readable until reuse...
    EXPECT_EQ(engine.domainTotals(1).epochs, 1u);

    // ...and restart from zero when a new tenant binds the slot.
    mem::AddressSpace space1b(
        d.memory, mem::AddressSpace::Layout{}.shifted(0x8000'0000ULL),
        512 * KiB, 512 * KiB);
    CherivokeAllocator heap1b(space1b, smallConfig());
    EXPECT_EQ(engine.bindDomain(1, heap1b, space1b), 1u);
    EXPECT_FALSE(engine.domainRetired(1));
    EXPECT_EQ(engine.domainTotals(1).epochs, 0u);
}

TEST(MultiDomainEpochs, PolicyMixDeterminism)
{
    // Every policy pair, run twice over the same deterministic op
    // sequence: totals must match run for run.
    const PolicyKind kinds[] = {PolicyKind::StopTheWorld,
                                PolicyKind::Incremental,
                                PolicyKind::Concurrent};
    for (const PolicyKind p0 : kinds) {
        for (const PolicyKind p1 : kinds) {
            auto once = [&]() {
                TwoDomains d;
                RevocationEngine engine(d.heap0, d.space0,
                                        policyConfig(p0, 2));
                engine.addDomain(d.heap1, d.space1);
                engine.setDomainPolicy(1, p1);
                for (int round = 0; round < 3; ++round) {
                    pressurize(d.space0, d.heap0,
                               d.space0.globals().base);
                    pressurize(d.space1, d.heap1,
                               d.space1.globals().base);
                    for (int pump = 0; pump < 64; ++pump) {
                        engine.selectDomain(pump & 1);
                        engine.maybeRevoke();
                    }
                }
                engine.drain();
                return std::make_pair(engine.domainTotals(0),
                                      engine.domainTotals(1));
            };
            const auto a = once();
            const auto b = once();
            EXPECT_EQ(a.first, b.first)
                << policyName(p0) << "+" << policyName(p1);
            EXPECT_EQ(a.second, b.second)
                << policyName(p0) << "+" << policyName(p1);
        }
    }
}

} // namespace
} // namespace revoke
} // namespace cherivoke
