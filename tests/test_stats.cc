/**
 * @file
 * Unit tests for running summaries and table rendering, and the
 * exact value of every allocator and tagged-memory counter on one
 * fixed run.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/revocation_engine.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "support/logging.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

namespace cherivoke {
namespace stats {
namespace {

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleSample)
{
    Summary s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.total(), 40.0, 1e-12);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Geomean, EmptyReturnsZero)
{
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Geomean, RejectsNonPositive)
{
    EXPECT_THROW(geomean({1.0, 0.0}), PanicError);
    EXPECT_THROW(geomean({-1.0}), PanicError);
}

TEST(Mean, Basic)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t({"bench", "time", "mem"});
    t.addRow({"astar", "1.02", "1.10"});
    t.addRow({"xalancbmk", "1.51", "1.35"});
    const std::string out = t.render();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("xalancbmk"), std::string::npos);
    EXPECT_NE(out.find("1.51"), std::string::npos);
    // Header underline present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(TextTable, NumberFormatters)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
    EXPECT_EQ(TextTable::percent(0.047, 1), "4.7%");
    EXPECT_EQ(TextTable::percent(0.25, 0), "25%");
}

TEST(TextTable, ColumnsAligned)
{
    TextTable t({"name", "v"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    const std::string out = t.render();
    // Every line has the same length (aligned columns).
    size_t prev = std::string::npos;
    size_t start = 0;
    while (start < out.size()) {
        const size_t nl = out.find('\n', start);
        const size_t len = nl - start;
        if (prev != std::string::npos) {
            EXPECT_EQ(len, prev);
        }
        prev = len;
        start = nl + 1;
    }
}

/**
 * Every counter the allocator and the tagged memory keep, pinned to
 * its exact value on one fixed run: a dealII trace replayed under
 * incremental revocation from a small heap (so the wilderness
 * grows), then one dangling capability loaded while an epoch is
 * open. A trace replay makes no capability loads, so that load is
 * the one the barrier strips. Every counter is non-zero here, so
 * one that drifts or stops counting fails, not just a ratio.
 */
TEST(Counters, FixedRunPinsEveryCounter)
{
    workload::SynthConfig synth;
    synth.scale = 1.0 / 512;
    synth.durationSec = 10.0;
    synth.seed = 7;
    const workload::Trace trace =
        workload::synthesize(workload::profileFor("dealII"), synth);

    mem::AddressSpace space;
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = 0.05;
    acfg.minQuarantineBytes = 16 * KiB;
    acfg.dl.initialHeapBytes = 256 * KiB;
    acfg.dl.growthChunkBytes = 128 * KiB;
    alloc::CherivokeAllocator heap(space, acfg);
    revoke::EngineConfig ecfg;
    ecfg.policy = revoke::PolicyKind::Incremental;
    ecfg.pagesPerSlice = 8;
    revoke::RevocationEngine engine(heap, space, ecfg);
    workload::TraceDriver(space, heap, &engine).run(trace);

    mem::TaggedMemory &memory = space.memory();
    const cap::Capability holder = heap.malloc(64);
    const cap::Capability victim = heap.malloc(64);
    memory.storeCap(holder, holder.base(), victim);
    heap.free(victim);
    engine.beginEpoch();
    EXPECT_FALSE(memory.loadCap(holder, holder.base()).tag());
    while (engine.step(8) > 0) {
    }
    engine.finishEpoch();

    const mem::MemoryCounters &m = memory.counters();
    EXPECT_EQ(m.tagsClearedByOverwrite, 477u);
    EXPECT_EQ(m.capWrites, 22123u);
    EXPECT_EQ(m.capDirtyTraps, 571u);
    EXPECT_EQ(m.loadBarrierStrips, 1u);

    const MutatorPathSummary &a = heap.dl().counters();
    EXPECT_EQ(a.mallocCalls, 29822u);
    EXPECT_EQ(a.quarantineFrees, 9737u);
    EXPECT_EQ(a.binSearches, 29822u);
    EXPECT_EQ(a.binScanSteps, 8821u);
    EXPECT_EQ(a.rawHeaderAccesses, 455418u);
    EXPECT_EQ(a.slowHeaderAccesses, 4973u);
    EXPECT_EQ(a.quarantineMerges, 8090u);
    EXPECT_EQ(a.extends, 15u);
}

} // namespace
} // namespace stats
} // namespace cherivoke
