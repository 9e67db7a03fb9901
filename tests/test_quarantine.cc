/**
 * @file
 * Tests for the quarantine buffer and the CherivokeAllocator facade:
 * aggregation of contiguous frees, sweep-threshold accounting, the
 * paint/unpaint protocol, and the guarantee that quarantined memory
 * is never reissued before a sweep completes.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "alloc/cherivoke_alloc.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace cherivoke {
namespace alloc {
namespace {

using cap::Capability;

CherivokeConfig
testConfig(double fraction = 0.25, uint64_t min_bytes = 1024)
{
    CherivokeConfig cfg;
    cfg.quarantineFraction = fraction;
    cfg.minQuarantineBytes = min_bytes;
    return cfg;
}

class CherivokeAllocTest : public ::testing::Test
{
  protected:
    CherivokeAllocTest() : alloc(space, testConfig()) {}

    mem::AddressSpace space;
    CherivokeAllocator alloc;
};

TEST_F(CherivokeAllocTest, FreeQuarantinesInsteadOfRecycling)
{
    const Capability a = alloc.malloc(64);
    const uint64_t addr = a.base();
    alloc.free(a);
    // Unlike plain dlmalloc, the same address must NOT come back.
    const Capability b = alloc.malloc(64);
    EXPECT_NE(b.base(), addr)
        << "quarantined memory must not be reissued before a sweep";
    EXPECT_GT(alloc.quarantinedBytes(), 0u);
}

TEST_F(CherivokeAllocTest, DoubleFreeFaults)
{
    const Capability a = alloc.malloc(64);
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), FatalError);
}

TEST_F(CherivokeAllocTest, AdjacentFreesAggregate)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.malloc(64);
    const Capability c = alloc.malloc(64);
    (void)alloc.malloc(64); // guard against top
    alloc.free(a);
    alloc.free(b);
    alloc.free(c);
    EXPECT_EQ(alloc.quarantine().runCount(), 1u)
        << "three contiguous frees aggregate into one run";
    EXPECT_EQ(alloc.quarantine().merges(), 2u);
}

TEST_F(CherivokeAllocTest, AggregationBridgesTwoRuns)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.malloc(64);
    const Capability c = alloc.malloc(64);
    (void)alloc.malloc(64);
    alloc.free(a);
    alloc.free(c);
    EXPECT_EQ(alloc.quarantine().runCount(), 2u);
    alloc.free(b); // bridges the two runs
    EXPECT_EQ(alloc.quarantine().runCount(), 1u);
}

TEST_F(CherivokeAllocTest, NonAdjacentFreesStaySeparate)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.malloc(64);
    const Capability c = alloc.malloc(64);
    (void)alloc.malloc(64);
    alloc.free(a);
    alloc.free(c);
    EXPECT_EQ(alloc.quarantine().runCount(), 2u);
    (void)b;
}

TEST_F(CherivokeAllocTest, NeedsSweepHonoursFractionAndFloor)
{
    CherivokeConfig cfg = testConfig(0.25, 4096);
    CherivokeAllocator a2(space, cfg);
    // Live 64 KiB, quarantine small: below floor.
    const Capability live = a2.malloc(64 * KiB);
    const Capability f1 = a2.malloc(1024);
    a2.free(f1);
    EXPECT_FALSE(a2.needsSweep()) << "below the byte floor";
    // Push quarantine over 25% of live.
    std::vector<Capability> caps;
    for (int i = 0; i < 20; ++i)
        caps.push_back(a2.malloc(1024));
    for (auto &c : caps)
        a2.free(c);
    EXPECT_TRUE(a2.needsSweep());
    (void)live;
}

TEST_F(CherivokeAllocTest, PrepareSweepPaintsPayloadsOnly)
{
    const Capability a = alloc.malloc(256);
    const uint64_t payload = a.base();
    const uint64_t chunk = payload - kChunkHeader;
    alloc.free(a);
    alloc.prepareSweep();
    auto &shadow = alloc.shadowMap();
    EXPECT_FALSE(shadow.isRevoked(chunk))
        << "header granule must stay unpainted (one-past-end rule)";
    EXPECT_TRUE(shadow.isRevoked(payload));
    EXPECT_TRUE(shadow.isRevoked(payload + 240));
}

TEST_F(CherivokeAllocTest, FinishSweepUnpaintsAndRecycles)
{
    const Capability a = alloc.malloc(256);
    const uint64_t addr = a.base();
    alloc.free(a);
    alloc.prepareSweep();
    const uint64_t internal = alloc.finishSweep();
    EXPECT_EQ(internal, 1u);
    EXPECT_EQ(alloc.quarantinedBytes(), 0u);
    EXPECT_FALSE(alloc.shadowMap().isRevoked(addr));
    // The address is reusable again.
    const Capability b = alloc.malloc(256);
    EXPECT_EQ(b.base(), addr);
    alloc.dl().validateHeap();
}

TEST_F(CherivokeAllocTest, InternalFreesFewerThanProgramFrees)
{
    std::vector<Capability> caps;
    for (int i = 0; i < 32; ++i)
        caps.push_back(alloc.malloc(64));
    (void)alloc.malloc(64);
    for (auto &c : caps)
        alloc.free(c);
    alloc.prepareSweep();
    const uint64_t internal = alloc.finishSweep();
    EXPECT_EQ(internal, 1u)
        << "32 contiguous frees should aggregate to 1 internal free";
}

TEST_F(CherivokeAllocTest, ReallocQuarantinesOldAllocation)
{
    const Capability a = alloc.malloc(64);
    const uint64_t old_addr = a.base();
    auto &memory = space.memory();
    memory.storeU64(a, a.base(), 42);
    const Capability b = alloc.realloc(a, 1024);
    EXPECT_NE(b.base(), old_addr);
    EXPECT_EQ(memory.loadU64(b, b.base()), 42u);
    EXPECT_GT(alloc.quarantinedBytes(), 0u);
    // The old allocation cannot come back yet.
    const Capability c = alloc.malloc(64);
    EXPECT_NE(c.base(), old_addr);
}

TEST_F(CherivokeAllocTest, QuarantineRunsReportedInAddressOrder)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.malloc(64);
    const Capability c = alloc.malloc(64);
    const Capability d = alloc.malloc(64);
    (void)alloc.malloc(64);
    alloc.free(c);
    alloc.free(a);
    (void)b;
    (void)d;
    const auto runs = alloc.quarantine().runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_LT(runs[0].addr, runs[1].addr);
}

TEST_F(CherivokeAllocTest, HeapValidAcrossManySweepCycles)
{
    Rng rng(5);
    std::vector<Capability> live;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 50; ++i)
            live.push_back(alloc.malloc(rng.nextLogUniform(16, 2048)));
        while (live.size() > 25) {
            const size_t idx = rng.nextBounded(live.size());
            alloc.free(live[idx]);
            live.erase(live.begin() + static_cast<long>(idx));
        }
        if (alloc.needsSweep()) {
            alloc.prepareSweep();
            alloc.finishSweep();
        }
        alloc.dl().validateHeap();
    }
    EXPECT_GT(alloc.sweepsPrepared(), 0u);
}

TEST_F(CherivokeAllocTest, QuarantinedMemoryNeverReissuedProperty)
{
    // Track quarantined payload ranges; every new allocation must be
    // disjoint from all of them until a sweep completes.
    Rng rng(17);
    std::vector<Capability> live;
    std::set<std::pair<uint64_t, uint64_t>> quarantined; // [lo, hi)

    for (int op = 0; op < 2000; ++op) {
        if (rng.nextBool(0.55) || live.empty()) {
            const Capability c =
                alloc.malloc(rng.nextLogUniform(16, 4096));
            const uint64_t lo = c.base();
            const uint64_t hi =
                static_cast<uint64_t>(c.top());
            for (const auto &[qlo, qhi] : quarantined) {
                EXPECT_FALSE(lo < qhi && qlo < hi)
                    << "allocation overlaps quarantined range";
            }
            live.push_back(c);
        } else {
            const size_t idx = rng.nextBounded(live.size());
            const Capability victim = live[idx];
            live.erase(live.begin() + static_cast<long>(idx));
            quarantined.emplace(victim.base(),
                                static_cast<uint64_t>(victim.top()));
            alloc.free(victim);
        }
        if (alloc.needsSweep()) {
            alloc.prepareSweep();
            alloc.finishSweep();
            quarantined.clear();
        }
    }
}

/** Fixture for run-merging edge cases: four adjacent chunks plus a
 *  guard, freed in controlled orders. */
class QuarantineMergeTest : public ::testing::Test
{
  protected:
    QuarantineMergeTest() : dl(space)
    {
        for (auto &c : chunks)
            c = dl.malloc(64);
        (void)dl.malloc(64); // guard against the heap top
    }

    void
    add(size_t idx)
    {
        const auto q = dl.quarantineFree(chunks[idx]);
        sizes[idx] = q.size;
        quarantine.add(dl, q.addr, q.size);
    }

    mem::AddressSpace space;
    DlAllocator dl;
    Quarantine quarantine;
    std::array<Capability, 4> chunks;
    std::array<uint64_t, 4> sizes{};
};

TEST_F(QuarantineMergeTest, MergeLeft)
{
    add(0);
    add(1); // merges with the run ending where it starts
    EXPECT_EQ(quarantine.runCount(), 1u);
    EXPECT_EQ(quarantine.merges(), 1u);
    EXPECT_EQ(quarantine.totalBytes(), sizes[0] + sizes[1]);
    const auto runs = quarantine.runs();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].size, sizes[0] + sizes[1]);
}

TEST_F(QuarantineMergeTest, MergeRight)
{
    add(1);
    add(0); // merges with the run starting where it ends
    EXPECT_EQ(quarantine.runCount(), 1u);
    EXPECT_EQ(quarantine.merges(), 1u);
    const auto runs = quarantine.runs();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].size, sizes[0] + sizes[1]);
}

TEST_F(QuarantineMergeTest, MergeBoth)
{
    add(0);
    add(2);
    ASSERT_EQ(quarantine.runCount(), 2u);
    add(1); // bridges both neighbours in one add
    EXPECT_EQ(quarantine.runCount(), 1u);
    EXPECT_EQ(quarantine.merges(), 2u);
    const auto runs = quarantine.runs();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].size, sizes[0] + sizes[1] + sizes[2]);
    EXPECT_EQ(quarantine.totalBytes(), runs[0].size);
}

TEST_F(QuarantineMergeTest, NonAdjacentStaySeparate)
{
    add(0);
    add(2);
    EXPECT_EQ(quarantine.runCount(), 2u);
    EXPECT_EQ(quarantine.merges(), 0u);
    const auto runs = quarantine.runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_LT(runs[0].end(), runs[1].addr);
}

TEST_F(QuarantineMergeTest, ReleaseCountsAggregatedRuns)
{
    add(0);
    add(1);
    add(3);
    EXPECT_EQ(quarantine.runCount(), 2u);
    EXPECT_EQ(quarantine.release(dl), 2u)
        << "release performs one internal free per aggregated run";
    EXPECT_TRUE(quarantine.empty());
    EXPECT_EQ(quarantine.totalBytes(), 0u);
    dl.validateHeap();
}

TEST(QuarantineUnit, TotalBytesAccumulates)
{
    mem::AddressSpace space;
    DlAllocator dl(space);
    Quarantine q;
    const Capability a = dl.malloc(64);
    const Capability b = dl.malloc(64);
    (void)dl.malloc(64);
    const auto qa = dl.quarantineFree(a);
    q.add(dl, qa.addr, qa.size);
    EXPECT_EQ(q.totalBytes(), qa.size);
    const auto qb = dl.quarantineFree(b);
    q.add(dl, qb.addr, qb.size);
    EXPECT_EQ(q.totalBytes(), qa.size + qb.size);
    EXPECT_EQ(q.runCount(), 1u) << "adjacent chunks merged";
    q.release(dl);
    EXPECT_TRUE(q.empty());
    dl.validateHeap();
}

} // namespace
} // namespace alloc
} // namespace cherivoke
