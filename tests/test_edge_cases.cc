/**
 * @file
 * Edge-case tests for paths the main suites exercise only lightly:
 * tag-preserving copies with partial tails, the load barrier on the
 * checked (CheriABI) access path, allocator bin boundaries and the
 * aligned-allocation carve, realloc's in-place successor merge,
 * multi-level writeback chains, tag-write accounting, and small
 * utilities.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "alloc/cherivoke_alloc.hh"
#include "cache/hierarchy.hh"
#include "revoke/analytical_model.hh"
#include "revoke/revocation_engine.hh"
#include "support/logging.hh"
#include "workload/trace.hh"

namespace cherivoke {
namespace {

using alloc::CherivokeAllocator;
using alloc::CherivokeConfig;
using cap::CapFault;
using cap::Capability;

// ---------------------------------------------------------------
// Tag-preserving copy edges
// ---------------------------------------------------------------

class CopyTest : public ::testing::Test
{
  protected:
    CopyTest()
    {
        space.memory().pageTable().map(kBase, 16 * kPageBytes,
                                       mem::ProtRead |
                                           mem::ProtWrite);
    }

    static constexpr uint64_t kBase = 0x200000;
    mem::AddressSpace space;
};

TEST_F(CopyTest, PartialTrailingGranuleCopiedAsData)
{
    auto &memory = space.memory();
    // 24 bytes: one full granule + 8-byte tail.
    memory.writeU64(kBase, 0x11);
    memory.writeU64(kBase + 8, 0x22);
    memory.writeU64(kBase + 16, 0x33);
    memory.copyPreservingTags(kBase + 4096, kBase, 24);
    EXPECT_EQ(memory.readU64(kBase + 4096), 0x11u);
    EXPECT_EQ(memory.readU64(kBase + 4096 + 8), 0x22u);
    EXPECT_EQ(memory.readU64(kBase + 4096 + 16), 0x33u);
}

TEST_F(CopyTest, MixedTagAndDataGranules)
{
    auto &memory = space.memory();
    const Capability c = space.rootCap()
                             .setAddress(kBase)
                             .setBounds(64)
                             .andPerms(cap::kPermsData);
    memory.writeCap(kBase, c);          // tagged granule
    memory.writeU64(kBase + 16, 0xAB);  // data granule
    memory.writeCap(kBase + 32, c);     // tagged granule
    memory.copyPreservingTags(kBase + 8192, kBase, 48);
    EXPECT_TRUE(memory.readTag(kBase + 8192));
    EXPECT_FALSE(memory.readTag(kBase + 8192 + 16));
    EXPECT_TRUE(memory.readTag(kBase + 8192 + 32));
    EXPECT_EQ(memory.readU64(kBase + 8192 + 16), 0xABu);
}

TEST_F(CopyTest, OverlapPanics)
{
    auto &memory = space.memory();
    EXPECT_THROW(memory.copyPreservingTags(kBase + 16, kBase, 64),
                 PanicError);
}

TEST_F(CopyTest, MisalignmentPanics)
{
    auto &memory = space.memory();
    EXPECT_THROW(memory.copyPreservingTags(kBase + 8, kBase + 4096,
                                           16),
                 PanicError);
}

// ---------------------------------------------------------------
// Load barrier through the checked access path
// ---------------------------------------------------------------

TEST(LoadBarrier, AppliesToCheriAbiLoadCap)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 16;
    CherivokeAllocator heap(space, cfg);
    auto &memory = space.memory();

    const Capability holder = heap.malloc(64);
    const Capability victim = heap.malloc(64);
    memory.storeCap(holder, holder.base(), victim);
    heap.free(victim);
    heap.prepareSweep(); // paints; no sweep yet

    memory.installLoadBarrier([&](uint64_t base) {
        return heap.shadowMap().isRevoked(base);
    });
    // The *checked* load path must hit the barrier too.
    const Capability loaded = memory.loadCap(holder, holder.base());
    EXPECT_FALSE(loaded.tag());
    // And the in-place strip means the tag is gone for good.
    memory.removeLoadBarrier();
    EXPECT_FALSE(memory.readCap(holder.base()).tag());
    heap.finishSweep();
}

TEST(LoadBarrier, InactiveBarrierCostsNothing)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 16;
    CherivokeAllocator heap(space, cfg);
    auto &memory = space.memory();
    const Capability c = heap.malloc(64);
    memory.writeCap(mem::kGlobalsBase, c);
    EXPECT_TRUE(memory.readCap(mem::kGlobalsBase).tag());
    EXPECT_EQ(memory.counters().loadBarrierStrips, 0u);
    EXPECT_FALSE(memory.loadBarrierActive());
}

// ---------------------------------------------------------------
// Allocator bin boundaries and the aligned carve
// ---------------------------------------------------------------

TEST(AllocEdges, SmallToLargeBinBoundary)
{
    mem::AddressSpace space;
    alloc::DlAllocator dl(space);
    // Chunk sizes 1040 (last small bin) and 1056 (first large bin):
    // payloads 1024 and 1040.
    const Capability small_cap = dl.malloc(1024);
    const Capability large_cap = dl.malloc(1040);
    (void)dl.malloc(64); // guard
    dl.free(small_cap);
    dl.free(large_cap);
    dl.validateHeap();
    // Both must be recyclable at their exact sizes.
    EXPECT_EQ(dl.malloc(1024).base(), small_cap.base());
    EXPECT_EQ(dl.malloc(1040).base(), large_cap.base());
}

TEST(AllocEdges, LargeBinFirstFitAcrossBuckets)
{
    mem::AddressSpace space;
    alloc::DlAllocator dl(space);
    const Capability big = dl.malloc(100 * KiB);
    (void)dl.malloc(64);
    dl.free(big);
    // A request smaller than the freed chunk but in a lower bucket
    // must still find it (search walks upward through bins).
    const Capability reuse = dl.malloc(40 * KiB);
    EXPECT_EQ(reuse.base(), big.base());
    dl.validateHeap();
}

TEST(AllocEdges, AlignedCarveProducesAlignedPayload)
{
    mem::AddressSpace space;
    alloc::DlAllocator dl(space);
    // Large enough to require representability padding + alignment.
    const uint64_t size = 6 * MiB;
    const Capability c = dl.malloc(size);
    const uint64_t mask = cap::representableAlignmentMask(
        static_cast<uint64_t>(c.length()));
    if (mask != ~uint64_t{0}) {
        EXPECT_TRUE(isAligned(c.base(), ~mask + 1));
    }
    // The front/tail trims must leave a coherent heap.
    dl.validateHeap();
    dl.free(c);
    dl.validateHeap();
}

TEST(AllocEdges, ReallocMergesFreeSuccessor)
{
    mem::AddressSpace space;
    alloc::DlAllocator dl(space);
    const Capability a = dl.malloc(64);
    const Capability b = dl.malloc(256);
    (void)dl.malloc(64); // guard so b isn't absorbed by top
    dl.free(b);
    // Growing a should merge the free b in place.
    const Capability grown = dl.realloc(a, 200);
    EXPECT_EQ(grown.base(), a.base())
        << "in-place growth into the free successor";
    dl.validateHeap();
}

TEST(AllocEdges, UsableSizeRoundsUpToGranule)
{
    mem::AddressSpace space;
    alloc::DlAllocator dl(space);
    const Capability c = dl.malloc(17);
    EXPECT_GE(dl.usableSize(c.base()), 17u);
    EXPECT_TRUE(isAligned(dl.usableSize(c.base()) + 16, 16));
}

// ---------------------------------------------------------------
// Cache writeback chains and tag-write accounting
// ---------------------------------------------------------------

TEST(CacheEdges, DirtyChainReachesDramThroughAllLevels)
{
    cache::HierarchyConfig cfg;
    cfg.l1 = cache::CacheGeometry{"l1", 512, 1, 64};  // 8 sets
    cfg.l2 = cache::CacheGeometry{"l2", 1024, 1, 64}; // 16 sets
    cfg.llc = cache::CacheGeometry{"llc", 2048, 1, 64};
    cache::Hierarchy hier(cfg);
    // Write a line, then stream conflicting lines through the same
    // sets until the dirty line is forced all the way out.
    hier.access(0x0, 8, true);
    for (uint64_t i = 1; i <= 64; ++i)
        hier.access(i * 2048, 8, false);
    EXPECT_GT(hier.dram().writeBytes(), 0u)
        << "the dirty line must eventually be written back to DRAM";
}

TEST(CacheEdges, RevocationTagWriteDirtiesTagCache)
{
    cache::Hierarchy hier;
    hier.recordRevocationTagWrite(0x4000);
    // The tag line was fetched to be modified.
    EXPECT_GT(hier.dram().readBytes(), 0u);
    const uint64_t before = hier.dram().writeBytes();
    // Evict it by streaming tag lookups over distinct regions.
    for (uint64_t r = 1; r < 4096; ++r)
        (void)hier.cloadTags(r * 8 * KiB, true);
    EXPECT_GT(hier.dram().writeBytes(), before)
        << "dirty tag line writes back on eviction";
}

// ---------------------------------------------------------------
// Epoch accounting in the allocator
// ---------------------------------------------------------------

TEST(EpochAccounting, QuarantineSplitAcrossFreezeIsSummed)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 16;
    CherivokeAllocator heap(space, cfg);
    const Capability a = heap.malloc(64);
    const Capability b = heap.malloc(64);
    heap.free(a);
    const uint64_t before = heap.quarantinedBytes();
    heap.prepareSweep();
    EXPECT_TRUE(heap.epochOpen());
    EXPECT_EQ(heap.quarantinedBytes(), before)
        << "freezing must not lose quarantined bytes";
    heap.free(b);
    EXPECT_GT(heap.quarantinedBytes(), before);
    heap.finishSweep();
    EXPECT_FALSE(heap.epochOpen());
    // Only the frozen part was released.
    EXPECT_GT(heap.quarantinedBytes(), 0u);
    EXPECT_LT(heap.quarantinedBytes(), before + 80);
}

TEST(EpochAccounting, DoublePrepareSweepPanics)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 16;
    CherivokeAllocator heap(space, cfg);
    heap.free(heap.malloc(64));
    heap.prepareSweep();
    EXPECT_THROW(heap.prepareSweep(), PanicError);
    heap.finishSweep();
}

// ---------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------

TEST(ModelEdges, DegenerateDenominatorsSaturateFinite)
{
    // The model saturates degenerate inputs instead of panicking:
    // the adaptive controller feeds it live measurements (which can
    // legitimately be zero early in a run), so its output must
    // always be finite and comparable. Property coverage lives in
    // tests/test_adaptive.cc.
    revoke::OverheadParams p;
    p.freeRateBytesPerSec = 1;
    p.pointerDensity = 1;
    p.scanRateBytesPerSec = 0;
    p.quarantineFraction = 0.25;
    const double v = revoke::predictedRuntimeOverhead(p);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 1e12);
    EXPECT_TRUE(std::isfinite(revoke::sweepPeriodSeconds(1, 0)));
}

TEST(TraceEdges, VirtualSecondsSumsAllOps)
{
    std::vector<workload::TraceOp> ops;
    for (int i = 0; i < 10; ++i) {
        workload::TraceOp op;
        op.kind = workload::OpKind::StoreData;
        op.dt = 0.1;
        ops.push_back(op);
    }
    const workload::Trace t{std::move(ops)};
    EXPECT_NEAR(t.virtualSeconds(), 1.0, 1e-12);
}

TEST(PageTableEdges, ClearCapDirtyOnUnmappedPanics)
{
    mem::PageTable pt;
    EXPECT_THROW(pt.clearCapDirty(0x1000), PanicError);
    EXPECT_THROW(pt.setCapDirty(0x1000), PanicError);
}

} // namespace
} // namespace cherivoke
