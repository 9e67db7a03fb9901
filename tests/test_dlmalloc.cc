/**
 * @file
 * Unit and property tests for the dlmalloc-style allocator: sizing,
 * alignment, coalescing, bins, top growth, realloc semantics, and the
 * boundary-tag invariants under randomised workloads.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "alloc/dlmalloc.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace cherivoke {
namespace alloc {
namespace {

using cap::Capability;

class DlAllocatorTest : public ::testing::Test
{
  protected:
    DlAllocatorTest() : alloc(space) {}

    mem::AddressSpace space;
    DlAllocator alloc;
};

TEST_F(DlAllocatorTest, MallocReturnsBoundedTaggedCap)
{
    const Capability c = alloc.malloc(100);
    EXPECT_TRUE(c.tag());
    EXPECT_EQ(static_cast<uint64_t>(c.length()), 100u);
    EXPECT_EQ(c.address(), c.base());
    EXPECT_TRUE(c.hasPerm(cap::PermLoad | cap::PermStore));
    EXPECT_FALSE(c.hasPerm(cap::PermExecute));
}

TEST_F(DlAllocatorTest, PayloadIs16ByteAligned)
{
    for (uint64_t size : {1u, 7u, 16u, 33u, 100u, 4097u}) {
        const Capability c = alloc.malloc(size);
        EXPECT_TRUE(isAligned(c.base(), 16)) << "size=" << size;
    }
}

TEST_F(DlAllocatorTest, ZeroSizeGetsMinimalAllocation)
{
    const Capability c = alloc.malloc(0);
    EXPECT_TRUE(c.tag());
    EXPECT_GE(alloc.usableSize(c.base()), 16u);
}

TEST_F(DlAllocatorTest, DistinctAllocationsDisjoint)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.malloc(64);
    const bool disjoint =
        a.top() <= b.base() || b.top() <= a.base();
    EXPECT_TRUE(disjoint);
}

TEST_F(DlAllocatorTest, UsableSizeAtLeastRequested)
{
    for (uint64_t size : {1u, 16u, 24u, 100u, 1000u, 100000u}) {
        const Capability c = alloc.malloc(size);
        EXPECT_GE(alloc.usableSize(c.base()), size);
    }
}

TEST_F(DlAllocatorTest, MemoryIsWritableThroughCap)
{
    const Capability c = alloc.malloc(64);
    auto &memory = space.memory();
    memory.storeU64(c, c.base(), 0x1122334455667788ULL);
    EXPECT_EQ(memory.loadU64(c, c.base()), 0x1122334455667788ULL);
}

TEST_F(DlAllocatorTest, FreeRecyclesExactSize)
{
    const Capability a = alloc.malloc(64);
    const uint64_t addr = a.base();
    alloc.free(a);
    const Capability b = alloc.malloc(64);
    EXPECT_EQ(b.base(), addr) << "exact-size bin should recycle";
}

TEST_F(DlAllocatorTest, DoubleFreeFaults)
{
    const Capability a = alloc.malloc(64);
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), FatalError);
}

TEST_F(DlAllocatorTest, FreeUntaggedCapFaults)
{
    Capability a = alloc.malloc(64);
    a.clearTag();
    EXPECT_THROW(alloc.free(a), FatalError);
}

TEST_F(DlAllocatorTest, FreeOfNonHeapAddressFaults)
{
    EXPECT_THROW(alloc.freeAddr(mem::kStackBase + 64), FatalError);
}

TEST_F(DlAllocatorTest, CoalescingMergesNeighbours)
{
    // Allocate three in a row, free outer two, then the middle: the
    // result should serve one large allocation at the first address.
    const Capability a = alloc.malloc(96);
    const Capability b = alloc.malloc(96);
    const Capability c = alloc.malloc(96);
    const Capability guard = alloc.malloc(96); // keep top away
    (void)guard;
    const uint64_t first = a.base();
    alloc.free(a);
    alloc.free(c);
    alloc.free(b);
    alloc.validateHeap();
    const Capability big = alloc.malloc(3 * 96 + 32);
    EXPECT_EQ(big.base(), first)
        << "three coalesced chunks should satisfy a larger request";
}

TEST_F(DlAllocatorTest, LiveBytesTracksAllocFree)
{
    EXPECT_EQ(alloc.liveBytes(), 0u);
    const Capability a = alloc.malloc(100);
    const uint64_t live_after_a = alloc.liveBytes();
    EXPECT_GE(live_after_a, 100u);
    const Capability b = alloc.malloc(50);
    EXPECT_GT(alloc.liveBytes(), live_after_a);
    alloc.free(b);
    EXPECT_EQ(alloc.liveBytes(), live_after_a);
    alloc.free(a);
    EXPECT_EQ(alloc.liveBytes(), 0u);
}

TEST_F(DlAllocatorTest, TopGrowsOnDemand)
{
    const uint64_t before = alloc.footprintBytes();
    std::vector<Capability> caps;
    for (int i = 0; i < 40; ++i)
        caps.push_back(alloc.malloc(256 * KiB));
    EXPECT_GT(alloc.footprintBytes(), before);
    EXPECT_GT(alloc.counters().extends, 0u);
    alloc.validateHeap();
}

TEST_F(DlAllocatorTest, CallocZeroes)
{
    // Dirty some memory, free it, calloc over it.
    Capability a = alloc.malloc(256);
    auto &memory = space.memory();
    for (int i = 0; i < 32; ++i)
        memory.storeU64(a, a.base() + 8 * i, ~uint64_t{0});
    alloc.free(a);
    const Capability z = alloc.calloc(32, 8);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(memory.loadU64(z, z.base() + 8 * i), 0u);
}

TEST_F(DlAllocatorTest, CallocOverflowPanics)
{
    EXPECT_THROW(alloc.calloc(~uint64_t{0} / 8, 16), PanicError);
}

TEST_F(DlAllocatorTest, ReallocGrowCopiesData)
{
    Capability a = alloc.malloc(64);
    auto &memory = space.memory();
    memory.storeU64(a, a.base(), 0xabcdef);
    (void)alloc.malloc(32); // block in-place growth
    const Capability b = alloc.realloc(a, 4096);
    EXPECT_GE(static_cast<uint64_t>(b.length()), 4096u);
    EXPECT_EQ(memory.loadU64(b, b.base()), 0xabcdefu);
    alloc.validateHeap();
}

TEST_F(DlAllocatorTest, ReallocPreservesStoredCapabilities)
{
    Capability a = alloc.malloc(64);
    const Capability inner = alloc.malloc(32);
    auto &memory = space.memory();
    memory.storeCap(a, a.base() + 16, inner);
    (void)alloc.malloc(32);
    const Capability b = alloc.realloc(a, 8192);
    const Capability loaded = memory.loadCap(b, b.base() + 16);
    EXPECT_TRUE(loaded.tag()) << "realloc must not strip tags";
    EXPECT_EQ(loaded, inner);
}

TEST_F(DlAllocatorTest, ReallocShrinkKeepsAddress)
{
    Capability a = alloc.malloc(4096);
    const uint64_t addr = a.base();
    const Capability b = alloc.realloc(a, 64);
    EXPECT_EQ(b.base(), addr);
    EXPECT_EQ(static_cast<uint64_t>(b.length()), 64u);
    alloc.validateHeap();
}

TEST_F(DlAllocatorTest, ReallocInPlaceAtTop)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.realloc(a, 256);
    EXPECT_EQ(b.base(), a.base())
        << "chunk adjacent to top should grow in place";
}

TEST_F(DlAllocatorTest, LargeAllocationGetsRepresentableBounds)
{
    // 8 MiB needs alignment under CC-46.
    const uint64_t size = 8 * MiB + 123;
    const Capability c = alloc.malloc(size);
    EXPECT_TRUE(c.tag());
    EXPECT_GE(static_cast<uint64_t>(c.length()), size);
    // Bounds must be exact (no rounding beyond what malloc padded).
    const uint64_t mask =
        cap::representableAlignmentMask(static_cast<uint64_t>(
            c.length()));
    if (mask != ~uint64_t{0}) {
        EXPECT_TRUE(isAligned(c.base(), ~mask + 1));
    }
    alloc.validateHeap();
}

TEST_F(DlAllocatorTest, WalkHeapSeesAllocatedChunks)
{
    const Capability a = alloc.malloc(64);
    const Capability b = alloc.malloc(128);
    alloc.free(a);
    const auto chunks = alloc.walkHeap();
    ASSERT_GE(chunks.size(), 3u);
    EXPECT_TRUE(chunks.back().isTop);
    uint64_t in_use = 0, free_chunks = 0;
    for (const auto &ch : chunks) {
        if (ch.isTop)
            continue;
        (ch.cinuse ? in_use : free_chunks) += 1;
    }
    EXPECT_EQ(in_use, 1u);
    EXPECT_EQ(free_chunks, 1u);
    (void)b;
}

TEST_F(DlAllocatorTest, ValidateDetectsNothingOnHealthyHeap)
{
    for (int i = 0; i < 50; ++i)
        alloc.malloc(32 + i * 8);
    EXPECT_NO_THROW(alloc.validateHeap());
}

/** Randomised malloc/free/realloc soak with heap validation. */
class DlAllocatorSoak : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DlAllocatorSoak, InvariantsHoldUnderRandomWorkload)
{
    mem::AddressSpace space;
    DlAllocator alloc(space);
    Rng rng(GetParam());
    std::map<uint64_t, Capability> live; // by base

    for (int op = 0; op < 4000; ++op) {
        const double r = rng.nextDouble();
        if (r < 0.55 || live.empty()) {
            const uint64_t size = rng.nextLogUniform(1, 64 * KiB);
            const Capability c = alloc.malloc(size);
            EXPECT_GE(alloc.usableSize(c.base()), size);
            // No overlap with any live allocation.
            auto it = live.upper_bound(c.base());
            if (it != live.end()) {
                EXPECT_LE(c.top(), it->second.base());
            }
            if (it != live.begin()) {
                --it;
                EXPECT_LE(it->second.top(), c.base());
            }
            live.emplace(c.base(), c);
        } else if (r < 0.9) {
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            alloc.free(it->second);
            live.erase(it);
        } else {
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            const Capability moved = alloc.realloc(
                it->second, rng.nextLogUniform(1, 16 * KiB));
            live.erase(it);
            live.emplace(moved.base(), moved);
        }
        if (op % 500 == 0)
            alloc.validateHeap();
    }
    alloc.validateHeap();

    // Free everything: the heap should collapse back into top.
    for (auto &[base, c] : live)
        alloc.free(c);
    alloc.validateHeap();
    EXPECT_EQ(alloc.liveBytes(), 0u);
    const auto chunks = alloc.walkHeap();
    ASSERT_EQ(chunks.size(), 1u)
        << "all memory should coalesce back into the top chunk";
    EXPECT_TRUE(chunks[0].isTop);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DlAllocatorSoak,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

} // namespace
} // namespace alloc
} // namespace cherivoke
