/**
 * @file
 * Unit and property tests for the revocation shadow map: painting
 * correctness at every alignment, the width optimisation, clearing,
 * and the §3.3 lookup.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc/shadow_map.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace cherivoke {
namespace alloc {
namespace {

class ShadowMapTest : public ::testing::Test
{
  protected:
    ShadowMapTest() : shadow(space.memory())
    {
        heap = space.mmapHeap(4 * MiB);
    }

    mem::AddressSpace space;
    ShadowMap shadow;
    uint64_t heap = 0;
};

TEST_F(ShadowMapTest, FreshMapIsClean)
{
    for (uint64_t off = 0; off < 4096; off += 16)
        EXPECT_FALSE(shadow.isRevoked(heap + off));
}

TEST_F(ShadowMapTest, PaintSingleGranule)
{
    shadow.paint(heap + 32, 16);
    EXPECT_FALSE(shadow.isRevoked(heap + 16));
    EXPECT_TRUE(shadow.isRevoked(heap + 32));
    EXPECT_TRUE(shadow.isRevoked(heap + 47)) << "same granule";
    EXPECT_FALSE(shadow.isRevoked(heap + 48));
}

TEST_F(ShadowMapTest, PaintRangeCoversExactGranules)
{
    shadow.paint(heap + 64, 160); // granules 4..13
    EXPECT_FALSE(shadow.isRevoked(heap + 48));
    for (uint64_t a = heap + 64; a < heap + 224; a += 16)
        EXPECT_TRUE(shadow.isRevoked(a));
    EXPECT_FALSE(shadow.isRevoked(heap + 224));
}

TEST_F(ShadowMapTest, UnalignedSizeRoundsUpToGranule)
{
    shadow.paint(heap, 17); // covers 2 granules
    EXPECT_TRUE(shadow.isRevoked(heap));
    EXPECT_TRUE(shadow.isRevoked(heap + 16));
    EXPECT_FALSE(shadow.isRevoked(heap + 32));
}

TEST_F(ShadowMapTest, MisalignedPaintPanics)
{
    EXPECT_THROW(shadow.paint(heap + 8, 16), PanicError);
}

TEST_F(ShadowMapTest, ClearUndoesPaint)
{
    shadow.paint(heap, 1024);
    EXPECT_EQ(shadow.countPainted(heap, 1024), 64u);
    shadow.clear(heap, 1024);
    EXPECT_EQ(shadow.countPainted(heap, 1024), 0u);
}

TEST_F(ShadowMapTest, ClearIsExactAtEdges)
{
    shadow.paint(heap, 4096);
    shadow.clear(heap + 1024, 2048);
    EXPECT_EQ(shadow.countPainted(heap, 1024), 64u);
    EXPECT_EQ(shadow.countPainted(heap + 1024, 2048), 0u);
    EXPECT_EQ(shadow.countPainted(heap + 3072, 1024), 64u);
}

TEST_F(ShadowMapTest, WideStoresUsedForLargeAlignedRuns)
{
    // 64 KiB starting at a 1 KiB-aligned heap address: the shadow
    // bytes are 8-byte aligned, so the body should use dword stores.
    const PaintStats st = shadow.paint(heap, 64 * KiB);
    EXPECT_GT(st.dwordOps, 0u);
    EXPECT_EQ(st.bitOps, 0u) << "fully aligned: no partial bytes";
    // 64 KiB = 4096 granules = 512 shadow bytes = 64 dwords.
    EXPECT_EQ(st.dwordOps, 64u);
}

TEST_F(ShadowMapTest, SmallUnalignedRunUsesBitOps)
{
    const PaintStats st = shadow.paint(heap + 48, 32);
    EXPECT_EQ(st.bitOps, 1u);
    EXPECT_EQ(st.dwordOps + st.wordOps + st.byteOps, 0u);
}

TEST_F(ShadowMapTest, BitByBitMatchesOptimisedResult)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        const uint64_t addr =
            heap + rng.nextBounded(64 * KiB) / 16 * 16;
        const uint64_t size = rng.nextRange(16, 8 * KiB) / 16 * 16;

        shadow.paint(addr, size);
        std::vector<bool> optimised;
        for (uint64_t a = addr; a < addr + size; a += 16)
            optimised.push_back(shadow.isRevoked(a));
        shadow.clear(addr, size);

        shadow.paintBitByBit(addr, size);
        size_t idx = 0;
        for (uint64_t a = addr; a < addr + size; a += 16)
            EXPECT_EQ(shadow.isRevoked(a), optimised[idx++]);
        shadow.clear(addr, size);
    }
}

TEST_F(ShadowMapTest, OptimisedPaintUsesFewerOps)
{
    const PaintStats fast = shadow.paint(heap, 128 * KiB);
    shadow.clear(heap, 128 * KiB);
    const PaintStats slow = shadow.paintBitByBit(heap, 128 * KiB);
    EXPECT_LT(fast.total(), slow.total() / 16)
        << "width optimisation should reduce store count by >16x";
}

TEST_F(ShadowMapTest, DisjointRangesIndependent)
{
    shadow.paint(heap, 256);
    shadow.paint(heap + 1024, 256);
    shadow.clear(heap, 256);
    EXPECT_EQ(shadow.countPainted(heap, 256), 0u);
    EXPECT_EQ(shadow.countPainted(heap + 1024, 256), 16u);
}

TEST_F(ShadowMapTest, PaintIdempotentAcrossAdjacentRanges)
{
    const uint64_t size = 64 * KiB;
    // Reference: one paint of the whole span.
    shadow.paint(heap, size);
    std::vector<bool> reference;
    for (uint64_t a = heap; a < heap + size; a += kGranuleBytes)
        reference.push_back(shadow.isRevoked(a));
    shadow.clear(heap, size);

    // Three adjacent ranges with deliberately awkward boundaries,
    // b1 inside a shadow byte.
    const uint64_t b1 = heap + 333 * kGranuleBytes;
    const uint64_t b2 = heap + 2048 * kGranuleBytes;
    const std::pair<uint64_t, uint64_t> ranges[] = {
        {heap, b1}, {b1, b2}, {b2, heap + size}};
    for (int repeat = 0; repeat < 2; ++repeat) { // idempotence
        for (const auto &[lo, hi] : ranges)
            shadow.paint(lo, hi - lo);
        size_t idx = 0;
        for (uint64_t a = heap; a < heap + size;
             a += kGranuleBytes) {
            ASSERT_EQ(shadow.isRevoked(a), reference[idx])
                << "granule " << idx << " repeat " << repeat;
            ++idx;
        }
    }

    // Unpaint range by range; clearing twice is also idempotent.
    for (int repeat = 0; repeat < 2; ++repeat) {
        for (const auto &[lo, hi] : ranges)
            shadow.clear(lo, hi - lo);
        EXPECT_EQ(shadow.countPainted(heap, size), 0u);
    }
}

/** Property: paint/clear of random interleaved ranges matches a
 *  reference bitmap exactly. */
class ShadowMapProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ShadowMapProperty, MatchesReferenceModel)
{
    mem::AddressSpace space;
    ShadowMap shadow(space.memory());
    const uint64_t heap = space.mmapHeap(1 * MiB);
    const uint64_t granules = (256 * KiB) / 16;
    std::vector<bool> reference(granules, false);
    Rng rng(GetParam());

    for (int op = 0; op < 300; ++op) {
        const uint64_t g0 = rng.nextBounded(granules - 1);
        const uint64_t len =
            rng.nextRange(1, std::min<uint64_t>(granules - g0, 600));
        const bool set = rng.nextBool(0.6);
        if (set) {
            shadow.paint(heap + g0 * 16, len * 16);
        } else {
            shadow.clear(heap + g0 * 16, len * 16);
        }
        for (uint64_t g = g0; g < g0 + len; ++g)
            reference[g] = set;
    }

    for (uint64_t g = 0; g < granules; ++g) {
        ASSERT_EQ(shadow.isRevoked(heap + g * 16), reference[g])
            << "granule " << g;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowMapProperty,
                         ::testing::Values(101, 202, 303, 404));

} // namespace
} // namespace alloc
} // namespace cherivoke
