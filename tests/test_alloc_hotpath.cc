/**
 * @file
 * Tests for the mutator-side hot-path structures introduced with the
 * O(1) allocation fast path: the ChunkView raw host-span contract
 * (tag invalidation preserved), the DlAllocator bin-occupancy
 * bitmap, the hash-linked quarantine run structure, and a randomized
 * malloc/free/realloc fuzz loop cross-checked against validateHeap()
 * — which itself asserts bin-bitmap/bin-list consistency and the
 * raw-span write semantics on every free chunk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "stats/summary.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace cherivoke {
namespace alloc {
namespace {

using cap::Capability;

// ---- Raw host-span semantics -----------------------------------

TEST(HostSpan, RawWritesMatchCheckedPathAndKillTags)
{
    mem::AddressSpace space;
    auto &memory = space.memory();

    // Seed a tagged capability, then overwrite one word of its
    // granule through the raw span: the tag must die, exactly as a
    // checked data write would kill it.
    DlAllocator dl(space);
    const Capability c = dl.malloc(64);
    memory.writeCap(c.base(), c);
    ASSERT_TRUE(memory.readTag(c.base()));

    mem::HostSpan span = memory.hostSpan(c.base());
    ASSERT_TRUE(span.covers(c.base(), 8));
    span.writeU64(c.base(), 0x1234);
    EXPECT_FALSE(memory.readTag(c.base()))
        << "raw span store must invalidate the granule tag";
    EXPECT_EQ(memory.readU64(c.base()), 0x1234u)
        << "checked path must observe the raw store";
    memory.assertSpanSemantics(c.base(), 16);

    // Out-of-span helper has identical semantics.
    memory.writeCap(c.base(), dl.malloc(32));
    ASSERT_TRUE(memory.readTag(c.base()));
    memory.spanWriteU64(c.base() + 8, 0x99);
    EXPECT_FALSE(memory.readTag(c.base()));
    EXPECT_EQ(memory.spanReadU64(c.base() + 8), 0x99u);
}

TEST(HostSpan, CoversRespectsPageBounds)
{
    mem::AddressSpace space;
    auto &memory = space.memory();
    mem::HostSpan span = memory.hostSpan(mem::kHeapBase);
    EXPECT_TRUE(span.covers(mem::kHeapBase, kPageBytes));
    EXPECT_TRUE(
        span.covers(mem::kHeapBase + kPageBytes - 8, 8));
    EXPECT_FALSE(
        span.covers(mem::kHeapBase + kPageBytes - 8, 16));
    EXPECT_FALSE(span.covers(mem::kHeapBase + kPageBytes, 8));
    EXPECT_FALSE(span.covers(mem::kHeapBase - 8, 8));
    EXPECT_FALSE(mem::HostSpan{}.covers(mem::kHeapBase, 8));
}

TEST(HostSpan, FreeListLinksNeverLeaveTagsBehind)
{
    // A freed chunk's payload held a tagged capability; binning the
    // chunk writes fd/bk over it through the raw path. The sweep
    // soundness of the whole design rests on those granule tags
    // dying with the overwrite.
    mem::AddressSpace space;
    auto &memory = space.memory();
    DlAllocator dl(space);
    const Capability a = dl.malloc(64);
    (void)dl.malloc(64); // guard against top-coalescing
    memory.writeCap(a.base(), a);       // fd slot granule
    memory.writeCap(a.base() + 16, a);  // next payload granule
    ASSERT_TRUE(memory.readTag(a.base()));
    dl.freeAddr(a.base());
    EXPECT_FALSE(memory.readTag(a.base()))
        << "fd/bk stores must have cleared the payload tag";
    dl.validateHeap(); // asserts span semantics on every free chunk
}

// ---- Bin-occupancy bitmap --------------------------------------

TEST(BinBitmap, TracksBinHeadsExactly)
{
    mem::AddressSpace space;
    DlAllocator dl(space);
    // Fresh heap: no free chunks, no occupied bins.
    for (unsigned w = 0; w < 2; ++w)
        EXPECT_EQ(dl.binBitmapWord(w), 0u);

    // Free two distinct small sizes (guards keep them uncoalesced)
    // and verify exactly those bins light up.
    const Capability a = dl.malloc(48); // 64-byte chunk
    (void)dl.malloc(16);
    const Capability b = dl.malloc(112); // 128-byte chunk
    (void)dl.malloc(16);
    dl.freeAddr(a.base());
    dl.freeAddr(b.base());
    dl.validateHeap(); // checks bitmap == bin heads
    const uint64_t w0 = dl.binBitmapWord(0);
    EXPECT_EQ(popCount(w0) + popCount(dl.binBitmapWord(1)), 2u);

    // Reallocating one size empties its bin and clears its bit.
    const Capability a2 = dl.malloc(48);
    dl.validateHeap();
    EXPECT_EQ(popCount(dl.binBitmapWord(0)) +
                  popCount(dl.binBitmapWord(1)),
              1u);
    (void)a2;
}

TEST(BinBitmap, MallocStillFindsLargerBins)
{
    // With only a large free chunk available, a small request must
    // jump straight to it (first-fit across the bitmap) rather than
    // carving the top.
    mem::AddressSpace space;
    DlAllocator dl(space);
    const Capability big = dl.malloc(8 * KiB);
    (void)dl.malloc(16);
    dl.freeAddr(big.base());
    const uint64_t big_addr = big.base();
    const Capability small = dl.malloc(64);
    EXPECT_EQ(small.base(), big_addr)
        << "request must be served from the freed larger chunk";
    dl.validateHeap();
}

// ---- Hash-linked quarantine runs -------------------------------

TEST(QuarantineRuns, OrderedViewIsCachedAndSorted)
{
    mem::AddressSpace space;
    DlAllocator dl(space);
    Quarantine q;
    std::vector<Capability> caps;
    for (int i = 0; i < 8; ++i)
        caps.push_back(dl.malloc(64));
    (void)dl.malloc(64);
    // Free every second chunk in reverse order: four disjoint runs
    // added in descending address order.
    for (int i = 6; i >= 0; i -= 2) {
        const auto qc = dl.quarantineFree(caps[i]);
        q.add(dl, qc.addr, qc.size);
    }
    EXPECT_EQ(q.runCount(), 4u);
    const auto &ordered = q.orderedRuns();
    ASSERT_EQ(ordered.size(), 4u);
    EXPECT_TRUE(std::is_sorted(
        ordered.begin(), ordered.end(),
        [](const QuarantineRun &a, const QuarantineRun &b) {
            return a.addr < b.addr;
        }));
    // The cached view is stable across calls with no intervening
    // add (same storage, not a fresh copy).
    EXPECT_EQ(&q.orderedRuns(), &ordered);
}

TEST(QuarantineRuns, AddReturnsMergeCount)
{
    mem::AddressSpace space;
    DlAllocator dl(space);
    Quarantine q;
    std::vector<Capability> caps;
    for (int i = 0; i < 3; ++i)
        caps.push_back(dl.malloc(64));
    (void)dl.malloc(64);
    const auto q0 = dl.quarantineFree(caps[0]);
    const auto q2 = dl.quarantineFree(caps[2]);
    EXPECT_EQ(q.add(dl, q0.addr, q0.size), 0u);
    EXPECT_EQ(q.add(dl, q2.addr, q2.size), 0u);
    const auto q1 = dl.quarantineFree(caps[1]);
    EXPECT_EQ(q.add(dl, q1.addr, q1.size), 2u)
        << "bridging both neighbours is a three-way merge";
    EXPECT_EQ(q.runCount(), 1u);
    EXPECT_EQ(q.merges(), 2u);
    EXPECT_EQ(q.adds(), 3u);
}

TEST(QuarantineRuns, SurvivesManyEpochsOfChurn)
{
    // Hash-table stress: thousands of adds, merges and releases
    // across epochs; totals must always reconcile and release order
    // must stay address-ordered.
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.quarantineFraction = 0.25;
    cfg.minQuarantineBytes = 16 * KiB;
    CherivokeAllocator heap(space, cfg);
    Rng rng(271828);
    std::vector<Capability> live;
    uint64_t frees = 0;
    for (int op = 0; op < 20000; ++op) {
        if (rng.nextBool(0.55) || live.empty()) {
            live.push_back(heap.malloc(rng.nextLogUniform(16, 1024)));
        } else {
            const size_t idx = rng.nextBounded(live.size());
            heap.free(live[idx]);
            live.erase(live.begin() + static_cast<long>(idx));
            ++frees;
        }
        if (heap.needsSweep()) {
            heap.prepareSweep();
            heap.finishSweep();
        }
    }
    EXPECT_GT(heap.sweepsPrepared(), 2u);
    EXPECT_GT(frees, 1000u);
    heap.dl().validateHeap();
    // Merge accounting survives the facade's quarantine swaps.
    const uint64_t merges = heap.dl().counters().quarantineMerges;
    EXPECT_GT(merges, 0u);
    EXPECT_LE(merges, frees);
}

// ---- Randomized fuzz: malloc/free/realloc vs validateHeap ------

TEST(AllocFuzz, RandomOpsKeepEveryInvariant)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.quarantineFraction = 0.25;
    cfg.minQuarantineBytes = 8 * KiB;
    CherivokeAllocator heap(space, cfg);
    auto &memory = space.memory();
    Rng rng(31337);
    std::vector<Capability> live;

    for (int op = 0; op < 6000; ++op) {
        const double roll = rng.nextDouble();
        if (roll < 0.5 || live.empty()) {
            const Capability c =
                heap.malloc(rng.nextLogUniform(16, 2048));
            // Programs write what they allocate; some words are
            // capabilities so recycled granules carry stale tags
            // for the raw path to kill.
            if (rng.nextBool(0.3))
                memory.writeCap(c.base(), c);
            live.push_back(c);
        } else if (roll < 0.8) {
            const size_t idx = rng.nextBounded(live.size());
            heap.free(live[idx]);
            live.erase(live.begin() + static_cast<long>(idx));
        } else {
            const size_t idx = rng.nextBounded(live.size());
            live[idx] = heap.realloc(
                live[idx], rng.nextLogUniform(16, 4096));
        }
        if (heap.needsSweep()) {
            heap.prepareSweep();
            heap.finishSweep();
        }
        if (op % 500 == 0)
            heap.dl().validateHeap();
    }
    heap.dl().validateHeap();

    // The mutator-path summary reflects a healthy fast path.
    const stats::MutatorPathSummary &s = heap.dl().counters();
    EXPECT_GT(s.mallocCalls, 0u);
    EXPECT_GT(s.rawSpanRate(), 0.9)
        << "nearly all header accesses should hit the cached span";
    EXPECT_GE(s.meanBinScanLength(), 0.0);
}

// ---- BoundaryIndex unit ----------------------------------------

TEST(BoundaryIndex, InsertFindEraseWithCollisions)
{
    BoundaryIndex idx;
    // Dense 16-byte-aligned keys force probe chains; grow several
    // times and then unwind with backward-shift deletion.
    const uint32_t n = 3000;
    for (uint32_t i = 0; i < n; ++i)
        idx.insert((uint64_t{i} + 1) * 16, i);
    EXPECT_EQ(idx.size(), n);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(idx.find((uint64_t{i} + 1) * 16), i);
    EXPECT_EQ(idx.find(16 * (n + 5)), BoundaryIndex::kNotFound);
    // Erase odd keys; even keys must stay reachable through any
    // probe chains the holes interrupted.
    for (uint32_t i = 1; i < n; i += 2)
        idx.erase((uint64_t{i} + 1) * 16);
    for (uint32_t i = 0; i < n; i += 2)
        EXPECT_EQ(idx.find((uint64_t{i} + 1) * 16), i);
    for (uint32_t i = 1; i < n; i += 2) {
        EXPECT_EQ(idx.find((uint64_t{i} + 1) * 16),
                  BoundaryIndex::kNotFound);
    }
    idx.update(16, 777);
    EXPECT_EQ(idx.find(16), 777u);
}

} // namespace
} // namespace alloc
} // namespace cherivoke
