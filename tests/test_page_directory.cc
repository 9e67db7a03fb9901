/**
 * @file
 * Tests for the two-level direct-map page directory behind
 * mem::TaggedMemory and the thread-safe raw shadow-store path:
 * lazy-materialisation semantics, sparse/far-apart address layouts,
 * concurrent shadow mutation, and serial-vs-threaded paint
 * equivalence (shadow bytes and PaintStats).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "alloc/shadow_map.hh"
#include "mem/tagged_memory.hh"
#include "support/bitops.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace cherivoke {
namespace mem {
namespace {

using alloc::PaintStats;
using alloc::QuarantineRun;
using alloc::ShadowMap;

TEST(PageDirectoryTest, LazyMaterialisationPreserved)
{
    TaggedMemory mem;
    const uint64_t base = 0x200000;
    mem.pageTable().map(base, 16 * kPageBytes, ProtRead | ProtWrite);

    EXPECT_EQ(mem.residentPages(), 0u);
    EXPECT_EQ(mem.pageIfPresent(base), nullptr);

    // Reads of untouched mapped pages observe zeros and do not
    // materialise anything.
    EXPECT_EQ(mem.readU64(base + 3 * kPageBytes), 0u);
    EXPECT_FALSE(mem.readTag(base + 3 * kPageBytes));
    uint8_t buf[64] = {1};
    mem.peekBytes(base + 5 * kPageBytes, buf, sizeof(buf));
    for (const uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.residentPages(), 0u);

    // A write materialises exactly one page.
    mem.writeU64(base + 3 * kPageBytes, 42);
    EXPECT_EQ(mem.residentPages(), 1u);
    EXPECT_NE(mem.pageIfPresent(base + 3 * kPageBytes), nullptr);
    EXPECT_EQ(mem.pageIfPresent(base + 4 * kPageBytes), nullptr);
    EXPECT_EQ(mem.readU64(base + 3 * kPageBytes), 42u);
}

TEST(PageDirectoryTest, SparseFarApartLayouts)
{
    // Addresses spread across distinct directory leaves (each leaf
    // spans 1 GiB): low memory, the heap, hundreds of GiB up, the
    // shadow region, and near the top of the supported VA space.
    TaggedMemory mem;
    const uint64_t addrs[] = {
        0x1000,
        kHeapBase + 123 * kPageBytes,
        300 * GiB + 0x2000,
        kShadowBase + 0x7000,
        (uint64_t{1} << 47) + 11 * kPageBytes,
    };
    uint64_t value = 0x1111;
    for (const uint64_t a : addrs) {
        mem.pageTable().map(a & ~(kPageBytes - 1), kPageBytes,
                            ProtRead | ProtWrite);
        mem.writeU64(a, value);
        value += 0x1111;
    }
    EXPECT_EQ(mem.residentPages(), std::size(addrs));
    value = 0x1111;
    for (const uint64_t a : addrs) {
        EXPECT_EQ(mem.readU64(a), value) << std::hex << a;
        // The neighbouring page stays unmaterialised.
        EXPECT_EQ(mem.pageIfPresent(a + kPageBytes), nullptr);
        value += 0x1111;
    }
}

TEST(PageDirectoryTest, BeyondVaWidthIsAbsentOrFatal)
{
    TaggedMemory mem;
    const uint64_t beyond = uint64_t{1} << 50;
    // Lookups of out-of-range addresses are well-defined misses...
    EXPECT_EQ(mem.pageIfPresent(beyond), nullptr);
    uint8_t byte = 0xab;
    mem.peekBytes(beyond, &byte, 1);
    EXPECT_EQ(byte, 0);
    // ...but materialising one is a configuration error.
    EXPECT_THROW(mem.shadowFill(beyond, 0xff, 1), FatalError);
}

TEST(PageDirectoryTest, ShadowStorePathSkipsTagClearing)
{
    TaggedMemory mem;
    const uint64_t base = 0x400000;
    mem.pageTable().map(base, kPageBytes, ProtRead | ProtWrite);
    const cap::Capability c = cap::Capability::root()
                                  .setAddress(base)
                                  .setBounds(64);
    mem.writeCap(base, c);
    ASSERT_TRUE(mem.readTag(base));

    // A normal data fill would clear the granule tag; the raw shadow
    // path deliberately does not (shadow bytes never carry tags, so
    // the shadow store skips the whole tag machinery).
    mem.shadowFill(base, 0x5a, kGranuleBytes);
    EXPECT_TRUE(mem.readTag(base));
    EXPECT_EQ(mem.peekU8(base + 3), 0x5a);

    // shadowApplyBits sets and clears individual bits atomically.
    mem.shadowApplyBits(base + 64, 0b1010, true);
    EXPECT_EQ(mem.peekU8(base + 64), 0b1010);
    mem.shadowApplyBits(base + 64, 0b0010, false);
    EXPECT_EQ(mem.peekU8(base + 64), 0b1000);
}

TEST(PageDirectoryTest, ConcurrentShadowBitApplication)
{
    // Eight threads OR disjoint bits into the same shared bytes; the
    // atomic RMW must lose no updates regardless of interleaving.
    TaggedMemory mem;
    const uint64_t base = kShadowBase;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kBytes = 512;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&mem, t] {
            for (uint64_t b = 0; b < kBytes; ++b) {
                mem.shadowApplyBits(
                    base + b, static_cast<uint8_t>(1u << t), true);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    for (uint64_t b = 0; b < kBytes; ++b)
        ASSERT_EQ(mem.peekU8(base + b), 0xff) << "byte " << b;
}

/** Paint @p runs serially: the reference every threaded paint must
 *  reproduce. Returns the statistics; the shadow holds the bytes. */
PaintStats
paintSerially(ShadowMap &shadow, const std::vector<QuarantineRun> &runs)
{
    PaintStats stats;
    for (const QuarantineRun &run : runs) {
        stats += shadow.paint(run.addr + alloc::kChunkHeader,
                              run.size - alloc::kChunkHeader);
    }
    return stats;
}

TEST(PageDirectoryTest, ThreadedPaintMatchesSerial)
{
    // A deterministic run list over a 4 MiB heap span, sized and
    // spaced so that many adjacent runs share a partial shadow byte.
    Rng rng(97);
    std::vector<QuarantineRun> runs;
    uint64_t cursor = kHeapBase;
    const uint64_t span_end = kHeapBase + 4 * MiB;
    while (cursor + 4096 < span_end) {
        QuarantineRun run;
        run.addr = cursor;
        run.size = alloc::kChunkHeader +
                   rng.nextLogUniform(16, 8 * KiB) / 16 * 16;
        runs.push_back(run);
        cursor = run.end() + rng.nextBounded(1024) / 16 * 16;
    }
    ASSERT_GT(runs.size(), 100u);

    const uint64_t s_lo = shadowAddrOf(kHeapBase);
    const uint64_t s_len = shadowAddrOf(span_end) - s_lo + 1;
    auto shadowOf = [&](const TaggedMemory &mem) {
        std::vector<uint8_t> bytes(s_len);
        mem.peekBytes(s_lo, bytes.data(), bytes.size());
        return bytes;
    };

    // The first five runs on eight threads: more threads than runs.
    const std::vector<QuarantineRun> few(runs.begin(), runs.begin() + 5);
    const std::vector<QuarantineRun> *lists[] = {&runs, &few};
    for (const std::vector<QuarantineRun> *list : lists) {
        TaggedMemory ref_mem;
        ShadowMap ref_shadow(ref_mem);
        const PaintStats ref_stats = paintSerially(ref_shadow, *list);
        const std::vector<uint8_t> ref_bytes = shadowOf(ref_mem);
        ASSERT_GT(ref_stats.total(), 0u);

        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            TaggedMemory mem;
            ShadowMap shadow(mem);
            const PaintStats stats =
                alloc::paintRuns(shadow, *list, threads);
            EXPECT_TRUE(stats == ref_stats)
                << list->size() << " runs, threads=" << threads;
            EXPECT_EQ(shadowOf(mem), ref_bytes)
                << "shadow contents diverged at " << list->size()
                << " runs, threads=" << threads;
        }
    }
}

TEST(PageDirectoryTest, ThreadedPaintOfNoRuns)
{
    TaggedMemory mem;
    ShadowMap shadow(mem);
    for (const unsigned threads : {1u, 4u}) {
        EXPECT_EQ(alloc::paintRuns(shadow, {}, threads).total(), 0u);
    }
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(PageDirectoryTest, ThreadedPaintSharingBytes)
{
    // Two adjacent paint ranges that split inside one shadow byte:
    // the two painters RMW the same byte concurrently, which must
    // lose neither half (the atomic shadowApplyBits path).
    for (int repeat = 0; repeat < 20; ++repeat) {
        TaggedMemory mem;
        ShadowMap shadow(mem);
        // countPainted reads through the checked path: map the
        // shadow pages covering the heap span.
        const uint64_t s_lo =
            alignDown(shadowAddrOf(kHeapBase), kPageBytes);
        const uint64_t s_hi =
            alignUp(shadowAddrOf(kHeapBase + 1 * MiB) + 1,
                    kPageBytes);
        mem.pageTable().map(s_lo, s_hi - s_lo,
                            ProtRead | ProtWrite);
        // Split at granule 3 of 8 within a shadow byte.
        const uint64_t split = kHeapBase + 3 * kGranuleBytes;
        const uint64_t end = kHeapBase + 64 * KiB;
        std::thread a([&] { shadow.paint(kHeapBase, split - kHeapBase); });
        std::thread b([&] { shadow.paint(split, end - split); });
        a.join();
        b.join();
        EXPECT_EQ(shadow.countPainted(kHeapBase, 64 * KiB),
                  64 * KiB / kGranuleBytes);
    }
}

} // namespace
} // namespace mem
} // namespace cherivoke
