/**
 * @file
 * Unit tests for the page table and PTE CapDirty semantics (§3.4.2),
 * including the edges of its two-level radix layout: 1 GiB leaf
 * boundaries, tenant slots, remaps and the 48-bit VA limit.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/addr_space.hh"
#include "mem/page_table.hh"
#include "support/logging.hh"
#include "tenant/tenant_manager.hh"

namespace cherivoke {
namespace mem {
namespace {

TEST(PageTable, MapAndLookup)
{
    PageTable pt;
    pt.map(0x10000, 4 * kPageBytes, ProtRead | ProtWrite);
    EXPECT_TRUE(pt.isMapped(0x10000));
    EXPECT_TRUE(pt.isMapped(0x10000 + 4 * kPageBytes - 1));
    EXPECT_FALSE(pt.isMapped(0x10000 + 4 * kPageBytes));
    EXPECT_FALSE(pt.isMapped(0xffff));
    EXPECT_EQ(pt.pageCount(), 4u);
}

TEST(PageTable, UnmapRemovesEntries)
{
    PageTable pt;
    pt.map(0x10000, 4 * kPageBytes, ProtRead);
    pt.unmap(0x10000 + kPageBytes, 2 * kPageBytes);
    EXPECT_TRUE(pt.isMapped(0x10000));
    EXPECT_FALSE(pt.isMapped(0x10000 + kPageBytes));
    EXPECT_FALSE(pt.isMapped(0x10000 + 2 * kPageBytes));
    EXPECT_TRUE(pt.isMapped(0x10000 + 3 * kPageBytes));
}

TEST(PageTable, MisalignedMapPanics)
{
    PageTable pt;
    EXPECT_THROW(pt.map(0x10008, kPageBytes, ProtRead), PanicError);
    EXPECT_THROW(pt.map(0x10000, 100, ProtRead), PanicError);
}

TEST(PageTable, CapDirtyTrapOnlyOnFirstTransition)
{
    PageTable pt;
    pt.map(0x20000, kPageBytes, ProtRead | ProtWrite);
    EXPECT_FALSE(pt.lookup(0x20000)->capDirty);
    EXPECT_TRUE(pt.setCapDirty(0x20100)) << "first set is a trap";
    EXPECT_FALSE(pt.setCapDirty(0x20200)) << "second set is silent";
    EXPECT_TRUE(pt.lookup(0x20000)->capDirty);
}

TEST(PageTable, ClearCapDirtyResets)
{
    PageTable pt;
    pt.map(0x20000, kPageBytes, ProtRead | ProtWrite);
    pt.setCapDirty(0x20000);
    pt.clearCapDirty(0x20000);
    EXPECT_FALSE(pt.lookup(0x20000)->capDirty);
    EXPECT_TRUE(pt.setCapDirty(0x20000)) << "trap fires again";
}

TEST(PageTable, CapDirtyPagesSortedAndFiltered)
{
    PageTable pt;
    pt.map(0x30000, 8 * kPageBytes, ProtRead | ProtWrite);
    pt.setCapDirty(0x30000 + 5 * kPageBytes);
    pt.setCapDirty(0x30000 + 1 * kPageBytes);
    const auto pages = pt.capDirtyPages();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0], 0x30000 + 1 * kPageBytes);
    EXPECT_EQ(pages[1], 0x30000 + 5 * kPageBytes);
    EXPECT_EQ(pt.capDirtyCount(), 2u);
}

TEST(PageTable, MappedPagesEnumeration)
{
    PageTable pt;
    pt.map(0x40000, 2 * kPageBytes, ProtRead);
    pt.map(0x80000, kPageBytes, ProtRead);
    const auto pages = pt.mappedPages();
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0], 0x40000u);
    EXPECT_EQ(pages[2], 0x80000u);
}

TEST(PageTable, CapStoreInhibitFlagPreserved)
{
    PageTable pt;
    pt.map(0x50000, kPageBytes, ProtRead | ProtWrite,
           /*cap_store_inhibit=*/true);
    EXPECT_TRUE(pt.lookup(0x50000)->capStoreInhibit);
}

TEST(PageTable, RemapUpdatesProtection)
{
    PageTable pt;
    pt.map(0x60000, kPageBytes, ProtRead);
    pt.map(0x60000, kPageBytes, ProtRead | ProtWrite);
    EXPECT_EQ(pt.lookup(0x60000)->prot, ProtRead | ProtWrite);
}

TEST(PageTable, EnumerationsInAddressOrderAcrossLeavesAndSlots)
{
    // Two tenant slots, mapped the later slot first. Each slot's
    // heap starts on a 1 GiB leaf boundary, so every range below
    // straddles two leaves.
    PageTable pt;
    std::vector<uint64_t> mapped, dirty;
    for (const uint64_t slot : {1u, 0u}) {
        const uint64_t edge = slot * tenant::kTenantStride + kHeapBase;
        ASSERT_EQ(edge % GiB, 0u);
        pt.map(edge - 2 * kPageBytes, 4 * kPageBytes,
               ProtRead | ProtWrite);
        pt.setCapDirty(edge - kPageBytes);
        pt.setCapDirty(edge + kPageBytes);
    }
    for (const uint64_t slot : {0u, 1u}) {
        const uint64_t edge = slot * tenant::kTenantStride + kHeapBase;
        for (uint64_t p = edge - 2 * kPageBytes;
             p < edge + 2 * kPageBytes; p += kPageBytes)
            mapped.push_back(p);
        dirty.push_back(edge - kPageBytes);
        dirty.push_back(edge + kPageBytes);
    }
    EXPECT_EQ(pt.mappedPages(), mapped);
    EXPECT_EQ(pt.capDirtyPages(), dirty);
    EXPECT_EQ(pt.capDirtyCount(), 4u);
    EXPECT_EQ(pt.pageCount(), 8u);
}

TEST(PageTable, UnmapThenRemapResetsCapDirtyAndProtection)
{
    PageTable pt;
    pt.map(0x70000, 2 * kPageBytes, ProtRead | ProtWrite,
           /*cap_store_inhibit=*/true);
    pt.setCapDirty(0x70000);
    pt.unmap(0x70000, 2 * kPageBytes);
    EXPECT_EQ(pt.lookup(0x70000), nullptr);
    EXPECT_EQ(pt.pageCount(), 0u);
    EXPECT_TRUE(pt.capDirtyPages().empty());

    pt.map(0x70000, kPageBytes, ProtRead);
    const Pte *pte = pt.lookup(0x70000);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->prot, ProtRead);
    EXPECT_FALSE(pte->capStoreInhibit);
    EXPECT_FALSE(pte->capDirty);
    EXPECT_TRUE(pt.setCapDirty(0x70000)) << "the trap fires again";
}

TEST(PageTable, OverlappingMapsCountEachPageOnce)
{
    PageTable pt;
    pt.map(0x100000, 4 * kPageBytes, ProtRead);
    pt.setCapDirty(0x100000 + 3 * kPageBytes);
    pt.map(0x100000 + 2 * kPageBytes, 4 * kPageBytes,
           ProtRead | ProtWrite);
    EXPECT_EQ(pt.pageCount(), 6u);
    EXPECT_EQ(pt.mappedPages().size(), 6u);
    // Remapping a mapped page keeps its CapDirty flag: the page
    // still holds whatever was stored in it.
    EXPECT_TRUE(pt.lookup(0x100000 + 3 * kPageBytes)->capDirty);
    EXPECT_EQ(pt.lookup(0x100000 + 3 * kPageBytes)->prot,
              ProtRead | ProtWrite);

    pt.unmap(0x100000 + kPageBytes, 2 * kPageBytes);
    EXPECT_EQ(pt.pageCount(), 4u);
    // Unmapping pages that are not mapped changes nothing.
    pt.unmap(0x100000 + kPageBytes, 2 * kPageBytes);
    EXPECT_EQ(pt.pageCount(), 4u);
    pt.unmap(0x100000, 8 * kPageBytes);
    EXPECT_EQ(pt.pageCount(), 0u);
    EXPECT_TRUE(pt.mappedPages().empty());
}

TEST(PageTable, BeyondVaWidthIsAbsentOrFatal)
{
    PageTable pt;
    const uint64_t limit = uint64_t{1} << 48;
    // Lookups past the 48-bit VA are well-defined misses...
    EXPECT_EQ(pt.lookup(limit), nullptr);
    EXPECT_FALSE(pt.isMapped(uint64_t{1} << 50));
    // ...but mapping there is a configuration error, as
    // materialising a page there is.
    EXPECT_THROW(pt.map(limit, kPageBytes, ProtRead), FatalError);
    EXPECT_EQ(pt.pageCount(), 0u);
    pt.unmap(limit, kPageBytes);

    pt.map(limit - kPageBytes, kPageBytes, ProtRead);
    EXPECT_TRUE(pt.isMapped(limit - 1));
    EXPECT_EQ(pt.mappedPages(),
              std::vector<uint64_t>{limit - kPageBytes});
}

} // namespace
} // namespace mem
} // namespace cherivoke
