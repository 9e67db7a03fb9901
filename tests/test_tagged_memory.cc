/**
 * @file
 * Unit tests for tagged memory: tag propagation, tag clearing on data
 * overwrite, CapDirty traps, checked CheriABI accesses, and the
 * CLoadTags line-mask path.
 */

#include <gtest/gtest.h>

#include "cap/capability.hh"
#include "mem/tagged_memory.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace mem {
namespace {

using cap::CapFault;
using cap::Capability;
using cap::FaultKind;

class TaggedMemoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        mem.pageTable().map(kBase, 16 * kPageBytes,
                            ProtRead | ProtWrite);
    }

    Capability
    capTo(uint64_t base, uint64_t len)
    {
        return Capability::root().setAddress(base).setBounds(len)
            .andPerms(cap::kPermsData);
    }

    static constexpr uint64_t kBase = 0x100000;
    TaggedMemory mem;
};

TEST_F(TaggedMemoryTest, DataRoundTrip)
{
    mem.writeU64(kBase, 0xdeadbeef12345678ULL);
    EXPECT_EQ(mem.readU64(kBase), 0xdeadbeef12345678ULL);
}

TEST_F(TaggedMemoryTest, UntouchedMappedMemoryReadsZero)
{
    EXPECT_EQ(mem.readU64(kBase + 0x800), 0u);
    EXPECT_FALSE(mem.readTag(kBase + 0x800));
}

TEST_F(TaggedMemoryTest, UnmappedAccessFaults)
{
    EXPECT_THROW(mem.readU64(0x10), CapFault);
    EXPECT_THROW(mem.writeU64(0x10, 1), CapFault);
}

TEST_F(TaggedMemoryTest, CrossPageWriteAndRead)
{
    std::vector<uint8_t> buf(kPageBytes + 128, 0xab);
    mem.writeBytes(kBase + kPageBytes - 64, buf.data(), buf.size());
    std::vector<uint8_t> out(buf.size());
    mem.readBytes(kBase + kPageBytes - 64, out.data(), out.size());
    EXPECT_EQ(buf, out);
}

TEST_F(TaggedMemoryTest, CapStoreSetsTag)
{
    const Capability c = capTo(kBase, 64);
    mem.writeCap(kBase + 0x100, c);
    EXPECT_TRUE(mem.readTag(kBase + 0x100));
    const Capability r = mem.readCap(kBase + 0x100);
    EXPECT_TRUE(r.tag());
    EXPECT_EQ(r, c);
}

TEST_F(TaggedMemoryTest, MisalignedCapAccessFaults)
{
    const Capability c = capTo(kBase, 64);
    EXPECT_THROW(mem.writeCap(kBase + 8, c), CapFault);
    EXPECT_THROW(mem.readCap(kBase + 4), CapFault);
}

TEST_F(TaggedMemoryTest, DataOverwriteClearsTag)
{
    const Capability c = capTo(kBase, 64);
    mem.writeCap(kBase + 0x100, c);
    ASSERT_TRUE(mem.readTag(kBase + 0x100));
    // Any byte within the granule kills the tag (§2.2).
    mem.writeU64(kBase + 0x108, 42);
    EXPECT_FALSE(mem.readTag(kBase + 0x100));
    // The data itself is untouched apart from the written word.
    const Capability r = mem.readCap(kBase + 0x100);
    EXPECT_FALSE(r.tag());
    EXPECT_EQ(mem.counters().tagsClearedByOverwrite, 1u);
}

TEST_F(TaggedMemoryTest, FillClearsTagsAcrossRange)
{
    const Capability c = capTo(kBase, 64);
    for (int i = 0; i < 4; ++i)
        mem.writeCap(kBase + 0x200 + i * 16, c);
    mem.fill(kBase + 0x200, 0, 64);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(mem.readTag(kBase + 0x200 + i * 16));
}

TEST_F(TaggedMemoryTest, UntaggedCapStoreClearsTag)
{
    const Capability c = capTo(kBase, 64);
    mem.writeCap(kBase + 0x300, c);
    mem.writeCap(kBase + 0x300, c.withTagCleared());
    EXPECT_FALSE(mem.readTag(kBase + 0x300));
}

TEST_F(TaggedMemoryTest, CapDirtyTrapCountedOncePerPage)
{
    const Capability c = capTo(kBase, 64);
    mem.writeCap(kBase, c);
    mem.writeCap(kBase + 16, c);
    EXPECT_EQ(mem.counters().capDirtyTraps, 1u);
    mem.writeCap(kBase + kPageBytes, c);
    EXPECT_EQ(mem.counters().capDirtyTraps, 2u);
    EXPECT_EQ(mem.pageTable().capDirtyCount(), 2u);
}

TEST_F(TaggedMemoryTest, CapStoreInhibitFaults)
{
    mem.pageTable().map(0x900000, kPageBytes, ProtRead | ProtWrite,
                        /*cap_store_inhibit=*/true);
    const Capability c = capTo(kBase, 64);
    try {
        mem.writeCap(0x900000, c);
        FAIL() << "expected CapFault";
    } catch (const CapFault &f) {
        EXPECT_EQ(f.kind(), FaultKind::CapStoreInhibit);
    }
    // Untagged stores are fine.
    EXPECT_NO_THROW(mem.writeCap(0x900000, c.withTagCleared()));
}

TEST_F(TaggedMemoryTest, ClearTagAtRevokesWithoutDataLoss)
{
    const Capability c = capTo(kBase + 0x400, 32);
    mem.writeCap(kBase + 0x400, c);
    mem.clearTagAt(kBase + 0x400);
    EXPECT_FALSE(mem.readTag(kBase + 0x400));
    const Capability r = mem.readCap(kBase + 0x400);
    EXPECT_EQ(r.address(), c.address()) << "address bits preserved";
    EXPECT_EQ(r.base(), c.base()) << "bounds bits preserved";
}

TEST_F(TaggedMemoryTest, LineTagMask)
{
    const Capability c = capTo(kBase, 64);
    const uint64_t line = kBase + 0x1000;
    EXPECT_EQ(mem.lineTagMask(line), 0u);
    mem.writeCap(line + 0, c);
    mem.writeCap(line + 48, c);
    EXPECT_EQ(mem.lineTagMask(line), 0b1001u);
    mem.writeU64(line + 48, 0);
    EXPECT_EQ(mem.lineTagMask(line), 0b0001u);
}

TEST_F(TaggedMemoryTest, PageTagCountTracksSetsAndClears)
{
    const Capability c = capTo(kBase, 64);
    EXPECT_FALSE(mem.pageHasTags(kBase + 0x2000));
    mem.writeCap(kBase + 0x2000, c);
    mem.writeCap(kBase + 0x2010, c);
    EXPECT_EQ(mem.pageTagCount(kBase + 0x2000), 2u);
    mem.clearTagAt(kBase + 0x2000);
    EXPECT_EQ(mem.pageTagCount(kBase + 0x2000), 1u);
    EXPECT_TRUE(mem.pageHasTags(kBase + 0x2010));
}

TEST_F(TaggedMemoryTest, CheckedLoadStoreEnforcesTag)
{
    Capability c = capTo(kBase, 64);
    mem.storeU64(c, kBase, 7);
    EXPECT_EQ(mem.loadU64(c, kBase), 7u);
    c.clearTag();
    EXPECT_THROW(mem.loadU64(c, kBase), CapFault);
    EXPECT_THROW(mem.storeU64(c, kBase, 1), CapFault);
}

TEST_F(TaggedMemoryTest, CheckedAccessEnforcesBounds)
{
    const Capability c = capTo(kBase, 64);
    EXPECT_THROW(mem.loadU64(c, kBase + 64), CapFault);
    EXPECT_THROW(mem.loadU64(c, kBase + 60), CapFault)
        << "partially out-of-bounds 8-byte load";
    EXPECT_THROW(mem.storeU64(c, kBase - 8, 0), CapFault);
}

TEST_F(TaggedMemoryTest, CheckedAccessEnforcesPerms)
{
    const Capability ro =
        capTo(kBase, 64).andPerms(cap::PermLoad | cap::PermLoadCap);
    EXPECT_EQ(mem.loadU64(ro, kBase), 0u);
    EXPECT_THROW(mem.storeU64(ro, kBase, 1), CapFault);

    const Capability no_caps =
        capTo(kBase, 64).andPerms(cap::PermLoad | cap::PermStore);
    EXPECT_THROW(mem.loadCap(no_caps, kBase), CapFault);
    EXPECT_THROW(mem.storeCap(no_caps, kBase, capTo(kBase, 16)),
                 CapFault);
}

TEST_F(TaggedMemoryTest, CheckedCapRoundTrip)
{
    const Capability auth = capTo(kBase, 4096);
    const Capability value = capTo(kBase + 128, 32);
    mem.storeCap(auth, kBase + 16, value);
    const Capability r = mem.loadCap(auth, kBase + 16);
    EXPECT_TRUE(r.tag());
    EXPECT_EQ(r, value);
}

TEST_F(TaggedMemoryTest, ResidentPagesLazy)
{
    EXPECT_EQ(mem.residentPages(), 0u);
    mem.writeU64(kBase, 1);
    EXPECT_EQ(mem.residentPages(), 1u);
    (void)mem.readU64(kBase + 8 * kPageBytes); // read doesn't allocate
    EXPECT_EQ(mem.residentPages(), 1u);
}

} // namespace
} // namespace mem
} // namespace cherivoke
