/**
 * @file
 * Cross-module integration tests: whole-system scenarios, the
 * extension features (strict mode, CLoadTags prefetch), adversarial
 * capability forgery attempts, failure injection, and determinism.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "alloc/cherivoke_alloc.hh"
#include "baseline/dangsan.hh"
#include "cache/hierarchy.hh"
#include "revoke/revocation_engine.hh"
#include "sim/experiment.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workload/driver.hh"
#include "workload/synth.hh"

namespace cherivoke {
namespace {

using alloc::CherivokeAllocator;
using alloc::CherivokeConfig;
using cap::CapFault;
using cap::Capability;

CherivokeConfig
tinyConfig()
{
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 16;
    return cfg;
}

// ---------------------------------------------------------------
// Strict use-after-free mode (§3.7 extension)
// ---------------------------------------------------------------

TEST(StrictMode, RevokesBeforeAnyReallocation)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    revoke::RevocationEngine revoker(heap, space);
    auto &memory = space.memory();

    const Capability a = heap.malloc(64);
    memory.writeCap(mem::kGlobalsBase, a);
    // Strict free: the stale copy dies immediately, with no
    // intervening allocation at all.
    revoker.freeAndRevoke(a);
    EXPECT_FALSE(memory.readCap(mem::kGlobalsBase).tag());
}

TEST(StrictMode, OneSweepPerFree)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    revoke::RevocationEngine revoker(heap, space);
    for (int i = 0; i < 10; ++i)
        revoker.freeAndRevoke(heap.malloc(64));
    EXPECT_EQ(revoker.totals().epochs, 10u);
}

TEST(StrictMode, HeapStaysValid)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    revoke::RevocationEngine revoker(heap, space);
    Rng rng(3);
    std::vector<Capability> live;
    for (int i = 0; i < 300; ++i) {
        if (rng.nextBool(0.6) || live.empty()) {
            live.push_back(heap.malloc(rng.nextLogUniform(16, 512)));
        } else {
            const size_t idx = rng.nextBounded(live.size());
            revoker.freeAndRevoke(live[idx]);
            live.erase(live.begin() + static_cast<long>(idx));
        }
    }
    heap.dl().validateHeap();
}

// ---------------------------------------------------------------
// CLoadTags prefetch (§3.4.1 future work)
// ---------------------------------------------------------------

TEST(CloadTagsPrefetch, TaggedLinePrefetchedIntoLlc)
{
    cache::Hierarchy hier;
    const uint64_t line = 0x40000;
    // Without prefetch: tags resolved, data stays uncached.
    (void)hier.cloadTags(line, true, false, true);
    EXPECT_FALSE(hier.llc()->probe(line));
    // With prefetch and a non-zero tag response: line lands in LLC.
    (void)hier.cloadTags(line, true, true, true);
    EXPECT_TRUE(hier.llc()->probe(line));
    const cache::AccessOutcome after = hier.access(line, 8, false);
    EXPECT_EQ(after.level, cache::HitLevel::Llc);
}

TEST(CloadTagsPrefetch, TagFreeLineNotPrefetched)
{
    cache::Hierarchy hier;
    const uint64_t line = 0x80000;
    (void)hier.cloadTags(line, true, true, /*line_has_tags=*/false);
    EXPECT_FALSE(hier.llc()->probe(line))
        << "no point prefetching a line the sweep will skip";
}

TEST(CloadTagsPrefetch, SweepWithPrefetchSameOutcome)
{
    // Functional equivalence: prefetch only changes traffic shape.
    for (const bool prefetch : {false, true}) {
        mem::AddressSpace space;
        CherivokeAllocator heap(space, tinyConfig());
        auto &memory = space.memory();
        const Capability a = heap.malloc(64);
        memory.writeCap(mem::kGlobalsBase, a);
        heap.free(a);
        heap.prepareSweep();
        cache::Hierarchy hier;
        revoke::SweepOptions opts;
        opts.useCloadTags = true;
        opts.cloadTagsPrefetch = prefetch;
        revoke::Sweeper sweeper(opts);
        const revoke::SweepStats stats =
            sweeper.sweep(space, heap.shadowMap(), &hier);
        heap.finishSweep();
        EXPECT_EQ(stats.capsRevoked, 1u) << "prefetch=" << prefetch;
        EXPECT_FALSE(memory.readCap(mem::kGlobalsBase).tag());
    }
}

// ---------------------------------------------------------------
// Adversarial forgery attempts (§4.2: unforgeability)
// ---------------------------------------------------------------

TEST(Forgery, DataWritesCannotMintACapability)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    auto &memory = space.memory();
    const Capability real = heap.malloc(64);
    // Write the exact bit pattern of a real capability as data.
    memory.writeU64(mem::kGlobalsBase, real.packLow());
    memory.writeU64(mem::kGlobalsBase + 8, real.packHigh());
    const Capability forged = memory.readCap(mem::kGlobalsBase);
    EXPECT_FALSE(forged.tag()) << "no tag: just data";
    EXPECT_THROW((void)memory.loadU64(forged, forged.address()),
                 CapFault);
}

TEST(Forgery, PartialOverwriteKillsTheOriginalTag)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    auto &memory = space.memory();
    const Capability real = heap.malloc(64);
    memory.writeCap(mem::kGlobalsBase, real);
    ASSERT_TRUE(memory.readCap(mem::kGlobalsBase).tag());
    // Overwrite just the address half, hoping to retarget it.
    memory.writeU64(mem::kGlobalsBase, mem::kStackBase);
    const Capability tampered = memory.readCap(mem::kGlobalsBase);
    EXPECT_FALSE(tampered.tag())
        << "any data write to the granule clears the tag";
}

TEST(Forgery, RevokedCapabilityCannotBeRelaunched)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    revoke::RevocationEngine revoker(heap, space);
    auto &memory = space.memory();
    const Capability a = heap.malloc(64);
    memory.writeCap(mem::kGlobalsBase, a);
    revoker.freeAndRevoke(a);
    // Copying the untagged remains around does not revive them.
    memory.copyPreservingTags(mem::kGlobalsBase + 64,
                              mem::kGlobalsBase, 16);
    EXPECT_FALSE(memory.readCap(mem::kGlobalsBase + 64).tag());
    // Nor can CSetBounds: deriving from an untagged word faults.
    const Capability stale = memory.readCap(mem::kGlobalsBase);
    EXPECT_THROW(stale.setBounds(16), CapFault);
}

// ---------------------------------------------------------------
// Shared-page capability-store inhibit (§3.4.2 footnote)
// ---------------------------------------------------------------

TEST(CapStoreInhibit, SharedPageRefusesCapabilities)
{
    mem::AddressSpace space;
    auto &memory = space.memory();
    // Map a "shared file" page with the S bit.
    const uint64_t shared = 0x7000'0000;
    memory.pageTable().map(shared, kPageBytes,
                           mem::ProtRead | mem::ProtWrite,
                           /*cap_store_inhibit=*/true);
    CherivokeAllocator heap(space, tinyConfig());
    const Capability a = heap.malloc(64);
    EXPECT_THROW(memory.writeCap(shared, a), CapFault);
    // Data is fine; the page can never hold tags, so sweeps skip it
    // via PTE CapDirty forever.
    memory.writeU64(shared, 123);
    EXPECT_FALSE(memory.pageTable().lookup(shared)->capDirty);
}

// ---------------------------------------------------------------
// Realloc chains across revocation epochs
// ---------------------------------------------------------------

TEST(ReallocEpochs, GrowingVectorSurvivesManyEpochs)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 1024;
    CherivokeAllocator heap(space, cfg);
    revoke::RevocationEngine revoker(heap, space);
    auto &memory = space.memory();

    // Simulate std::vector-style growth with live contents.
    Capability vec = heap.malloc(32);
    const Capability elem = heap.malloc(16);
    memory.storeCap(vec, vec.base(), elem);
    for (uint64_t cap_bytes = 64; cap_bytes <= 16 * 1024;
         cap_bytes *= 2) {
        vec = heap.realloc(vec, cap_bytes);
        revoker.maybeRevoke();
        // The stored element pointer must survive every move.
        const Capability loaded = memory.loadCap(vec, vec.base());
        ASSERT_TRUE(loaded.tag());
        ASSERT_EQ(loaded, elem);
    }
    heap.dl().validateHeap();
    EXPECT_GT(revoker.totals().epochs, 0u);
}

// ---------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------

TEST(FailureInjection, FreeOfInteriorPointerFaults)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    const Capability a = heap.malloc(256);
    const Capability interior =
        a.setAddress(a.base() + 32).setBounds(16);
    EXPECT_THROW(heap.free(interior), FatalError)
        << "interior pointers are not allocation starts";
}

TEST(FailureInjection, FreeOfStackAddressFaults)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    const Capability stack_cap = space.rootCap()
                                     .setAddress(mem::kStackBase + 64)
                                     .setBounds(16);
    EXPECT_THROW(heap.free(stack_cap), FatalError);
}

TEST(FailureInjection, ReallocOfFreedAllocationFaults)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    const Capability a = heap.malloc(64);
    heap.free(a);
    EXPECT_THROW(heap.realloc(a, 128), FatalError);
}

TEST(FailureInjection, DoubleFreeAcrossEpochStillCaught)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    revoke::RevocationEngine revoker(heap, space);
    const Capability a = heap.malloc(64);
    heap.free(a);
    revoker.revokeNow();
    // The chunk is back on the free list (not quarantined); a second
    // free of the stale capability must still be rejected.
    EXPECT_THROW(heap.free(a), FatalError);
}

TEST(FailureInjection, SweepWithEmptyQuarantineIsANoop)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyConfig());
    revoke::RevocationEngine revoker(heap, space);
    const Capability keep = heap.malloc(64);
    space.memory().writeCap(mem::kGlobalsBase, keep);
    const revoke::EpochStats epoch = revoker.revokeNow();
    EXPECT_EQ(epoch.sweep.capsRevoked, 0u);
    EXPECT_TRUE(space.memory().readCap(mem::kGlobalsBase).tag());
}

TEST(FailureInjection, HeapGrowthUnderPressure)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 64 * KiB;
    cfg.dl.initialHeapBytes = 256 * KiB;
    cfg.dl.growthChunkBytes = 256 * KiB;
    CherivokeAllocator heap(space, cfg);
    revoke::RevocationEngine revoker(heap, space);
    // Allocate far beyond the initial mapping, with frees held in
    // quarantine (which delays reuse and forces more growth).
    std::vector<Capability> live;
    for (int i = 0; i < 200; ++i) {
        live.push_back(heap.malloc(64 * KiB));
        if (i % 3 == 0 && live.size() > 2) {
            heap.free(live.front());
            live.erase(live.begin());
        }
        revoker.maybeRevoke();
    }
    EXPECT_GT(heap.footprintBytes(), 4 * MiB);
    heap.dl().validateHeap();
}

// ---------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------

TEST(Determinism, SameSeedSameTrace)
{
    const workload::BenchmarkProfile &p =
        workload::profileFor("dealII");
    workload::SynthConfig cfg;
    cfg.durationSec = 0.05;
    const workload::Trace a = workload::synthesize(p, cfg);
    const workload::Trace b = workload::synthesize(p, cfg);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    std::ostringstream sa, sb;
    a.save(sa);
    b.save(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(Determinism, ReplayTwiceSameMeasurements)
{
    const workload::BenchmarkProfile &p =
        workload::profileFor("omnetpp");
    workload::SynthConfig cfg;
    cfg.durationSec = 0.05;
    const workload::Trace trace = workload::synthesize(p, cfg);

    auto run_once = [&]() {
        mem::AddressSpace space;
        CherivokeConfig acfg;
        acfg.minQuarantineBytes = 64 * KiB;
        CherivokeAllocator heap(space, acfg);
        revoke::RevocationEngine revoker(heap, space);
        workload::TraceDriver driver(space, heap, &revoker);
        return driver.run(trace);
    };
    const workload::DriverResult r1 = run_once();
    const workload::DriverResult r2 = run_once();
    EXPECT_EQ(r1.allocCalls, r2.allocCalls);
    EXPECT_EQ(r1.freeCalls, r2.freeCalls);
    EXPECT_EQ(r1.revoker.epochs, r2.revoker.epochs);
    EXPECT_EQ(r1.revoker.sweep.capsRevoked,
              r2.revoker.sweep.capsRevoked);
    EXPECT_EQ(r1.peakQuarantineBytes, r2.peakQuarantineBytes);
}

// ---------------------------------------------------------------
// CHERIvoke vs DangSan differential on the same trace shape
// ---------------------------------------------------------------

TEST(Differential, RegistrySchemePaysPerStoreCherivokeDoesNot)
{
    // N pointer stores into one allocation: DangSan's registry holds
    // N entries; CHERIvoke keeps zero mutator-side metadata.
    mem::AddressSpace s1, s2;
    alloc::DlAllocator dl(s1);
    baseline::DangSan dangsan(s1, dl);
    CherivokeAllocator cherivoke(s2, tinyConfig());

    const Capability hub_d = dangsan.malloc(64);
    const Capability hub_c = cherivoke.malloc(64);
    for (uint64_t i = 0; i < 256; ++i) {
        dangsan.recordPointerStore(mem::kGlobalsBase + i * 16,
                                   hub_d);
        s2.memory().writeCap(mem::kGlobalsBase + i * 16, hub_c);
    }
    EXPECT_EQ(dangsan.stats().registryEntries, 256u);
    EXPECT_GE(dangsan.stats().registryBytes, 4096u);
    // CHERIvoke: the tags *are* the metadata — nothing extra beyond
    // the 256 capability stores themselves.
    EXPECT_EQ(s2.memory().counters().capWrites, 256u);
}

} // namespace
} // namespace cherivoke
