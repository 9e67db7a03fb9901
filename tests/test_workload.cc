/**
 * @file
 * Tests for the workload substrate: profile data integrity, trace
 * serialisation, the synthesiser's convergence to table 2 targets,
 * and the driver's measurements.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <tuple>

#include "support/logging.hh"
#include "support/units.hh"
#include "tenant/trace_codec.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"
#include "workload/trace.hh"

namespace cherivoke {
namespace workload {
namespace {

TEST(Profiles, AllSeventeenPresent)
{
    EXPECT_EQ(specProfiles().size(), 17u);
    EXPECT_EQ(figure5Profiles().size(), 16u);
    EXPECT_NO_THROW(profileFor("ffmpeg"));
    EXPECT_THROW(profileFor("gcc"), FatalError);
}

TEST(Profiles, Table2ValuesVerbatim)
{
    // Spot-check table 2 rows against the paper.
    const auto &xalan = profileFor("xalancbmk");
    EXPECT_DOUBLE_EQ(xalan.pagesWithPointers, 0.86);
    EXPECT_DOUBLE_EQ(xalan.freeRateMiBps, 371.0);
    EXPECT_DOUBLE_EQ(xalan.freesPerSec, 811000.0);
    const auto &omnetpp = profileFor("omnetpp");
    EXPECT_DOUBLE_EQ(omnetpp.pagesWithPointers, 0.95);
    EXPECT_DOUBLE_EQ(omnetpp.freeRateMiBps, 175.0);
    const auto &bzip2 = profileFor("bzip2");
    EXPECT_DOUBLE_EQ(bzip2.freeRateMiBps, 0.0);
    EXPECT_FALSE(bzip2.allocationIntensive());
    const auto &ffmpeg = profileFor("ffmpeg");
    EXPECT_DOUBLE_EQ(ffmpeg.freeRateMiBps, 1268.0);
}

TEST(Profiles, MeanAllocSizeImpliedByTable2)
{
    // dealII: 40 MiB/s over 498k frees/s ~ 84 bytes.
    EXPECT_NEAR(profileFor("dealII").meanAllocBytes(), 84.2, 1.0);
    // omnetpp: 175 MiB/s over 1027k frees/s ~ 179 bytes.
    EXPECT_NEAR(profileFor("omnetpp").meanAllocBytes(), 178.7, 1.0);
    // ffmpeg: 1268 MiB/s over 44k frees/s ~ 30 KiB.
    EXPECT_NEAR(profileFor("ffmpeg").meanAllocBytes(), 30217.0,
                100.0);
}

TEST(Trace, SaveLoadRoundTrip)
{
    TraceOp a;
    a.kind = OpKind::Malloc;
    a.id = 1;
    a.size = 128;
    a.dt = 0.25;
    TraceOp b;
    b.kind = OpKind::StorePtr;
    b.src = 1;
    b.dst = 1;
    b.offset = 32;
    TraceOp c;
    c.kind = OpKind::Free;
    c.id = 1;
    c.dt = 0.5;
    const Trace trace{std::vector<TraceOp>{a, b, c}};

    std::stringstream ss;
    trace.save(ss);
    const Trace loaded = Trace::load(ss);
    ASSERT_EQ(loaded.ops.size(), 3u);
    EXPECT_EQ(loaded.ops[0].kind, OpKind::Malloc);
    EXPECT_EQ(loaded.ops[0].size, 128u);
    EXPECT_EQ(loaded.ops[1].kind, OpKind::StorePtr);
    EXPECT_EQ(loaded.ops[1].offset, 32u);
    EXPECT_NEAR(loaded.virtualSeconds(), 0.75, 1e-9);
}

TEST(TraceReplayer, ReplaysATemporaryTrace)
{
    // The replayer keeps its own handle to the ops, so one built
    // from a temporary Trace replays it after the temporary is gone,
    // exactly as a driver replays the same trace held by name.
    SynthConfig cfg;
    cfg.scale = 1.0 / 512;
    cfg.durationSec = 2.0;
    cfg.seed = 3;
    const BenchmarkProfile &profile = profileFor("dealII");
    // A small quarantine budget, so the replay runs several epochs.
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = 0.05;
    acfg.minQuarantineBytes = 16 * KiB;
    acfg.dl.initialHeapBytes = 256 * KiB;
    acfg.dl.growthChunkBytes = 128 * KiB;

    const Trace named = synthesize(profile, cfg);
    mem::AddressSpace space_a;
    alloc::CherivokeAllocator alloc_a(space_a, acfg);
    revoke::RevocationEngine engine_a(alloc_a, space_a);
    const DriverResult want =
        TraceDriver(space_a, alloc_a, &engine_a).run(named);

    mem::AddressSpace space_b;
    alloc::CherivokeAllocator alloc_b(space_b, acfg);
    revoke::RevocationEngine engine_b(alloc_b, space_b);
    TraceReplayer replayer(space_b, alloc_b, &engine_b,
                           synthesize(profile, cfg));
    ASSERT_EQ(replayer.opsTotal(), named.ops.size());
    while (!replayer.done())
        replayer.step();
    const DriverResult got = replayer.finish();
    EXPECT_EQ(got.allocCalls, want.allocCalls);
    EXPECT_EQ(got.freeCalls, want.freeCalls);
    EXPECT_EQ(got.freedBytes, want.freedBytes);
    EXPECT_EQ(got.ptrStores, want.ptrStores);
    EXPECT_EQ(got.peakLiveAllocs, want.peakLiveAllocs);
    EXPECT_GT(got.revoker.epochs, 0u);
    EXPECT_EQ(got.revoker, want.revoker);
}

/** The ops of a hand-built trace, each with whether the replay must
 *  skip it. */
struct IdRuleOp
{
    TraceOp op;
    bool skipped;
};

TraceOp
opOf(OpKind kind)
{
    TraceOp op;
    op.kind = kind;
    op.dt = 1e-3;
    return op;
}

TraceOp
mallocOp(uint64_t id, uint64_t size)
{
    TraceOp op = opOf(OpKind::Malloc);
    op.id = id;
    op.size = size;
    return op;
}

TraceOp
freeOp(uint64_t id)
{
    TraceOp op = opOf(OpKind::Free);
    op.id = id;
    return op;
}

TraceOp
storePtrOp(uint64_t dst, uint64_t src, uint32_t offset)
{
    TraceOp op = opOf(OpKind::StorePtr);
    op.src = src;
    op.dst = dst;
    op.offset = offset;
    return op;
}

TraceOp
storeDataOp(uint64_t dst, uint32_t offset)
{
    TraceOp op = opOf(OpKind::StoreData);
    op.dst = dst;
    op.offset = offset;
    return op;
}

TraceOp
rootPtrOp(uint64_t src, uint32_t slot)
{
    TraceOp op = opOf(OpKind::RootPtr);
    op.src = src;
    op.offset = slot;
    return op;
}

/**
 * Every rule the replay applies to allocation ids, over allocations
 * @p a, @p b and @p c and an id @p ghost that is never allocated: a
 * Malloc of a live id keeps the first capability; a Free of an
 * unknown or already freed id is skipped; a pointer op that names a
 * dead or never-allocated id is skipped; a freed id may be allocated
 * again.
 */
std::vector<IdRuleOp>
idRulesOps(uint64_t a, uint64_t b, uint64_t c, uint64_t ghost)
{
    return {
        {mallocOp(a, 64), false},
        {mallocOp(b, 128), false},
        {mallocOp(a, 512), false}, // a stays the 64-byte allocation
        {storePtrOp(a, b, 4000), false},
        {storeDataOp(a, 8), false},
        {rootPtrOp(a, 3), false},
        {freeOp(ghost), true},
        {mallocOp(c, 48), false},
        {freeOp(b), false},
        {freeOp(b), true}, // double free
        {storePtrOp(b, a, 0), true},     // dead dst
        {storePtrOp(a, b, 0), true},     // dead src
        {storePtrOp(a, ghost, 0), true}, // never-allocated src
        {storePtrOp(ghost, a, 0), true}, // never-allocated dst
        {storeDataOp(b, 0), true},
        {storeDataOp(ghost, 0), true},
        {rootPtrOp(b, 1), true},
        {rootPtrOp(ghost, 1), true},
        {storePtrOp(c, a, 16), false},
        {freeOp(a), false},
        {mallocOp(b, 32), false}, // a freed id is allocated again
        {storePtrOp(b, c, 0), false},
        {freeOp(c), false},
    };
}

Trace
traceOf(const std::vector<IdRuleOp> &rules)
{
    std::vector<TraceOp> ops;
    for (const IdRuleOp &r : rules)
        ops.push_back(r.op);
    return Trace{std::move(ops)};
}

/** A machine whose quarantine budget is small enough that the id
 *  rules trace opens a revocation epoch, which revokes capabilities
 *  the trace stored. */
struct IdRulesMachine
{
    static alloc::CherivokeConfig
    config()
    {
        alloc::CherivokeConfig acfg;
        acfg.minQuarantineBytes = 128;
        acfg.dl.initialHeapBytes = 64 * KiB;
        return acfg;
    }

    mem::AddressSpace space;
    alloc::CherivokeAllocator allocator{space, config()};
    revoke::RevocationEngine engine{allocator, space};
};

TEST(TraceReplayer, AppliesTheIdRules)
{
    // a = 0: id 0 is an ordinary id.
    const std::vector<IdRuleOp> rules = idRulesOps(0, 7, 3, 12);
    IdRulesMachine m;
    TraceReplayer replayer(m.space, m.allocator, &m.engine,
                           traceOf(rules));
    uint64_t derefs = 0;
    replayer.setDeref([&](uint64_t n) {
        derefs += n;
        m.engine.notePointerUse(n);
    });
    for (size_t i = 0; i < rules.size(); ++i) {
        const DriverResult before = replayer.partial();
        const uint64_t live = replayer.liveObjects();
        const uint64_t derefs_before = derefs;
        replayer.step();
        const DriverResult &after = replayer.partial();
        if (!rules[i].skipped) {
            if (i == 2) {
                // Op 2, the Malloc of live a, allocated, but a kept
                // its first capability and nothing became live.
                EXPECT_EQ(after.allocCalls, 3u);
                EXPECT_EQ(replayer.liveObjects(), 2u);
            }
            if (i == 19) {
                // Op 19, Free a, frees the 64-byte allocation, not
                // the 512-byte one the duplicate Malloc made.
                EXPECT_LT(after.freedBytes - before.freedBytes, 512u);
            }
            continue;
        }
        EXPECT_EQ(after.allocCalls, before.allocCalls) << "op " << i;
        EXPECT_EQ(after.freeCalls, before.freeCalls) << "op " << i;
        EXPECT_EQ(after.freedBytes, before.freedBytes) << "op " << i;
        EXPECT_EQ(after.ptrStores, before.ptrStores) << "op " << i;
        EXPECT_EQ(replayer.liveObjects(), live) << "op " << i;
        EXPECT_EQ(derefs, derefs_before) << "op " << i;
    }
    EXPECT_EQ(replayer.liveObjects(), 1u);
    EXPECT_EQ(derefs, 5u);

    // Literal values, so the replay's id semantics cannot drift.
    const DriverResult r = replayer.finish();
    EXPECT_EQ(r.allocCalls, 5u);
    EXPECT_EQ(r.freeCalls, 3u);
    EXPECT_EQ(r.ptrStores, 3u);
    EXPECT_EQ(r.peakLiveAllocs, 3u);
    EXPECT_EQ(r.freedBytes, 240u);
    EXPECT_EQ(r.peakLiveBytes, 752u);
    EXPECT_EQ(r.peakQuarantineBytes, 144u);
    EXPECT_EQ(r.peakFootprintBytes, 65536u);
    EXPECT_EQ(r.densitySamples, 1u);
    EXPECT_EQ(r.revoker.epochs, 1u);
    EXPECT_EQ(r.revoker.sweep.capsRevoked, 3u);
}

/** Replay @p trace on a fresh IdRulesMachine: its result, its tagged
 *  memory's counters and the ids left live. */
std::tuple<DriverResult, mem::MemoryCounters, uint64_t>
replayIdRules(const Trace &trace)
{
    IdRulesMachine m;
    TraceReplayer replayer(m.space, m.allocator, &m.engine, trace);
    while (!replayer.done())
        replayer.step();
    const uint64_t live = replayer.liveObjects();
    EXPECT_EQ(replayer.opsTotal(), trace.ops.size());
    return {replayer.finish(), m.space.memory().counters(), live};
}

TEST(TraceReplayer, SparseAndRenumberedIdsReplayIdentically)
{
    // The same trace with its ids as they are, with sparse ids (the
    // replayer renumbers them into a private copy of the ops) and
    // with ids renumbered densely by hand.
    const uint64_t sparse = uint64_t{1} << 40;
    const auto [want, want_mem, want_live] =
        replayIdRules(traceOf(idRulesOps(0, 7, 3, 12)));
    for (const Trace &trace :
         {traceOf(idRulesOps(sparse, sparse + 7, UINT64_MAX,
                             sparse + 12)),
          traceOf(idRulesOps(0, 1, 2, 3))}) {
        const auto [got, got_mem, got_live] = replayIdRules(trace);
        EXPECT_EQ(got.allocCalls, want.allocCalls);
        EXPECT_EQ(got.freeCalls, want.freeCalls);
        EXPECT_EQ(got.freedBytes, want.freedBytes);
        EXPECT_EQ(got.ptrStores, want.ptrStores);
        EXPECT_EQ(got.peakLiveBytes, want.peakLiveBytes);
        EXPECT_EQ(got.peakQuarantineBytes, want.peakQuarantineBytes);
        EXPECT_EQ(got.peakFootprintBytes, want.peakFootprintBytes);
        EXPECT_EQ(got.peakLiveAllocs, want.peakLiveAllocs);
        EXPECT_EQ(got.virtualSeconds, want.virtualSeconds);
        EXPECT_EQ(got.pageDensity, want.pageDensity);
        EXPECT_EQ(got.lineDensity, want.lineDensity);
        EXPECT_EQ(got.densitySamples, want.densitySamples);
        EXPECT_EQ(got.revoker, want.revoker);
        EXPECT_EQ(got_mem.capWrites, want_mem.capWrites);
        EXPECT_EQ(got_mem.capDirtyTraps, want_mem.capDirtyTraps);
        EXPECT_EQ(got_mem.tagsClearedByOverwrite,
                  want_mem.tagsClearedByOverwrite);
        EXPECT_EQ(got_live, want_live);
    }
}

TEST(TraceReplayer, EmptyGlobalsSegmentFailsBeforeAnyOp)
{
    // A RootPtr op picks a slot modulo the globals segment's
    // capability slots; with none, the first step refuses the trace
    // and names the segment size.
    const Trace trace{
        std::vector<TraceOp>{mallocOp(1, 64), rootPtrOp(1, 5)}};
    mem::AddressSpace space(0, 8 * MiB);
    alloc::CherivokeAllocator allocator(space);
    TraceReplayer replayer(space, allocator, nullptr, trace);
    try {
        replayer.step();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("0-byte globals segment"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(replayer.opsApplied(), 0u);
    EXPECT_EQ(replayer.partial().allocCalls, 0u);

    // Without a RootPtr op the same machine replays.
    const Trace no_roots{
        std::vector<TraceOp>{mallocOp(1, 64), freeOp(1)}};
    const DriverResult r =
        TraceDriver(space, allocator, nullptr).run(no_roots);
    EXPECT_EQ(r.freeCalls, 1u);
}

TEST(TraceReplayer, HugeDtSaturatesTheModelClock)
{
    // 1e30 s is a valid dt, but 1e39 ns is past what the clock's
    // uint64_t can count: the clock stops at its largest value.
    TraceOp op = mallocOp(1, 64);
    op.dt = 1e30;
    IdRulesMachine m;
    TraceReplayer replayer(m.space, m.allocator, &m.engine,
                           Trace{std::vector<TraceOp>{op}});
    replayer.step();
    EXPECT_EQ(m.engine.modelClock().peekNs(), UINT64_MAX);
    EXPECT_EQ(replayer.finish().virtualSeconds, 1e30);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::stringstream ss("frobnicate 1 2 3 4 5 0.1\n");
    EXPECT_THROW(Trace::load(ss), FatalError);
}

TEST(Synth, EmptyForDurationZero)
{
    SynthConfig cfg;
    cfg.durationSec = 0.0;
    const Trace t = synthesize(profileFor("dealII"), cfg);
    // Only the ramp (dt = 0) is present.
    EXPECT_NEAR(t.virtualSeconds(), 0.0, 1e-9);
}

TEST(Synth, QuietBenchmarkStillAdvancesTime)
{
    SynthConfig cfg;
    cfg.durationSec = 1.0;
    const Trace t = synthesize(profileFor("bzip2"), cfg);
    EXPECT_NEAR(t.virtualSeconds(), 1.0, 1e-6);
    for (const auto &op : t.ops)
        EXPECT_NE(op.kind, OpKind::Free);
}

/** FNV-1a-64 of a byte image. */
uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 14695981039346656037ull;
    for (const uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** The tenant_slice shape of bench/tenant_scale's 4-tenant row (1M
 *  aggregate live allocations): FIFO lifetimes only. */
BenchmarkProfile
tenantSliceProfile()
{
    BenchmarkProfile p;
    p.name = "tenant_slice";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    p.liveHeapMiB = 1000000 * 128.0 * 1.10 / MiB / 4;
    p.freeRateMiBps = 64.0 / 4;
    p.freesPerSec = 64.0 * MiB / 128.0 / 4;
    p.appDramMiBps = 2000.0 / 4;
    return p;
}

struct PinnedTrace
{
    const char *profile;
    uint64_t seed;
    uint64_t fnv; //!< of the binary-codec image
};

/**
 * Every synthesised trace, byte for byte: the RNG draw order *is*
 * the trace, so a reordered draw or a changed op moves a hash here
 * (and every figure with it). Recorded from the deque-based live set
 * the order-statistic LiveSet replaced.
 */
constexpr PinnedTrace kPinnedTraces[] = {
    {"ffmpeg", 1, 0x03fab80de0357f81ull},
    {"ffmpeg", 42, 0x315bef87bc55baf4ull},
    {"astar", 1, 0x72ff60578d3eb955ull},
    {"astar", 42, 0x1b4fb02e8fdeff2aull},
    {"bzip2", 1, 0x5ea71682d613600full},
    {"bzip2", 42, 0xb0c0d1a5afd7f0f0ull},
    {"dealII", 1, 0x2048fe988eb66ff7ull},
    {"dealII", 42, 0xb0ea7ad26b4850c9ull},
    {"gobmk", 1, 0xb19e21d35f64a2f0ull},
    {"gobmk", 42, 0xcfb4ec70df470a96ull},
    {"h264ref", 1, 0xa199220cb231c63full},
    {"h264ref", 42, 0xe79ff0aa546f0b46ull},
    {"hmmer", 1, 0x78c4781e09e00e33ull},
    {"hmmer", 42, 0x7a924da4fab94631ull},
    {"lbm", 1, 0x7654ed061a96f546ull},
    {"lbm", 42, 0xfd0bcedb751e00c3ull},
    {"libquantum", 1, 0x496b9931830055deull},
    {"libquantum", 42, 0x851293ab546c5872ull},
    {"mcf", 1, 0xfe174d955ded6834ull},
    {"mcf", 42, 0x1abf9723ab9be39full},
    {"milc", 1, 0x5ae5803a4bacba50ull},
    {"milc", 42, 0x86c7f0e272fdfc4dull},
    {"omnetpp", 1, 0xf9edb358a053c6cbull},
    {"omnetpp", 42, 0xa33939a392650186ull},
    {"povray", 1, 0x464480b9b9bac4b1ull},
    {"povray", 42, 0x522cf393d3fb9a20ull},
    {"sjeng", 1, 0xa5b378113bd9b5afull},
    {"sjeng", 42, 0xd37a5a07b7aea4ecull},
    {"soplex", 1, 0x3d66dc7f239d3053ull},
    {"soplex", 42, 0xc5b29484e0acf24cull},
    {"sphinx3", 1, 0xea76441467ebe5a3ull},
    {"sphinx3", 42, 0x0ab47b261d57176full},
    {"xalancbmk", 1, 0x92dca09ae9dd4fd7ull},
    {"xalancbmk", 42, 0x5b11cff7a4ea0ea3ull},
    {"tenant_slice", 1, 0x7d1876d13d0b6acdull},
    {"tenant_slice", 42, 0xf904f8de4c2eafdfull},
};

TEST(Synth, TracesPinnedForEveryProfileAndSeed)
{
    std::vector<BenchmarkProfile> profiles = specProfiles();
    profiles.push_back(tenantSliceProfile());
    ASSERT_EQ(std::size(kPinnedTraces), 2 * profiles.size());
    SynthConfig cfg;
    cfg.scale = 1.0 / 256;
    cfg.durationSec = 0.25;
    for (size_t i = 0; i < std::size(kPinnedTraces); ++i) {
        const PinnedTrace &pin = kPinnedTraces[i];
        const BenchmarkProfile &profile = profiles[i / 2];
        ASSERT_EQ(profile.name, pin.profile);
        cfg.seed = pin.seed;
        EXPECT_EQ(fnv1a64(tenant::encodeTrace(synthesize(profile, cfg))),
                  pin.fnv)
            << pin.profile << " seed " << pin.seed;
    }
}

TEST(Trace, TextRoundTripIsExactForEveryProfile)
{
    // The text format is an interchange format only if a saved trace
    // replays like its source: every dt must survive to the bit.
    std::vector<BenchmarkProfile> profiles = specProfiles();
    profiles.push_back(tenantSliceProfile());
    SynthConfig cfg;
    cfg.scale = 1.0 / 256;
    cfg.durationSec = 0.25;
    cfg.seed = 42;
    for (const BenchmarkProfile &profile : profiles) {
        const Trace trace = synthesize(profile, cfg);
        std::stringstream ss;
        trace.save(ss);
        // Not EXPECT_EQ: a mismatch would print both images.
        EXPECT_TRUE(tenant::encodeTrace(Trace::load(ss)) ==
                    tenant::encodeTrace(trace))
            << profile.name;
    }
}

TEST(Synth, PresizedTraceFitsItsOps)
{
    // The synthesiser reserves its ops once from an estimate; growth
    // by doubling would leave up to twice the ops' memory allocated.
    std::vector<BenchmarkProfile> profiles = specProfiles();
    profiles.push_back(tenantSliceProfile());
    for (const double scale : {1.0 / 64, 1.0 / 8}) {
        for (const uint64_t seed : {1, 42}) {
            SynthConfig cfg;
            cfg.scale = scale;
            cfg.seed = seed;
            for (const BenchmarkProfile &profile : profiles) {
                const Trace t = synthesize(profile, cfg);
                if (t.ops.size() < 100000)
                    continue;
                EXPECT_LE(static_cast<double>(t.ops.capacity()),
                          1.5 * static_cast<double>(t.ops.size()))
                    << profile.name << " scale " << scale << " seed "
                    << seed << ": " << t.ops.size() << " ops";
            }
        }
    }
}

TEST(Synth, TraceHoldsSixteenBytesPerOp)
{
    // Synthesised ids count up from 1 and a trace has at most two
    // dt values (0 and the steady-state step), so every op packs
    // into one 16-byte slot: no wide op (a third dt in a block would
    // make one), and one dt value per 64 Ki-op block.
    static_assert(sizeof(PackedOp) == 16);
    SynthConfig cfg;
    cfg.scale = 1.0 / 8;
    cfg.durationSec = 0.4;
    cfg.seed = 42;
    const Trace trace = synthesize(profileFor("omnetpp"), cfg);
    ASSERT_EQ(trace.ops.size(), 466208u);
    const TraceFootprint fp = trace.ops.footprint();
    EXPECT_EQ(fp.wideOps, 0u);
    const size_t blocks =
        (trace.ops.size() + kTraceBlockOps - 1) / kTraceBlockOps;
    EXPECT_EQ(fp.bytes, sizeof(PackedOp) * trace.ops.capacity() +
                            sizeof(double) * blocks);
}

class SynthDriverTest : public ::testing::Test
{
  protected:
    DriverResult
    runProfile(const std::string &name, double duration = 0.5,
               double scale = 1.0 / 64)
    {
        SynthConfig cfg;
        cfg.scale = scale;
        cfg.durationSec = duration;
        cfg.seed = 7;
        const Trace trace = synthesize(profileFor(name), cfg);

        // A second run in one test replaces the machine: tear the
        // previous one down dependents-first (the engine reads its
        // allocator while it is destroyed).
        revoker.reset();
        allocator.reset();
        space = std::make_unique<mem::AddressSpace>();
        alloc::CherivokeConfig acfg;
        acfg.minQuarantineBytes = 64 * KiB;
        allocator = std::make_unique<alloc::CherivokeAllocator>(
            *space, acfg);
        revoker = std::make_unique<revoke::RevocationEngine>(*allocator,
                                                    *space);
        TraceDriver driver(*space, *allocator, revoker.get());
        return driver.run(trace);
    }

    std::unique_ptr<mem::AddressSpace> space;
    std::unique_ptr<alloc::CherivokeAllocator> allocator;
    std::unique_ptr<revoke::RevocationEngine> revoker;
};

TEST_F(SynthDriverTest, FreeRateConvergesToScaledTarget)
{
    const auto &p = profileFor("dealII");
    const double scale = 1.0 / 64;
    const DriverResult r = runProfile("dealII", 0.5, scale);
    const double target = p.freeRateMiBps * scale;
    EXPECT_GT(r.measuredFreeRateMiBps, 0.5 * target);
    EXPECT_LT(r.measuredFreeRateMiBps, 2.5 * target);
    const double frees_target = p.freesPerSec * scale;
    EXPECT_GT(r.measuredFreesPerSec, 0.5 * frees_target);
    EXPECT_LT(r.measuredFreesPerSec, 2.0 * frees_target);
}

TEST_F(SynthDriverTest, PageDensityTracksTable2)
{
    const DriverResult r = runProfile("omnetpp");
    // omnetpp: 95% of pages hold pointers.
    EXPECT_GT(r.pageDensity, 0.55);
    const DriverResult r2 = runProfile("hmmer");
    // hmmer: 4%.
    EXPECT_LT(r2.pageDensity, 0.30);
    EXPECT_GT(r.pageDensity, r2.pageDensity);
}

TEST_F(SynthDriverTest, LineDensityBelowPageDensity)
{
    const DriverResult r = runProfile("xalancbmk");
    EXPECT_GT(r.pageDensity, 0.0);
    EXPECT_LT(r.lineDensity, r.pageDensity)
        << "line granularity is strictly finer";
}

TEST_F(SynthDriverTest, SweepsHappenForAllocIntensiveWorkloads)
{
    const DriverResult r = runProfile("xalancbmk");
    EXPECT_GT(r.revoker.epochs, 0u);
    EXPECT_GT(r.revoker.sweep.capsRevoked, 0u);
    EXPECT_GT(r.revoker.internalFrees, 0u);
    // Aggregation: internal frees fewer than program frees.
    EXPECT_LT(r.revoker.internalFrees, r.freeCalls);
}

TEST_F(SynthDriverTest, NoSweepsForQuietWorkloads)
{
    const DriverResult r = runProfile("bzip2");
    EXPECT_EQ(r.revoker.epochs, 0u);
    EXPECT_EQ(r.freeCalls, 0u);
}

TEST_F(SynthDriverTest, QuarantineBoundedByFraction)
{
    const DriverResult r = runProfile("omnetpp");
    // Peak quarantine should stay in the vicinity of 25% of live
    // (one allocation can overshoot slightly).
    EXPECT_LT(r.peakQuarantineBytes,
              static_cast<uint64_t>(0.6 * r.peakLiveBytes));
    EXPECT_GT(r.peakQuarantineBytes, 0u);
}

TEST_F(SynthDriverTest, HeapStaysValidUnderWorkload)
{
    runProfile("dealII", 0.3);
    EXPECT_NO_THROW(allocator->dl().validateHeap());
}

} // namespace
} // namespace workload
} // namespace cherivoke
