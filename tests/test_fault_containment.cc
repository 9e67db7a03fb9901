/**
 * @file
 * Fault-containment tests: the typed HeapFault channel (every
 * allocator/codec detection path raises the right kind, still
 * catchable as FatalError), the strict fault-plan grammar and the
 * three chaos environment knobs, TenantManager containment (a
 * faulting tenant is retired through the standard teardown path and
 * the survivors' statistics are bit-identical to a control run
 * without the post-fault ops), seeded-plan replay determinism, and
 * the soft-page-budget escalation ladder up to an OOM-kill.
 */

#include <cstdlib>
#include <optional>

#include <gtest/gtest.h>

#include "alloc/cherivoke_alloc.hh"
#include "alloc/chunk.hh"
#include "alloc/dlmalloc.hh"
#include "support/env.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "tenant/tenant_manager.hh"
#include "tenant/trace_codec.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

/** Run @p fn and return the HeapFault kind it raised, if any. */
template <typename Fn>
std::optional<HeapFaultKind>
raisedKind(Fn &&fn)
{
    try {
        fn();
    } catch (const HeapFault &fault) {
        return fault.kind();
    }
    return std::nullopt;
}

/** A small alloc/free-heavy trace (~40k ops, ~1.6 MiB live). Its
 *  first Free comes late, at op ~33k-37k for seeds 1-6, so a fault
 *  meant to land after frees and an epoch must come later still. */
workload::Trace
smallTrace(uint64_t seed)
{
    workload::BenchmarkProfile profile =
        workload::profileFor("dealII");
    workload::SynthConfig cfg;
    cfg.scale = 1.0 / 512;
    cfg.durationSec = 2.0;
    cfg.seed = seed;
    return workload::synthesize(profile, cfg);
}

/** Tenant tuned so smallTrace triggers several sweeps. */
tenant::TenantConfig
smallTenant(const std::string &name)
{
    tenant::TenantConfig cfg;
    cfg.name = name;
    cfg.alloc.quarantineFraction = 0.05;
    cfg.alloc.minQuarantineBytes = 16 * KiB;
    cfg.alloc.dl.initialHeapBytes = 256 * KiB;
    cfg.alloc.dl.growthChunkBytes = 128 * KiB;
    return cfg;
}

const tenant::TenantResult *
findTenant(const tenant::MultiTenantResult &m, uint64_t id)
{
    for (const tenant::TenantResult &t : m.tenants)
        if (t.tenantId == id)
            return &t;
    return nullptr;
}

/** Modelled statistics must match exactly (wall-clock excluded). */
void
expectRunsBitIdentical(const workload::DriverResult &a,
                       const workload::DriverResult &b)
{
    EXPECT_EQ(a.allocCalls, b.allocCalls);
    EXPECT_EQ(a.freeCalls, b.freeCalls);
    EXPECT_EQ(a.freedBytes, b.freedBytes);
    EXPECT_EQ(a.ptrStores, b.ptrStores);
    EXPECT_EQ(a.peakLiveBytes, b.peakLiveBytes);
    EXPECT_EQ(a.peakLiveAllocs, b.peakLiveAllocs);
    EXPECT_EQ(a.peakQuarantineBytes, b.peakQuarantineBytes);
    EXPECT_EQ(a.peakFootprintBytes, b.peakFootprintBytes);
    EXPECT_TRUE(a.revoker == b.revoker);
    EXPECT_EQ(a.virtualSeconds, b.virtualSeconds);
    EXPECT_EQ(a.pageDensity, b.pageDensity);
    EXPECT_EQ(a.lineDensity, b.lineDensity);
}

} // namespace

// ---- The typed fault channel -----------------------------------

TEST(HeapFaults, KindNamesRoundTrip)
{
    for (size_t i = 0; i < kNumHeapFaultKinds; ++i) {
        const auto kind = static_cast<HeapFaultKind>(i);
        HeapFaultKind parsed;
        ASSERT_TRUE(
            parseHeapFaultKind(heapFaultKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    HeapFaultKind k;
    EXPECT_FALSE(parseHeapFaultKind("use-after-free", k));
    EXPECT_FALSE(parseHeapFaultKind("", k));
}

TEST(HeapFaults, IsStillAFatalError)
{
    // Uncontained faults must keep the pre-fault-channel contract:
    // every existing EXPECT_THROW(..., FatalError) holds.
    mem::AddressSpace space;
    alloc::DlAllocator heap(space);
    const cap::Capability c = heap.malloc(64);
    heap.free(c);
    EXPECT_THROW(heap.free(c), FatalError);
}

TEST(HeapFaults, AllocatorDetectionPathsRaiseTypedKinds)
{
    mem::AddressSpace space;
    alloc::DlAllocator heap(space);

    // Double free of a directly freed chunk. The in-use guard after
    // it keeps the chunk from coalescing into top, so the second
    // free still sees a well-formed !cinuse boundary tag.
    const cap::Capability a = heap.malloc(64);
    const cap::Capability guard = heap.malloc(64);
    heap.free(a);
    EXPECT_EQ(raisedKind([&] { heap.free(a); }),
              HeapFaultKind::DoubleFree);
    heap.free(guard);

    // Free through an untagged capability.
    EXPECT_EQ(raisedKind([&] { heap.free(cap::Capability{}); }),
              HeapFaultKind::WildFree);

    // Free of a tagged capability pointing outside the heap; must
    // not materialise pages at the wild address.
    const size_t resident = space.memory().residentPages();
    const cap::Capability wild =
        space.rootCap()
            .setAddress(space.globals().base + alloc::kChunkHeader)
            .setBounds(16);
    EXPECT_EQ(raisedKind([&] { heap.free(wild); }),
              HeapFaultKind::WildFree);
    EXPECT_EQ(space.memory().residentPages(), resident);

    // Free through a smashed boundary tag (size bits zeroed).
    const cap::Capability b = heap.malloc(64);
    const uint64_t header =
        alloc::DlAllocator::chunkOf(b.base()) + 8;
    auto &memory = space.memory();
    memory.spanWriteU64(header, memory.spanReadU64(header) &
                                    alloc::kFlagMask);
    EXPECT_EQ(raisedKind([&] { heap.free(b); }),
              HeapFaultKind::HeaderCorruption);
}

TEST(HeapFaults, QuarantinePathRaisesDoubleFree)
{
    // The CHERIvoke front-end flags the chunk kQuarantine on free:
    // a second free trips the same typed fault.
    mem::AddressSpace space;
    alloc::CherivokeAllocator heap(space, {});
    const cap::Capability c = heap.malloc(64);
    heap.free(c);
    EXPECT_EQ(raisedKind([&] { heap.free(c); }),
              HeapFaultKind::DoubleFree);
    EXPECT_EQ(raisedKind([&] { heap.realloc(c, 128); }),
              HeapFaultKind::DoubleFree);
}

TEST(HeapFaults, CodecRecordDamageIsTyped)
{
    std::vector<workload::TraceOp> ops;
    for (int i = 0; i < 4; ++i) {
        workload::TraceOp op;
        op.kind = workload::OpKind::Malloc;
        op.id = static_cast<uint64_t>(i);
        op.size = 64;
        ops.push_back(op);
    }
    const workload::Trace trace{std::move(ops)};
    const std::vector<uint8_t> good = tenant::encodeTrace(trace);

    // Mid-stream truncation: the header promises more records than
    // the payload carries — one tenant's bad trace, contained.
    std::vector<uint8_t> short_payload = good;
    short_payload.resize(good.size() - tenant::kTraceRecordBytes);
    EXPECT_EQ(raisedKind([&] { tenant::decodeTrace(short_payload); }),
              HeapFaultKind::CodecCorruption);

    // A record with an op kind the version does not define.
    std::vector<uint8_t> bad_kind = good;
    bad_kind[tenant::kTraceHeaderBytes] = 0xEE;
    EXPECT_EQ(raisedKind([&] { tenant::decodeTrace(bad_kind); }),
              HeapFaultKind::CodecCorruption);

    // Header-level damage is a harness error, not tenant input:
    // plain FatalError, never the contained fault channel.
    std::vector<uint8_t> bad_magic = good;
    bad_magic[0] ^= 0xFF;
    try {
        tenant::decodeTrace(bad_magic);
        FAIL() << "bad magic was accepted";
    } catch (const HeapFault &) {
        FAIL() << "header damage must not use the fault channel";
    } catch (const FatalError &) {
        // Expected.
    }
}

// ---- The fault plan and its environment knobs ------------------

TEST(FaultPlan, ParseRoundTripsCanonicalText)
{
    const std::string text =
        "double-free@0:100,oom@2:5,codec-corruption@7:0";
    const FaultPlan plan = parseFaultPlan(text);
    ASSERT_EQ(plan.injections.size(), 3u);
    EXPECT_EQ(plan.injections[0].kind, HeapFaultKind::DoubleFree);
    EXPECT_EQ(plan.injections[1].tenantId, 2u);
    EXPECT_EQ(plan.injections[1].opIndex, 5u);
    EXPECT_EQ(plan.text(), text);
    EXPECT_TRUE(parseFaultPlan("").empty());
}

TEST(FaultPlan, RejectsMalformedText)
{
    EXPECT_THROW(parseFaultPlan("double-free"), FatalError);
    EXPECT_THROW(parseFaultPlan("double-free@1"), FatalError);
    EXPECT_THROW(parseFaultPlan("double-free:1@2"), FatalError);
    EXPECT_THROW(parseFaultPlan("use-after-free@1:2"), FatalError);
    EXPECT_THROW(parseFaultPlan("oom@x:2"), FatalError);
    EXPECT_THROW(parseFaultPlan("oom@1:2x"), FatalError);
    EXPECT_THROW(parseFaultPlan("oom@-1:2"), FatalError);
    EXPECT_THROW(parseFaultPlan("oom@1:-2"), FatalError);
    EXPECT_THROW(parseFaultPlan("oom@1:2,"), FatalError);
    EXPECT_THROW(parseFaultPlan(","), FatalError);
}

TEST(FaultPlan, SweeperGrammarRoundTrips)
{
    // The sweeper kinds share the comma list with the tenant kinds
    // but carry `kind@domain:epoch[:factor]`.
    const std::string text =
        "oom@1:50,sweeper-stall@0:2,sweeper-slow@1:0:3";
    const FaultPlan plan = parseFaultPlan(text);
    ASSERT_EQ(plan.injections.size(), 1u);
    ASSERT_EQ(plan.sweeper.size(), 2u);
    EXPECT_EQ(plan.sweeper[0].kind, SweeperFaultKind::Stall);
    EXPECT_EQ(plan.sweeper[0].domain, 0u);
    EXPECT_EQ(plan.sweeper[0].epoch, 2u);
    EXPECT_EQ(plan.sweeper[0].factor, 1u);
    EXPECT_EQ(plan.sweeper[1].kind, SweeperFaultKind::Slow);
    EXPECT_EQ(plan.sweeper[1].factor, 3u);
    EXPECT_EQ(plan.text(), text);

    // Crash parses; the default factor 1 is not re-emitted.
    EXPECT_EQ(parseFaultPlan("sweeper-crash@2:1:1").text(),
              "sweeper-crash@2:1");

    EXPECT_THROW(parseFaultPlan("sweeper-stall@0"), FatalError);
    EXPECT_THROW(parseFaultPlan("sweeper-stall@x:1"), FatalError);
    EXPECT_THROW(parseFaultPlan("sweeper-slow@0:1:0"), FatalError);
    EXPECT_THROW(parseFaultPlan("sweeper-slow@0:1:x"), FatalError);
}

TEST(FaultPlan, ChaosKnobsParseStrictly)
{
    // The three knobs the bench harness reads: unset -> default,
    // malformed -> fatal, never a silent fallback.
    unsetenv("CHERIVOKE_FAULT_SEED");
    EXPECT_EQ(knobInt("CHERIVOKE_FAULT_SEED"), 0);
    setenv("CHERIVOKE_FAULT_SEED", "abc", 1);
    EXPECT_THROW(knobInt("CHERIVOKE_FAULT_SEED"), FatalError);
    setenv("CHERIVOKE_FAULT_SEED", "-3", 1);
    EXPECT_THROW(knobInt("CHERIVOKE_FAULT_SEED"), FatalError);
    setenv("CHERIVOKE_FAULT_SEED", "99", 1);
    EXPECT_EQ(knobInt("CHERIVOKE_FAULT_SEED"), 99);
    unsetenv("CHERIVOKE_FAULT_SEED");

    // The budget's default, 0 = off, is also a value it accepts.
    unsetenv("CHERIVOKE_PAGE_BUDGET_MIB");
    EXPECT_DOUBLE_EQ(knobReal("CHERIVOKE_PAGE_BUDGET_MIB"), 0);
    setenv("CHERIVOKE_PAGE_BUDGET_MIB", "0", 1);
    EXPECT_DOUBLE_EQ(knobReal("CHERIVOKE_PAGE_BUDGET_MIB"), 0);
    setenv("CHERIVOKE_PAGE_BUDGET_MIB", "12q", 1);
    EXPECT_THROW(knobReal("CHERIVOKE_PAGE_BUDGET_MIB"), FatalError);
    setenv("CHERIVOKE_PAGE_BUDGET_MIB", "-4", 1);
    EXPECT_THROW(knobReal("CHERIVOKE_PAGE_BUDGET_MIB"), FatalError);
    setenv("CHERIVOKE_PAGE_BUDGET_MIB", "64.5", 1);
    EXPECT_DOUBLE_EQ(knobReal("CHERIVOKE_PAGE_BUDGET_MIB"), 64.5);
    unsetenv("CHERIVOKE_PAGE_BUDGET_MIB");

    // CHERIVOKE_FAULT_PLAN is validated with parseFaultPlan, whose
    // rejection matrix is covered above; spot-check the glue shape.
    EXPECT_NO_THROW(parseFaultPlan("wild-free@1:10"));
    EXPECT_THROW(parseFaultPlan("wild-free@1:ten"), FatalError);
}

TEST(FaultPlan, SeededGenerationIsDeterministic)
{
    const std::vector<uint64_t> ids = {0, 1, 2};
    const std::vector<uint64_t> ops = {1000, 2000, 500};
    const FaultPlan a = generateFaultPlan(7, ids, ops);
    const FaultPlan b = generateFaultPlan(7, ids, ops);
    const FaultPlan c = generateFaultPlan(8, ids, ops);
    ASSERT_EQ(a.injections.size(), kNumInjectableHeapFaultKinds);
    EXPECT_EQ(a.text(), b.text());
    EXPECT_NE(a.text(), c.text());
    // The generated text is valid plan grammar.
    EXPECT_EQ(parseFaultPlan(a.text()).text(), a.text());
    for (const FaultInjection &fi : a.injections) {
        ASSERT_LT(fi.tenantId, ids.size());
        EXPECT_LT(fi.opIndex, ops[fi.tenantId]);
    }
}

// ---- Manager-level containment ---------------------------------

TEST(FaultContainment, DoubleFreeLeavesSurvivorBitIdentical)
{
    // Regression for the two former fatal() sites in dlmalloc: a
    // double free in tenant A's stream must retire A and leave B's
    // statistics bit-identical to a run where A's trace simply ends
    // at the fault op.
    tenant::TenantManagerConfig mcfg;
    mcfg.faultPlan = parseFaultPlan("double-free@0:39000");
    tenant::TenantManager faulted(mcfg);
    faulted.addTenant(smallTenant("A"), smallTrace(1));
    faulted.addTenant(smallTenant("B"), smallTrace(2));
    const tenant::MultiTenantResult m = faulted.run();

    ASSERT_EQ(m.faultsContained, 1u);
    ASSERT_EQ(m.faults.size(), 1u);
    EXPECT_EQ(m.faults[0].kind, HeapFaultKind::DoubleFree);
    EXPECT_EQ(m.faults[0].tenantId, 0u);
    EXPECT_TRUE(m.faults[0].injected);

    const tenant::TenantResult *a = findTenant(m, 0);
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->faulted);
    EXPECT_TRUE(a->retiredMidRun);
    EXPECT_EQ(a->faultKind, HeapFaultKind::DoubleFree);
    EXPECT_EQ(a->faultOp, m.faults[0].opIndex);
    EXPECT_LT(a->opsApplied, a->opsTotal);
    // The fault lands on a tenant that has freed and revoked.
    EXPECT_GT(a->run.freeCalls, 0u);
    EXPECT_GT(a->run.revoker.epochs, 0u);

    const tenant::TenantResult *b = findTenant(m, 1);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->opsApplied, b->opsTotal);
    EXPECT_FALSE(b->faulted);

    // Control: no plan, tenant A's trace truncated at the fault op.
    workload::Trace truncated = smallTrace(1);
    truncated.ops = truncated.ops.prefix(m.faults[0].opIndex);
    tenant::TenantManager control{tenant::TenantManagerConfig{}};
    control.addTenant(smallTenant("A"), std::move(truncated));
    control.addTenant(smallTenant("B"), smallTrace(2));
    const tenant::MultiTenantResult cm = control.run();
    const tenant::TenantResult *cb = findTenant(cm, 1);
    ASSERT_NE(cb, nullptr);
    expectRunsBitIdentical(b->run, cb->run);
    EXPECT_EQ(b->mutator.fingerprint(), cb->mutator.fingerprint());
}

TEST(FaultContainment, EveryKindIsContained)
{
    for (size_t k = 0; k < kNumHeapFaultKinds; ++k) {
        const auto kind = static_cast<HeapFaultKind>(k);
        tenant::TenantManagerConfig mcfg;
        mcfg.faultPlan = parseFaultPlan(
            std::string(heapFaultKindName(kind)) + "@0:39000");
        tenant::TenantManager mgr(mcfg);
        mgr.addTenant(smallTenant("A"), smallTrace(3));
        mgr.addTenant(smallTenant("B"), smallTrace(4));
        const tenant::MultiTenantResult m = mgr.run();
        ASSERT_EQ(m.faultsContained, 1u) << heapFaultKindName(kind);
        EXPECT_EQ(m.faults[0].kind, kind);
        const tenant::TenantResult *a = findTenant(m, 0);
        ASSERT_NE(a, nullptr);
        EXPECT_TRUE(a->faulted) << heapFaultKindName(kind);
        EXPECT_EQ(a->faultKind, kind);
        EXPECT_GT(a->run.freeCalls, 0u) << heapFaultKindName(kind);
        EXPECT_GT(a->run.revoker.epochs, 0u)
            << heapFaultKindName(kind);
        const tenant::TenantResult *b = findTenant(m, 1);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->opsApplied, b->opsTotal)
            << heapFaultKindName(kind);
    }
}

TEST(FaultContainment, SeededPlanReplaysBitIdentically)
{
    const workload::Trace ta = smallTrace(5), tb = smallTrace(6);
    // Drawn over each trace's last kTail ops and shifted there, so
    // every fault lands after the tenant's first frees and epoch and
    // the two replays have revocation to compare.
    constexpr uint64_t kTail = 1000;
    const uint64_t tail_start[] = {ta.ops.size() - kTail,
                                   tb.ops.size() - kTail};
    FaultPlan plan = generateFaultPlan(31, {0, 1}, {kTail, kTail});
    for (FaultInjection &fi : plan.injections)
        fi.opIndex += tail_start[fi.tenantId];

    auto replay = [&]() {
        tenant::TenantManagerConfig mcfg;
        mcfg.faultPlan = plan;
        tenant::TenantManager mgr(mcfg);
        mgr.addTenant(smallTenant("A"), ta);
        mgr.addTenant(smallTenant("B"), tb);
        return mgr.run();
    };
    const tenant::MultiTenantResult x = replay();
    const tenant::MultiTenantResult y = replay();

    ASSERT_EQ(x.faultsContained, y.faultsContained);
    EXPECT_GE(x.faultsContained, 1u);
    ASSERT_EQ(x.faults.size(), y.faults.size());
    for (size_t i = 0; i < x.faults.size(); ++i) {
        EXPECT_EQ(x.faults[i].kind, y.faults[i].kind);
        EXPECT_EQ(x.faults[i].tenantId, y.faults[i].tenantId);
        EXPECT_EQ(x.faults[i].step, y.faults[i].step);
        EXPECT_EQ(x.faults[i].opIndex, y.faults[i].opIndex);
        EXPECT_EQ(x.faults[i].message, y.faults[i].message);
    }
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (size_t i = 0; i < x.tenants.size(); ++i) {
        EXPECT_EQ(x.tenants[i].tenantId, y.tenants[i].tenantId);
        EXPECT_EQ(x.tenants[i].opsApplied, y.tenants[i].opsApplied);
        expectRunsBitIdentical(x.tenants[i].run, y.tenants[i].run);
        // A faulted tenant had freed and revoked before its fault.
        if (x.tenants[i].faulted) {
            EXPECT_GT(x.tenants[i].run.freeCalls, 0u) << i;
            EXPECT_GT(x.tenants[i].run.revoker.epochs, 0u) << i;
        }
    }
}

TEST(FaultContainment, PressureLadderEscalatesToOomKill)
{
    // A budget far below the tenants' working set: the ladder must
    // fire (emergency revocation + cold-page release first), fail
    // to get under, and OOM-kill through the standard teardown.
    auto run_once = [&]() {
        tenant::TenantManagerConfig mcfg;
        mcfg.pageBudgetPages = 96; // 384 KiB for a ~3 MiB workload
        mcfg.pressureBackoffSteps = 32;
        tenant::TenantManager mgr(mcfg);
        mgr.addTenant(smallTenant("A"), smallTrace(7));
        mgr.addTenant(smallTenant("B"), smallTrace(8));
        return mgr.run();
    };
    const tenant::MultiTenantResult m = run_once();
    EXPECT_GE(m.pressureEvents, 3u); // at least one full ladder walk
    EXPECT_GE(m.oomKills, 1u);
    EXPECT_EQ(m.oomKills, m.faultsContained);
    for (const tenant::FaultRecord &f : m.faults) {
        EXPECT_EQ(f.kind, HeapFaultKind::OutOfMemory);
        EXPECT_FALSE(f.injected);
    }
    // Every tenant either finished its trace or was OOM-killed —
    // the run itself always completes.
    for (const tenant::TenantResult &t : m.tenants) {
        if (t.faulted) {
            EXPECT_EQ(t.faultKind, HeapFaultKind::OutOfMemory);
            EXPECT_TRUE(t.retiredMidRun);
        } else {
            EXPECT_EQ(t.opsApplied, t.opsTotal);
        }
    }

    // The ladder is part of the deterministic model: same budget,
    // same traces, same kills at the same steps.
    const tenant::MultiTenantResult n = run_once();
    EXPECT_EQ(m.pressureEvents, n.pressureEvents);
    EXPECT_EQ(m.pressurePagesReclaimed, n.pressurePagesReclaimed);
    ASSERT_EQ(m.faults.size(), n.faults.size());
    for (size_t i = 0; i < m.faults.size(); ++i) {
        EXPECT_EQ(m.faults[i].tenantId, n.faults[i].tenantId);
        EXPECT_EQ(m.faults[i].step, n.faults[i].step);
    }
}

TEST(FaultContainment, ColdPageReleaseReclaimsFreedSpans)
{
    // Rung 1's reclamation mechanism, in isolation: freeing a
    // multi-page allocation and releasing cold pages must hand the
    // interior pages back to the directory, and they read as fresh
    // zeroes if ever re-touched.
    mem::AddressSpace space;
    alloc::DlAllocator heap(space);
    const cap::Capability big = heap.malloc(MiB);
    auto &memory = space.memory();
    for (uint64_t off = 0; off < MiB; off += kPageBytes)
        memory.spanWriteU64(big.base() + off, 0xA5A5A5A5);
    const uint64_t resident = memory.residentPages();
    heap.free(big);
    heap.releaseColdPages();
    // Most of the 256 touched pages are interior to the freed chunk
    // and must leave residency (boundary pages may stay hot).
    EXPECT_LE(memory.residentPages(),
              resident - (MiB / kPageBytes - 64));
    EXPECT_EQ(memory.spanReadU64(big.base() + kPageBytes), 0u);
}

TEST(FaultContainment, BudgetAbovePeakIsNonIntrusive)
{
    // A soft budget the run never crosses: no pressure events, no
    // kills, and every modelled statistic bit-identical to the same
    // run with the ladder disabled.
    auto run_with_budget = [&](size_t pages) {
        tenant::TenantManagerConfig mcfg;
        mcfg.pageBudgetPages = pages;
        tenant::TenantManager mgr(mcfg);
        mgr.addTenant(smallTenant("A"), smallTrace(9));
        mgr.addTenant(smallTenant("B"), smallTrace(10));
        return mgr.run();
    };
    const tenant::MultiTenantResult capped = run_with_budget(1 << 22);
    const tenant::MultiTenantResult open = run_with_budget(0);
    EXPECT_EQ(capped.pressureEvents, 0u);
    EXPECT_EQ(capped.oomKills, 0u);
    EXPECT_EQ(capped.faultsContained, 0u);
    ASSERT_EQ(capped.tenants.size(), open.tenants.size());
    for (size_t i = 0; i < capped.tenants.size(); ++i) {
        EXPECT_EQ(capped.tenants[i].opsApplied,
                  capped.tenants[i].opsTotal);
        expectRunsBitIdentical(capped.tenants[i].run,
                               open.tenants[i].run);
    }
}
