/**
 * @file
 * Multi-tenant subsystem tests: scheduler fairness and determinism,
 * tenant address-space isolation over the shared TaggedMemory,
 * per-tenant sweep scoping (one tenant's revocation never touches
 * another's capabilities), global-scope draining, run-to-run
 * determinism, and 1-tenant parity with the classic single-process
 * TraceDriver pipeline.
 */

#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "cap/capability.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "tenant/tenant_manager.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

/** A small alloc/free-heavy trace (~20k ops, ~1.6 MiB live). */
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

/** Tenant tuned so smallTrace triggers several sweeps: the scaled
 *  free rate covers the 5%-of-heap quarantine budget a few times
 *  within the trace's virtual duration. */
tenant::TenantConfig
smallTenant(const std::string &name, double weight = 1.0)
{
    tenant::TenantConfig cfg;
    cfg.name = name;
    cfg.weight = weight;
    cfg.alloc.quarantineFraction = 0.05;
    cfg.alloc.minQuarantineBytes = 16 * KiB;
    cfg.alloc.dl.initialHeapBytes = 256 * KiB;
    cfg.alloc.dl.growthChunkBytes = 128 * KiB;
    return cfg;
}

} // namespace

TEST(TenantScheduler, SmoothWeightedRotation)
{
    // 2:1:1 interleaves smoothly — the period is ABCA (A's two
    // shares spaced out), not a burst like AABC.
    tenant::TenantScheduler sched({2, 1, 1});
    std::string order;
    size_t counts[3] = {0, 0, 0};
    for (int i = 0; i < 8; ++i) {
        const size_t w = sched.next();
        order += static_cast<char>('A' + w);
        ++counts[w];
    }
    EXPECT_EQ(order, "ABCAABCA");
    EXPECT_EQ(counts[0], 4u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 2u);
}

TEST(TenantScheduler, MarkDoneRedistributes)
{
    tenant::TenantScheduler sched({1, 1});
    EXPECT_EQ(sched.activeCount(), 2u);
    sched.markDone(0);
    EXPECT_EQ(sched.activeCount(), 1u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(sched.next(), 1u);
    sched.markDone(1);
    EXPECT_TRUE(sched.allDone());
}

TEST(TenantScheduler, RejectsBadWeights)
{
    EXPECT_THROW(tenant::TenantScheduler({1.0, 0.0}), FatalError);
    EXPECT_THROW(tenant::TenantScheduler({-2.0}), FatalError);
    // The dynamic path rejects them too, and so does the manager —
    // at addTenant/defineTenant time, not deep inside run().
    tenant::TenantScheduler sched({1.0});
    EXPECT_THROW(sched.arrive(1, 0.0), FatalError);
    EXPECT_THROW(sched.arrive(1, -1.0), FatalError);
    tenant::TenantConfig cfg;
    cfg.name = "zero";
    cfg.weight = 0;
    tenant::TenantManager manager{tenant::TenantManagerConfig{}};
    EXPECT_THROW(manager.addTenant(cfg, workload::Trace{}),
                 FatalError);
}

TEST(TenantScheduler, DropToOneTenantStaysSmooth)
{
    // Regression: when departures leave a single runnable tenant,
    // next() must keep returning it with stable credit — each pick
    // adds its weight and charges the (equal) runnable total, so
    // the credit neither drifts nor underflows no matter how long
    // the survivor runs or what weight it carries.
    tenant::TenantScheduler sched({2.0, 1.0, 1.0});
    for (int i = 0; i < 5; ++i)
        sched.next();
    sched.markDone(0);
    sched.markDone(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sched.next(), 1u);
    // The survivor departing empties the rotation cleanly.
    sched.markDone(1);
    EXPECT_TRUE(sched.allDone());
}

TEST(TenantScheduler, ArrivalRenormalizesShares)
{
    // A tenant arriving mid-rotation immediately gets its
    // proportional share: 1:1 becomes 1:1:2 and a 4-pick window
    // serves the newcomer twice.
    tenant::TenantScheduler sched({1.0, 1.0});
    sched.next();
    sched.next();
    sched.arrive(2, 2.0);
    size_t counts[3] = {0, 0, 0};
    for (int i = 0; i < 16; ++i)
        ++counts[sched.next()];
    EXPECT_EQ(counts[0], 4u);
    EXPECT_EQ(counts[1], 4u);
    EXPECT_EQ(counts[2], 8u);

    // Slot reuse after departure: the re-arrival starts with zero
    // credit and the weight total is recomputed from the runnable
    // set (never drifted incrementally).
    sched.markDone(0);
    sched.arrive(0, 1.0);
    size_t counts2[3] = {0, 0, 0};
    for (int i = 0; i < 16; ++i)
        ++counts2[sched.next()];
    EXPECT_EQ(counts2[0], 4u);
    EXPECT_EQ(counts2[1], 4u);
    EXPECT_EQ(counts2[2], 8u);
}

TEST(TenantLayout, StridedDisjointRegions)
{
    const auto l0 = tenant::layoutForTenant(0);
    const auto l1 = tenant::layoutForTenant(1);
    // Tenant 0 is exactly the classic single-process layout.
    EXPECT_EQ(l0.globalsBase, mem::kGlobalsBase);
    EXPECT_EQ(l0.heapBase, mem::kHeapBase);
    EXPECT_EQ(l0.stackBase, mem::kStackBase);
    // Tenant 1 is the same image one stride up, below the shadow.
    EXPECT_EQ(l1.heapBase, mem::kHeapBase + tenant::kTenantStride);
    EXPECT_LT(tenant::layoutForTenant(tenant::kMaxTenants - 1)
                  .stackBase,
              mem::kShadowBase);
    EXPECT_THROW(tenant::layoutForTenant(tenant::kMaxTenants),
                 FatalError);
}

TEST(TenantManager, IsolationAndPerTenantSweepScope)
{
    tenant::TenantManagerConfig mgr_cfg;
    mgr_cfg.scope = tenant::RevocationScope::PerTenant;
    tenant::TenantManager manager(mgr_cfg);
    manager.addTenant(smallTenant("a"), workload::Trace{});
    manager.addTenant(smallTenant("b"), workload::Trace{});

    tenant::Tenant &a = manager.tenant(0);
    tenant::Tenant &b = manager.tenant(1);

    // Allocations land in each tenant's own stride of the shared
    // memory.
    const cap::Capability ca = a.allocator().malloc(64);
    const cap::Capability cb = b.allocator().malloc(64);
    EXPECT_GE(ca.base(), mem::kHeapBase);
    EXPECT_LT(ca.base(), tenant::kTenantStride);
    EXPECT_GE(cb.base(), tenant::kTenantStride + mem::kHeapBase);

    // Both tenants store a capability to their object in their own
    // globals; freeing + revoking tenant a's object must strip a's
    // stored capability and leave b's untouched.
    manager.memory().writeCap(a.space().globals().base, ca);
    manager.memory().writeCap(b.space().globals().base, cb);
    a.allocator().free(ca);
    manager.engine().selectDomain(0);
    manager.engine().revokeNow();

    EXPECT_FALSE(
        manager.memory().readCap(a.space().globals().base).tag());
    EXPECT_TRUE(
        manager.memory().readCap(b.space().globals().base).tag());

    // The sweep was scoped to tenant a's segments: domain totals
    // show epochs only for domain 0.
    EXPECT_EQ(manager.engine().domainTotals(0).epochs, 1u);
    EXPECT_EQ(manager.engine().domainTotals(1).epochs, 0u);
    EXPECT_EQ(manager.engine().totals().epochs, 1u);
}

TEST(TenantManager, GlobalScopeDrainsEveryQuarantine)
{
    tenant::TenantManagerConfig mgr_cfg;
    mgr_cfg.scope = tenant::RevocationScope::Global;
    tenant::TenantManager manager(mgr_cfg);
    // Tenant a's trace fills its quarantine; tenant b only trickles.
    manager.addTenant(smallTenant("a"), smallTrace(11));
    manager.addTenant(smallTenant("b"), smallTrace(12));

    const tenant::MultiTenantResult result = manager.run();
    // Under global scope both tenants revoke (b is dragged along
    // whenever a triggers).
    EXPECT_GT(result.tenants[0].run.revoker.epochs, 0u);
    EXPECT_GT(result.tenants[1].run.revoker.epochs, 0u);
    EXPECT_EQ(result.engine.epochs,
              result.tenants[0].run.revoker.epochs +
                  result.tenants[1].run.revoker.epochs);
}

TEST(TenantManager, DeterministicReplay)
{
    auto once = [] {
        tenant::TenantManagerConfig mgr_cfg;
        tenant::TenantManager manager(mgr_cfg);
        manager.addTenant(smallTenant("a", 2.0), smallTrace(21));
        manager.addTenant(smallTenant("b", 1.0), smallTrace(22));
        manager.addTenant(smallTenant("c", 1.0), smallTrace(23));
        return manager.run();
    };
    const tenant::MultiTenantResult x = once();
    const tenant::MultiTenantResult y = once();

    EXPECT_EQ(x.totalOps, y.totalOps);
    EXPECT_EQ(x.peakAggLiveAllocs, y.peakAggLiveAllocs);
    EXPECT_EQ(x.peakAggLiveBytes, y.peakAggLiveBytes);
    EXPECT_EQ(x.engine, y.engine);
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (size_t i = 0; i < x.tenants.size(); ++i) {
        EXPECT_EQ(x.tenants[i].run.revoker,
                  y.tenants[i].run.revoker);
        EXPECT_EQ(x.tenants[i].run.peakLiveAllocs,
                  y.tenants[i].run.peakLiveAllocs);
        EXPECT_EQ(x.tenants[i].run.pageDensity,
                  y.tenants[i].run.pageDensity);
    }
}

TEST(TenantManager, SingleTenantMatchesTraceDriver)
{
    const workload::Trace trace = smallTrace(31);

    // Classic single-process pipeline, with the same segment sizes
    // the tenant's process image gets.
    const tenant::TenantConfig tcfg = smallTenant("solo");
    mem::AddressSpace space(tcfg.globalsBytes, tcfg.stackBytes);
    alloc::CherivokeAllocator allocator(space, tcfg.alloc);
    revoke::RevocationEngine engine(allocator, space);
    workload::TraceDriver driver(space, allocator, &engine);
    const workload::DriverResult a = driver.run(trace);

    // The same trace hosted as the only tenant.
    tenant::TenantManager manager{tenant::TenantManagerConfig{}};
    manager.addTenant(tcfg, trace);
    const tenant::MultiTenantResult multi = manager.run();
    const workload::DriverResult &b = multi.tenants[0].run;

    EXPECT_EQ(a.allocCalls, b.allocCalls);
    EXPECT_EQ(a.freeCalls, b.freeCalls);
    EXPECT_EQ(a.freedBytes, b.freedBytes);
    EXPECT_EQ(a.ptrStores, b.ptrStores);
    EXPECT_EQ(a.peakLiveBytes, b.peakLiveBytes);
    EXPECT_EQ(a.peakLiveAllocs, b.peakLiveAllocs);
    EXPECT_EQ(a.peakQuarantineBytes, b.peakQuarantineBytes);
    EXPECT_EQ(a.peakFootprintBytes, b.peakFootprintBytes);
    EXPECT_EQ(a.pageDensity, b.pageDensity);
    EXPECT_EQ(a.lineDensity, b.lineDensity);
    EXPECT_EQ(a.revoker, b.revoker);
    EXPECT_EQ(multi.peakAggLiveAllocs, a.peakLiveAllocs);
}

TEST(TenantManager, TenantsShareTheCallersOps)
{
    // A hosted trace is a handle to the caller's op buffer, never a
    // copy: addTenant, a definition, and every spawn of it (a
    // respawn into the retired slot included) point at the same ops.
    const workload::Trace host = smallTrace(51);
    const workload::Trace churn = smallTrace(52);
    tenant::TenantManager manager{tenant::TenantManagerConfig{}};
    const size_t slot = manager.addTenant(smallTenant("host"), host);
    EXPECT_EQ(manager.tenant(slot).trace().ops.begin(),
              host.ops.begin());

    manager.defineTenant(7, smallTenant("churn"), churn);
    for (int spawn = 0; spawn < 2; ++spawn) {
        const workload::TraceOps &ops =
            manager.tenant(manager.spawnTenant(7)).trace().ops;
        EXPECT_EQ(ops.begin(), churn.ops.begin()) << "spawn " << spawn;
        EXPECT_EQ(ops.size(), churn.ops.size()) << "spawn " << spawn;
        manager.retireTenant(7);
    }

    // A prefix shares its source and leaves it whole.
    const size_t n = host.ops.size() / 3;
    const workload::TraceOps head = host.ops.prefix(n);
    EXPECT_EQ(head.begin(), host.ops.begin());
    EXPECT_EQ(head.size(), n);
    EXPECT_EQ(head.end(), host.ops.begin() + n);
    EXPECT_EQ(manager.tenant(slot).trace().ops.size(),
              host.ops.size());
}

TEST(TenantManager, RejectsZeroMutatorConfigAtConstruction)
{
    // A config no mutator race can run fails before any replay.
    tenant::TenantManagerConfig cfg;
    cfg.mutator.threads = 0;
    EXPECT_THROW(tenant::TenantManager{cfg}, FatalError);
    cfg.mutator.threads = 1;
    cfg.mutator.remoteBatch = 0;
    EXPECT_THROW(tenant::TenantManager{cfg}, FatalError);
}

TEST(TenantManager, EmptyGlobalsSegmentFailsBeforeAnyOp)
{
    // smallTrace stores root pointers, and a 0-byte globals segment
    // has no slot for one.
    tenant::TenantConfig cfg = smallTenant("a");
    cfg.globalsBytes = 0;
    tenant::TenantManager manager{tenant::TenantManagerConfig{}};
    manager.addTenant(cfg, smallTrace(43));
    try {
        manager.run();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("0-byte globals segment"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TenantManager, SharedEngineAggregatesAcrossTenants)
{
    tenant::TenantManager manager{tenant::TenantManagerConfig{}};
    manager.addTenant(smallTenant("a"), smallTrace(41));
    manager.addTenant(smallTenant("b"), smallTrace(42));
    const tenant::MultiTenantResult result = manager.run();

    EXPECT_GT(result.engine.epochs, 0u);
    EXPECT_EQ(result.engine.epochs,
              result.tenants[0].run.revoker.epochs +
                  result.tenants[1].run.revoker.epochs);
    EXPECT_EQ(result.allocCalls, result.tenants[0].run.allocCalls +
                                     result.tenants[1].run.allocCalls);
    EXPECT_GT(result.peakAggLiveAllocs, 0u);
    EXPECT_EQ(result.tenantEpochs.count(), 2u);
    // Every tenant triggered sweeps of its own region.
    EXPECT_GT(result.tenants[0].run.revoker.epochs, 0u);
    EXPECT_GT(result.tenants[1].run.revoker.epochs, 0u);
}

TEST(EnvParsing, StrictIntegerAndFloat)
{
    int64_t i = 0;
    EXPECT_TRUE(parseI64("42", i));
    EXPECT_EQ(i, 42);
    EXPECT_FALSE(parseI64("", i));
    EXPECT_FALSE(parseI64("abc", i));
    EXPECT_FALSE(parseI64("3x", i));
    EXPECT_FALSE(parseI64("99999999999999999999", i));

    double d = 0;
    EXPECT_TRUE(parseF64("2.5", d));
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_FALSE(parseF64("2.5q", d));
    EXPECT_FALSE(parseF64("", d));

    // Unset -> the declared default; malformed -> fatal, never a
    // silent default.
    unsetenv("CHERIVOKE_BENCH_ALLOCS");
    EXPECT_EQ(knobInt("CHERIVOKE_BENCH_ALLOCS"), 80000);
    setenv("CHERIVOKE_BENCH_ALLOCS", "abc", 1);
    EXPECT_THROW(knobInt("CHERIVOKE_BENCH_ALLOCS"), FatalError);
    setenv("CHERIVOKE_BENCH_ALLOCS", "0", 1);
    EXPECT_THROW(knobInt("CHERIVOKE_BENCH_ALLOCS"), FatalError);
    setenv("CHERIVOKE_BENCH_ALLOCS", "12", 1);
    EXPECT_EQ(knobInt("CHERIVOKE_BENCH_ALLOCS"), 12);
    unsetenv("CHERIVOKE_BENCH_ALLOCS");

    // Unsigned knobs reject what does not fit instead of truncating:
    // 2^32 would otherwise become 0, and 2^32 + 1 would become 1.
    setenv("CHERIVOKE_THREADS", "12", 1);
    EXPECT_EQ(knobUnsigned("CHERIVOKE_THREADS"), 12u);
    setenv("CHERIVOKE_THREADS", "4294967295", 1);
    EXPECT_EQ(knobUnsigned("CHERIVOKE_THREADS"), 4294967295u);
    for (const char *text : {"4294967296", "4294967297"}) {
        setenv("CHERIVOKE_THREADS", text, 1);
        try {
            knobUnsigned("CHERIVOKE_THREADS");
            ADD_FAILURE() << text << " was accepted";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("CHERIVOKE_THREADS"),
                      std::string::npos)
                << err.what();
        }
    }
    setenv("CHERIVOKE_THREADS", "0", 1);
    EXPECT_THROW(knobUnsigned("CHERIVOKE_THREADS"), FatalError);
    unsetenv("CHERIVOKE_THREADS");
    setenv("CHERIVOKE_SWEEPER_RETRIES", "0", 1); // bound >= 0
    EXPECT_EQ(knobUnsigned("CHERIVOKE_SWEEPER_RETRIES"), 0u);
    unsetenv("CHERIVOKE_SWEEPER_RETRIES");

    // An upper bound: the color backend has cap::kMaxColors - 1
    // usable colors, so a larger pool fails instead of running
    // clamped under the number the knob dump and reports print.
    setenv("CHERIVOKE_COLORS", "63", 1);
    EXPECT_EQ(knobUnsigned("CHERIVOKE_COLORS"), cap::kMaxColors - 1);
    setenv("CHERIVOKE_COLORS", "64", 1);
    try {
        knobUnsigned("CHERIVOKE_COLORS");
        ADD_FAILURE() << "64 colors were accepted";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "fatal: CHERIVOKE_COLORS: 64 is out "
                                 "of range (must be 1..63)");
    }
    unsetenv("CHERIVOKE_COLORS");

    setenv("CHERIVOKE_TENANT_WEIGHTS", "2,1,1", 1);
    const std::vector<double> w = knobRealList("CHERIVOKE_TENANT_WEIGHTS");
    ASSERT_EQ(w.size(), 3u);
    EXPECT_DOUBLE_EQ(w[0], 2.0);
    setenv("CHERIVOKE_TENANT_WEIGHTS", "2,,1", 1);
    EXPECT_THROW(knobRealList("CHERIVOKE_TENANT_WEIGHTS"), FatalError);
    setenv("CHERIVOKE_TENANT_WEIGHTS", "2,0", 1);
    EXPECT_THROW(knobRealList("CHERIVOKE_TENANT_WEIGHTS"), FatalError);
    unsetenv("CHERIVOKE_TENANT_WEIGHTS");
    EXPECT_TRUE(knobRealList("CHERIVOKE_TENANT_WEIGHTS").empty());

    // Reading a knob the table does not declare is a bug, not a
    // configuration error.
    EXPECT_THROW(knobInt("CHERIVOKE_UNDECLARED"), PanicError);
    EXPECT_THROW(knobReal("CHERIVOKE_THREADS"), PanicError);
}

namespace {

/** A knob's parsed value, as text, whatever its type. */
std::string
readKnob(const KnobSpec &spec)
{
    std::ostringstream out;
    out.precision(17);
    switch (spec.type) {
      case KnobType::Unsigned: out << knobUnsigned(spec.name); break;
      case KnobType::Int: out << knobInt(spec.name); break;
      case KnobType::Real: out << knobReal(spec.name); break;
      case KnobType::Text: out << knobText(spec.name); break;
      case KnobType::RealList:
        for (const double v : knobRealList(spec.name))
            out << v << ',';
        break;
      case KnobType::TextList:
        for (const std::string &v : knobTextList(spec.name))
            out << v << ',';
        break;
    }
    return out.str();
}

} // namespace

TEST(EnvParsing, DeclaredDefaultsParseToThemselves)
{
    // Every declared default is a value its own knob accepts, and
    // setting a knob to the default it prints leaves its value — and
    // so every configuration built from it — unchanged.
    std::string previous;
    for (const KnobSpec &spec : knobTable()) {
        SCOPED_TRACE(spec.name);
        EXPECT_LT(previous, spec.name) << "table not sorted by name";
        previous = spec.name;
        EXPECT_NE(std::string(spec.help), "");
        const auto recorded = [&] {
            for (const EnvKnob &knob : envKnobs())
                if (knob.name == spec.name)
                    return knob;
            return EnvKnob{};
        };
        unsetenv(spec.name);
        const std::string unset = readKnob(spec);
        EXPECT_FALSE(recorded().fromEnv);
        EXPECT_EQ(recorded().value, spec.fallback);
        setenv(spec.name, spec.fallback, 1);
        EXPECT_EQ(readKnob(spec), unset);
        EXPECT_TRUE(recorded().fromEnv);
        unsetenv(spec.name);
    }
}

TEST(EnvParsing, UnknownKnobIsFatalWithSuggestion)
{
    // A declared knob passes validation...
    setenv("CHERIVOKE_THREADS", "1", 1);
    EXPECT_NO_THROW(validateEnvironment());
    unsetenv("CHERIVOKE_THREADS");

    // ...a typo'd one fatals and names the nearest real knob, so a
    // transposed letter can't silently run the benchmark with the
    // knob's default instead of the requested value.
    setenv("CHERIVOKE_BACKEDN", "color", 1);
    try {
        validateEnvironment();
        FAIL() << "misspelled knob was accepted";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("CHERIVOKE_BACKEDN"), std::string::npos)
            << what;
        EXPECT_NE(what.find("CHERIVOKE_BACKEND"), std::string::npos)
            << what;
    }
    unsetenv("CHERIVOKE_BACKEDN");
    EXPECT_NO_THROW(validateEnvironment());

    // Every knob the table declares is itself accepted.
    for (const KnobSpec &spec : knobTable())
        setenv(spec.name, "1", 1);
    EXPECT_NO_THROW(validateEnvironment());
    for (const KnobSpec &spec : knobTable())
        unsetenv(spec.name);
}

TEST(TenantScope, ParseAndName)
{
    tenant::RevocationScope scope;
    EXPECT_TRUE(tenant::parseScope("per-tenant", scope));
    EXPECT_EQ(scope, tenant::RevocationScope::PerTenant);
    EXPECT_TRUE(tenant::parseScope("global", scope));
    EXPECT_EQ(scope, tenant::RevocationScope::Global);
    EXPECT_FALSE(tenant::parseScope("bogus", scope));
    EXPECT_STREQ(tenant::scopeName(
                     tenant::RevocationScope::PerTenant),
                 "per-tenant");
}
