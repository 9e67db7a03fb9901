/**
 * @file
 * Tests for the mutator front-end's traffic count: the owner and
 * executor partition and the replay's liveness rules on a hand-built
 * trace, boundary deduplication, conservation of the counted
 * traffic, literal fingerprints recorded from the threaded
 * message-passing race this count replaced, and bit-identical
 * modelled multi-tenant statistics between 1-thread and M-thread
 * front-ends.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "support/logging.hh"
#include "tenant/mutator_threads.hh"
#include "tenant/tenant_manager.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

/** A small alloc/free-heavy trace (~40k ops at the defaults). */
workload::Trace
smallTrace(uint64_t seed, const char *profile = "dealII",
           double scale = 1.0 / 512)
{
    workload::SynthConfig cfg;
    cfg.scale = scale;
    cfg.durationSec = 2.0;
    cfg.seed = seed;
    return workload::synthesize(workload::profileFor(profile), cfg);
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

} // namespace

// ---- Partition, liveness and boundaries -------------------------

TEST(MutatorPlan, DeterministicPartitionAndEffectiveness)
{
    std::vector<workload::TraceOp> ops;
    auto push = [&ops](workload::OpKind kind, uint64_t id,
                       uint64_t size = 0) {
        workload::TraceOp op;
        op.kind = kind;
        op.id = id;
        op.size = size;
        ops.push_back(op);
    };
    using workload::OpKind;
    push(OpKind::Malloc, 0, 32); // owner 0
    push(OpKind::Malloc, 1, 48); // owner 1
    push(OpKind::Malloc, 2, 64); // owner 2
    push(OpKind::Free, 1);       // op 3: executor 0, owner 1: remote
    push(OpKind::Free, 1);       // op 4: dead id — ineffective
    push(OpKind::Malloc, 0, 16); // op 5: id 0 live — ineffective
    push(OpKind::Free, 0);       // op 6: executor 0 == owner: local
    const workload::Trace trace{std::move(ops)};

    tenant::MutatorConfig cfg;
    cfg.threads = 3;
    const tenant::MutatorRaceResult r =
        tenant::countMutatorTraffic(trace, SIZE_MAX, cfg, {3, 3, 7});

    EXPECT_EQ(r.opsExecuted, 7u);
    EXPECT_EQ(r.effectiveMallocs, 3u);
    EXPECT_EQ(r.effectiveFrees, 2u);
    EXPECT_EQ(r.remoteFrees, 1u);
    // The duplicate boundary at op 3 collapses to one mark.
    EXPECT_EQ(r.epochBarriers, 2u);
    ASSERT_EQ(r.perThread.size(), 3u);
    const tenant::MutatorThreadStats &t0 = r.perThread[0];
    const tenant::MutatorThreadStats &t1 = r.perThread[1];
    // Ineffective ops run on their thread but change nothing: thread
    // 1 executes the dead free and thread 0 the second malloc of id
    // 0, which is quarantined at its first size.
    EXPECT_EQ(t1.ops, 2u);
    EXPECT_EQ(t1.quarantinedChunks, 1u);
    EXPECT_EQ(t1.quarantinedBytes, 48u);
    EXPECT_EQ(t0.mallocs, 2u);
    EXPECT_EQ(t0.localFrees, 1u);
    EXPECT_EQ(t0.quarantinedBytes, 32u);
    // The one remote free waits in a partial batch until the
    // boundary at op 7 flushes it.
    EXPECT_EQ(t0.batchesSent, 1u);
    EXPECT_EQ(t1.batchesDrained, 1u);
    // Every thread meets both boundaries, after ops [0, 3) and
    // [0, 7).
    const std::vector<uint64_t> owned[] = {{32, 0}, {48, 0}, {64, 64}};
    for (unsigned t = 0; t < 3; ++t) {
        EXPECT_EQ(r.perThread[t].epochFlushes, 2u) << "thread " << t;
        EXPECT_EQ(r.perThread[t].ownedLiveBytesAtEpoch, owned[t])
            << "thread " << t;
    }
}

// ---- The count --------------------------------------------------

TEST(MutatorRace, FourThreadCountConservesTraffic)
{
    // Message passing loses nothing and invents nothing: what is
    // sent is received, and local plus remote frees are every
    // effective free.
    const workload::Trace trace = smallTrace(7);
    tenant::MutatorConfig cfg;
    cfg.threads = 4;
    cfg.remoteBatch = 8;
    const tenant::MutatorRaceResult r = tenant::countMutatorTraffic(
        trace, SIZE_MAX, cfg, {1000, 5000, 12000});

    EXPECT_GT(r.remoteFrees, 0u);
    EXPECT_GT(r.batches, 0u);
    EXPECT_EQ(r.epochBarriers, 3u);
    EXPECT_EQ(r.localFrees + r.remoteFrees, r.effectiveFrees);
    uint64_t ops = 0, applied = 0, drained = 0, chunks = 0;
    ASSERT_EQ(r.perThread.size(), 4u);
    for (const tenant::MutatorThreadStats &st : r.perThread) {
        ops += st.ops;
        applied += st.remoteApplied;
        drained += st.batchesDrained;
        chunks += st.quarantinedChunks;
        EXPECT_EQ(st.ownedLiveBytesAtEpoch.size(), 3u);
    }
    EXPECT_EQ(ops, r.opsExecuted);
    EXPECT_EQ(applied, r.remoteFrees);
    EXPECT_EQ(drained, r.batches);
    EXPECT_EQ(chunks, r.effectiveFrees);
}

TEST(MutatorRace, FingerprintsMatchPinnedValues)
{
    // Literal values recorded from the threaded race this count
    // replaced, so a change that shifts every fingerprint
    // consistently still fails.
    const workload::Trace trace = smallTrace(7);
    const std::vector<uint64_t> epochs = {1000, 5000, 12000};
    const std::pair<unsigned, uint64_t> pinned[] = {
        {1, 0xd60c90acf843bbb9ULL},
        {2, 0x409a37d107dd467cULL},
        {4, 0x1362fd8d152afa99ULL},
        {8, 0x1314b78b3a04a3a0ULL},
    };
    for (const auto &[threads, fingerprint] : pinned) {
        tenant::MutatorConfig cfg;
        cfg.threads = threads;
        cfg.remoteBatch = 8;
        EXPECT_EQ(
            tenant::countMutatorTraffic(trace, SIZE_MAX, cfg, epochs)
                .fingerprint(),
            fingerprint)
            << threads << " threads";
    }

    // A prefix whose boundaries fall at (twice) and past its end:
    // those meet once each after the last op.
    tenant::MutatorConfig cfg;
    cfg.threads = 3;
    cfg.remoteBatch = 8;
    const auto prefix = tenant::countMutatorTraffic(
        trace, 38000, cfg, {1000, 5000, 12000, 36000, 38000, 38000,
                            40000});
    EXPECT_EQ(prefix.opsExecuted, 38000u);
    EXPECT_EQ(prefix.epochBarriers, 6u);
    EXPECT_GT(prefix.remoteFrees, 0u);
    EXPECT_EQ(prefix.fingerprint(), 0x793c0282681d01f7ULL);

    // Batch capacities 1, 3 and 32; 3 and 16 threads; duplicate
    // boundaries, one of them before the first op; boundaries at and
    // past a prefix's end; and a second profile.
    const workload::Trace omnetpp = smallTrace(3, "omnetpp", 1.0 / 256);
    struct Case
    {
        const workload::Trace &trace;
        unsigned threads;
        unsigned remoteBatch;
        size_t opsLimit;
        std::vector<uint64_t> epochs;
        uint64_t fingerprint;
    };
    const Case cases[] = {
        {trace, 4, 1, SIZE_MAX, epochs, 0x9352f84f1f0f968cULL},
        {trace, 3, 3, SIZE_MAX, epochs, 0x549bffb0004f424cULL},
        {trace, 2, 32, SIZE_MAX, epochs, 0x7377a55ffa4e3a33ULL},
        {trace, 16, 8, SIZE_MAX, epochs, 0xc205de023a2b1aa7ULL},
        {trace, 16, 32, SIZE_MAX, epochs, 0x98ab3fbb30c0df02ULL},
        {trace, 4, 8, SIZE_MAX, {0, 0, 1000, 1000, 5000, 12000, 12000},
         0xd8a9cede83c16b68ULL},
        {trace, 16, 1, 36000,
         {3000, 30000, 36000, 36000, 37000, uint64_t{1} << 40},
         0x1bad24cb738f5f95ULL},
        {omnetpp, 1, 32, SIZE_MAX, {}, 0xce94b55bd64f41ceULL},
        {omnetpp, 2, 3, SIZE_MAX, {2000, 9000}, 0xf728271c59a94a03ULL},
        {omnetpp, 5, 1, SIZE_MAX, {500, 500, 7000}, 0x8c33f82a2eec24b5ULL},
        {omnetpp, 16, 32, 10000, {4000, 9999, 10000, 12000},
         0x24f731ae7917d99bULL},
    };
    for (const Case &c : cases) {
        tenant::MutatorConfig cfg;
        cfg.threads = c.threads;
        cfg.remoteBatch = c.remoteBatch;
        EXPECT_EQ(tenant::countMutatorTraffic(c.trace, c.opsLimit,
                                              cfg, c.epochs)
                      .fingerprint(),
                  c.fingerprint)
            << c.threads << " threads, batch " << c.remoteBatch
            << ", " << c.trace.ops.size() << "-op trace";
    }
}

TEST(MutatorRace, ThreadCountPreservesEffectiveTotals)
{
    const workload::Trace trace = smallTrace(11);
    tenant::MutatorConfig one, four;
    four.threads = 4;
    const auto r1 = tenant::countMutatorTraffic(trace, SIZE_MAX, one);
    const auto r4 = tenant::countMutatorTraffic(trace, SIZE_MAX, four);

    // The modelled allocator work is invariant in the fan-out; only
    // its local/remote split changes.
    EXPECT_EQ(r1.opsExecuted, r4.opsExecuted);
    EXPECT_EQ(r1.effectiveMallocs, r4.effectiveMallocs);
    EXPECT_EQ(r1.effectiveFrees, r4.effectiveFrees);
    EXPECT_EQ(r1.quarantinedBytes, r4.quarantinedBytes);
    EXPECT_EQ(r1.remoteFrees, 0u);
    EXPECT_EQ(r1.batches, 0u);
    EXPECT_GT(r4.remoteFrees, 0u);
    EXPECT_EQ(r4.localFrees + r4.remoteFrees, r1.localFrees);
}

TEST(MutatorRace, SingleEntryBatchesStressTeardown)
{
    const workload::Trace trace = smallTrace(3);
    tenant::MutatorConfig cfg;
    cfg.threads = 3;
    cfg.remoteBatch = 1; // every remote free is its own message
    // The whole trace: dealII frees nothing in its first ~30k ops.
    const auto r = tenant::countMutatorTraffic(trace, SIZE_MAX, cfg);
    EXPECT_GT(r.remoteFrees, 0u);
    EXPECT_EQ(r.batches, r.remoteFrees);
}

TEST(MutatorRace, RejectsZeroConfig)
{
    workload::Trace trace;
    tenant::MutatorConfig cfg;
    cfg.threads = 0;
    EXPECT_THROW(tenant::countMutatorTraffic(trace, 0, cfg), FatalError);
    cfg.threads = 1;
    cfg.remoteBatch = 0;
    EXPECT_THROW(tenant::countMutatorTraffic(trace, 0, cfg), FatalError);
}

// ---- Full pipeline: modelled statistics are thread-invariant ----

namespace {

tenant::MultiTenantResult
runTenants(unsigned mutator_threads)
{
    tenant::TenantManagerConfig cfg;
    cfg.mutator.threads = mutator_threads;
    cfg.mutator.remoteBatch = 4;
    tenant::TenantManager mgr(cfg);
    mgr.addTenant(smallTenant("a"), smallTrace(21));
    mgr.addTenant(smallTenant("b"), smallTrace(22));
    return mgr.run();
}

} // namespace

TEST(MutatorTenantParity, ModelledStatsBitIdenticalAcrossThreads)
{
    const tenant::MultiTenantResult serial = runTenants(1);
    const tenant::MultiTenantResult threaded = runTenants(3);

    // Every modelled statistic must be bit-identical: the count only
    // adds the message-passing layer, it never feeds the model.
    EXPECT_EQ(serial.totalOps, threaded.totalOps);
    EXPECT_EQ(serial.allocCalls, threaded.allocCalls);
    EXPECT_EQ(serial.freeCalls, threaded.freeCalls);
    EXPECT_EQ(serial.freedBytes, threaded.freedBytes);
    EXPECT_EQ(serial.ptrStores, threaded.ptrStores);
    EXPECT_EQ(serial.peakAggLiveAllocs, threaded.peakAggLiveAllocs);
    EXPECT_EQ(serial.peakAggLiveBytes, threaded.peakAggLiveBytes);
    EXPECT_EQ(serial.peakAggQuarantineBytes,
              threaded.peakAggQuarantineBytes);
    EXPECT_EQ(serial.engine.epochs, threaded.engine.epochs);
    EXPECT_EQ(serial.engine.sweep.capsRevoked,
              threaded.engine.sweep.capsRevoked);
    EXPECT_EQ(serial.engine.sweep.pagesSwept,
              threaded.engine.sweep.pagesSwept);
    ASSERT_EQ(serial.tenants.size(), threaded.tenants.size());
    for (size_t i = 0; i < serial.tenants.size(); ++i) {
        const auto &a = serial.tenants[i];
        const auto &b = threaded.tenants[i];
        EXPECT_EQ(a.run.allocCalls, b.run.allocCalls);
        EXPECT_EQ(a.run.peakLiveBytes, b.run.peakLiveBytes);
        EXPECT_EQ(a.run.revoker.epochs, b.run.revoker.epochs);
        // Both front-ends hit the same epoch boundaries...
        EXPECT_EQ(a.mutator.epochBarriers, b.mutator.epochBarriers);
        EXPECT_EQ(a.mutator.effectiveFrees, b.mutator.effectiveFrees);
        // ...but only the threaded one has remote traffic.
        EXPECT_EQ(a.mutator.remoteFrees, 0u);
    }
    EXPECT_GT(threaded.mutatorRemoteFrees, 0u);
    EXPECT_GT(threaded.mutatorEpochBarriers, 0u);
    EXPECT_EQ(serial.mutatorLocalFrees,
              threaded.mutatorLocalFrees + threaded.mutatorRemoteFrees);

    // And the 3-thread traffic is reproducible end to end.
    const tenant::MultiTenantResult threaded2 = runTenants(3);
    EXPECT_EQ(threaded.mutatorFingerprint,
              threaded2.mutatorFingerprint);
}
