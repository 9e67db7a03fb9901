/**
 * @file
 * Tests for the multi-threaded mutator front-end: the lock-free MPSC
 * remote-free queue in isolation (FIFO per producer, stub cycling,
 * multi-producer stress, teardown with batches still queued), the
 * batching sender, the thread-local allocation context (early remote
 * frees), the batched quarantine handoff, and the race engine's
 * determinism — an M-thread run's merged statistics replay
 * bit-identically and match pinned fingerprints, and the modelled
 * multi-tenant statistics are bit-identical between 1-thread and
 * M-thread front-ends.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/thread_context.hh"
#include "support/logging.hh"
#include "tenant/mutator_threads.hh"
#include "tenant/remote_queue.hh"
#include "tenant/tenant_manager.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

std::unique_ptr<tenant::FreeBatch>
makeBatch(unsigned producer, std::initializer_list<uint64_t> ids)
{
    auto b = std::make_unique<tenant::FreeBatch>(producer,
                                                 ids.size());
    for (uint64_t id : ids)
        b->entries.push_back(tenant::RemoteFree{id});
    return b;
}

/** A small alloc/free-heavy trace (~20k ops). */
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

} // namespace

// ---- RemoteFreeQueue --------------------------------------------

TEST(RemoteFreeQueue, FifoSingleProducer)
{
    tenant::RemoteFreeQueue q;
    EXPECT_TRUE(q.drained());
    EXPECT_EQ(q.tryDequeue(), nullptr);

    q.enqueue(makeBatch(0, {1, 2}));
    q.enqueue(makeBatch(0, {3}));
    q.enqueue(makeBatch(0, {4, 5, 6}));
    EXPECT_EQ(q.enqueuedBatches(), 3u);
    EXPECT_FALSE(q.drained());

    auto a = q.tryDequeue();
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->entries.size(), 2u);
    EXPECT_EQ(a->entries[0].id, 1u);
    auto b = q.tryDequeue();
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->entries[0].id, 3u);
    auto c = q.tryDequeue();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->entries[2].id, 6u);
    EXPECT_EQ(q.tryDequeue(), nullptr);
    EXPECT_EQ(q.dequeuedBatches(), 3u);
    EXPECT_TRUE(q.drained());
}

TEST(RemoteFreeQueue, StubCyclesThroughRepeatedDrains)
{
    // Alternate enqueue/drain so the stub node is recycled through
    // the chain many times (the subtle branch of the MPSC design).
    tenant::RemoteFreeQueue q;
    for (uint64_t round = 0; round < 100; ++round) {
        q.enqueue(makeBatch(0, {round}));
        auto b = q.tryDequeue();
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->entries[0].id, round);
        EXPECT_EQ(q.tryDequeue(), nullptr);
        EXPECT_TRUE(q.drained());
    }
}

TEST(RemoteFreeQueue, MultiProducerStressConservesEverything)
{
    constexpr unsigned kProducers = 4;
    constexpr uint64_t kBatchesEach = 500;
    tenant::RemoteFreeQueue q;

    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (uint64_t s = 0; s < kBatchesEach; ++s) {
                auto b = std::make_unique<tenant::FreeBatch>(p, 2);
                b->seq = s;
                b->entries.push_back(
                    tenant::RemoteFree{p * kBatchesEach + s});
                q.enqueue(std::move(b));
            }
        });
    }

    // Consume concurrently with production; tolerate the transient
    // nullptrs a mid-publish producer causes.
    uint64_t got = 0;
    std::vector<uint64_t> next_seq(kProducers, 0);
    while (got < kProducers * kBatchesEach) {
        auto b = q.tryDequeue();
        if (!b)
            continue;
        ASSERT_LT(b->producer, kProducers);
        // Per-producer batches arrive in send order.
        EXPECT_EQ(b->seq, next_seq[b->producer]);
        ++next_seq[b->producer];
        ++got;
    }
    for (auto &t : producers)
        t.join();
    EXPECT_EQ(q.tryDequeue(), nullptr);
    EXPECT_TRUE(q.drained());
    EXPECT_EQ(q.enqueuedBatches(), kProducers * kBatchesEach);
}

TEST(RemoteFreeQueue, TeardownWithQueuedBatches)
{
    // Batches still queued at destruction are owned and deleted by
    // the queue (the sanitizer CI legs make leaks/races fatal).
    auto q = std::make_unique<tenant::RemoteFreeQueue>();
    q->enqueue(makeBatch(0, {1, 2, 3}));
    q->enqueue(makeBatch(1, {4}));
    auto first = q->tryDequeue();
    ASSERT_NE(first, nullptr);
    q.reset(); // one batch still queued
}

// ---- RemoteSender -----------------------------------------------

TEST(RemoteSender, FlushesExactlyAtBatchCapacity)
{
    tenant::RemoteFreeQueue q;
    tenant::RemoteSender sender(2, q, 4);
    for (uint64_t i = 0; i < 10; ++i)
        sender.send(tenant::RemoteFree{i});

    // 10 sends at capacity 4: two full batches published, 2 pending.
    EXPECT_EQ(sender.sentBatches(), 2u);
    EXPECT_EQ(sender.sentEntries(), 8u);
    EXPECT_EQ(sender.pendingEntries(), 2u);

    sender.flush();
    EXPECT_EQ(sender.sentBatches(), 3u);
    EXPECT_EQ(sender.sentEntries(), 10u);
    EXPECT_EQ(sender.pendingEntries(), 0u);
    sender.flush(); // no-op
    EXPECT_EQ(sender.sentBatches(), 3u);

    uint64_t seq = 0, id = 0;
    while (auto b = q.tryDequeue()) {
        EXPECT_EQ(b->producer, 2u);
        EXPECT_EQ(b->seq, seq++);
        for (const tenant::RemoteFree &f : b->entries)
            EXPECT_EQ(f.id, id++);
    }
    EXPECT_EQ(seq, 3u);
    EXPECT_EQ(id, 10u);
}

// ---- ThreadAllocContext -----------------------------------------

TEST(ThreadAllocContext, LocalLifecycle)
{
    alloc::ThreadAllocContext ctx(0);
    ctx.noteMalloc(7, 128);
    EXPECT_EQ(ctx.ownedLiveCount(), 1u);
    EXPECT_EQ(ctx.ownedLiveBytes(), 128u);
    EXPECT_TRUE(ctx.ownsLive(7));
    ctx.noteLocalFree(7);
    EXPECT_EQ(ctx.ownedLiveCount(), 0u);
    EXPECT_EQ(ctx.quarantinedChunks(), 1u);
    EXPECT_EQ(ctx.quarantinedBytes(), 128u);
    EXPECT_THROW(ctx.noteLocalFree(7), PanicError);
}

TEST(ThreadAllocContext, EarlyRemoteFreeParksUntilMalloc)
{
    alloc::ThreadAllocContext ctx(1);
    // The message overtook the malloc in wall-clock time.
    ctx.noteRemoteFree(9);
    EXPECT_EQ(ctx.earlyFreeCount(), 1u);
    EXPECT_EQ(ctx.quarantinedChunks(), 0u);
    EXPECT_THROW(ctx.noteRemoteFree(9), PanicError);

    ctx.noteMalloc(9, 64);
    // The allocation died at birth: quarantined, never live.
    EXPECT_EQ(ctx.earlyFreeCount(), 0u);
    EXPECT_EQ(ctx.ownedLiveCount(), 0u);
    EXPECT_EQ(ctx.quarantinedChunks(), 1u);
    EXPECT_EQ(ctx.quarantinedBytes(), 64u);
}

TEST(ThreadAllocContext, RemoteFreeOfLiveChunkApplies)
{
    alloc::ThreadAllocContext ctx(0);
    ctx.noteMalloc(3, 256);
    ctx.noteRemoteFree(3);
    EXPECT_EQ(ctx.ownedLiveBytes(), 0u);
    EXPECT_EQ(ctx.remoteFreesApplied(), 1u);
    EXPECT_EQ(ctx.quarantinedBytes(), 256u);
}

// ---- Batched quarantine handoff ---------------------------------

TEST(QuarantineBatch, AddBatchMatchesSequentialAdds)
{
    // Two identical heaps: one quarantines chunk by chunk, the other
    // hands the same chunks over as one drained batch.
    mem::AddressSpace space_a, space_b;
    alloc::DlAllocator dl_a(space_a), dl_b(space_b);
    alloc::Quarantine seq, batched;

    std::vector<cap::Capability> caps_a, caps_b;
    for (int i = 0; i < 8; ++i) {
        caps_a.push_back(dl_a.malloc(64 + 16 * i));
        caps_b.push_back(dl_b.malloc(64 + 16 * i));
    }
    // Free alternating chunks then their neighbours: exercises both
    // merge directions inside one batch.
    std::vector<alloc::QuarantineRun> chunks;
    unsigned merged_seq = 0;
    for (int idx : {0, 2, 4, 6, 1, 3, 5}) {
        const auto qa = dl_a.quarantineFree(caps_a[idx]);
        merged_seq += seq.add(dl_a, qa.addr, qa.size);
        const auto qb = dl_b.quarantineFree(caps_b[idx]);
        chunks.push_back(alloc::QuarantineRun{qb.addr, qb.size});
    }
    alloc::ThreadAllocContext ctx(0);
    const unsigned merged_batch =
        ctx.handoffToQuarantine(dl_b, batched, chunks);

    EXPECT_EQ(merged_batch, merged_seq);
    EXPECT_EQ(batched.runCount(), seq.runCount());
    EXPECT_EQ(batched.merges(), seq.merges());
    EXPECT_EQ(batched.totalBytes(), seq.totalBytes());
    EXPECT_EQ(ctx.quarantinedChunks(), chunks.size());
    const auto &runs_a = seq.orderedRuns();
    const auto &runs_b = batched.orderedRuns();
    ASSERT_EQ(runs_a.size(), runs_b.size());
    for (size_t i = 0; i < runs_a.size(); ++i) {
        EXPECT_EQ(runs_a[i].addr, runs_b[i].addr);
        EXPECT_EQ(runs_a[i].size, runs_b[i].size);
    }
}

// ---- Race planning ----------------------------------------------

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
    const tenant::RacePlan plan =
        tenant::planMutatorRace(trace, SIZE_MAX, cfg, {3, 3, 7});

    EXPECT_EQ(plan.opsPlanned, 7u);
    EXPECT_EQ(plan.effectiveMallocs, 3u);
    EXPECT_EQ(plan.effectiveFrees, 2u);
    EXPECT_EQ(plan.remoteFrees, 1u);
    // The duplicate boundary at op 3 collapses to one mark.
    EXPECT_EQ(plan.epochMarks, 2u);
    EXPECT_EQ(plan.epochBoundaries, (std::vector<uint64_t>{3, 7}));
    EXPECT_EQ(plan.effective,
              (std::vector<bool>{true, true, true, true, false,
                                 false, true}));
    // The plan shares the trace's ops instead of copying them.
    EXPECT_EQ(plan.ops.begin(), trace.ops.begin());
    EXPECT_EQ(plan.ops.size(), 7u);

    // Plans are pure functions of their inputs, and every thread
    // meets both boundaries.
    const tenant::RacePlan again =
        tenant::planMutatorRace(trace, SIZE_MAX, cfg, {3, 3, 7});
    EXPECT_EQ(again.effective, plan.effective);
    const tenant::MutatorRaceResult r = tenant::runMutatorRace(plan);
    EXPECT_EQ(r.fingerprint(),
              tenant::runMutatorRace(again).fingerprint());
    for (unsigned t = 0; t < 3; ++t)
        EXPECT_EQ(r.perThread[t].epochFlushes, 2u) << "thread " << t;
}

// ---- The race ---------------------------------------------------

TEST(MutatorRace, FourThreadRunReplaysBitIdentically)
{
    const workload::Trace trace = smallTrace(7);
    tenant::MutatorConfig cfg;
    cfg.threads = 4;
    cfg.remoteBatch = 8;
    const std::vector<uint64_t> epochs = {1000, 5000, 12000};

    const tenant::MutatorRaceResult first =
        tenant::runMutatorRace(trace, SIZE_MAX, cfg, epochs);
    const tenant::MutatorRaceResult second =
        tenant::runMutatorRace(trace, SIZE_MAX, cfg, epochs);

    EXPECT_GT(first.remoteFrees, 0u);
    EXPECT_GT(first.batches, 0u);
    EXPECT_EQ(first.epochBarriers, 3u);
    EXPECT_EQ(first.fingerprint(), second.fingerprint())
        << "merged race statistics must be deterministic";
    ASSERT_EQ(first.perThread.size(), 4u);
    for (unsigned t = 0; t < 4; ++t) {
        EXPECT_EQ(first.perThread[t].ownedLiveBytesAtEpoch,
                  second.perThread[t].ownedLiveBytesAtEpoch);
    }
}

TEST(MutatorRace, FingerprintsMatchPinnedValues)
{
    // Literal values, so a change that shifts every fingerprint
    // consistently still fails, not only one that makes two runs
    // disagree.
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
            tenant::runMutatorRace(trace, SIZE_MAX, cfg, epochs)
                .fingerprint(),
            fingerprint)
            << threads << " threads";
    }

    // A prefix whose boundaries fall at (twice) and past its end:
    // those meet once each after the last op.
    tenant::MutatorConfig cfg;
    cfg.threads = 3;
    cfg.remoteBatch = 8;
    const auto prefix = tenant::runMutatorRace(
        trace, 38000, cfg, {1000, 5000, 12000, 36000, 38000, 38000,
                            40000});
    EXPECT_EQ(prefix.opsExecuted, 38000u);
    EXPECT_EQ(prefix.epochBarriers, 6u);
    EXPECT_GT(prefix.remoteFrees, 0u);
    EXPECT_EQ(prefix.fingerprint(), 0x793c0282681d01f7ULL);
}

TEST(MutatorRace, ThreadCountPreservesEffectiveTotals)
{
    const workload::Trace trace = smallTrace(11);
    tenant::MutatorConfig one, four;
    four.threads = 4;
    const auto r1 = tenant::runMutatorRace(trace, SIZE_MAX, one);
    const auto r4 = tenant::runMutatorRace(trace, SIZE_MAX, four);

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
    const auto r = tenant::runMutatorRace(trace, 4000, cfg);
    EXPECT_EQ(r.batches, r.remoteFrees);
}

TEST(MutatorRace, RejectsZeroConfig)
{
    workload::Trace trace;
    tenant::MutatorConfig cfg;
    cfg.threads = 0;
    EXPECT_THROW(tenant::planMutatorRace(trace, 0, cfg), FatalError);
    cfg.threads = 1;
    cfg.remoteBatch = 0;
    EXPECT_THROW(tenant::planMutatorRace(trace, 0, cfg), FatalError);
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

    // Every modelled statistic must be bit-identical: the race only
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

    // And the threaded race itself is reproducible end to end.
    const tenant::MultiTenantResult threaded2 = runTenants(3);
    EXPECT_EQ(threaded.mutatorFingerprint,
              threaded2.mutatorFingerprint);
}
