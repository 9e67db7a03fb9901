/**
 * @file
 * Fuzz/stress tests (tier 2) for the mutator front-end's traffic
 * count: seeded random traces counted under random thread counts,
 * batch capacities, and epoch-boundary placements, asserting that
 * (a) the counted traffic is conserved (every remote free sent is
 * applied, every batch sent is drained), (b) the modelled totals are
 * invariant in the fan-out, and (c) the full multi-tenant pipeline
 * produces bit-identical modelled statistics with 1 and M mutator
 * threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/experiment.hh"
#include "support/rng.hh"
#include "tenant/mutator_threads.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

/** A random alloc/free/store trace with controlled liveness. */
workload::Trace
fuzzTrace(uint64_t seed, size_t ops)
{
    Rng rng(seed);
    std::vector<workload::TraceOp> out;
    std::vector<uint64_t> live;
    uint64_t next_id = 0;
    for (size_t i = 0; i < ops; ++i) {
        workload::TraceOp op;
        const uint64_t roll = rng.nextBounded(100);
        if (roll < 45 || live.empty()) {
            op.kind = workload::OpKind::Malloc;
            // Occasionally re-malloc a live id: the ineffective-op
            // path must partition identically on every thread count.
            if (!live.empty() && rng.nextBounded(16) == 0) {
                op.id = live[rng.nextBounded(live.size())];
            } else {
                op.id = next_id++;
                live.push_back(op.id);
            }
            op.size = 16 + rng.nextBounded(512);
        } else if (roll < 85) {
            op.kind = workload::OpKind::Free;
            if (rng.nextBounded(8) == 0) {
                op.id = next_id + 1000 + rng.nextBounded(50); // dead id
            } else {
                const size_t pick = rng.nextBounded(live.size());
                op.id = live[pick];
                live[pick] = live.back();
                live.pop_back();
            }
        } else {
            op.kind = workload::OpKind::StoreData;
            op.dst = rng.nextBounded(next_id + 1);
        }
        out.push_back(op);
    }
    return workload::Trace{std::move(out)};
}

/** Random sorted epoch boundaries over [0, ops]. */
std::vector<uint64_t>
fuzzBoundaries(Rng &rng, size_t ops)
{
    std::vector<uint64_t> bounds;
    const size_t n = rng.nextBounded(6);
    for (size_t i = 0; i < n; ++i)
        bounds.push_back(rng.nextBounded(ops + 1));
    std::sort(bounds.begin(), bounds.end());
    return bounds;
}

} // namespace

TEST(MutatorFuzz, RandomCountsConserveTrafficAcrossThreadCounts)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 977);
        const workload::Trace trace = fuzzTrace(seed, 6000);
        tenant::MutatorConfig cfg;
        cfg.threads = 1 + static_cast<unsigned>(rng.nextBounded(7));
        cfg.remoteBatch = 1 + static_cast<unsigned>(rng.nextBounded(64));
        const std::vector<uint64_t> bounds =
            fuzzBoundaries(rng, trace.ops.size());
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " threads " << cfg.threads
                     << " batch " << cfg.remoteBatch);

        const auto a =
            tenant::countMutatorTraffic(trace, SIZE_MAX, cfg, bounds);
        uint64_t applied = 0, drained = 0;
        for (const tenant::MutatorThreadStats &st : a.perThread) {
            applied += st.remoteApplied;
            drained += st.batchesDrained;
            ASSERT_EQ(st.ownedLiveBytesAtEpoch.size(), a.epochBarriers);
        }
        ASSERT_EQ(applied, a.remoteFrees);
        ASSERT_EQ(drained, a.batches);

        // Fan-out invariance against the serial front-end.
        tenant::MutatorConfig serial;
        serial.remoteBatch = cfg.remoteBatch;
        const auto s =
            tenant::countMutatorTraffic(trace, SIZE_MAX, serial, bounds);
        ASSERT_EQ(s.effectiveMallocs, a.effectiveMallocs);
        ASSERT_EQ(s.effectiveFrees, a.effectiveFrees);
        ASSERT_EQ(s.quarantinedBytes, a.quarantinedBytes);
        ASSERT_EQ(s.epochBarriers, a.epochBarriers);
        ASSERT_EQ(a.localFrees + a.remoteFrees, s.localFrees);
    }
}

TEST(MutatorFuzz, SingleEntryBatchChurn)
{
    // remoteBatch=1 maximizes message count: every remote free is its
    // own batch.
    for (uint64_t seed = 50; seed < 54; ++seed) {
        const workload::Trace trace = fuzzTrace(seed, 4000);
        tenant::MutatorConfig cfg;
        cfg.threads = 5;
        cfg.remoteBatch = 1;
        const auto r = tenant::countMutatorTraffic(trace, SIZE_MAX, cfg);
        ASSERT_GT(r.remoteFrees, 0u);
        ASSERT_EQ(r.batches, r.remoteFrees);
    }
}

TEST(MutatorFuzz, FullPipelineParityAcrossThreadCounts)
{
    // The end-to-end gate: the complete multi-tenant benchmark's
    // modelled outputs are bit-identical with 1 and 4 mutator
    // threads per tenant.
    auto run = [](unsigned threads) {
        sim::ExperimentConfig cfg;
        cfg.scale = 1.0 / 512;
        cfg.durationSec = 0.4;
        cfg.tenants = 2;
        cfg.mutatorThreads = threads;
        cfg.remoteBatch = 8;
        return sim::runMultiTenantBenchmark(
            workload::profileFor("dealII"), cfg);
    };
    const sim::MultiTenantBenchResult serial = run(1);
    const sim::MultiTenantBenchResult threaded = run(4);

    EXPECT_EQ(serial.run.totalOps, threaded.run.totalOps);
    EXPECT_EQ(serial.run.allocCalls, threaded.run.allocCalls);
    EXPECT_EQ(serial.run.freedBytes, threaded.run.freedBytes);
    EXPECT_EQ(serial.run.engine.epochs, threaded.run.engine.epochs);
    EXPECT_EQ(serial.run.engine.sweep.capsRevoked,
              threaded.run.engine.sweep.capsRevoked);
    EXPECT_EQ(serial.run.peakAggQuarantineBytes,
              threaded.run.peakAggQuarantineBytes);
    EXPECT_DOUBLE_EQ(serial.shadowOverhead, threaded.shadowOverhead);
    EXPECT_EQ(serial.sweepDramBytes, threaded.sweepDramBytes);
    ASSERT_EQ(serial.run.tenants.size(), threaded.run.tenants.size());
    for (size_t i = 0; i < serial.run.tenants.size(); ++i) {
        EXPECT_EQ(serial.run.tenants[i].run.peakLiveBytes,
                  threaded.run.tenants[i].run.peakLiveBytes);
        EXPECT_EQ(serial.run.tenants[i].mutator.epochBarriers,
                  threaded.run.tenants[i].mutator.epochBarriers);
    }
    EXPECT_GT(threaded.run.mutatorRemoteFrees, 0u);
}
