#include "tenant/mutator_threads.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "alloc/thread_context.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace tenant {

namespace {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a accumulation. */
inline uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

unsigned
mutatorExecutorOf(const workload::TraceOp &op, uint64_t index,
                  unsigned threads)
{
    CHERIVOKE_ASSERT(threads > 0);
    switch (op.kind) {
      case workload::OpKind::Malloc:
        // The allocating thread owns the chunk.
        return mutatorOwnerOf(op.id, threads);
      case workload::OpKind::Free:
        // Frees rotate across threads, so a share of (M-1)/M of
        // them is genuinely remote.
        return static_cast<unsigned>(index % threads);
      case workload::OpKind::StorePtr:
      case workload::OpKind::StoreData:
        // Stores run where the destination object lives.
        return mutatorOwnerOf(op.dst, threads);
      case workload::OpKind::RootPtr:
        return static_cast<unsigned>(index % threads);
      case workload::OpKind::SpawnTenant:
      case workload::OpKind::RetireTenant:
        // Control ops: thread 0, no allocator effect.
        return 0;
    }
    return 0;
}

void
checkMutatorConfig(const MutatorConfig &config)
{
    if (config.threads == 0)
        fatal("mutator front-end needs at least one thread");
    if (config.remoteBatch == 0)
        fatal("remote-free batch capacity must be positive");
}

RacePlan
planMutatorRace(const workload::Trace &trace, size_t opsLimit,
                const MutatorConfig &config,
                const std::vector<uint64_t> &epoch_ops)
{
    checkMutatorConfig(config);
    CHERIVOKE_ASSERT(
        std::is_sorted(epoch_ops.begin(), epoch_ops.end()),
        "(epoch boundaries must be in op order)");

    const unsigned m = config.threads;
    RacePlan plan;
    plan.config = config;
    plan.ops =
        trace.ops.prefix(std::min(opsLimit, trace.ops.size()));
    plan.opsPlanned = plan.ops.size();
    // Back-to-back epochs at one op need only one flush.
    std::vector<uint64_t> &bounds = plan.epochBoundaries;
    bounds = epoch_ops;
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());
    plan.epochMarks = bounds.size();
    plan.effective.resize(plan.ops.size());

    // Mirror the serial replay's liveness semantics so effectiveness
    // — hence ownership transfer — is a pure function of the trace.
    std::unordered_set<uint64_t> live;
    live.reserve(plan.ops.size() / 4 + 16);
    for (size_t i = 0; i < plan.ops.size(); ++i) {
        const workload::TraceOp &op = plan.ops[i];
        switch (op.kind) {
          case workload::OpKind::Malloc:
            // The replayer's emplace keeps the first mapping: a
            // second malloc of a live id leaks (never freed by id).
            if (live.insert(op.id).second) {
                plan.effective[i] = true;
                ++plan.effectiveMallocs;
            }
            break;
          case workload::OpKind::Free:
            if (live.erase(op.id) != 0) {
                plan.effective[i] = true;
                ++plan.effectiveFrees;
                if (mutatorExecutorOf(op, i, m) !=
                    mutatorOwnerOf(op.id, m))
                    ++plan.remoteFrees;
            }
            break;
          default:
            break; // stores/roots/lifecycle: no allocator effect
        }
    }
    return plan;
}

namespace {

/** Shared race state plus the per-thread worker body. */
struct Race
{
    const RacePlan &plan;
    std::vector<std::unique_ptr<RemoteFreeQueue>> queues;
    std::barrier<> barrier;
    std::vector<MutatorThreadStats> stats;
    std::mutex error_mutex;
    std::exception_ptr error;

    explicit Race(const RacePlan &p)
        : plan(p), barrier(static_cast<ptrdiff_t>(p.config.threads)),
          stats(p.config.threads)
    {
        for (unsigned t = 0; t < p.config.threads; ++t)
            queues.push_back(std::make_unique<RemoteFreeQueue>());
    }

    void fail(std::exception_ptr e)
    {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error)
            error = e;
    }

    /** One inbox drain pass; @p to_empty spins until the queue's
     *  counters agree (legal only when producers are quiesced). */
    void drainInbox(unsigned t, alloc::ThreadAllocContext &ctx,
                    MutatorThreadStats &st, bool to_empty)
    {
        ++st.drains;
        uint64_t got = 0;
        for (;;) {
            std::unique_ptr<FreeBatch> batch =
                queues[t]->tryDequeue();
            if (!batch) {
                if (to_empty && !queues[t]->drained())
                    continue; // producer mid-publish: spin
                break;
            }
            ++got;
            ++st.batchesDrained;
            for (const RemoteFree &f : batch->entries) {
                ctx.noteRemoteFree(f.id);
                ++st.remoteApplied;
            }
        }
        st.maxBatchesPerDrain =
            std::max(st.maxBatchesPerDrain, got);
    }

    void work(unsigned t)
    {
        const unsigned m = plan.config.threads;
        alloc::ThreadAllocContext ctx(t);
        MutatorThreadStats st;
        st.thread = t;
        const double t0 = wallNow();

        // One sender per remote owner (own slot stays empty).
        std::vector<std::unique_ptr<RemoteSender>> senders(m);
        for (unsigned o = 0; o < m; ++o) {
            if (o != t) {
                senders[o] = std::make_unique<RemoteSender>(
                    t, *queues[o], plan.config.remoteBatch);
            }
        }
        auto flush_all = [&]() {
            for (unsigned o = 0; o < m; ++o) {
                if (senders[o])
                    senders[o]->flush();
            }
        };

        // Epoch/drain contract: nothing may be in flight while the
        // revocation set freezes. Flush, meet every thread, drain to
        // provably empty, and only then let anyone produce again.
        auto epoch_mark = [&]() {
            flush_all();
            barrier.arrive_and_wait();
            drainInbox(t, ctx, st, /*to_empty=*/true);
            CHERIVOKE_ASSERT(queues[t]->drained(),
                             "(remote frees in flight at an epoch "
                             "boundary)");
            CHERIVOKE_ASSERT(ctx.earlyFreeCount() == 0,
                             "(early free past its epoch barrier)");
            st.ownedLiveBytesAtEpoch.push_back(ctx.ownedLiveBytes());
            ++st.epochFlushes;
            barrier.arrive_and_wait();
        };

        // Every thread walks the whole prefix and executes its share.
        const workload::TraceOps &ops = plan.ops;
        size_t i = 0;
        auto run_until = [&](size_t end) {
            for (; i < end; ++i) {
                const workload::TraceOp &op = ops[i];
                if (mutatorExecutorOf(op, i, m) != t)
                    continue;
                ++st.ops;
                switch (op.kind) {
                  case workload::OpKind::Malloc:
                    // The malloc slow path is the owner's natural
                    // drain point (snmalloc: allocation looks at the
                    // remote queue before refilling).
                    drainInbox(t, ctx, st, /*to_empty=*/false);
                    ++st.mallocs;
                    if (plan.effective[i])
                        ctx.noteMalloc(op.id, op.size);
                    break;
                  case workload::OpKind::Free: {
                    if (!plan.effective[i])
                        break;
                    const unsigned owner = mutatorOwnerOf(op.id, m);
                    if (owner == t) {
                        ctx.noteLocalFree(op.id);
                        ++st.localFrees;
                    } else {
                        senders[owner]->send(RemoteFree{op.id});
                        ++st.remoteSent;
                    }
                    break;
                  }
                  default:
                    break; // modelled elsewhere; the race only times it
                }
            }
        };
        for (uint64_t boundary : plan.epochBoundaries) {
            // Boundary b meets after ops [0, b) were applied; one at
            // or past the end (an epoch opened by the very last op)
            // still meets once.
            run_until(std::min<uint64_t>(boundary, ops.size()));
            epoch_mark();
        }
        run_until(ops.size());

        // Teardown: flush stragglers, meet every thread, then drain
        // what is addressed to us — nobody produces after the
        // barrier, so "drained" is exact and final.
        flush_all();
        barrier.arrive_and_wait();
        drainInbox(t, ctx, st, /*to_empty=*/true);
        CHERIVOKE_ASSERT(queues[t]->drained(),
                         "(remote frees lost in teardown)");
        CHERIVOKE_ASSERT(ctx.earlyFreeCount() == 0,
                         "(remote free without a matching malloc)");

        for (unsigned o = 0; o < m; ++o) {
            if (senders[o])
                st.batchesSent += senders[o]->sentBatches();
        }
        st.quarantinedChunks = ctx.quarantinedChunks();
        st.quarantinedBytes = ctx.quarantinedBytes();
        st.ownedLiveBytesEnd = ctx.ownedLiveBytes();
        st.wallSec = wallNow() - t0;
        stats[t] = std::move(st);
    }

    void workGuarded(unsigned t)
    {
        try {
            work(t);
        } catch (...) {
            fail(std::current_exception());
            // Leave the barrier so surviving threads cannot wait
            // forever on a participant that threw.
            barrier.arrive_and_drop();
        }
    }
};

} // namespace

uint64_t
MutatorRaceResult::fingerprint() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv(h, config.threads);
    h = fnv(h, config.remoteBatch);
    h = fnv(h, opsExecuted);
    h = fnv(h, effectiveMallocs);
    h = fnv(h, effectiveFrees);
    h = fnv(h, localFrees);
    h = fnv(h, remoteFrees);
    h = fnv(h, batches);
    h = fnv(h, drains);
    h = fnv(h, epochBarriers);
    h = fnv(h, quarantinedBytes);
    for (const MutatorThreadStats &st : perThread) {
        h = fnv(h, st.thread);
        h = fnv(h, st.ops);
        h = fnv(h, st.mallocs);
        h = fnv(h, st.localFrees);
        h = fnv(h, st.remoteSent);
        h = fnv(h, st.remoteApplied);
        h = fnv(h, st.batchesSent);
        h = fnv(h, st.batchesDrained);
        h = fnv(h, st.drains);
        h = fnv(h, st.epochFlushes);
        h = fnv(h, st.quarantinedChunks);
        h = fnv(h, st.quarantinedBytes);
        h = fnv(h, st.ownedLiveBytesEnd);
        for (uint64_t v : st.ownedLiveBytesAtEpoch)
            h = fnv(h, v);
    }
    return h;
}

MutatorRaceResult
runMutatorRace(const RacePlan &plan)
{
    const unsigned m = plan.config.threads;
    Race race(plan);

    const double t0 = wallNow();
    if (m == 1) {
        // Degenerate front-end: no peers to race, run inline (the
        // barrier has one participant and never blocks).
        race.workGuarded(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(m);
        for (unsigned t = 0; t < m; ++t)
            threads.emplace_back([&race, t] {
                race.workGuarded(t);
            });
        for (std::thread &th : threads)
            th.join();
    }
    if (race.error)
        std::rethrow_exception(race.error);

    MutatorRaceResult result;
    result.config = plan.config;
    result.hwConcurrency = std::thread::hardware_concurrency();
    result.wallSec = wallNow() - t0;
    result.perThread = std::move(race.stats);

    uint64_t sent = 0, applied = 0, batches_sent = 0,
             batches_drained = 0;
    for (const MutatorThreadStats &st : result.perThread) {
        result.opsExecuted += st.ops;
        result.localFrees += st.localFrees;
        result.remoteFrees += st.remoteSent;
        result.batches += st.batchesSent;
        result.drains += st.drains;
        result.quarantinedBytes += st.quarantinedBytes;
        sent += st.remoteSent;
        applied += st.remoteApplied;
        batches_sent += st.batchesSent;
        batches_drained += st.batchesDrained;
    }
    result.effectiveMallocs = plan.effectiveMallocs;
    result.effectiveFrees = plan.effectiveFrees;
    result.epochBarriers = plan.epochMarks;

    // Conservation: message passing loses nothing and invents
    // nothing, whatever the interleaving was.
    CHERIVOKE_ASSERT(result.opsExecuted == plan.opsPlanned);
    CHERIVOKE_ASSERT(sent == applied,
                     "(remote frees sent != applied)");
    CHERIVOKE_ASSERT(batches_sent == batches_drained,
                     "(free batches published != drained)");
    CHERIVOKE_ASSERT(sent == plan.remoteFrees);
    CHERIVOKE_ASSERT(result.localFrees + sent ==
                     plan.effectiveFrees);
    return result;
}

MutatorRaceResult
runMutatorRace(const workload::Trace &trace, size_t opsLimit,
               const MutatorConfig &config,
               const std::vector<uint64_t> &epoch_ops)
{
    return runMutatorRace(
        planMutatorRace(trace, opsLimit, config, epoch_ops));
}

} // namespace tenant
} // namespace cherivoke
