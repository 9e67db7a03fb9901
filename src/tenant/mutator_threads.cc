#include "tenant/mutator_threads.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"

namespace cherivoke {
namespace tenant {

namespace {

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
        // them is remote.
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
countMutatorTraffic(const workload::Trace &trace, size_t opsLimit,
                    const MutatorConfig &config,
                    const std::vector<uint64_t> &epoch_ops)
{
    checkMutatorConfig(config);
    CHERIVOKE_ASSERT(
        std::is_sorted(epoch_ops.begin(), epoch_ops.end()),
        "(epoch boundaries must be in op order)");

    const unsigned m = config.threads;
    const workload::TraceOps ops =
        trace.ops.prefix(std::min(opsLimit, trace.ops.size()));
    // Back-to-back epochs at one op need only one flush.
    std::vector<uint64_t> bounds = epoch_ops;
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());

    MutatorRaceResult r;
    r.config = config;
    r.opsExecuted = ops.size();
    r.epochBarriers = bounds.size();
    std::vector<MutatorThreadStats> &st = r.perThread;
    st.resize(m);
    for (unsigned t = 0; t < m; ++t)
        st[t].thread = t;
    std::vector<uint64_t> owned_live(m, 0);
    // Remote frees batched by executor e for owner o and not yet
    // sent, at [e * m + o].
    std::vector<uint64_t> pending(size_t{m} * m, 0);

    auto send = [&](unsigned from, unsigned to) {
        ++st[from].batchesSent;
        ++st[to].batchesDrained;
    };
    // A flush point: every partial batch goes out, then every owner
    // drains its inbox.
    auto flush = [&] {
        for (size_t k = 0; k < pending.size(); ++k) {
            if (pending[k] != 0) {
                send(static_cast<unsigned>(k / m),
                     static_cast<unsigned>(k % m));
                pending[k] = 0;
            }
        }
        for (MutatorThreadStats &s : st)
            ++s.drains;
    };
    auto meet_boundary = [&] {
        flush();
        for (unsigned t = 0; t < m; ++t) {
            st[t].ownedLiveBytesAtEpoch.push_back(owned_live[t]);
            ++st[t].epochFlushes;
        }
    };

    // Ids live in the serial replay, with their modelled sizes.
    std::unordered_map<uint64_t, uint64_t> live;
    auto bound = bounds.begin();
    for (size_t i = 0; i < ops.size(); ++i) {
        for (; bound != bounds.end() && *bound <= i; ++bound)
            meet_boundary();
        const workload::TraceOp &op = ops[i];
        const unsigned exec = mutatorExecutorOf(op, i, m);
        ++st[exec].ops;
        if (op.kind == workload::OpKind::Malloc) {
            // The malloc slow path drains the owner's inbox (snmalloc:
            // allocation looks at the remote queue before refilling).
            ++st[exec].drains;
            ++st[exec].mallocs;
            // As the replayer's emplace: a second malloc of a live id
            // keeps the first mapping and leaks.
            if (live.emplace(op.id, op.size).second) {
                ++r.effectiveMallocs;
                owned_live[exec] += op.size;
            }
        } else if (op.kind == workload::OpKind::Free) {
            const auto it = live.find(op.id);
            if (it == live.end())
                continue; // free of a dead id
            const uint64_t size = it->second;
            live.erase(it);
            ++r.effectiveFrees;
            const unsigned owner = mutatorOwnerOf(op.id, m);
            owned_live[owner] -= size;
            ++st[owner].quarantinedChunks;
            st[owner].quarantinedBytes += size;
            if (exec == owner) {
                ++st[owner].localFrees;
                continue;
            }
            ++st[exec].remoteSent;
            ++st[owner].remoteApplied;
            uint64_t &batch = pending[size_t{exec} * m + owner];
            if (++batch == config.remoteBatch) {
                send(exec, owner);
                batch = 0;
            }
        }
    }
    // Boundaries at or past the end meet after the last op.
    for (; bound != bounds.end(); ++bound)
        meet_boundary();
    flush(); // teardown

    for (unsigned t = 0; t < m; ++t) {
        MutatorThreadStats &s = st[t];
        s.ownedLiveBytesEnd = owned_live[t];
        r.localFrees += s.localFrees;
        r.remoteFrees += s.remoteSent;
        r.batches += s.batchesSent;
        r.drains += s.drains;
        r.quarantinedBytes += s.quarantinedBytes;
    }
    return r;
}

} // namespace tenant
} // namespace cherivoke
