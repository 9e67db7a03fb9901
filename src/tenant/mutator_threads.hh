/**
 * @file
 * The mutator front-end's message traffic, counted: what M
 * snmalloc-style mutator threads with message-passing deallocation
 * send and receive while they execute one tenant's replayed trace
 * prefix. The M threads are modelled, not started.
 *
 * Partitioning is deterministic: allocation `id` is *owned* by
 * thread `id % M` (the thread that executes its Malloc), a Free of
 * `id` is *executed* by thread `opIndex % M`, and pointer-store ops
 * run on the destination chunk's owner. When a Free's executor is
 * not the owner it becomes a remote free: the executor batches it
 * (CHERIVOKE_REMOTE_BATCH entries per message) for the owner, and
 * the owner drains its inbox into its quarantine tallies.
 *
 * Flush points: a batch is sent when it fills, and every partial
 * batch is sent at each epoch boundary and at teardown. An owner
 * drains once per Malloc it executes (the malloc slow path), once
 * per boundary and once at teardown.
 *
 * Every counted field is a function of four inputs: the applied
 * prefix, M, the batch capacity and the epoch boundaries. Threads
 * racing over real queues could only change *when* a batch arrives.
 * Who sends what to whom follows from the partition; the batch
 * counts follow from the flush points; and owned-live bytes are read
 * only at boundaries and at teardown, after every batch sent so far
 * has been drained. So countMutatorTraffic() finds them all in one
 * serial walk over the prefix, holding one table from live id to
 * size.
 *
 * The epoch boundaries are the op indices at which the serial
 * (modelled) replay opened revocation epochs
 * (workload::TraceReplayer::epochOpenOps, fed by the engine's
 * epoch-open hook). Boundary b falls after ops [0, b). Repeated
 * boundaries at one op count once; boundaries at or past the end of
 * the prefix count once each, after its last op.
 *
 * The count never feeds the model: the allocator is driven by the
 * serial replay in trace order, so every modelled statistic is the
 * same at every M.
 */

#ifndef CHERIVOKE_TENANT_MUTATOR_THREADS_HH
#define CHERIVOKE_TENANT_MUTATOR_THREADS_HH

#include <cstdint>
#include <vector>

#include "workload/trace.hh"

namespace cherivoke {
namespace tenant {

/** Mutator front-end knobs (CHERIVOKE_MUTATOR_THREADS /
 *  CHERIVOKE_REMOTE_BATCH). */
struct MutatorConfig
{
    /** Modelled mutator threads per tenant (1 = the classic
     *  front-end: every free is local, no message traffic). */
    unsigned threads = 1;
    /** Remote frees per batch message. */
    unsigned remoteBatch = 32;
};

/** Reject a config no front-end can run: zero threads or a zero
 *  batch capacity (FatalError). */
void checkMutatorConfig(const MutatorConfig &config);

/** Owning thread of allocation @p id under @p threads mutators. */
constexpr unsigned
mutatorOwnerOf(uint64_t id, unsigned threads)
{
    return static_cast<unsigned>(id % threads);
}

/** Executing thread of op @p op at trace position @p index. */
unsigned mutatorExecutorOf(const workload::TraceOp &op,
                           uint64_t index, unsigned threads);

/** One modelled mutator thread's traffic. */
struct MutatorThreadStats
{
    unsigned thread = 0;
    uint64_t ops = 0;     //!< trace ops this thread executed
    uint64_t mallocs = 0; //!< Malloc ops executed (owner side)
    uint64_t localFrees = 0;
    uint64_t remoteSent = 0;     //!< frees sent to other owners
    uint64_t remoteApplied = 0;  //!< drained frees applied as owner
    uint64_t batchesSent = 0;
    uint64_t batchesDrained = 0;
    uint64_t drains = 0;       //!< inbox drain passes
    uint64_t epochFlushes = 0; //!< epoch boundaries met
    uint64_t quarantinedChunks = 0; //!< owned chunks quarantined
    uint64_t quarantinedBytes = 0;
    uint64_t ownedLiveBytesEnd = 0;
    /** Owned live bytes at each epoch boundary (inboxes drained). */
    std::vector<uint64_t> ownedLiveBytesAtEpoch;
};

/** The front-end's traffic over one trace prefix, per thread in
 *  thread order and in total. */
struct MutatorRaceResult
{
    MutatorConfig config;
    uint64_t opsExecuted = 0;
    uint64_t effectiveMallocs = 0; //!< mallocs that created a chunk
    uint64_t effectiveFrees = 0;   //!< frees of a live chunk
    uint64_t localFrees = 0;
    uint64_t remoteFrees = 0;
    uint64_t batches = 0;
    uint64_t drains = 0;
    uint64_t epochBarriers = 0; //!< deduplicated epoch boundaries
    uint64_t quarantinedBytes = 0;
    std::vector<MutatorThreadStats> perThread;

    /** FNV-1a hash over every field in canonical order. */
    uint64_t fingerprint() const;
};

/**
 * Count the traffic of config.threads mutator threads over @p trace
 * ops [0, opsLimit) (SIZE_MAX = the whole trace), with @p epoch_ops
 * (sorted) as the epoch boundaries. Liveness follows the serial
 * replay: a Free of a dead id and a Malloc of a live id are executed
 * but change nothing.
 */
MutatorRaceResult countMutatorTraffic(
    const workload::Trace &trace, size_t opsLimit,
    const MutatorConfig &config,
    const std::vector<uint64_t> &epoch_ops = {});

} // namespace tenant
} // namespace cherivoke

#endif // CHERIVOKE_TENANT_MUTATOR_THREADS_HH
