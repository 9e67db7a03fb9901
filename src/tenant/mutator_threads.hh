/**
 * @file
 * The multi-threaded mutator front-end: fan one tenant's trace out
 * across M real mutator threads with snmalloc-style message-passing
 * deallocation, while keeping every modelled statistic bit-identical
 * to a single-threaded replay.
 *
 * Partitioning is deterministic: allocation `id` is *owned* by
 * thread `id % M` (the thread that executes its Malloc), a Free of
 * `id` is *executed* by thread `opIndex % M`, and pointer-store ops
 * run on the destination chunk's owner. When a Free's executor is
 * not the owner it becomes a remote free: the executor batches it
 * (CHERIVOKE_REMOTE_BATCH entries per FreeBatch) onto the owner's
 * lock-free MPSC RemoteFreeQueue, and the owner drains its inbox
 * into its quarantine tallies on its malloc slow path, at epoch
 * boundaries, and at teardown.
 *
 * The plan shares the trace's read-only op buffer and adds one
 * effectiveness bit per op. Every thread walks the whole prefix in
 * order and executes only the ops whose executor it is, reading
 * kind, id and size from the op itself, so an M-thread race reads
 * M·n ops from one buffer and holds n/8 bytes of plan beyond the
 * trace.
 *
 * Determinism model: the threads genuinely race — real
 * std::threads, real lock-free queues, real barriers — but the race
 * only decides *interleaving*, never modelled allocator state. Each
 * thread records its own stat log during the race; the logs are
 * merged in canonical thread order (0..M-1) afterwards, and every
 * merged field is a pure function of the trace + config:
 *
 *  - send-side counts (remote frees, batch flushes) follow from the
 *    deterministic partition and the thread-local flush points;
 *  - receive-side *totals* equal the send-side totals, enforced by
 *    the epoch/teardown drain contract below;
 *  - owned-live bytes per thread are sampled only at epoch barriers
 *    and teardown, where the queues are provably empty.
 *
 * Per-drain inbox depths and wall-clock times are genuinely racy and
 * are reported outside the deterministic fingerprint.
 *
 * Epoch/drain contract: the serial (modelled) replay records the op
 * indices at which revocation epochs opened
 * (workload::TraceReplayer::epochOpenOps, fed by the engine's
 * epoch-open hook). At each such boundary every thread flushes its
 * outgoing batches, all threads rendezvous at a barrier, every owner
 * drains its inbox to empty (asserted exactly, via the queue's
 * enqueue/dequeue counters), and only then does any thread proceed —
 * so no remote free can be in flight while a revocation set is
 * frozen, the invariant a background sweeper will rely on. Repeated
 * boundaries at one op rendezvous once; boundaries at or past the
 * end of the prefix rendezvous once each, after its last op.
 *
 * The allocator itself is driven by the serial replay in trace
 * order, which is why the modelled statistics of an M-thread run are
 * bit-identical to a 1-thread run — gated in tests and in
 * bench/mutator_contention.
 */

#ifndef CHERIVOKE_TENANT_MUTATOR_THREADS_HH
#define CHERIVOKE_TENANT_MUTATOR_THREADS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "tenant/remote_queue.hh"
#include "workload/trace.hh"

namespace cherivoke {
namespace tenant {

/** Mutator front-end knobs (CHERIVOKE_MUTATOR_THREADS /
 *  CHERIVOKE_REMOTE_BATCH). */
struct MutatorConfig
{
    /** Mutator threads per tenant (1 = the classic front-end: every
     *  free is local, no message traffic). */
    unsigned threads = 1;
    /** Remote frees per FreeBatch message. */
    unsigned remoteBatch = 32;
};

/** Reject a config no race can run: zero threads or a zero batch
 *  capacity (FatalError). */
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

/**
 * The deterministic fan-out of one trace prefix: the prefix itself
 * (shared with the trace, never copied), the epoch boundaries every
 * thread meets, and which ops change modelled allocator state.
 * Built serially; a pure function of its inputs.
 */
struct RacePlan
{
    MutatorConfig config;
    uint64_t opsPlanned = 0;       //!< trace ops covered (prefix)
    uint64_t effectiveMallocs = 0; //!< mallocs that created a chunk
    uint64_t effectiveFrees = 0;   //!< frees of a live chunk
    uint64_t remoteFrees = 0;      //!< effective frees, executor != owner
    uint64_t epochMarks = 0;       //!< deduplicated epoch boundaries
    /** The applied prefix, sharing the trace's buffer. */
    workload::TraceOps ops;
    /** Distinct epoch boundaries in op order: boundary b meets after
     *  ops [0, b) (after the last op when b >= ops.size()). */
    std::vector<uint64_t> epochBoundaries;
    /** effective[i]: op i is a Malloc of a dead id or a Free of a
     *  live one. */
    std::vector<bool> effective;
};

/**
 * Plan @p trace ops [0, opsLimit) for config.threads mutator
 * threads, mirroring the serial replay's liveness semantics (a Free
 * of a dead id and a Malloc of a live id are executed but
 * ineffective), with @p epoch_ops (sorted) as the boundaries.
 */
RacePlan planMutatorRace(
    const workload::Trace &trace, size_t opsLimit,
    const MutatorConfig &config,
    const std::vector<uint64_t> &epoch_ops = {});

/** One mutator thread's merged race log. All fields before wallSec
 *  are deterministic; wallSec and maxBatchesPerDrain report the real
 *  race and are excluded from the fingerprint. */
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
    uint64_t epochFlushes = 0; //!< epoch barriers participated in
    uint64_t quarantinedChunks = 0; //!< owned chunks quarantined
    uint64_t quarantinedBytes = 0;
    uint64_t ownedLiveBytesEnd = 0;
    /** Owned live bytes at each epoch barrier (queues drained). */
    std::vector<uint64_t> ownedLiveBytesAtEpoch;

    /** @name Reporting only (racy, outside the fingerprint) */
    /// @{
    uint64_t maxBatchesPerDrain = 0;
    double wallSec = 0;
    /// @}
};

/** Everything one mutator race produces, merged in canonical thread
 *  order. */
struct MutatorRaceResult
{
    MutatorConfig config;
    uint64_t opsExecuted = 0;
    uint64_t effectiveMallocs = 0;
    uint64_t effectiveFrees = 0;
    uint64_t localFrees = 0;
    uint64_t remoteFrees = 0;
    uint64_t batches = 0;
    uint64_t drains = 0;
    uint64_t epochBarriers = 0;
    uint64_t quarantinedBytes = 0;
    std::vector<MutatorThreadStats> perThread;

    /** @name Reporting only (racy) */
    /// @{
    unsigned hwConcurrency = 0;
    double wallSec = 0;
    /// @}

    /** FNV-1a hash over every deterministic field in canonical
     *  order: two runs of the same plan must match bit for bit. */
    uint64_t fingerprint() const;
};

/**
 * Execute @p plan with config.threads real mutator threads (run
 * inline when threads == 1). Conservation is asserted at the end:
 * every remote free sent was received and applied, every batch
 * published was drained, and local + remote frees add up to the
 * plan's effective frees.
 */
MutatorRaceResult runMutatorRace(const RacePlan &plan);

/** Convenience: plan + run. @p opsLimit bounds the trace prefix
 *  (SIZE_MAX = whole trace). */
MutatorRaceResult runMutatorRace(
    const workload::Trace &trace, size_t opsLimit,
    const MutatorConfig &config,
    const std::vector<uint64_t> &epoch_ops = {});

} // namespace tenant
} // namespace cherivoke

#endif // CHERIVOKE_TENANT_MUTATOR_THREADS_HH
