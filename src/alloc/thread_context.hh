/**
 * @file
 * The thread-local half of the multi-threaded mutator front-end: one
 * ThreadAllocContext per mutator thread tracks the allocations that
 * thread *owns* (the chunks it malloc'd), applies frees of owned
 * chunks — issued locally or drained from the thread's remote-free
 * inbox — and tallies what the thread hands to its quarantine.
 *
 * Ownership protocol (snmalloc-style): the allocating thread owns a
 * chunk for its whole lifetime. A local free (the owner freeing its
 * own chunk) applies immediately; a remote free arrives later as a
 * message and is applied by the owner when it drains its inbox. The
 * message carries only the id: the owner recorded the chunk's size
 * at its malloc. The context absorbs the one genuine reordering this
 * allows — a remote free *message* overtaking the owner's own malloc
 * of that id in wall-clock time — by parking such early frees until
 * the malloc lands and sizes them, so the context's end state (and
 * its state at any epoch barrier, where the message-flush contract
 * forbids early frees) is a deterministic function of the op
 * stream, not of thread timing.
 *
 * The context is single-threaded by construction (only the owner
 * touches it); cross-thread traffic happens in the remote-free
 * queues, never here.
 */

#ifndef CHERIVOKE_ALLOC_THREAD_CONTEXT_HH
#define CHERIVOKE_ALLOC_THREAD_CONTEXT_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "alloc/quarantine.hh"

namespace cherivoke {
namespace alloc {

/** Per-mutator-thread allocation context. */
class ThreadAllocContext
{
  public:
    explicit ThreadAllocContext(unsigned thread) : thread_(thread) {}

    unsigned thread() const { return thread_; }

    /**
     * Take ownership of allocation @p id (@p bytes modelled size).
     * If a remote free of @p id already arrived (an early free), the
     * allocation is quarantined immediately instead of going live.
     */
    void noteMalloc(uint64_t id, uint64_t bytes);

    /** The owner frees its own chunk: apply immediately. */
    void noteLocalFree(uint64_t id);

    /**
     * Apply one drained remote-free message. The id is normally
     * live; when the message overtook our malloc it is parked as an
     * early free, which noteMalloc sizes when the malloc lands.
     */
    void noteRemoteFree(uint64_t id);

    /** @name Owned-allocation state */
    /// @{
    uint64_t ownedLiveCount() const { return live_.size(); }
    uint64_t ownedLiveBytes() const { return live_bytes_; }
    bool ownsLive(uint64_t id) const { return live_.count(id) != 0; }
    /** Remote frees parked until their malloc lands. Always empty at
     *  an epoch barrier (the flush contract) and at teardown. */
    uint64_t earlyFreeCount() const { return early_.size(); }
    /// @}

    /** @name Quarantine handoff tallies (chunks this thread owns) */
    /// @{
    uint64_t mallocs() const { return mallocs_; }
    uint64_t localFrees() const { return local_frees_; }
    uint64_t remoteFreesApplied() const { return remote_applied_; }
    uint64_t quarantinedChunks() const { return quarantined_chunks_; }
    uint64_t quarantinedBytes() const { return quarantined_bytes_; }
    /// @}

    /**
     * Hand a drained batch of *real* chunks to a real quarantine —
     * the production handoff path, exercised by the queue tests
     * against a live DlAllocator. Tallies the batch against this
     * context. @return merges performed by the quarantine
     */
    unsigned handoffToQuarantine(DlAllocator &dl, Quarantine &q,
                                 const std::vector<QuarantineRun> &chunks);

  private:
    void quarantineTally(uint64_t bytes);

    unsigned thread_;
    /** Owned live allocations: id -> modelled bytes. */
    std::unordered_map<uint64_t, uint64_t> live_;
    /** Remote frees that arrived before their malloc. */
    std::unordered_set<uint64_t> early_;
    uint64_t live_bytes_ = 0;
    uint64_t mallocs_ = 0;
    uint64_t local_frees_ = 0;
    uint64_t remote_applied_ = 0;
    uint64_t quarantined_chunks_ = 0;
    uint64_t quarantined_bytes_ = 0;
};

} // namespace alloc
} // namespace cherivoke

#endif // CHERIVOKE_ALLOC_THREAD_CONTEXT_HH
