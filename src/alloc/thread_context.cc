#include "alloc/thread_context.hh"

#include "support/logging.hh"

namespace cherivoke {
namespace alloc {

void
ThreadAllocContext::quarantineTally(uint64_t bytes)
{
    ++quarantined_chunks_;
    quarantined_bytes_ += bytes;
}

void
ThreadAllocContext::noteMalloc(uint64_t id, uint64_t bytes)
{
    ++mallocs_;
    auto early = early_.find(id);
    if (early != early_.end()) {
        // The free message overtook us: the allocation dies at birth
        // (already counted as a remote free when it arrived).
        early_.erase(early);
        quarantineTally(bytes);
        return;
    }
    const bool inserted = live_.emplace(id, bytes).second;
    CHERIVOKE_ASSERT(inserted, "(malloc of an id this thread "
                               "already owns live)");
    live_bytes_ += bytes;
}

void
ThreadAllocContext::noteLocalFree(uint64_t id)
{
    auto it = live_.find(id);
    CHERIVOKE_ASSERT(it != live_.end(),
                     "(local free of an id not live here)");
    ++local_frees_;
    live_bytes_ -= it->second;
    quarantineTally(it->second);
    live_.erase(it);
}

void
ThreadAllocContext::noteRemoteFree(uint64_t id)
{
    ++remote_applied_;
    auto it = live_.find(id);
    if (it == live_.end()) {
        // Early free: the owner has not executed the malloc yet
        // (message beat it in wall-clock time). Park it; noteMalloc
        // completes the quarantine handoff.
        const bool inserted = early_.insert(id).second;
        CHERIVOKE_ASSERT(inserted,
                         "(duplicate early remote free)");
        return;
    }
    live_bytes_ -= it->second;
    quarantineTally(it->second);
    live_.erase(it);
}

unsigned
ThreadAllocContext::handoffToQuarantine(
    DlAllocator &dl, Quarantine &q,
    const std::vector<QuarantineRun> &chunks)
{
    for (const QuarantineRun &c : chunks)
        quarantineTally(c.size);
    return q.addBatch(dl, chunks);
}

} // namespace alloc
} // namespace cherivoke
