#include "alloc/cherivoke_alloc.hh"

#include <algorithm>

#include "alloc/chunk.hh"
#include "support/bitops.hh"
#include "support/fault.hh"
#include "support/fork_join.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace alloc {

PaintStats
paintRuns(ShadowMap &shadow, const std::vector<QuarantineRun> &runs,
          unsigned threads)
{
    CHERIVOKE_ASSERT(threads > 0);
    // A painter's fault (e.g. an address beyond the simulated VA
    // width) resurfaces as the catchable exception a serial paint
    // would have thrown.
    const size_t tasks = std::min<size_t>(threads, runs.size());
    std::vector<PaintStats> partial(tasks);
    forkJoinRanges(runs.size(), tasks, [&](size_t t, size_t lo,
                                           size_t hi) {
        // Summed locally: adjacent tasks' slots of partial share a
        // cache line, and adding into them per run would bounce it.
        PaintStats stats;
        for (size_t i = lo; i < hi; ++i) {
            stats += shadow.paint(runs[i].addr + kChunkHeader,
                                  runs[i].size - kChunkHeader);
        }
        partial[t] = stats;
    });
    PaintStats stats;
    for (const PaintStats &p : partial)
        stats += p;
    return stats;
}

CherivokeAllocator::CherivokeAllocator(mem::AddressSpace &space,
                                       CherivokeConfig config)
    : dl_(space, config.dl), shadow_(space.memory()), config_(config),
      mem_(&space.memory())
{
    CHERIVOKE_ASSERT(config_.quarantineFraction > 0,
                     "(quarantine fraction must be positive)");
}

void
CherivokeAllocator::stampBirth(const cap::Capability &capability)
{
    if (!capability.tag())
        return;
    ChunkView(*mem_, capability.base() - kChunkHeader)
        .setBirthStamp(stamper_->currentBirthStamp());
}

void
CherivokeAllocator::free(const cap::Capability &capability)
{
    // Read the birth stamp before quarantineFree: rewriting the
    // header (quarantine flag) clears the high size-word bits.
    uint32_t birth = 0;
    if (stamper_ && capability.tag()) {
        birth = ChunkView(*mem_, capability.base() - kChunkHeader)
                    .birthStamp();
    }
    const DlAllocator::QuarantinedChunk chunk =
        dl_.quarantineFree(capability);
    if (observer_ &&
        observer_->onFree(chunk.addr, chunk.size,
                          capability.base()) ==
            FreeRouting::ReleaseNow) {
        // Metadata-checked backends (colors, object IDs) make the
        // memory reusable immediately: the stale references are
        // caught by their per-use check, not by a tag sweep.
        dl_.internalFree(chunk.addr, chunk.size);
        return;
    }
    dl_.counters().quarantineMerges +=
        quarantine_.add(dl_, chunk.addr, chunk.size, birth);
}

cap::Capability
CherivokeAllocator::realloc(const cap::Capability &capability,
                            uint64_t new_size)
{
    if (!capability.tag())
        heapFault(HeapFaultKind::WildFree,
                  "realloc() through an untagged capability");
    const uint64_t old_payload = capability.base();
    const uint64_t old_usable = dl_.usableSize(old_payload);
    cap::Capability fresh = malloc(new_size);
    // Copy preserving capability tags, as a CheriABI memcpy would,
    // then quarantine the old allocation.
    const uint64_t copy = std::min<uint64_t>(old_usable, new_size);
    if (copy > 0)
        mem_->copyPreservingTags(fresh.base(), old_payload, copy);
    free(capability);
    return fresh;
}

bool
CherivokeAllocator::needsSweep() const
{
    const uint64_t quarantined = quarantine_.totalBytes();
    if (quarantined < config_.minQuarantineBytes)
        return false;
    const double live = static_cast<double>(dl_.liveBytes());
    return static_cast<double>(quarantined) >=
           config_.quarantineFraction * std::max(live, 1.0);
}

PaintStats
CherivokeAllocator::prepareSweep(unsigned threads, uint32_t min_birth)
{
    CHERIVOKE_ASSERT(!epochOpen(),
                     "(prepareSweep with an epoch already open)");
    ++sweeps_;
    // Freeze: this epoch revokes exactly the (tier-qualified) frees
    // made so far; later frees accumulate in a fresh quarantine for
    // the next one. min_birth == 0 moves the whole buffer.
    frozen_ = quarantine_.splitBornSince(min_birth);
    return paintRuns(shadow_, frozen_.orderedRuns(), threads);
}

uint64_t
CherivokeAllocator::finishSweep()
{
    // Same cached materialisation prepareSweep sorted: the frozen
    // set takes no adds while its epoch is open.
    for (const QuarantineRun &run : frozen_.orderedRuns()) {
        shadow_.clear(run.addr + kChunkHeader,
                      run.size - kChunkHeader);
    }
    return frozen_.release(dl_);
}

} // namespace alloc
} // namespace cherivoke
