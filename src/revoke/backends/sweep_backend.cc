#include "revoke/backends/sweep_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cherivoke {
namespace revoke {

bool
SweepBackend::needsRevocation() const
{
    return ctx_.allocator->needsSweep();
}

void
SweepBackend::beginEpoch(EpochStats &epoch, bool want_barrier)
{
    // Freeze + paint this epoch's (possibly tier-scoped) revocation
    // set, on the sweep's threads. With the default full-depth scope
    // the frozen bytes equal the whole quarantine at entry — the
    // historical bytesReleased value.
    epoch.paint = ctx_.allocator->prepareSweep(
        ctx_.sweeper->options().threads, scope_.minBirth);
    epoch.bytesReleased = ctx_.allocator->frozenBytes();

    if (want_barrier) {
        // The barrier: loads of painted-base capabilities are
        // stripped. The shadow map is read-only for the duration of
        // the epoch (later frees wait for the next epoch), so the
        // predicate is stable. The shadow lives in the (possibly
        // shared) TaggedMemory, so with co-resident tenants every
        // tenant's loads are checked — isRevoked is a pure function
        // of the address.
        const alloc::ShadowMap &shadow = ctx_.allocator->shadowMap();
        ctx_.space->memory().installLoadBarrier(
            [&shadow](uint64_t base) {
                return shadow.isRevoked(base);
            });
        barrier_on_ = true;
    }

    // Registers first: the mutator continues running out of them.
    epoch.sweep += ctx_.sweeper->sweepRegisters(
        *ctx_.space, ctx_.allocator->shadowMap());

    worklist_ = ctx_.sweeper->buildWorklist(*ctx_.space, epoch.sweep);
    if (scope_.scoped() && scope_.pageQualifies) {
        // Tier-local sweep: drop pages that provably cannot hold a
        // capability to any chunk young enough to be in this scope
        // (no tagged store landed there since the scope's birth
        // cutoff). Registers were already swept above — they are
        // part of every epoch regardless of depth.
        std::vector<uint64_t> kept;
        kept.reserve(worklist_.size());
        for (const uint64_t page : worklist_) {
            if (scope_.pageQualifies(page))
                kept.push_back(page);
            else
                ++epoch.sweep.pagesSkippedTier;
        }
        worklist_ = std::move(kept);
    }
    next_ = 0;
}

size_t
SweepBackend::step(EpochStats &epoch, size_t max_pages,
                   cache::Hierarchy *hierarchy)
{
    if (next_ < worklist_.size() && max_pages > 0) {
        const size_t end = next_ + std::min(max_pages,
                                            worklist_.size() - next_);
        epoch.sweep += ctx_.sweeper->sweepPages(
            *ctx_.space, ctx_.allocator->shadowMap(), worklist_, next_,
            end, hierarchy);
        next_ = end;
        ++epoch.slices;
    }
    return worklist_.size() - next_;
}

void
SweepBackend::finishEpoch(EpochStats &epoch)
{
    CHERIVOKE_ASSERT(next_ == worklist_.size(),
                     "(worklist not drained: call step() to "
                     "completion first)");
    if (barrier_on_) {
        // The registers once more (they were swept at begin and the
        // barrier kept them clean, but it is cheap), then the
        // barrier comes off.
        epoch.sweep += ctx_.sweeper->sweepRegisters(
            *ctx_.space, ctx_.allocator->shadowMap());
        ctx_.space->memory().removeLoadBarrier();
        barrier_on_ = false;
    }
    epoch.internalFrees = ctx_.allocator->finishSweep();
    worklist_.clear();
    next_ = 0;
}

void
SweepBackend::releaseBarrier()
{
    // Never leave a dangling barrier behind (engine destruction with
    // an epoch still open).
    if (barrier_on_) {
        ctx_.space->memory().removeLoadBarrier();
        barrier_on_ = false;
    }
}

} // namespace revoke
} // namespace cherivoke
