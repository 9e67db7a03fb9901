#include "workload/driver.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"

namespace cherivoke {
namespace workload {

namespace {

/** Ids up to this many per op index the object table directly. */
constexpr uint64_t kDenseIdsPerOp = 2;

/** Call @p fn on each allocation-id field @p op reads; lifecycle
 *  ops carry tenant ids and have none. */
template <typename Op, typename Fn>
void
forEachObjectId(Op &op, Fn &&fn)
{
    switch (op.kind) {
      case OpKind::Malloc:
      case OpKind::Free: fn(op.id); break;
      case OpKind::StorePtr:
        fn(op.src);
        fn(op.dst);
        break;
      case OpKind::StoreData: fn(op.dst); break;
      case OpKind::RootPtr: fn(op.src); break;
      case OpKind::SpawnTenant:
      case OpKind::RetireTenant: break;
    }
}

} // namespace

DensitySample
measureDensities(const mem::AddressSpace &space)
{
    DensitySample sample;
    const auto &memory = space.memory();
    uint64_t pages = 0, pages_with = 0;
    uint64_t lines = 0, lines_with = 0;
    for (const mem::Segment &seg : space.heapSegments()) {
        for (uint64_t p = seg.base; p < seg.end(); p += kPageBytes) {
            const mem::Page *page = memory.pageIfPresent(p);
            if (!page)
                continue; // never-touched page: not resident
            ++pages;
            lines += kPageBytes / kLineBytes;
            if (page->tagCount == 0)
                continue;
            ++pages_with;
            for (uint64_t line = p; line < p + kPageBytes;
                 line += kLineBytes) {
                const unsigned g0 = static_cast<unsigned>(
                    (line & (kPageBytes - 1)) >> kGranuleShift);
                bool any = false;
                for (unsigned i = 0; i < kCapsPerLine; ++i)
                    any |= page->granuleTag(g0 + i);
                lines_with += any ? 1 : 0;
            }
        }
    }
    if (pages > 0) {
        sample.pageDensity =
            static_cast<double>(pages_with) / pages;
        sample.lineDensity =
            static_cast<double>(lines_with) / lines;
    }
    return sample;
}

TraceReplayer::TraceReplayer(mem::AddressSpace &space,
                             alloc::CherivokeAllocator &allocator,
                             revoke::RevocationEngine *engine,
                             const Trace &trace)
    : space_(&space), alloc_(&allocator), engine_(engine),
      ops_(trace.ops)
{
    pump_ = [this](cache::Hierarchy *hierarchy) {
        engine_->maybeRevoke(hierarchy);
    };
    drain_ = [this](cache::Hierarchy *hierarchy) {
        if (engine_ && engine_->epochOpen())
            engine_->drain(hierarchy);
    };
    deref_ = [this](uint64_t n) {
        if (engine_)
            engine_->notePointerUse(n);
    };
}

// One pass over every id the replay reads, at the first step rather
// than at construction, so building a pipeline stays cheap. Ids below
// a bound proportional to the op count index the table as they are;
// otherwise they are renumbered densely, once, into a private copy of
// the ops, so the replay loop has one path and any u64 id replays.
void
TraceReplayer::indexObjects()
{
    uint64_t max_id = 0;
    bool root_ptrs = false;
    for (const TraceOp &op : ops_) {
        forEachObjectId(op, [&](uint64_t id) {
            max_id = std::max(max_id, id);
        });
        root_ptrs |= op.kind == OpKind::RootPtr;
    }
    if (root_ptrs && space_->globals().size < kCapBytes) {
        fatal("the trace stores root pointers, but its %llu-byte "
              "globals segment holds no capability slot",
              static_cast<unsigned long long>(space_->globals().size));
    }
    if (max_id < kDenseIdsPerOp * ops_.size()) {
        objects_ = ObjectTable(max_id + 1);
        return;
    }
    std::unordered_map<uint64_t, uint64_t> dense;
    OpVector ops(ops_.begin(), ops_.end());
    for (TraceOp &op : ops) {
        forEachObjectId(op, [&](uint64_t &id) {
            id = dense.try_emplace(id, dense.size()).first->second;
        });
    }
    ops_ = std::move(ops);
    objects_ = ObjectTable(dense.size());
}

void
TraceReplayer::trackPeaks()
{
    result_.peakLiveBytes =
        std::max(result_.peakLiveBytes, alloc_->liveBytes());
    result_.peakQuarantineBytes = std::max(
        result_.peakQuarantineBytes, alloc_->quarantinedBytes());
    result_.peakFootprintBytes = std::max(
        result_.peakFootprintBytes, alloc_->footprintBytes());
    result_.peakLiveAllocs =
        std::max<uint64_t>(result_.peakLiveAllocs, objects_.size());
}

// Pump the engine after an allocator operation: stop-the-world
// and incremental policies run a whole epoch when the quarantine
// budget fills; the concurrent policy advances its open epoch by
// one slice. Densities are sampled whenever an epoch is about to
// open, as the paper samples its core dumps (§5.3).
void
TraceReplayer::pumpEngine(cache::Hierarchy *hierarchy)
{
    if (!engine_)
        return;
    if (!engine_->epochOpen() && alloc_->needsSweep()) {
        const DensitySample d = measureDensities(*space_);
        page_density_acc_ += d.pageDensity;
        line_density_acc_ += d.lineDensity;
        ++result_.densitySamples;
    }
    pump_(hierarchy);
}

void
TraceReplayer::step(cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(!done(), "(step past the end of the trace)");
    if (next_ == 0)
        indexObjects();
    auto &memory = space_->memory();
    const TraceOp &op = ops_[next_++];
    result_.virtualSeconds += op.dt;
    // Model time advances in lock-step with the trace, so adaptive
    // scheduling sees only deterministic, replayable inputs.
    if (engine_)
        engine_->modelClock().advanceSeconds(op.dt);
    switch (op.kind) {
      case OpKind::Malloc: {
        const cap::Capability c = alloc_->malloc(op.size);
        // Programs initialise allocations before use; the data
        // writes clear any stale tags left by a previous
        // occupant of recycled memory.
        memory.fill(c.base(), 0, alloc_->usableSize(c.base()));
        objects_.insert(op.id, c);
        ++result_.allocCalls;
        pumpEngine(hierarchy);
        break;
      }
      case OpKind::Free: {
        const cap::Capability *c = objects_.find(op.id);
        if (!c)
            break;
        result_.freedBytes += alloc_->usableSize(c->base());
        alloc_->free(*c);
        objects_.erase(op.id);
        ++result_.freeCalls;
        pumpEngine(hierarchy);
        break;
      }
      case OpKind::StorePtr: {
        const cap::Capability *dst = objects_.find(op.dst);
        const cap::Capability *src = objects_.find(op.src);
        if (!dst || !src)
            break;
        const uint64_t usable = alloc_->usableSize(dst->base());
        if (usable < kCapBytes)
            break;
        const uint64_t offset =
            std::min<uint64_t>(op.offset, usable - kCapBytes) &
            ~(kCapBytes - 1);
        memory.writeCap(dst->base() + offset, *src);
        ++result_.ptrStores;
        deref_(1);
        break;
      }
      case OpKind::StoreData: {
        const cap::Capability *dst = objects_.find(op.dst);
        if (!dst)
            break;
        const uint64_t usable = alloc_->usableSize(dst->base());
        if (usable < 8)
            break;
        const uint64_t offset =
            std::min<uint64_t>(op.offset, usable - 8) & ~7ULL;
        memory.storeU64(*dst, dst->base() + offset,
                        0x5a5a5a5a5a5a5a5aULL);
        deref_(1);
        break;
      }
      case OpKind::RootPtr: {
        const cap::Capability *src = objects_.find(op.src);
        if (!src)
            break;
        const uint64_t slots = space_->globals().size / kCapBytes;
        const uint64_t slot = op.offset % slots;
        memory.writeCap(space_->globals().base + slot * kCapBytes,
                        *src);
        deref_(1);
        break;
      }
      case OpKind::SpawnTenant:
      case OpKind::RetireTenant: {
        if (!lifecycle_)
            fatal("tenant-lifecycle trace op (%s of tenant %llu) "
                  "outside a tenant manager",
                  op.kind == OpKind::SpawnTenant ? "spawn" : "retire",
                  static_cast<unsigned long long>(op.id));
        lifecycle_(op);
        break;
      }
    }
    trackPeaks();
}

void
TraceReplayer::injectFault(HeapFaultKind kind)
{
    auto &memory = space_->memory();
    switch (kind) {
      case HeapFaultKind::DoubleFree: {
        // A genuine double free: quarantine a fresh allocation, then
        // free it again — the second free trips the kQuarantine flag
        // check, exactly as a buggy program's would.
        const cap::Capability c = alloc_->malloc(64);
        alloc_->free(c);
        alloc_->free(c);
        break;
      }
      case HeapFaultKind::WildFree: {
        // A tagged capability whose base is nowhere near the heap:
        // the globals segment, which every address space has.
        const uint64_t payload =
            space_->globals().base + alloc::kChunkHeader;
        alloc_->free(space_->rootCap()
                         .setAddress(payload)
                         .setBounds(16));
        break;
      }
      case HeapFaultKind::HeaderCorruption: {
        // Smash a live chunk's size bits (flags preserved so the
        // neighbours' coalescing invariants stay intact) and free
        // it: the boundary-tag sanity check fires.
        const cap::Capability c = alloc_->malloc(64);
        const uint64_t header =
            alloc::DlAllocator::chunkOf(c.base()) + 8;
        memory.spanWriteU64(header, memory.spanReadU64(header) &
                                        alloc::kFlagMask);
        alloc_->free(c);
        break;
      }
      case HeapFaultKind::OutOfMemory:
        heapFault(HeapFaultKind::OutOfMemory,
                  "injected page-budget exhaustion at op %zu",
                  next_);
      case HeapFaultKind::CodecCorruption:
        heapFault(HeapFaultKind::CodecCorruption,
                  "injected mid-stream trace corruption at op %zu",
                  next_);
      case HeapFaultKind::SweeperFailure:
        // Organically this kind is only raised by the supervision
        // ladder's containment rung (see revoke/supervisor.hh); the
        // direct injection exists so containment coverage does not
        // depend on staging three sweeper failures first.
        heapFault(HeapFaultKind::SweeperFailure,
                  "injected background-sweeper failure at op %zu",
                  next_);
    }
    // The allocator paths above must have thrown.
    panic("fault injection of kind %s did not raise",
          heapFaultKindName(kind));
}

DriverResult
TraceReplayer::finish(cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(!finished_, "(finish called twice)");
    finished_ = true;

    // A concurrent-policy epoch may still be open: drain it so the
    // run's revocation totals are complete (multi-tenant hosts narrow
    // this to the tenant's own domain via setDrain()).
    drain_(hierarchy);

    if (result_.densitySamples > 0) {
        result_.pageDensity =
            page_density_acc_ / result_.densitySamples;
        result_.lineDensity =
            line_density_acc_ / result_.densitySamples;
    } else {
        const DensitySample d = measureDensities(*space_);
        result_.pageDensity = d.pageDensity;
        result_.lineDensity = d.lineDensity;
        result_.densitySamples = 1;
    }

    if (result_.virtualSeconds > 0) {
        result_.measuredFreeRateMiBps =
            static_cast<double>(result_.freedBytes) / MiB /
            result_.virtualSeconds;
        result_.measuredFreesPerSec =
            static_cast<double>(result_.freeCalls) /
            result_.virtualSeconds;
    }
    if (engine_)
        result_.revoker = engine_->totals();
    return result_;
}

DriverResult
TraceDriver::run(const Trace &trace, cache::Hierarchy *hierarchy)
{
    TraceReplayer replayer(*space_, *alloc_, engine_, trace);
    while (!replayer.done())
        replayer.step(hierarchy);
    return replayer.finish(hierarchy);
}

} // namespace workload
} // namespace cherivoke
