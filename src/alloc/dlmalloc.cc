#include "alloc/dlmalloc.hh"

#include <algorithm>

#include "support/bitops.hh"
#include "support/fault.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace alloc {

using cap::Capability;

DlAllocator::DlAllocator(mem::AddressSpace &space, DlConfig config)
    : space_(&space), mem_(&space.memory()), config_(config),
      bins_(kNumBins, 0)
{
    const uint64_t size = alignUp(config_.initialHeapBytes, kPageBytes);
    heap_base_ = space_->mmapHeap(size);
    heap_end_ = heap_base_ + size;
    top_ = heap_base_;
    // The wilderness chunk: everything, previous "chunk" notionally
    // in use so coalescing never walks off the front.
    view(top_).setHeader(heap_end_ - top_, kPinuse);
}

unsigned
DlAllocator::binIndexFor(uint64_t chunk_size)
{
    if (chunk_size <= kMaxSmallChunk) {
        return static_cast<unsigned>((chunk_size - kMinChunk) >> 4);
    }
    const unsigned lg = log2Floor(chunk_size);
    const unsigned idx = lg < 10 ? 0 : lg - 10;
    return kSmallBins + std::min(idx, kLargeBins - 1);
}

void
DlAllocator::insertFreeChunk(uint64_t addr, uint64_t size)
{
    ChunkView c = view(addr);
    // Header: free, preserving PINUSE which the caller maintains.
    const uint64_t pinuse = c.sizeWord() & kPinuse;
    c.setHeader(size, pinuse);
    c.writeFooter();
    // Clear the next chunk's PINUSE (it now borders a free chunk).
    ChunkView n = view(addr + size);
    n.setHeader(n.size(), n.sizeWord() & kFlagMask & ~kPinuse);

    const unsigned idx = binIndexFor(size);
    const uint64_t head = bins_[idx];
    c.setFd(head);
    c.setBk(0);
    if (head)
        view(head).setBk(addr);
    bins_[idx] = addr;
    markBinOccupied(idx);
}

void
DlAllocator::unlinkChunk(uint64_t addr)
{
    ChunkView c = view(addr);
    const uint64_t fd = c.fd();
    const uint64_t bk = c.bk();
    if (bk) {
        view(bk).setFd(fd);
    } else {
        const unsigned idx = binIndexFor(c.size());
        bins_[idx] = fd;
        if (!fd)
            markBinEmpty(idx);
    }
    if (fd)
        view(fd).setBk(bk);
}

void
DlAllocator::extendTop(uint64_t min_bytes)
{
    const uint64_t grow = alignUp(
        std::max(min_bytes, config_.growthChunkBytes), kPageBytes);
    const uint64_t base = space_->mmapHeap(grow);
    CHERIVOKE_ASSERT(base == heap_end_,
                     "(heap growth must be contiguous)");
    heap_end_ += grow;
    ChunkView t = view(top_);
    t.setHeader(t.size() + grow, t.sizeWord() & kFlagMask);
    ++counters_.extends;
}

uint64_t
DlAllocator::allocFromTop(uint64_t chunk_size)
{
    ChunkView t = view(top_);
    if (t.size() < chunk_size + kMinChunk) {
        extendTop(chunk_size + kMinChunk - t.size());
        t = view(top_);
    }
    const uint64_t addr = top_;
    const uint64_t top_size = t.size();
    const uint64_t top_pinuse = t.sizeWord() & kPinuse;
    view(addr).setHeader(chunk_size, kCinuse | top_pinuse);
    top_ = addr + chunk_size;
    view(top_).setHeader(top_size - chunk_size, kPinuse);
    return addr;
}

uint64_t
DlAllocator::takeFromBins(uint64_t chunk_size)
{
    ++counters_.binSearches;
    // The occupancy bitmap jumps straight to candidate bins; empty
    // bins cost nothing. Small bins are exact-fit (one size per
    // bin), so their head always satisfies the request; only large
    // bins, which mix sizes, still walk their (first-fit) list — the
    // identical chunk selection the linear scan made.
    const unsigned start = binIndexFor(chunk_size);
    for (unsigned idx = firstOccupiedBin(start); idx < kNumBins;
         idx = firstOccupiedBin(idx + 1)) {
        if (idx < kSmallBins) {
            // Exact-size bin at or above the request: its head fits
            // by construction.
            const uint64_t addr = bins_[idx];
            ++counters_.binScanSteps;
            unlinkChunk(addr);
            return addr;
        }
        uint64_t addr = bins_[idx];
        while (addr) {
            ChunkView c = view(addr);
            ++counters_.binScanSteps;
            if (c.size() >= chunk_size) {
                unlinkChunk(addr);
                return addr;
            }
            addr = c.fd();
        }
    }
    return 0;
}

void
DlAllocator::maybeSplit(uint64_t addr, uint64_t chunk_size)
{
    ChunkView c = view(addr);
    const uint64_t orig = c.size();
    const uint64_t pinuse = c.sizeWord() & kPinuse;
    if (orig - chunk_size >= kMinChunk) {
        c.setHeader(chunk_size, kCinuse | pinuse);
        // The remainder inherits PINUSE = 1 (we are in use).
        view(addr + chunk_size).setHeader(orig - chunk_size, kPinuse);
        insertFreeChunk(addr + chunk_size, orig - chunk_size);
    } else {
        c.setHeader(orig, kCinuse | pinuse);
        // Next chunk borders an in-use chunk again.
        ChunkView n = view(addr + orig);
        n.setHeader(n.size(), (n.sizeWord() & kFlagMask) | kPinuse);
    }
}

uint64_t
DlAllocator::allocAligned(uint64_t chunk_size, uint64_t align)
{
    // Aligned allocations are carved from the top with slack, then
    // trimmed front and back.
    const uint64_t raw = chunk_size + align + kMinChunk;
    const uint64_t addr = allocFromTop(raw);
    ChunkView c = view(addr);
    const uint64_t orig_pinuse = c.sizeWord() & kPinuse;

    uint64_t payload = addr + kChunkHeader;
    uint64_t aligned = alignUp(payload, align);
    if (aligned != payload && aligned - payload < kMinChunk)
        aligned += align;
    const uint64_t front = aligned - payload;
    uint64_t body_addr = addr;
    uint64_t body_size = raw;

    if (front > 0) {
        // Release the front remainder as a free chunk.
        body_addr = addr + front;
        body_size = raw - front;
        view(body_addr).setHeader(body_size, kCinuse); // PINUSE=0
        view(addr).setHeader(front, kCinuse | orig_pinuse);
        releaseChunk(addr, front);
    }

    // Trim the tail.
    const uint64_t tail = body_size - chunk_size;
    if (tail >= kMinChunk) {
        ChunkView b = view(body_addr);
        b.setHeader(chunk_size, b.sizeWord() & kFlagMask);
        view(body_addr + chunk_size).setHeader(tail, kCinuse | kPinuse);
        releaseChunk(body_addr + chunk_size, tail);
    }
    return body_addr;
}

void
DlAllocator::releaseChunk(uint64_t addr, uint64_t size)
{
    ChunkView c = view(addr);
    uint64_t pinuse = c.sizeWord() & kPinuse;

    // Coalesce backwards.
    if (!pinuse) {
        const uint64_t prev_size = c.prevSize();
        const uint64_t prev = addr - prev_size;
        unlinkChunk(prev);
        pinuse = view(prev).sizeWord() & kPinuse;
        addr = prev;
        size += prev_size;
    }

    // Coalesce forwards (or into the top chunk).
    const uint64_t next = addr + size;
    if (next == top_) {
        ChunkView t = view(top_);
        top_ = addr;
        view(top_).setHeader(size + t.size(), pinuse);
        return;
    }
    ChunkView n = view(next);
    if (!n.cinuse()) {
        unlinkChunk(next);
        size += n.size();
        if (addr + size == top_) {
            ChunkView t = view(top_);
            top_ = addr;
            view(top_).setHeader(size + t.size(), pinuse);
            return;
        }
    }
    view(addr).setHeader(size, pinuse);
    insertFreeChunk(addr, size);
}

Capability
DlAllocator::capForPayload(uint64_t payload, uint64_t requested) const
{
    return space_->rootCap()
        .setAddress(payload)
        .setBounds(requested)
        .andPerms(cap::kPermsData);
}

Capability
DlAllocator::malloc(uint64_t size)
{
    ++counters_.mallocCalls;
    const uint64_t requested = std::max<uint64_t>(size, 1);
    uint64_t payload_len = alignUp(requested, kGranuleBytes);

    // CheriABI-style padding: pad so the returned bounds are exactly
    // representable, and align the payload accordingly.
    const uint64_t mask = cap::representableAlignmentMask(payload_len);
    uint64_t align = kGranuleBytes;
    uint64_t bounds_len = requested;
    if (mask != ~uint64_t{0}) {
        payload_len = cap::roundRepresentableLength(payload_len);
        align = std::max<uint64_t>(~mask + 1, kGranuleBytes);
        bounds_len = payload_len;
    }

    uint64_t chunk_size =
        std::max(payload_len + kChunkHeader, kMinChunk);

    uint64_t addr;
    if (align > kGranuleBytes) {
        addr = allocAligned(chunk_size, align);
    } else {
        addr = takeFromBins(chunk_size);
        if (addr) {
            maybeSplit(addr, chunk_size);
        } else {
            addr = allocFromTop(chunk_size);
        }
    }

    const uint64_t payload = addr + kChunkHeader;
    live_bytes_ += view(addr).size() - kChunkHeader;
    return capForPayload(payload, bounds_len);
}

Capability
DlAllocator::calloc(uint64_t count, uint64_t size)
{
    const uint64_t total = count * size;
    CHERIVOKE_ASSERT(count == 0 || total / count == size,
                     "(calloc overflow)");
    Capability c = malloc(total);
    mem_->fill(c.base(), 0, usableSize(c.base()));
    return c;
}

void
DlAllocator::free(const Capability &capability)
{
    if (!capability.tag())
        heapFault(HeapFaultKind::WildFree,
                  "free() through an untagged capability");
    freeAddr(capability.base());
}

// Validate a free/realloc target: wild addresses and smashed
// boundary tags are tenant-input faults (HeapFault), never fatal —
// a multi-tenant host retires just the offending tenant. The bounds
// check runs before the chunk view exists so a wild address never
// touches (or materialises) memory outside the heap.
ChunkView
DlAllocator::checkedFreeView(uint64_t addr) const
{
    if (addr < heap_base_ || addr >= top_ ||
        !isAligned(addr, kGranuleBytes)) {
        heapFault(HeapFaultKind::WildFree,
                  "free() of address 0x%llx outside the heap",
                  static_cast<unsigned long long>(addr));
    }
    ChunkView c = view(addr);
    const uint64_t size = c.size();
    if (size < kMinChunk || !isAligned(size, kGranuleBytes) ||
        addr + size > top_) {
        heapFault(HeapFaultKind::HeaderCorruption,
                  "chunk 0x%llx has a corrupt boundary tag "
                  "(size %llu)",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(size));
    }
    if (!c.cinuse() || c.quarantined())
        heapFault(HeapFaultKind::DoubleFree,
                  "invalid or double free of chunk 0x%llx",
                  static_cast<unsigned long long>(addr));
    return c;
}

void
DlAllocator::freeAddr(uint64_t payload)
{
    const uint64_t addr = chunkOf(payload);
    ChunkView c = checkedFreeView(addr);
    live_bytes_ -= c.size() - kChunkHeader;
    releaseChunk(addr, c.size());
}

Capability
DlAllocator::realloc(const Capability &capability, uint64_t new_size)
{
    if (!capability.tag())
        heapFault(HeapFaultKind::WildFree,
                  "realloc() through an untagged capability");
    const uint64_t payload = capability.base();
    const uint64_t addr = chunkOf(payload);
    ChunkView c = checkedFreeView(addr);

    const uint64_t cur = c.size();
    const uint64_t requested = std::max<uint64_t>(new_size, 1);
    const uint64_t needed = std::max(
        alignUp(requested, kGranuleBytes) + kChunkHeader, kMinChunk);

    if (needed <= cur) {
        // Shrink in place; split the tail if worthwhile.
        if (cur - needed >= kMinChunk) {
            const uint64_t pinuse = c.sizeWord() & kPinuse;
            c.setHeader(needed, kCinuse | pinuse);
            view(addr + needed)
                .setHeader(cur - needed, kCinuse | kPinuse);
            releaseChunk(addr + needed, cur - needed);
            live_bytes_ -= cur - needed;
        }
        return capForPayload(payload, requested);
    }

    // Grow in place from the top chunk.
    if (addr + cur == top_) {
        ChunkView t = view(top_);
        const uint64_t extra = needed - cur;
        if (t.size() < extra + kMinChunk)
            extendTop(extra + kMinChunk - t.size());
        t = view(top_);
        const uint64_t top_size = t.size();
        c.setHeader(needed, kCinuse | (c.sizeWord() & kPinuse));
        top_ = addr + needed;
        view(top_).setHeader(top_size - extra, kPinuse);
        live_bytes_ += extra;
        return capForPayload(payload, requested);
    }

    // Grow in place into a free successor.
    const uint64_t next = addr + cur;
    ChunkView n = view(next);
    if (next != top_ && !n.cinuse() && cur + n.size() >= needed) {
        unlinkChunk(next);
        const uint64_t combined = cur + n.size();
        const uint64_t pinuse = c.sizeWord() & kPinuse;
        c.setHeader(combined, kCinuse | pinuse);
        // Successor of the merged region borders an in-use chunk.
        ChunkView nn = view(addr + combined);
        nn.setHeader(nn.size(),
                     (nn.sizeWord() & kFlagMask) | kPinuse);
        maybeSplit(addr, needed);
        live_bytes_ += view(addr).size() - cur;
        return capForPayload(payload, requested);
    }

    // Move: allocate, copy preserving tags, free the old chunk.
    Capability fresh = malloc(requested);
    const uint64_t copy = std::min(cur - kChunkHeader,
                                   usableSize(fresh.base()));
    mem_->copyPreservingTags(fresh.base(), payload, copy);
    freeAddr(payload);
    return fresh;
}

uint64_t
DlAllocator::usableSize(uint64_t payload) const
{
    return view(chunkOf(payload)).size() - kChunkHeader;
}

DlAllocator::QuarantinedChunk
DlAllocator::quarantineFree(const Capability &capability)
{
    ++counters_.quarantineFrees;
    if (!capability.tag())
        heapFault(HeapFaultKind::WildFree,
                  "free() through an untagged capability");
    const uint64_t payload = capability.base();
    const uint64_t addr = chunkOf(payload);
    ChunkView c = checkedFreeView(addr);
    const uint64_t size = c.size();
    c.setHeader(size,
                (c.sizeWord() & kFlagMask) | kCinuse | kQuarantine);
    live_bytes_ -= size - kChunkHeader;
    quarantined_bytes_ += size;
    return QuarantinedChunk{addr, size};
}

void
DlAllocator::mergeQuarantinedRun(uint64_t addr, uint64_t new_size)
{
    ChunkView c = view(addr);
    CHERIVOKE_ASSERT(c.quarantined(),
                     "(merge target must be quarantined)");
    c.setHeader(new_size, c.sizeWord() & kFlagMask);
}

void
DlAllocator::internalFree(uint64_t addr, uint64_t size)
{
    ChunkView c = view(addr);
    CHERIVOKE_ASSERT(c.quarantined() && c.size() == size,
                     "(internalFree of non-quarantined run)");
    quarantined_bytes_ -= size;
    c.setHeader(size, c.sizeWord() & kPinuse); // clears CINUSE + Q
    releaseChunk(addr, size);
}

uint64_t
DlAllocator::releaseColdPages()
{
    // Memory-pressure reclaim: hand whole pages of dead free-chunk
    // payload back to the page store. A free chunk's only live
    // metadata is its first 32 bytes (prev_size, size|flags, fd, bk);
    // its boundary-tag footer lives at the *next* chunk's first word,
    // past the chunk's own extent. Everything between is dead bytes a
    // re-materialised zero page reproduces, so interior pages can be
    // released outright. Quarantined chunks are skipped: their
    // payloads are the open/pending revocation sets. The caller must
    // guarantee no sweep is in flight over this heap (same quiescence
    // contract as TaggedMemory::releaseRange).
    uint64_t released = 0;
    auto release_interior = [&](uint64_t keep_end, uint64_t end) {
        const uint64_t lo = alignUp(keep_end, kPageBytes);
        const uint64_t hi = alignDown(end, kPageBytes);
        if (lo < hi)
            released += mem_->releaseRange(lo, hi - lo);
    };
    uint64_t addr = heap_base_;
    while (addr < top_) {
        ChunkView c = viewUncounted(addr);
        const uint64_t size = c.size();
        if (!c.cinuse() && !c.quarantined())
            release_interior(addr + kMinChunk, addr + size);
        addr += size;
    }
    // The wilderness chunk: only its header matters.
    release_interior(top_ + kMinChunk, heap_end_);
    return released;
}

std::vector<DlAllocator::WalkChunk>
DlAllocator::walkHeap() const
{
    std::vector<WalkChunk> chunks;
    uint64_t addr = heap_base_;
    while (addr < top_) {
        ChunkView c = viewUncounted(addr);
        chunks.push_back(WalkChunk{addr, c.size(), c.cinuse(),
                                   c.quarantined(), false});
        CHERIVOKE_ASSERT(c.size() >= kMinChunk,
                         "(walk found undersized chunk)");
        addr += c.size();
    }
    ChunkView t = viewUncounted(top_);
    chunks.push_back(WalkChunk{top_, t.size(), false, false, true});
    return chunks;
}

void
DlAllocator::validateHeap() const
{
    uint64_t addr = heap_base_;
    bool prev_inuse = true; // nothing before the first chunk
    uint64_t prev_size = 0;
    while (addr <= top_) {
        ChunkView c = viewUncounted(addr);
        const bool is_top = addr == top_;
        CHERIVOKE_ASSERT(isAligned(addr, kGranuleBytes));
        CHERIVOKE_ASSERT(c.size() >= (is_top ? 0u : kMinChunk),
                         "(chunk too small)");
        CHERIVOKE_ASSERT(isAligned(c.size(), kGranuleBytes),
                         "(chunk size misaligned)");
        CHERIVOKE_ASSERT(c.pinuse() == prev_inuse,
                         "(PINUSE inconsistent)");
        if (!prev_inuse) {
            CHERIVOKE_ASSERT(c.prevSize() == prev_size,
                             "(boundary tag mismatch)");
        }
        if (is_top) {
            CHERIVOKE_ASSERT(addr + c.size() == heap_end_,
                             "(top chunk must end the heap)");
            CHERIVOKE_ASSERT(!c.cinuse(), "(top marked in use)");
            break;
        }
        const bool in_use = c.cinuse() || c.quarantined();
        if (!in_use) {
            // Free chunks are never adjacent (coalescing invariant).
            CHERIVOKE_ASSERT(prev_inuse,
                             "(two adjacent free chunks)");
        }
        prev_inuse = in_use;
        prev_size = c.size();
        addr += c.size();
    }

    // Bin link integrity + occupancy-bitmap consistency + the raw
    // span write contract (free-list links are written through the
    // host span, so their granules must carry no capability tag).
    for (unsigned idx = 0; idx < kNumBins; ++idx) {
        const bool bit =
            (bin_map_[idx >> 6] >> (idx & 63)) & 1;
        CHERIVOKE_ASSERT(bit == (bins_[idx] != 0),
                         "(bin bitmap out of sync with bin head)");
        uint64_t prev = 0;
        uint64_t cur = bins_[idx];
        while (cur) {
            ChunkView c = viewUncounted(cur);
            CHERIVOKE_ASSERT(!c.cinuse(), "(in-use chunk in bin)");
            CHERIVOKE_ASSERT(c.bk() == prev, "(bin bk corrupt)");
            CHERIVOKE_ASSERT(binIndexFor(c.size()) == idx,
                             "(chunk in wrong bin)");
            CHERIVOKE_ASSERT(idx >= kSmallBins ||
                                 c.size() ==
                                     kMinChunk + uint64_t{idx} * 16,
                             "(small bin must be exact-fit)");
            mem_->assertSpanSemantics(cur, kMinChunk);
            prev = cur;
            cur = c.fd();
        }
    }
}

} // namespace alloc
} // namespace cherivoke
