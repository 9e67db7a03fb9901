#include "baseline/oscar.hh"

#include <algorithm>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace baseline {

cap::Capability
Oscar::malloc(uint64_t size)
{
    // One fresh virtual mapping per allocation (never a reused
    // virtual page while any dangling pointer may exist).
    const uint64_t mapped =
        alignUp(std::max<uint64_t>(size, 1), kPageBytes);
    const uint64_t base = space_->mmapHeap(mapped);
    live_[base] = mapped;
    live_aliased_bytes_ += mapped;
    return space_->rootCap()
        .setAddress(base)
        .setBounds(size)
        .andPerms(cap::kPermsData);
}

void
Oscar::free(const cap::Capability &capability)
{
    const uint64_t base = capability.base();
    auto it = live_.find(base);
    CHERIVOKE_ASSERT(it != live_.end(),
                     "(Oscar free of unknown allocation)");
    // Poison: unmapping makes any dangling access fault.
    space_->munmapHeap(base, it->second);
    live_aliased_bytes_ -= it->second;
    live_.erase(it);
}

OscarEstimate
estimateOscar(const OscarCosts &costs, double allocs_per_sec,
              double mean_alloc_bytes, double live_heap_bytes)
{
    OscarEstimate est;
    if (mean_alloc_bytes <= 0 || live_heap_bytes <= 0)
        return est;
    // Two map operations per allocation lifetime (map + poison).
    const double syscall_time =
        2.0 * allocs_per_sec * costs.secondsPerMapOp;
    const double live_pages =
        live_heap_bytes / mean_alloc_bytes; // one page per allocation
    const double tlb_penalty =
        costs.tlbPenaltyPerMPages * (live_pages / 1.0e6);
    est.runtimeOverhead = syscall_time + tlb_penalty;
    // Memory: every allocation rounds to a page.
    const double per_alloc_waste =
        static_cast<double>(kPageBytes) -
        std::min<double>(mean_alloc_bytes,
                         static_cast<double>(kPageBytes));
    est.memoryOverhead =
        per_alloc_waste * (live_heap_bytes / mean_alloc_bytes) /
        live_heap_bytes;
    return est;
}

} // namespace baseline
} // namespace cherivoke
