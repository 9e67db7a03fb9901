/**
 * @file
 * An Oscar-style page-permission scheme (Dang et al., USENIX Security
 * 2017; paper §7.2): every allocation receives its own virtual page
 * alias; free() poisons the alias so dangling pointers fault, while
 * the physical page can be reused.
 *
 * The functional core demonstrates the mechanism; the cost model
 * captures the two structural overheads the paper highlights: a
 * syscall-ish cost per allocation/free (mapping management) and
 * memory overhead from page-granular allocation, both of which blow
 * up for small, frequent allocations (§7.2).
 */

#ifndef CHERIVOKE_BASELINE_OSCAR_HH
#define CHERIVOKE_BASELINE_OSCAR_HH

#include <cstdint>
#include <map>

#include "mem/addr_space.hh"

namespace cherivoke {
namespace baseline {

/** Oscar cost-model parameters. */
struct OscarCosts
{
    /** Seconds per mmap/mprotect-style operation (~1 us syscall). */
    double secondsPerMapOp = 1.0e-6;
    /** Extra TLB-pressure slowdown per live aliased page, applied
     *  multiplicatively per million pages. */
    double tlbPenaltyPerMPages = 0.02;
};

/** Oscar runtime/memory estimates for a workload. */
struct OscarEstimate
{
    double runtimeOverhead = 0;  //!< fraction of baseline runtime
    double memoryOverhead = 0;   //!< fraction of baseline heap
};

/** The functional shim: page-aliased allocations with poisoning. */
class Oscar
{
  public:
    explicit Oscar(mem::AddressSpace &space) : space_(&space) {}

    /** Allocate: a fresh page-granular alias per allocation. */
    cap::Capability malloc(uint64_t size);

    /** Free: poison the alias (unmap); dangling accesses fault. */
    void free(const cap::Capability &capability);

    uint64_t liveAliasedBytes() const { return live_aliased_bytes_; }

  private:
    mem::AddressSpace *space_;
    std::map<uint64_t, uint64_t> live_; //!< base -> mapped size
    uint64_t live_aliased_bytes_ = 0;
};

/**
 * The cost model used for figure-5-style comparisons.
 * @param allocs_per_sec allocation (== free) throughput
 * @param mean_alloc_bytes average allocation size
 * @param live_heap_bytes steady-state live heap
 */
OscarEstimate estimateOscar(const OscarCosts &costs,
                            double allocs_per_sec,
                            double mean_alloc_bytes,
                            double live_heap_bytes);

} // namespace baseline
} // namespace cherivoke

#endif // CHERIVOKE_BASELINE_OSCAR_HH
