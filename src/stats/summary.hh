/**
 * @file
 * Running summary statistics and small aggregate helpers (geometric
 * mean, ratios) used by the experiment harness when reporting the
 * paper's per-benchmark rows and geomean columns.
 */

#ifndef CHERIVOKE_STATS_SUMMARY_HH
#define CHERIVOKE_STATS_SUMMARY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cherivoke {
namespace stats {

/** Single-pass running mean / min / max / variance (Welford). */
class Summary
{
  public:
    void add(double sample);

    size_t count() const { return count_; }
    double mean() const;
    double min() const;
    double max() const;
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double total() const { return total_; }

  private:
    size_t count_ = 0;
    double mean_ = 0;
    double m2_ = 0;
    double min_ = 0;
    double max_ = 0;
    double total_ = 0;
};

/**
 * The allocator's mutator-path counters: how hard the malloc/free
 * fast path actually worked. alloc::DlAllocator bumps these fields
 * directly (CherivokeAllocator adds the quarantine merges); the
 * ratios are the quantities worth watching — mean bin-scan length
 * should sit near 1 with the occupancy bitmap, the raw-span rate
 * near 1 with the cached chunk spans, and the merge ratio is the
 * §5.2 aggregation quality (internal frees per program free shrink
 * as it rises).
 */
struct MutatorPathSummary
{
    uint64_t mallocCalls = 0;
    uint64_t quarantineFrees = 0;
    uint64_t binSearches = 0;       //!< takeFromBins invocations
    uint64_t binScanSteps = 0;      //!< free-list nodes examined
    uint64_t rawHeaderAccesses = 0; //!< chunk fields via host span
    uint64_t slowHeaderAccesses = 0; //!< out-of-span fallbacks
    uint64_t quarantineMerges = 0;
    uint64_t extends = 0;           //!< wilderness growths (mmap)

    /** Free-list nodes examined per takeFromBins call. */
    double meanBinScanLength() const;
    /** Fraction of chunk-metadata accesses served by the raw span. */
    double rawSpanRate() const;
    /** Runs merged per quarantined free (0..2). */
    double mergeRatio() const;

    /** Human-readable block for bench reports. */
    std::string render() const;
};

/** Geometric mean of a vector of positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &values);

} // namespace stats
} // namespace cherivoke

#endif // CHERIVOKE_STATS_SUMMARY_HH
