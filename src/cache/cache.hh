/**
 * @file
 * A set-associative cache performance model with LRU replacement and
 * per-line dirty bits.
 *
 * This models cache *state*, not contents: functional data lives in
 * mem::TaggedMemory; the hierarchy only decides which accesses travel
 * how far. Per figure 4 of the paper, each line conceptually carries
 * a tag-metadata block alongside its data banks so a CLoadTags bus
 * request can be answered in a single lookup; for this state model it
 * suffices that a present line can answer tag queries without any
 * further traffic.
 */

#ifndef CHERIVOKE_CACHE_CACHE_HH
#define CHERIVOKE_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/units.hh"

namespace cherivoke {
namespace cache {

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * KiB;
    unsigned ways = 8;
    uint64_t lineBytes = kLineBytes;

    uint64_t numSets() const { return sizeBytes / (ways * lineBytes); }
};

/** Result of a line access. */
struct LineAccess
{
    bool hit = false;
    bool evictedDirty = false;     //!< a dirty victim was written back
    uint64_t victimLine = 0;       //!< line address of the victim
    bool evictedValid = false;     //!< any victim at all
};

/** One set-associative cache level. */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geom);

    const CacheGeometry &geometry() const { return geom_; }

    /**
     * Access the line containing @p line_addr (must be line-aligned).
     * On a miss the line is filled (allocate-on-miss for both reads
     * and writes) and the LRU victim is reported.
     * @param write marks the line dirty on hit or fill
     */
    LineAccess access(uint64_t line_addr, bool write);

    /** Probe without disturbing state: is the line present? */
    bool probe(uint64_t line_addr) const;

    /** Invalidate the line if present; @return true if it was dirty. */
    bool invalidate(uint64_t line_addr);

    /** Drop all lines (e.g.\ between experiment repetitions). */
    void reset();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }

    /** Number of currently valid lines. */
    uint64_t validLines() const;

  private:
    struct Way
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0; //!< larger = more recently used
    };

    uint64_t setIndex(uint64_t line_addr) const;
    uint64_t tagOf(uint64_t line_addr) const;
    /** Index in ways_ of the first way of @p line_addr's set. */
    size_t firstWay(uint64_t line_addr) const;

    CacheGeometry geom_;
    unsigned lineShift_ = 0; //!< log2(lineBytes)
    uint64_t setMask_ = 0;   //!< numSets() - 1
    unsigned tagShift_ = 0;  //!< log2(lineBytes * numSets())
    /** Every set's ways, set-major: set s is ways_[s * ways, ...). */
    std::vector<Way> ways_;
    uint64_t lruClock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace cache
} // namespace cherivoke

#endif // CHERIVOKE_CACHE_CACHE_HH
