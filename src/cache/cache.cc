#include "cache/cache.hh"

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace cache {

Cache::Cache(const CacheGeometry &geom)
    : geom_(geom)
{
    CHERIVOKE_ASSERT(isPowerOf2(geom_.lineBytes));
    CHERIVOKE_ASSERT(geom_.ways > 0);
    CHERIVOKE_ASSERT(geom_.sizeBytes % (geom_.ways * geom_.lineBytes)
                         == 0,
                     "(cache size must divide into ways*line)");
    const uint64_t num_sets = geom_.numSets();
    CHERIVOKE_ASSERT(isPowerOf2(num_sets),
                     "(set count must be a power of two)");
    lineShift_ = log2Floor(geom_.lineBytes);
    setMask_ = num_sets - 1;
    tagShift_ = lineShift_ + log2Floor(num_sets);
    ways_.assign(num_sets * geom_.ways, Way{});
}

uint64_t
Cache::setIndex(uint64_t line_addr) const
{
    return (line_addr >> lineShift_) & setMask_;
}

uint64_t
Cache::tagOf(uint64_t line_addr) const
{
    return line_addr >> tagShift_;
}

size_t
Cache::firstWay(uint64_t line_addr) const
{
    return setIndex(line_addr) * geom_.ways;
}

LineAccess
Cache::access(uint64_t line_addr, bool write)
{
    CHERIVOKE_ASSERT(isAligned(line_addr, geom_.lineBytes),
                     "(access must be line aligned)");
    Way *const set = &ways_[firstWay(line_addr)];
    Way *const end = set + geom_.ways;
    const uint64_t tag = tagOf(line_addr);
    LineAccess result;

    for (Way *way = set; way != end; ++way) {
        if (way->valid && way->tag == tag) {
            way->lru = ++lruClock_;
            way->dirty |= write;
            ++hits_;
            result.hit = true;
            return result;
        }
    }

    // Miss: pick the LRU victim (or any invalid way).
    ++misses_;
    Way *victim = set;
    for (Way *way = set; way != end; ++way) {
        if (!way->valid) {
            victim = way;
            break;
        }
        if (way->lru < victim->lru)
            victim = way;
    }
    if (victim->valid) {
        result.evictedValid = true;
        result.victimLine = (victim->tag << tagShift_) |
                            (setIndex(line_addr) << lineShift_);
        if (victim->dirty) {
            result.evictedDirty = true;
            ++writebacks_;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lru = ++lruClock_;
    return result;
}

bool
Cache::probe(uint64_t line_addr) const
{
    const Way *const set = &ways_[firstWay(line_addr)];
    const uint64_t tag = tagOf(line_addr);
    for (const Way *way = set; way != set + geom_.ways; ++way) {
        if (way->valid && way->tag == tag)
            return true;
    }
    return false;
}

bool
Cache::invalidate(uint64_t line_addr)
{
    Way *const set = &ways_[firstWay(line_addr)];
    const uint64_t tag = tagOf(line_addr);
    for (Way *way = set; way != set + geom_.ways; ++way) {
        if (way->valid && way->tag == tag) {
            const bool was_dirty = way->dirty;
            way->valid = false;
            way->dirty = false;
            return was_dirty;
        }
    }
    return false;
}

void
Cache::reset()
{
    for (Way &way : ways_)
        way = Way{};
    lruClock_ = 0;
    hits_ = misses_ = writebacks_ = 0;
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (const Way &way : ways_)
        n += way.valid ? 1 : 0;
    return n;
}

} // namespace cache
} // namespace cherivoke
