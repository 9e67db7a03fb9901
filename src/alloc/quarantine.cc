#include "alloc/quarantine.hh"

#include <algorithm>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace alloc {

namespace {

/** Fibonacci hash over a (16-byte aligned) boundary address. */
inline uint64_t
hashBoundary(uint64_t key)
{
    return (key >> kGranuleShift) * 0x9e3779b97f4a7c15ULL;
}

} // namespace

// ---- BoundaryIndex ---------------------------------------------

BoundaryIndex::BoundaryIndex() : table_(64), mask_(63) {}

size_t
BoundaryIndex::probeOf(uint64_t key) const
{
    return (hashBoundary(key) >> 32) & mask_;
}

uint32_t
BoundaryIndex::find(uint64_t key) const
{
    for (size_t pos = probeOf(key);; pos = (pos + 1) & mask_) {
        const Entry &e = table_[pos];
        if (e.key == 0)
            return kNotFound;
        if (e.key == key)
            return e.slot;
    }
}

void
BoundaryIndex::grow()
{
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    mask_ = table_.size() - 1;
    for (const Entry &e : old) {
        if (e.key == 0)
            continue;
        size_t pos = probeOf(e.key);
        while (table_[pos].key != 0)
            pos = (pos + 1) & mask_;
        table_[pos] = e;
    }
}

void
BoundaryIndex::insert(uint64_t key, uint32_t slot)
{
    CHERIVOKE_ASSERT(key != 0, "(0 is the empty-boundary sentinel)");
    if ((size_ + 1) * 4 > table_.size() * 3)
        grow();
    size_t pos = probeOf(key);
    while (table_[pos].key != 0) {
        CHERIVOKE_ASSERT(table_[pos].key != key,
                         "(duplicate quarantine boundary)");
        pos = (pos + 1) & mask_;
    }
    table_[pos] = Entry{key, slot};
    ++size_;
}

void
BoundaryIndex::update(uint64_t key, uint32_t slot)
{
    for (size_t pos = probeOf(key);; pos = (pos + 1) & mask_) {
        Entry &e = table_[pos];
        CHERIVOKE_ASSERT(e.key != 0,
                         "(update of absent quarantine boundary)");
        if (e.key == key) {
            e.slot = slot;
            return;
        }
    }
}

void
BoundaryIndex::erase(uint64_t key)
{
    size_t pos = probeOf(key);
    while (table_[pos].key != key) {
        CHERIVOKE_ASSERT(table_[pos].key != 0,
                         "(erase of absent quarantine boundary)");
        pos = (pos + 1) & mask_;
    }
    // Backward-shift deletion: pull displaced entries over the hole
    // so probe chains never cross an empty slot they relied on.
    size_t hole = pos;
    for (size_t next = (hole + 1) & mask_; table_[next].key != 0;
         next = (next + 1) & mask_) {
        const size_t home = probeOf(table_[next].key);
        if (((next - home) & mask_) >= ((next - hole) & mask_)) {
            table_[hole] = table_[next];
            hole = next;
        }
    }
    table_[hole] = Entry{};
    --size_;
}

void
BoundaryIndex::clear()
{
    table_.assign(64, Entry{});
    mask_ = 63;
    size_ = 0;
}

// ---- Quarantine ------------------------------------------------

unsigned
Quarantine::add(DlAllocator &dl, uint64_t addr, uint64_t size,
                uint32_t birth)
{
    CHERIVOKE_ASSERT(size > 0);
    total_bytes_ += size;
    ++adds_;
    ordered_valid_ = false;
    unsigned merged = 0;

    // Merge with a run ending exactly where this chunk starts. The
    // merged run keeps the *minimum* birth: its oldest member
    // governs which tier may release it.
    const uint32_t prev_slot = by_end_.find(addr);
    if (prev_slot != BoundaryIndex::kNotFound) {
        const QuarantineRun prev = runs_[prev_slot];
        eraseSlot(prev_slot);
        addr = prev.addr;
        size += prev.size;
        birth = std::min(birth, prev.birth);
        ++merges_;
        ++merged;
    }

    // Merge with a run starting exactly where this chunk ends.
    const uint32_t next_slot = by_start_.find(addr + size);
    if (next_slot != BoundaryIndex::kNotFound) {
        size += runs_[next_slot].size;
        birth = std::min(birth, runs_[next_slot].birth);
        eraseSlot(next_slot);
        ++merges_;
        ++merged;
    }

    dl.mergeQuarantinedRun(addr, size);
    const uint32_t slot = static_cast<uint32_t>(runs_.size());
    runs_.push_back(QuarantineRun{addr, size, birth});
    by_start_.insert(addr, slot);
    by_end_.insert(addr + size, slot);
    return merged;
}

void
Quarantine::eraseSlot(uint32_t slot)
{
    const QuarantineRun run = runs_[slot];
    by_start_.erase(run.addr);
    by_end_.erase(run.end());
    const uint32_t last = static_cast<uint32_t>(runs_.size() - 1);
    if (slot != last) {
        // Dense slab: move the tail run into the hole and re-point
        // its two boundary entries.
        runs_[slot] = runs_[last];
        by_start_.update(runs_[slot].addr, slot);
        by_end_.update(runs_[slot].end(), slot);
    }
    runs_.pop_back();
}

const std::vector<QuarantineRun> &
Quarantine::orderedRuns() const
{
    if (!ordered_valid_) {
        ordered_ = runs_;
        std::sort(ordered_.begin(), ordered_.end(),
                  [](const QuarantineRun &a, const QuarantineRun &b) {
                      return a.addr < b.addr;
                  });
        ordered_valid_ = true;
    }
    return ordered_;
}

std::vector<QuarantineShard>
Quarantine::shardedRuns(size_t shards) const
{
    CHERIVOKE_ASSERT(shards > 0);
    std::vector<QuarantineShard> out;
    const std::vector<QuarantineRun> &ordered = orderedRuns();
    if (ordered.empty())
        return out;

    // Granule-aligned address bands over the quarantined span.
    const uint64_t span_lo = ordered.front().addr;
    const uint64_t span_hi = ordered.back().end();
    const uint64_t band =
        alignUp((span_hi - span_lo + shards - 1) / shards,
                kGranuleBytes);

    auto it = ordered.begin();
    for (size_t s = 0; s < shards; ++s) {
        QuarantineShard shard;
        shard.lo = span_lo + s * band;
        shard.hi = s + 1 == shards
                       ? std::max(span_hi, shard.lo)
                       : span_lo + (s + 1) * band;
        while (it != ordered.end() && it->addr < shard.hi) {
            shard.runs.push_back(*it);
            ++it;
        }
        out.push_back(std::move(shard));
    }
    CHERIVOKE_ASSERT(it == ordered.end());
    return out;
}

uint64_t
Quarantine::bytesBornSince(uint32_t min_birth) const
{
    uint64_t bytes = 0;
    for (const QuarantineRun &run : runs_)
        if (run.birth >= min_birth)
            bytes += run.size;
    return bytes;
}

void
Quarantine::adoptRun(const QuarantineRun &run)
{
    const uint32_t slot = static_cast<uint32_t>(runs_.size());
    runs_.push_back(run);
    by_start_.insert(run.addr, slot);
    by_end_.insert(run.end(), slot);
    total_bytes_ += run.size;
}

Quarantine
Quarantine::splitBornSince(uint32_t min_birth)
{
    Quarantine young;
    if (min_birth == 0) {
        // Everything qualifies: hand the whole buffer over.
        young = std::move(*this);
        *this = Quarantine{};
        return young;
    }
    const std::vector<QuarantineRun> ordered = orderedRuns();
    // Counters survive the split on the parent (they track mutator
    // activity, not current contents); the young side starts clean.
    runs_.clear();
    by_start_.clear();
    by_end_.clear();
    ordered_.clear();
    ordered_valid_ = false;
    total_bytes_ = 0;
    for (const QuarantineRun &run : ordered) {
        if (run.birth >= min_birth)
            young.adoptRun(run);
        else
            adoptRun(run);
    }
    return young;
}

uint64_t
Quarantine::release(DlAllocator &dl)
{
    // Internal frees in address order: the deterministic order the
    // former ordered map released in, so bin contents — and every
    // downstream allocation decision — are unchanged.
    const std::vector<QuarantineRun> &ordered = orderedRuns();
    const uint64_t n = ordered.size();
    for (const QuarantineRun &run : ordered)
        dl.internalFree(run.addr, run.size);
    runs_.clear();
    by_start_.clear();
    by_end_.clear();
    ordered_.clear();
    ordered_valid_ = false;
    total_bytes_ = 0;
    return n;
}

} // namespace alloc
} // namespace cherivoke
