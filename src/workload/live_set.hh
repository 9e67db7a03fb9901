/**
 * @file
 * The synthesiser's live set: an order-statistic index over the
 * allocations a trace has made and not yet freed. Internal to
 * src/workload (synth.cc and its tests include it); not part of the
 * workload API.
 *
 * Temporal fragmentation (§6.1.1) is synthesised by freeing "the
 * r-th oldest live object" for a random r, and pointer stores pick
 * their source the same way, so the set must answer rank lookup and
 * erase-at-rank. Allocation ids are dense and assigned in allocation
 * order, so the live set is just the live ids in increasing order: a
 * slot array of sizes indexed by id - 1 plus a Fenwick tree of live
 * flags gives both in O(log n).
 *
 * While every free has taken the oldest object (FIFO lifetimes), the
 * live ids are the contiguous range [head, next id) and rank r is id
 * head + r. The tree is therefore built only on the first
 * out-of-order erase; a FIFO-only trace pays O(1) per op and never
 * allocates it.
 */

#ifndef CHERIVOKE_WORKLOAD_LIVE_SET_HH
#define CHERIVOKE_WORKLOAD_LIVE_SET_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace cherivoke {
namespace workload {

/** One synthesis's live allocations, ranked oldest first. */
class LiveSet
{
  public:
    /** One live allocation. */
    struct Object
    {
        uint64_t id;
        uint64_t size;
    };

    /** Add the next allocation (@p size bytes); ids run 1, 2, ... */
    uint64_t
    push(uint64_t size)
    {
        sizes_.push_back(size);
        const uint64_t id = sizes_.size();
        ++live_;
        if (!tree_.empty()) {
            // Node id covers (id - lowbit(id), id]: the new flag plus
            // the child nodes that partition the rest of that range.
            uint32_t covered = 1;
            for (uint64_t k = 1; k < (id & -id); k <<= 1)
                covered += tree_[id - k];
            tree_.push_back(covered);
        }
        return id;
    }

    /** Make room for @p allocs allocations in total. */
    void reserve(uint64_t allocs) { sizes_.reserve(allocs); }

    uint64_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    /** The @p rank-th oldest live object (0 = oldest); rank < size(). */
    Object
    at(uint64_t rank) const
    {
        const uint64_t id = tree_.empty() ? head_ + rank : select(rank);
        return Object{id, sizes_[id - 1]};
    }

    Object front() const { return at(0); }

    /** Remove and return the @p rank-th oldest live object. */
    Object
    erase(uint64_t rank)
    {
        --live_;
        if (tree_.empty()) {
            if (rank == 0) {
                const uint64_t id = head_++;
                return Object{id, sizes_[id - 1]};
            }
            build();
        }
        const uint64_t id = select(rank);
        for (uint64_t i = id; i < tree_.size(); i += i & -i)
            --tree_[i];
        return Object{id, sizes_[id - 1]};
    }

  private:
    /** Fenwick tree over the FIFO state: ids >= head_ are live. */
    void
    build()
    {
        const uint64_t n = sizes_.size();
        // Later pushes grow the tree with the slot array.
        tree_.reserve(sizes_.capacity() + 1);
        tree_.assign(n + 1, 0);
        for (uint64_t i = head_; i <= n; ++i)
            tree_[i] = 1;
        for (uint64_t i = 1; i <= n; ++i) {
            const uint64_t parent = i + (i & -i);
            if (parent <= n)
                tree_[parent] += tree_[i];
        }
    }

    /** Id of the live object with @p rank live objects before it. */
    uint64_t
    select(uint64_t rank) const
    {
        const uint64_t n = tree_.size() - 1;
        uint64_t pos = 0;
        for (uint64_t step = std::bit_floor(n); step != 0; step >>= 1) {
            if (pos + step <= n && tree_[pos + step] <= rank) {
                pos += step;
                rank -= tree_[pos];
            }
        }
        return pos + 1;
    }

    /** Size of allocation id, at index id - 1 (dead slots kept). */
    std::vector<uint64_t> sizes_;
    /** 1-based Fenwick tree of live flags; empty until the first
     *  out-of-order erase. Node i counts at most lowbit(i) ids, so
     *  32 bits overflow only past 2^32 allocations, far more than a
     *  trace in memory holds. */
    std::vector<uint32_t> tree_;
    /** Oldest live id while the tree is unbuilt. */
    uint64_t head_ = 1;
    uint64_t live_ = 0;
};

} // namespace workload
} // namespace cherivoke

#endif // CHERIVOKE_WORKLOAD_LIVE_SET_HH
