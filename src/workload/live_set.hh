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
 * slot array of sizes indexed by id - 1, a bitmap of live flags, and
 * a Fenwick tree of each 64-id bitmap word's live count give both in
 * O(log n). The tree holds 4 bytes per 64 allocations, so a
 * 300k-allocation index is ~19 KiB and its descent stays in L1.
 *
 * While every free has taken the oldest object (FIFO lifetimes), the
 * live ids are the contiguous range [head, next id) and rank r is id
 * head + r. The bitmap and tree are therefore built only on the
 * first out-of-order erase; a FIFO-only trace pays O(1) per op and
 * never allocates them.
 */

#ifndef CHERIVOKE_WORKLOAD_LIVE_SET_HH
#define CHERIVOKE_WORKLOAD_LIVE_SET_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "support/zero_pages.hh"

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
            const uint64_t word = (id - 1) / 64;
            if (word == words_.size()) {
                // A new word's node covers the new, empty word plus
                // the child nodes that partition the rest of its
                // range.
                const uint64_t node = word + 1;
                uint32_t covered = 0;
                for (uint64_t k = 1; k < (node & -node); k <<= 1)
                    covered += tree_[node - k];
                words_.push_back(0);
                tree_.push_back(covered);
            }
            // The newest word's node is the last, so no ancestor
            // exists yet to update.
            words_[word] |= uint64_t{1} << ((id - 1) % 64);
            ++tree_[word + 1];
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
        const uint64_t word = (id - 1) / 64;
        words_[word] &= ~(uint64_t{1} << ((id - 1) % 64));
        for (uint64_t i = word + 1; i < tree_.size(); i += i & -i)
            --tree_[i];
        return Object{id, sizes_[id - 1]};
    }

  private:
    /** Bitmap and tree over the FIFO state: ids >= head_ are live. */
    void
    build()
    {
        const uint64_t n = sizes_.size();
        const uint64_t nwords = (n + 63) / 64;
        // Later pushes grow both with the slot array.
        words_.reserve(sizes_.capacity() / 64 + 1);
        tree_.reserve(sizes_.capacity() / 64 + 2);
        words_.assign(nwords, 0);
        for (uint64_t i = head_ - 1; i < n; ++i)
            words_[i / 64] |= uint64_t{1} << (i % 64);
        tree_.assign(nwords + 1, 0);
        for (uint64_t w = 1; w <= nwords; ++w) {
            tree_[w] += static_cast<uint32_t>(std::popcount(words_[w - 1]));
            const uint64_t parent = w + (w & -w);
            if (parent <= nwords)
                tree_[parent] += tree_[w];
        }
    }

    /** Id of the live object with @p rank live objects before it. */
    uint64_t
    select(uint64_t rank) const
    {
        // Descend the tree to the word that holds the rank...
        const uint64_t n = tree_.size() - 1;
        uint64_t pos = 0;
        for (uint64_t step = std::bit_floor(n); step != 0; step >>= 1) {
            if (pos + step <= n && tree_[pos + step] <= rank) {
                pos += step;
                rank -= tree_[pos];
            }
        }
        // ...then clear the word's lower live bits, one at a time:
        // ~20 ns a word, against ~70 ns for halving it by popcount.
        uint64_t bits = words_[pos];
        for (; rank != 0; --rank)
            bits &= bits - 1;
        return pos * 64 + static_cast<uint64_t>(std::countr_zero(bits)) + 1;
    }

    /** Size of allocation id, at index id - 1 (dead slots kept):
     *  as large as the trace, so a huge-page mapping. */
    std::vector<uint64_t, HugePageAllocator<uint64_t>> sizes_;
    /** Live flag of id at bit (id - 1) % 64 of word (id - 1) / 64;
     *  empty until the first out-of-order erase. */
    std::vector<uint64_t> words_;
    /** 1-based Fenwick tree of the words' live counts; empty until
     *  the first out-of-order erase. Node i counts at most 64 *
     *  lowbit(i) ids, so 32 bits overflow only past 2^32
     *  allocations, far more than a trace in memory holds. */
    std::vector<uint32_t> tree_;
    /** Oldest live id while the index is unbuilt. */
    uint64_t head_ = 1;
    uint64_t live_ = 0;
};

} // namespace workload
} // namespace cherivoke

#endif // CHERIVOKE_WORKLOAD_LIVE_SET_HH
