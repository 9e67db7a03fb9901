/**
 * @file
 * Differential test of the synthesiser's live-set index: LiveSet and
 * a plain std::deque reference model are driven through one seeded
 * sequence of pushes, erases and rank lookups and compared after
 * every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "support/rng.hh"
#include "workload/live_set.hh"

namespace cherivoke {
namespace workload {
namespace {

using Object = LiveSet::Object;

/** LiveSet next to a deque reference model (front = oldest). */
class Differential
{
  public:
    explicit Differential(uint64_t seed) : rng_(seed) {}

    void push() { pushMany(1); }

    /** @p n pushes, compared once at the end: a full walk every few
     *  pushes of a 200k-object set would dominate the run. */
    void
    pushMany(uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t size = rng_.nextRange(16, 4096);
            const uint64_t id = index_.push(size);
            ref_.push_back(Object{next_id_++, size});
            EXPECT_EQ(id, ref_.back().id);
        }
        check();
    }

    void
    erase(uint64_t rank)
    {
        ASSERT_LT(rank, ref_.size());
        const Object got = index_.erase(rank);
        const Object want = ref_[rank];
        ref_.erase(ref_.begin() + static_cast<long>(rank));
        expectSame(got, want, rank);
        check();
    }

    void eraseOldest() { erase(0); }
    void eraseNewest() { erase(ref_.size() - 1); }
    void eraseRandom() { erase(rng_.nextBounded(ref_.size())); }

    /** Erase every live id of 64-id word @p w: ids 64w + 1 ... 64w +
     *  64, the ids one LiveSet bitmap word holds. */
    void
    eraseWord(uint64_t w)
    {
        for (uint64_t id = 64 * w + 1; id <= 64 * w + 64; ++id) {
            const auto it = std::lower_bound(
                ref_.begin(), ref_.end(), id,
                [](const Object &o, uint64_t v) { return o.id < v; });
            if (it != ref_.end() && it->id == id)
                erase(static_cast<uint64_t>(it - ref_.begin()));
        }
    }

    /** One random operation, weighted like synthesis. */
    void
    randomStep()
    {
        const uint64_t pick = rng_.nextBounded(8);
        if (ref_.empty() || pick < 4)
            push();
        else if (pick == 4)
            eraseOldest();
        else if (pick == 5)
            eraseNewest();
        else
            eraseRandom();
    }

    void
    drain()
    {
        while (!ref_.empty())
            eraseRandom();
    }

    size_t size() const { return ref_.size(); }
    /** The id the next push gets. */
    uint64_t nextId() const { return next_id_; }

    /** Compare every live object, oldest first. */
    void
    checkAll() const
    {
        ASSERT_EQ(index_.size(), ref_.size());
        for (uint64_t r = 0; r < ref_.size(); ++r)
            expectSame(index_.at(r), ref_[r], r);
    }

  private:
    static void
    expectSame(const Object &got, const Object &want, uint64_t rank)
    {
        EXPECT_EQ(got.id, want.id) << "rank " << rank;
        EXPECT_EQ(got.size, want.size) << "rank " << rank;
    }

    /** Per-step comparison: size, both ends and one random rank,
     *  plus a full walk every few steps. */
    void
    check()
    {
        ASSERT_EQ(index_.size(), ref_.size());
        ASSERT_EQ(index_.empty(), ref_.empty());
        if (!ref_.empty()) {
            expectSame(index_.front(), ref_.front(), 0);
            const uint64_t last = ref_.size() - 1;
            expectSame(index_.at(last), ref_.back(), last);
            const uint64_t r = rng_.nextBounded(ref_.size());
            expectSame(index_.at(r), ref_[r], r);
        }
        if (++steps_ % 61 == 0)
            checkAll();
    }

    Rng rng_;
    LiveSet index_;
    std::deque<Object> ref_;
    uint64_t next_id_ = 1;
    uint64_t steps_ = 0;
};

TEST(LiveSet, IdsAreDenseInAllocationOrder)
{
    LiveSet live;
    EXPECT_EQ(live.push(100), 1u);
    EXPECT_EQ(live.push(200), 2u);
    EXPECT_EQ(live.erase(1).id, 2u);
    EXPECT_EQ(live.push(300), 3u);
    EXPECT_EQ(live.at(1).size, 300u);
}

TEST(LiveSet, FifoPrefixThenLazyBuild)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        Differential d(seed);
        // FIFO-only prefix: only the oldest object ever leaves.
        for (int i = 0; i < 3000; ++i) {
            d.push();
            if (i % 3 == 2)
                d.eraseOldest();
        }
        d.checkAll();
        // The first out-of-order erase builds the index.
        d.eraseRandom();
        d.checkAll();
        for (int i = 0; i < 6000; ++i)
            d.randomStep();
        d.checkAll();
    }
}

TEST(LiveSet, FirstOutOfOrderEraseIsTheNewest)
{
    Differential d(11);
    for (int i = 0; i < 500; ++i)
        d.push();
    for (int i = 0; i < 100; ++i)
        d.eraseOldest();
    d.eraseNewest();
    d.checkAll();
    for (int i = 0; i < 2000; ++i)
        d.randomStep();
    d.checkAll();
}

TEST(LiveSet, FifoDrainToEmptyAndRefill)
{
    Differential d(5);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 400; ++i)
            d.push();
        while (d.size() > 0)
            d.eraseOldest();
    }
    for (int i = 0; i < 400; ++i)
        d.push();
    d.eraseRandom();
    for (int i = 0; i < 2000; ++i)
        d.randomStep();
    d.checkAll();
}

TEST(LiveSet, IndexedDrainToEmptyAndRefill)
{
    Differential d(7);
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 700; ++i)
            d.randomStep();
        d.drain();
        d.checkAll();
        for (int i = 0; i < 300; ++i)
            d.push();
        d.checkAll();
    }
}

TEST(LiveSet, WordEdgesAtScale)
{
    // The FIFO prefix ends mid-word (oldest live id 38) or on a word
    // boundary (oldest live id 129) before the first out-of-order
    // erase builds the index.
    for (uint64_t fifo : {uint64_t{37}, uint64_t{128}}) {
        SCOPED_TRACE(fifo);
        Differential d(fifo);
        // 200,021 ids: the newest word is partly filled.
        d.pushMany(200021);
        for (uint64_t i = 0; i < fifo; ++i)
            d.eraseOldest();
        // Ranks either side of the first word edge, then the last.
        d.erase(63);
        d.erase(64);
        d.erase(65);
        d.eraseNewest();
        d.checkAll();
        // Whole words drained to empty: one alone, then a run of
        // them, so the descent must step over empty subtrees.
        d.eraseWord(1000);
        for (uint64_t w = 20; w < 36; ++w)
            d.eraseWord(w);
        d.checkAll();
        // The newest word drained to empty, then refilled by pushes
        // that run on into new words.
        d.eraseWord((d.nextId() - 2) / 64);
        d.pushMany(200);
        d.checkAll();
        for (int i = 0; i < 600; ++i)
            d.randomStep();
        d.checkAll();
    }
}

TEST(LiveSet, SingleObjectEdgeCases)
{
    Differential d(9);
    d.push();
    d.eraseNewest(); // rank 0 of a one-object set: still FIFO
    d.push();
    d.push();
    d.eraseNewest(); // builds the index with one object left
    d.eraseOldest();
    d.push();
    d.eraseRandom();
    d.checkAll();
}

} // namespace
} // namespace workload
} // namespace cherivoke
