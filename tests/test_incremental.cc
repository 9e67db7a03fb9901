/**
 * @file
 * Tests for incremental revocation with the Cornucopia-style load
 * barrier: bounded pauses, mid-epoch mutator interference (the
 * copy-behind-the-sweep attack), epoch snapshot isolation, and a
 * randomised interleaving soak.
 */

#include <gtest/gtest.h>

#include <set>

#include "alloc/cherivoke_alloc.hh"
#include "revoke/revocation_engine.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace cherivoke {
namespace revoke {
namespace {

using alloc::CherivokeAllocator;
using alloc::CherivokeConfig;
using cap::Capability;

CherivokeConfig
tinyConfig()
{
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 16;
    return cfg;
}

EngineConfig
incrementalConfig()
{
    EngineConfig cfg;
    cfg.policy = PolicyKind::Incremental;
    return cfg;
}

class IncrementalTest : public ::testing::Test
{
  protected:
    IncrementalTest()
        : heap(space, tinyConfig()),
          inc(heap, space, incrementalConfig())
    {}

    mem::AddressSpace space;
    CherivokeAllocator heap;
    RevocationEngine inc;
};

TEST_F(IncrementalTest, WholeEpochRevokesDanglers)
{
    const Capability a = heap.malloc(64);
    space.memory().writeCap(mem::kGlobalsBase, a);
    heap.free(a);
    inc.revokeIncrementally(/*pages_per_step=*/1);
    EXPECT_FALSE(space.memory().readCap(mem::kGlobalsBase).tag());
    EXPECT_EQ(inc.totals().epochs, 1u);
}

TEST_F(IncrementalTest, StepsAreBounded)
{
    // Spread capabilities over many pages so the worklist is long.
    std::vector<Capability> caps;
    for (int i = 0; i < 64; ++i) {
        const Capability c = heap.malloc(8 * KiB);
        space.memory().storeCap(c, c.base(), c);
        caps.push_back(c);
    }
    heap.free(caps[0]);
    inc.beginEpoch();
    const size_t total = inc.pagesRemaining();
    ASSERT_GT(total, 8u);
    size_t remaining = total;
    int steps = 0;
    while (remaining > 0) {
        const size_t after = inc.step(4);
        EXPECT_GE(remaining, after);
        EXPECT_LE(remaining - after, 4u) << "pause bound violated";
        remaining = after;
        ++steps;
    }
    EXPECT_GE(steps, static_cast<int>(total / 4));
    inc.finishEpoch();
}

TEST_F(IncrementalTest, LoadBarrierStripsMidEpochCopies)
{
    // The copy-behind-the-sweep attack: the mutator loads a dangling
    // capability from a page the sweep has not reached yet and
    // stores it into a region the sweep has already passed.
    auto &memory = space.memory();

    // Make many CapDirty pages *before* the hideout so the page
    // worklist is long and step(1) cannot reach the hideout.
    const Capability filler = heap.malloc(256 * KiB);
    for (uint64_t off = 0; off < 256 * KiB; off += kPageBytes)
        memory.storeCap(filler, filler.base() + off, filler);
    const Capability hideout = heap.malloc(4 * KiB); // later pages
    const Capability victim = heap.malloc(64);
    memory.storeCap(hideout, hideout.base(), victim);
    heap.free(victim);

    inc.beginEpoch();
    ASSERT_GT(inc.pagesRemaining(), 32u);
    // Sweep only the first page, then "run" the mutator: load the
    // dangling cap from the unswept hideout...
    inc.step(1);
    const Capability loaded =
        memory.loadCap(hideout, hideout.base());
    // ...the load barrier already stripped it.
    EXPECT_FALSE(loaded.tag())
        << "barrier must strip dangling caps at the load";
    EXPECT_GT(memory.counters().loadBarrierStrips, 0u);
    // Storing the (now untagged) value anywhere is harmless.
    memory.writeCap(mem::kGlobalsBase, loaded);
    while (inc.step(4) > 0) {
    }
    inc.finishEpoch();
    EXPECT_FALSE(memory.readCap(mem::kGlobalsBase).tag());
    EXPECT_FALSE(memory.readCap(hideout.base()).tag());
}

TEST_F(IncrementalTest, LiveCapsUnaffectedByBarrier)
{
    auto &memory = space.memory();
    const Capability live = heap.malloc(64);
    const Capability holder = heap.malloc(64);
    memory.storeCap(holder, holder.base(), live);
    const Capability dead = heap.malloc(64);
    heap.free(dead);

    inc.beginEpoch();
    const Capability loaded = memory.loadCap(holder, holder.base());
    EXPECT_TRUE(loaded.tag()) << "live caps load normally";
    EXPECT_EQ(loaded, live);
    while (inc.step(8) > 0) {
    }
    inc.finishEpoch();
    EXPECT_TRUE(memory.readCap(holder.base()).tag());
}

TEST_F(IncrementalTest, MidEpochFreesJoinTheNextEpoch)
{
    auto &memory = space.memory();
    const Capability first = heap.malloc(64);
    heap.free(first);

    inc.beginEpoch();
    // Freed while the epoch is open: must NOT be released when this
    // epoch finishes (it was never painted or swept).
    const Capability late = heap.malloc(64);
    memory.writeCap(mem::kGlobalsBase, late);
    heap.free(late);
    while (inc.step(8) > 0) {
    }
    inc.finishEpoch();

    // The stale reference to `late` is still tagged (not yet
    // revoked) and its memory must not be reusable yet.
    EXPECT_TRUE(memory.readCap(mem::kGlobalsBase).tag());
    EXPECT_GT(heap.quarantinedBytes(), 0u);
    const Capability fresh = heap.malloc(64);
    EXPECT_NE(fresh.base(), late.base());

    // The next epoch takes care of it.
    inc.revokeIncrementally(8);
    EXPECT_FALSE(memory.readCap(mem::kGlobalsBase).tag());
}

TEST_F(IncrementalTest, BarrierRemovedAfterFinish)
{
    const Capability a = heap.malloc(64);
    heap.free(a);
    inc.revokeIncrementally(4);
    EXPECT_FALSE(space.memory().loadBarrierActive());
}

TEST_F(IncrementalTest, FinishBeforeDrainPanics)
{
    std::vector<Capability> caps;
    for (int i = 0; i < 32; ++i) {
        const Capability c = heap.malloc(8 * KiB);
        space.memory().storeCap(c, c.base(), c);
        caps.push_back(c);
    }
    heap.free(caps[5]);
    inc.beginEpoch();
    ASSERT_GT(inc.pagesRemaining(), 1u);
    EXPECT_THROW(inc.finishEpoch(), PanicError);
    while (inc.step(16) > 0) {
    }
    EXPECT_NO_THROW(inc.finishEpoch());
}

TEST_F(IncrementalTest, DoubleBeginPanics)
{
    const Capability a = heap.malloc(64);
    heap.free(a);
    inc.beginEpoch();
    EXPECT_THROW(inc.beginEpoch(), PanicError);
    while (inc.step(8) > 0) {
    }
    inc.finishEpoch();
}

/** Randomised soak: mutator ops interleaved with epoch steps. */
class IncrementalSoak : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(IncrementalSoak, NoDanglingCapSurvivesInterleavedEpochs)
{
    mem::AddressSpace space;
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 2 * KiB;
    CherivokeAllocator heap(space, cfg);
    RevocationEngine inc(heap, space, incrementalConfig());
    auto &memory = space.memory();
    Rng rng(GetParam());

    std::map<uint64_t, Capability> live;
    // Address ranges freed in the epoch *before* the open one (whose
    // release has completed) must have no tagged references left.
    std::vector<std::pair<uint64_t, uint64_t>> last_epoch_freed;
    std::vector<std::pair<uint64_t, uint64_t>> freed_now;

    for (int op = 0; op < 3000; ++op) {
        const double r = rng.nextDouble();
        if (r < 0.45 || live.empty()) {
            const Capability c =
                heap.malloc(rng.nextLogUniform(32, 2048));
            if (!live.empty() && rng.nextBool(0.6)) {
                auto it = live.begin();
                std::advance(it, rng.nextBounded(live.size()));
                // Mutator copies: loads + stores through the
                // barrier when an epoch is open.
                memory.storeCap(it->second, it->second.base(), c);
            }
            if (rng.nextBool(0.25)) {
                memory.writeCap(mem::kGlobalsBase +
                                    rng.nextBounded(1024) * 16,
                                c);
            }
            live.emplace(c.base(), c);
        } else if (r < 0.85) {
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            freed_now.emplace_back(
                it->second.base(),
                static_cast<uint64_t>(it->second.top()));
            heap.free(it->second);
            live.erase(it);
        } else if (!inc.epochOpen() && heap.needsSweep()) {
            inc.beginEpoch();
            last_epoch_freed = freed_now;
            freed_now.clear();
        }
        if (inc.epochOpen()) {
            if (inc.step(rng.nextRange(1, 6)) == 0) {
                inc.finishEpoch();
                // Check: nothing tagged points into the epoch's set.
                for (uint64_t s = 0; s < 1024; ++s) {
                    const Capability c = memory.readCap(
                        mem::kGlobalsBase + s * 16);
                    if (!c.tag())
                        continue;
                    for (const auto &[lo, hi] : last_epoch_freed) {
                        EXPECT_FALSE(c.base() >= lo && c.base() < hi)
                            << "dangling global survived epoch";
                    }
                }
                last_epoch_freed.clear();
            }
        }
    }
    if (inc.epochOpen()) {
        while (inc.step(16) > 0) {
        }
        inc.finishEpoch();
    }
    heap.dl().validateHeap();
    EXPECT_GT(inc.totals().epochs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSoak,
                         ::testing::Values(31, 62, 93));

} // namespace
} // namespace revoke
} // namespace cherivoke
