/**
 * @file
 * Unit tests for the support substrate: bit utilities, logging
 * channels, deterministic RNG, unit formatting, and the fork-join
 * helper.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/bitops.hh"
#include "support/fork_join.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

namespace cherivoke {
namespace {

TEST(Bitops, MaskLow)
{
    EXPECT_EQ(maskLow(0), 0u);
    EXPECT_EQ(maskLow(1), 1u);
    EXPECT_EQ(maskLow(4), 0xfu);
    EXPECT_EQ(maskLow(63), 0x7fffffffffffffffULL);
    EXPECT_EQ(maskLow(64), ~uint64_t{0});
}

TEST(Bitops, ExtractInsertRoundTrip)
{
    const uint64_t v = 0xdeadbeefcafebabeULL;
    for (unsigned lo : {0u, 4u, 17u, 32u, 57u}) {
        const unsigned width = 7;
        const uint64_t field = bitsExtract(v, lo, width);
        const uint64_t rebuilt = bitsInsert(0, lo, width, field);
        EXPECT_EQ(bitsExtract(rebuilt, lo, width), field);
    }
}

TEST(Bitops, InsertPreservesOtherBits)
{
    const uint64_t v = ~uint64_t{0};
    const uint64_t r = bitsInsert(v, 8, 8, 0);
    EXPECT_EQ(r, v & ~(uint64_t{0xff} << 8));
}

TEST(Bitops, AlignHelpers)
{
    EXPECT_EQ(alignUp(0, 16), 0u);
    EXPECT_EQ(alignUp(1, 16), 16u);
    EXPECT_EQ(alignUp(16, 16), 16u);
    EXPECT_EQ(alignUp(17, 16), 32u);
    EXPECT_EQ(alignDown(17, 16), 16u);
    EXPECT_EQ(alignDown(15, 16), 0u);
    EXPECT_TRUE(isAligned(64, 16));
    EXPECT_FALSE(isAligned(65, 16));
}

TEST(Bitops, PowersAndLogs)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(msbIndex(0), -1);
    EXPECT_EQ(msbIndex(1), 0);
    EXPECT_EQ(msbIndex(4096), 12);
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(4095), 12u);
    EXPECT_EQ(log2Ceil(4096), 12u);
    EXPECT_EQ(log2Ceil(4097), 13u);
    EXPECT_EQ(log2Floor(4097), 12u);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
    EXPECT_THROW(panic("plain"), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config %s", "x"), FatalError);
}

TEST(Logging, PanicMessageContainsFormattedText)
{
    try {
        panic("value=%d", 7);
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(CHERIVOKE_ASSERT(1 == 2), PanicError);
    EXPECT_NO_THROW(CHERIVOKE_ASSERT(2 == 2));
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundedStaysInBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.nextRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u) << "all values in range should appear";
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyFair)
{
    Rng rng(42);
    int heads = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        heads += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.03);
}

TEST(Rng, LogUniformWithinBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.nextLogUniform(16, 65536);
        EXPECT_GE(v, 16u);
        EXPECT_LE(v, 65536u);
    }
}

TEST(Rng, ExponentialMeanApproximate)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.25);
}

TEST(Rng, WeightedRespectsZeroWeight)
{
    Rng rng(3);
    std::vector<double> w{0.0, 1.0, 0.0};
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(rng.nextWeighted(w), 1u);
}

TEST(ForkJoin, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> runs(10);
    forkJoin(runs.size(), [&](size_t i) { ++runs[i]; });
    for (size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].load(), 1) << "task " << i;
}

TEST(ForkJoin, NoTasksDoesNothing)
{
    bool ran = false;
    forkJoin(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ForkJoin, CallerRunsTaskZero)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id only;
    forkJoin(1, [&](size_t) { only = std::this_thread::get_id(); });
    EXPECT_EQ(only, caller);

    std::vector<std::thread::id> where(4);
    forkJoin(where.size(),
             [&](size_t i) { where[i] = std::this_thread::get_id(); });
    EXPECT_EQ(where[0], caller);
    for (size_t i = 1; i < where.size(); ++i)
        EXPECT_NE(where[i], caller) << "task " << i;
}

TEST(ForkJoin, ExceptionWaitsForEveryTask)
{
    std::atomic<int> finished{0};
    EXPECT_THROW(forkJoin(6,
                          [&](size_t i) {
                              if (i == 2)
                                  throw std::runtime_error("task 2");
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(20));
                              ++finished;
                          }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 5);
}

TEST(ForkJoin, LowestFailingIndexWins)
{
    // Task 1 sleeps before it throws, so the higher tasks throw
    // first.
    try {
        forkJoin(6, [](size_t i) {
            if (i == 0)
                return;
            if (i == 1)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            throw std::runtime_error(std::to_string(i));
        });
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "1");
    }
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2 * KiB), "2.00 KiB");
    EXPECT_EQ(formatBytes(25 * MiB / 10), "2.50 MiB");
    EXPECT_EQ(formatBytes(3 * GiB), "3.00 GiB");
}

TEST(Units, GranuleConstantsConsistent)
{
    EXPECT_EQ(kGranuleBytes, 16u);
    EXPECT_EQ(uint64_t{1} << kGranuleShift, kGranuleBytes);
    EXPECT_EQ(kGranulesPerPage, 256u);
    EXPECT_EQ(kCapsPerLine, 4u);
}

} // namespace
} // namespace cherivoke
