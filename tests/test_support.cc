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

/** Eight draws from Rng(2024), then the next raw value, which pins
 *  how many raw draws the eight consumed. */
struct PinnedDraws
{
    uint64_t bound;
    uint64_t draws[8];
    uint64_t nextRaw;
};

/**
 * Every synthesised trace is a function of these draws, so a faster
 * nextBounded must accept and reject exactly the raw values the
 * rejection threshold does. Bound 2^63 + 1 rejects about half of its
 * raw draws (sixteen raw draws for eight results here); 2^64 - 1
 * rejects only zero.
 */
constexpr PinnedDraws kPinnedBounded[] = {
    {0x1ull, {0, 0, 0, 0, 0, 0, 0, 0}, 0x8e897a69ce63c9d5ull},
    {0x3ull, {1, 0, 2, 2, 0, 1, 0, 1}, 0x8e897a69ce63c9d5ull},
    {0x1000ull,
     {0x72e, 0x65, 0x1, 0x46b, 0xaa7, 0x4f5, 0x7a8, 0xb6c},
     0x8e897a69ce63c9d5ull},
    {0x100000001ull,
     {0x58f05d4ull, 0xc2421c78ull, 0x37c1eb6ull, 0x82ff80c5ull,
      0x9b5816f6ull, 0xfe1f6470ull, 0x4bb36f3ull, 0xfa86411aull},
     0x8e897a69ce63c9d5ull},
    {0x8000000000000001ull,
     {0x4837f3ee8a7a1064ull, 0x460df3b261660aa6ull,
      0x0e897a69ce63c9d4ull, 0x386885089f3803dfull,
      0x6e85d22e08996b82ull, 0x61ca930597a23685ull,
      0x45fe2bd783c51d0eull, 0x2719221294a6e2e5ull},
     0xcf5faf71b2dda429ull},
    {0xffffffffffffffffull,
     {0x0e48715a13d7772eull, 0xc837f3ee8a7a1065ull,
      0x1272314b15ee5001ull, 0x28e323a6abe2a46bull,
      0xc60df3b261660aa7ull, 0x3eaff0863ccf54f5ull,
      0x64f330b569ae67a8ull, 0x41cb3a533c517b6cull},
     0x8e897a69ce63c9d5ull},
};

TEST(Rng, BoundedDrawsArePinned)
{
    for (const PinnedDraws &pin : kPinnedBounded) {
        SCOPED_TRACE(pin.bound);
        Rng rng(2024);
        for (uint64_t want : pin.draws)
            EXPECT_EQ(rng.nextBounded(pin.bound), want);
        EXPECT_EQ(rng.next(), pin.nextRaw);
    }
}

TEST(Rng, LogUniformDrawsArePinned)
{
    const uint64_t narrow[] = {21, 1223, 23, 38, 1167, 62, 142, 66};
    const uint64_t wide[] = {4,          2614976643, 7,     83,
                             2068611518, 888,        56011, 1243};
    Rng a(2024), b(2024);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.nextLogUniform(16, 4096), narrow[i]) << i;
        EXPECT_EQ(b.nextLogUniform(1, uint64_t{1} << 40), wide[i]) << i;
    }
    EXPECT_EQ(a.next(), 0x8e897a69ce63c9d5ull);
    EXPECT_EQ(b.next(), 0x8e897a69ce63c9d5ull);
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
