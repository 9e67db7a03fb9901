/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis
 * and property tests.
 *
 * Uses xoshiro256** — fast, high quality, and fully reproducible across
 * platforms (unlike std::mt19937 distributions, whose mapping to ranges
 * is implementation-defined for some std:: distributions).
 */

#ifndef CHERIVOKE_SUPPORT_RNG_HH
#define CHERIVOKE_SUPPORT_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cherivoke {

/**
 * The log-uniform law between @p lo and @p hi with its two logarithms
 * taken once, for a caller that draws from one law many times.
 */
class LogUniform
{
  public:
    LogUniform(uint64_t lo, uint64_t hi);

    /** The value at uniform variate @p u in [0, 1): exp(log lo + (log
     *  hi - log lo) * u), truncated and clamped to [lo, hi]. */
    uint64_t at(double u) const;

  private:
    uint64_t lo_, hi_;
    double llo_, lhi_;
};

/** Deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound) — bound must be nonzero. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t nextRange(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of true. */
    bool nextBool(double p = 0.5);

    /**
     * Geometric-ish allocation-size sample: log-uniform between
     * @p lo and @p hi, which mimics the heavy-tailed size mixes of
     * allocation-intensive programs.
     */
    uint64_t nextLogUniform(uint64_t lo, uint64_t hi);

    /** Exponentially distributed double with the given mean. */
    double nextExponential(double mean);

    /** Pick an index according to a discrete weight vector. */
    size_t nextWeighted(const std::vector<double> &weights);

  private:
    uint64_t s_[4];
};

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_RNG_HH
