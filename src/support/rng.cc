#include "support/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/logging.hh"

namespace cherivoke {

namespace {

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    // xoshiro256** must not start from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint64_t
Rng::next()
{
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    CHERIVOKE_ASSERT(bound != 0);
    // Rejection sampling to avoid modulo bias: draws below the
    // threshold are redrawn. The threshold is below bound, so a draw
    // of at least bound is accepted without dividing for it.
    uint64_t r = next();
    if (r < bound) {
        const uint64_t threshold = (0 - bound) % bound;
        while (r < threshold)
            r = next();
    }
    return r % bound;
}

uint64_t
Rng::nextRange(uint64_t lo, uint64_t hi)
{
    CHERIVOKE_ASSERT(lo <= hi);
    return lo + nextBounded(hi - lo + 1);
}

double
Rng::nextDouble()
{
    // 53 high-quality mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

LogUniform::LogUniform(uint64_t lo, uint64_t hi)
    : lo_(lo), hi_(hi), llo_(std::log(static_cast<double>(lo))),
      lhi_(std::log(static_cast<double>(hi)))
{
    CHERIVOKE_ASSERT(lo > 0 && lo <= hi);
}

uint64_t
LogUniform::at(double u) const
{
    const double v = std::exp(llo_ + (lhi_ - llo_) * u);
    return std::clamp(static_cast<uint64_t>(v), lo_, hi_);
}

uint64_t
Rng::nextLogUniform(uint64_t lo, uint64_t hi)
{
    return LogUniform(lo, hi).at(nextDouble());
}

double
Rng::nextExponential(double mean)
{
    CHERIVOKE_ASSERT(mean > 0);
    double u = nextDouble();
    if (u <= 0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    CHERIVOKE_ASSERT(!weights.empty());
    double total = 0;
    for (double w : weights)
        total += w;
    CHERIVOKE_ASSERT(total > 0);
    double r = nextDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace cherivoke
