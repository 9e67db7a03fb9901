#include "stats/summary.hh"

#include <cmath>
#include <cstdio>

#include "support/logging.hh"

namespace cherivoke {
namespace stats {

void
Summary::add(double sample)
{
    if (count_ == 0) {
        min_ = max_ = sample;
    } else {
        if (sample < min_)
            min_ = sample;
        if (sample > max_)
            max_ = sample;
    }
    ++count_;
    total_ += sample;
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
}

double
Summary::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
Summary::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
Summary::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
Summary::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
MutatorPathSummary::meanBinScanLength() const
{
    return binSearches == 0 ? 0.0
                            : static_cast<double>(binScanSteps) /
                                  static_cast<double>(binSearches);
}

double
MutatorPathSummary::rawSpanRate() const
{
    const uint64_t total = rawHeaderAccesses + slowHeaderAccesses;
    return total == 0 ? 0.0
                      : static_cast<double>(rawHeaderAccesses) /
                            static_cast<double>(total);
}

double
MutatorPathSummary::mergeRatio() const
{
    return quarantineFrees == 0
               ? 0.0
               : static_cast<double>(quarantineMerges) /
                     static_cast<double>(quarantineFrees);
}

std::string
MutatorPathSummary::render() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "mutator path: %llu mallocs, %llu quarantine frees\n"
        "  bin scan length   : %.3f nodes/search "
        "(%llu steps / %llu searches)\n"
        "  raw-span accesses : %.2f%% (%llu raw, %llu slow)\n"
        "  quarantine merges : %.3f per free (%llu merges)\n",
        static_cast<unsigned long long>(mallocCalls),
        static_cast<unsigned long long>(quarantineFrees),
        meanBinScanLength(),
        static_cast<unsigned long long>(binScanSteps),
        static_cast<unsigned long long>(binSearches),
        rawSpanRate() * 100.0,
        static_cast<unsigned long long>(rawHeaderAccesses),
        static_cast<unsigned long long>(slowHeaderAccesses),
        mergeRatio(),
        static_cast<unsigned long long>(quarantineMerges));
    return buf;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0;
    for (double v : values) {
        CHERIVOKE_ASSERT(v > 0, "(geomean requires positive values)");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace stats
} // namespace cherivoke
