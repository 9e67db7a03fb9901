#include "cache/dram.hh"

namespace cherivoke {
namespace cache {

double
Dram::streamTimeSeconds() const
{
    const double read_time =
        static_cast<double>(read_bytes_) / config_.readBandwidth;
    const double write_time =
        static_cast<double>(write_bytes_) / config_.writeBandwidth;
    return read_time + write_time;
}

void
Dram::reset()
{
    read_bytes_ = 0;
    write_bytes_ = 0;
    reads_ = 0;
}

} // namespace cache
} // namespace cherivoke
