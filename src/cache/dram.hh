/**
 * @file
 * DRAM traffic and timing model. Traffic is counted in bytes; time is
 * derived from a peak bandwidth plus a per-access latency component,
 * which is all the fidelity the paper's sweep-bandwidth analysis
 * (figure 7) requires.
 */

#ifndef CHERIVOKE_CACHE_DRAM_HH
#define CHERIVOKE_CACHE_DRAM_HH

#include <cstdint>

namespace cherivoke {
namespace cache {

/** DRAM configuration. */
struct DramConfig
{
    /** Peak sequential read bandwidth in bytes/second.
     *  The paper's x86 system measures 19,405 MiB/s. */
    double readBandwidth = 19405.0 * 1024 * 1024;
    /** Peak write bandwidth in bytes/second. */
    double writeBandwidth = 19405.0 * 1024 * 1024 * 0.6;
    /** Idle row-miss latency in nanoseconds. */
    double latencyNs = 80.0;
};

/** Accumulates DRAM traffic for one experiment. */
class Dram
{
  public:
    explicit Dram(const DramConfig &config = DramConfig{})
        : config_(config)
    {}

    const DramConfig &config() const { return config_; }

    void read(uint64_t bytes) { read_bytes_ += bytes; ++reads_; }
    void write(uint64_t bytes) { write_bytes_ += bytes; }

    uint64_t readBytes() const { return read_bytes_; }
    uint64_t writeBytes() const { return write_bytes_; }
    uint64_t totalBytes() const { return read_bytes_ + write_bytes_; }
    uint64_t readAccesses() const { return reads_; }

    /** Seconds needed to stream the accumulated traffic. */
    double streamTimeSeconds() const;

    void reset();

  private:
    DramConfig config_;
    uint64_t read_bytes_ = 0;
    uint64_t write_bytes_ = 0;
    uint64_t reads_ = 0;
};

} // namespace cache
} // namespace cherivoke

#endif // CHERIVOKE_CACHE_DRAM_HH
