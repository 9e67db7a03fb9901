#include "sim/machine.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cherivoke {
namespace sim {

cache::HierarchyConfig
MachineProfile::hierarchyConfig() const
{
    cache::HierarchyConfig cfg;
    if (name == "cheri-fpga") {
        cfg.l1 = cache::CacheGeometry{"l1d", 16 * KiB, 4, kLineBytes};
        cfg.l2 =
            cache::CacheGeometry{"l2", 256 * KiB, 4, kLineBytes};
        cfg.llc.reset(); // no L3 on the FPGA system
        cfg.tagCache =
            cache::CacheGeometry{"tagcache", 32 * KiB, 4, kLineBytes};
    }
    cfg.dram.readBandwidth = dramReadBytesPerSec;
    cfg.dram.writeBandwidth = dramWriteBytesPerSec;
    return cfg;
}

const MachineProfile &
MachineProfile::x86()
{
    static const MachineProfile profile = [] {
        MachineProfile p;
        p.name = "x86-64";
        p.cpuHz = 2.9e9;
        p.kernelCostScale = 1.0;
        p.dramReadBytesPerSec = 19405.0 * 1024 * 1024;
        p.dramWriteBytesPerSec = 0.6 * p.dramReadBytesPerSec;
        p.sweepStartupSeconds = 30e-6;
        return p;
    }();
    return profile;
}

const MachineProfile &
MachineProfile::cheriFpga()
{
    static const MachineProfile profile = [] {
        MachineProfile p;
        p.name = "cheri-fpga";
        p.cpuHz = 100e6;
        // 6-stage in-order scalar: several times the per-step cost
        // of the wide OoO x86 core.
        p.kernelCostScale = 4.0;
        p.dramReadBytesPerSec = 800.0 * 1024 * 1024; // DDR2
        p.dramWriteBytesPerSec = 600.0 * 1024 * 1024;
        p.sweepStartupSeconds = 10e-6;
        return p;
    }();
    return profile;
}

uint64_t
approxSweepDramBytes(const revoke::SweepStats &stats)
{
    const uint64_t swept = stats.bytesSwept();
    return swept + swept / 128 +
           stats.capsRevoked / kCapsPerLine * kLineBytes;
}

double
sweepSeconds(const MachineProfile &machine,
             const revoke::SweepStats &stats, uint64_t dram_bytes,
             uint64_t epochs, double scale)
{
    CHERIVOKE_ASSERT(scale > 0);
    if (dram_bytes == 0)
        dram_bytes = approxSweepDramBytes(stats);
    const double compute =
        stats.kernelCycles * machine.kernelCostScale / machine.cpuHz;
    const double stream = static_cast<double>(dram_bytes) /
                          machine.dramReadBytesPerSec;
    return std::max(compute, stream) / scale +
           static_cast<double>(epochs) * machine.sweepStartupSeconds;
}

double
paintSeconds(const MachineProfile &machine,
             const alloc::PaintStats &paint, double scale)
{
    CHERIVOKE_ASSERT(scale > 0);
    // Read-modify-write partial bytes are ~3x a plain store.
    const double cycles = 10.0 * static_cast<double>(paint.bitOps) +
                          4.0 * static_cast<double>(paint.byteOps +
                                                    paint.wordOps +
                                                    paint.dwordOps);
    return cycles * machine.kernelCostScale / machine.cpuHz / scale;
}

double
achievedSweepBandwidth(const MachineProfile &machine,
                       const revoke::SweepStats &stats,
                       uint64_t epochs, double scale)
{
    const double seconds = sweepSeconds(machine, stats, 0, epochs,
                                        scale);
    if (seconds <= 0)
        return 0;
    const double real_bytes =
        static_cast<double>(stats.bytesSwept()) / scale;
    return real_bytes / seconds;
}

} // namespace sim
} // namespace cherivoke
