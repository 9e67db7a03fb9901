/**
 * @file
 * Machine profiles for the two evaluation systems of table 1, and the
 * timing model that turns sweep statistics into seconds.
 *
 * | system | core | LLC | DRAM |
 * |--------|------|-----|------|
 * | x86-64 | i7-7820HK, 2.9 GHz, OoO, AVX2 | 8 MiB | DDR4-2400, 19,405 MiB/s measured read |
 * | CHERI  | Stratix IV FPGA, 100 MHz, in-order | 256 KiB | DDR2, ~800 MiB/s |
 *
 * Sweep time = max(compute, DRAM stream) + per-sweep startup; the
 * max() captures the compute-bound-vs-bandwidth-bound crossover that
 * figure 7 explores, and the startup term reproduces the §6.2
 * observation that small, infrequent sweeps (mcf, milc) do not reach
 * full throughput.
 */

#ifndef CHERIVOKE_SIM_MACHINE_HH
#define CHERIVOKE_SIM_MACHINE_HH

#include <string>

#include "alloc/shadow_map.hh"
#include "cache/hierarchy.hh"
#include "revoke/sweep_loop.hh"
#include "revoke/sweeper.hh"

namespace cherivoke {
namespace sim {

/** One evaluation machine. */
struct MachineProfile
{
    std::string name;
    double cpuHz = 2.9e9;
    /** In-order scalar cores burn more cycles per kernel step. */
    double kernelCostScale = 1.0;
    double dramReadBytesPerSec = 19405.0 * 1024 * 1024;
    double dramWriteBytesPerSec = 0.6 * 19405.0 * 1024 * 1024;
    /** Per-sweep fixed cost: setup, DRAM ramp, TLB warmup. */
    double sweepStartupSeconds = 30e-6;

    cache::HierarchyConfig hierarchyConfig() const;

    /** The x86-64 system of table 1. */
    static const MachineProfile &x86();
    /** The CHERI FPGA system of table 1. */
    static const MachineProfile &cheriFpga();
};

/** DRAM bytes a sweep moves without a cache model: swept lines,
 *  shadow-map traffic (1/128 of swept bytes) and the write-back of
 *  revoked lines. */
uint64_t approxSweepDramBytes(const revoke::SweepStats &stats);

/**
 * Seconds a sweep spends given its statistics.
 * @param stats aggregated sweep statistics (cycles + lines)
 * @param dram_bytes total DRAM traffic of the sweeps; pass 0 to use
 *        approxSweepDramBytes()
 * @param epochs number of sweeps the stats aggregate (for startup)
 * @param scale workload scale factor: simulated bytes/cycles
 *        represent 1/scale real ones (rate terms divide by scale,
 *        the per-epoch startup term does not)
 */
double sweepSeconds(const MachineProfile &machine,
                    const revoke::SweepStats &stats,
                    uint64_t dram_bytes, uint64_t epochs,
                    double scale);

/** Seconds spent painting/unpainting the shadow map. */
double paintSeconds(const MachineProfile &machine,
                    const alloc::PaintStats &paint, double scale);

/**
 * The achieved sweep bandwidth (figure 7): real bytes swept per
 * second of sweep time.
 */
double achievedSweepBandwidth(const MachineProfile &machine,
                              const revoke::SweepStats &stats,
                              uint64_t epochs, double scale);

} // namespace sim
} // namespace cherivoke

#endif // CHERIVOKE_SIM_MACHINE_HH
