/**
 * @file
 * Table 2 reproduction: deallocation metadata per benchmark — pages
 * with pointers, free rate (MiB/s), and frees (thousands/s) — as
 * *measured* from our synthetic workloads, next to the paper's
 * values (which are also the calibration targets).
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

int
benchMain()
{
    bench::printSystems(
        "Table 2: Deallocation metadata from applications");

    const sim::ExperimentConfig cfg = bench::defaultConfig();
    announceEnvKnobs();
    stats::TextTable table({"benchmark", "pages w/ ptrs (paper)",
                            "(measured)", "free MiB/s (paper)",
                            "(measured)", "kfrees/s (paper)",
                            "(measured)"});

    for (const auto &profile : workload::specProfiles()) {
        workload::SynthConfig synth_cfg;
        synth_cfg.scale = cfg.scale;
        synth_cfg.durationSec = cfg.durationSec;
        synth_cfg.seed = cfg.seed;
        const workload::Trace trace =
            workload::synthesize(profile, synth_cfg);

        mem::AddressSpace space;
        alloc::CherivokeConfig acfg;
        acfg.minQuarantineBytes = 64 * KiB;
        alloc::CherivokeAllocator allocator(space, acfg);
        revoke::RevocationEngine revoker(allocator, space);
        workload::TraceDriver driver(space, allocator, &revoker);
        const workload::DriverResult run = driver.run(trace);

        // Measured rates are at scale: report them unscaled.
        table.addRow({
            profile.name,
            stats::TextTable::percent(profile.pagesWithPointers, 0),
            stats::TextTable::percent(run.pageDensity, 0),
            stats::TextTable::num(profile.freeRateMiBps, 0),
            stats::TextTable::num(
                run.measuredFreeRateMiBps / cfg.scale, 0),
            stats::TextTable::num(profile.freesPerSec / 1000.0, 0),
            stats::TextTable::num(
                run.measuredFreesPerSec / cfg.scale / 1000.0, 0),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("(measured = synthetic workload replayed in the "
                "simulator at scale %.4f,\n rates rescaled to "
                "reference scale; paper columns are table 2)\n",
                cfg.scale);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
