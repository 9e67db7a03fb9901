/**
 * @file
 * Figure 10 reproduction: off-core (L3 + DRAM) traffic overhead of
 * CHERIvoke's sweeping, as a percentage of each application's
 * baseline off-core traffic.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"

using namespace cherivoke;

namespace {

int
benchMain()
{
    bench::printSystems(
        "Figure 10: Off-core-traffic overhead (%)");

    const sim::ExperimentConfig base = bench::defaultConfig();
    announceEnvKnobs();

    stats::TextTable table({"benchmark", "traffic overhead"});
    for (const auto &profile : workload::specProfiles()) {
        if (profile.name == "ffmpeg") {
            // Keep the figure's SPEC ordering but include ffmpeg
            // first, as the paper's x-axis does.
        }
        sim::ExperimentConfig cfg = base;
        cfg.modelTraffic = true;
        const sim::BenchResult r =
            sim::runBenchmark(profile, cfg);
        table.addRow({profile.name,
                      stats::TextTable::num(r.trafficOverheadPct, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Sweep DRAM traffic per virtual second divided by "
                "the application's baseline\noff-core bandwidth. "
                "Paper: max ~16%% (xalancbmk), minimal for "
                "non-allocating workloads.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
