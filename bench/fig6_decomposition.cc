/**
 * @file
 * Figure 6 reproduction: decomposition of CHERIvoke's runtime
 * overhead into (1) quarantine buffer only, (2) + shadow-map
 * maintenance, (3) + sweeping, at the default 25% heap overhead;
 * plus the §6.1.3 analytical-model column.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace cherivoke;

namespace {

int
benchMain()
{
    bench::printSystems("Figure 6: Decomposition of run-time "
                        "overheads (25% heap overhead)");

    const sim::ExperimentConfig cfg = bench::defaultConfig();
    announceEnvKnobs();
    stats::TextTable table({"benchmark", "quarantine only",
                            "+shadow", "+sweep (total)",
                            "model (sweep)"});
    std::vector<double> q_col, s_col, t_col;

    for (const auto &profile : workload::specProfiles()) {
        const sim::BenchResult r =
            sim::runBenchmark(profile, cfg);
        const double quarantine_only =
            1.0 + r.quarantinePenalty - r.batchingGain;
        const double with_shadow =
            quarantine_only + r.shadowOverhead;
        const double total = with_shadow + r.sweepOverhead;
        table.addRow({
            profile.name,
            stats::TextTable::num(quarantine_only, 3),
            stats::TextTable::num(with_shadow, 3),
            stats::TextTable::num(total, 3),
            stats::TextTable::num(r.predictedSweepOverhead, 3),
        });
        q_col.push_back(quarantine_only);
        s_col.push_back(with_shadow);
        t_col.push_back(total);
    }
    table.addRow({"geomean",
                  stats::TextTable::num(stats::geomean(q_col), 3),
                  stats::TextTable::num(stats::geomean(s_col), 3),
                  stats::TextTable::num(stats::geomean(t_col), 3),
                  "-"});
    std::printf("%s\n", table.render().c_str());
    std::printf("model (sweep) = FreeRate x PointerDensity / "
                "(ScanRate x QuarantineFraction), evaluated on "
                "measured inputs (0 when no sweeps ran).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
