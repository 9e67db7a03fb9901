/**
 * @file
 * Figure 7 reproduction: DRAM bandwidth achieved by the sweep loop
 * under the three kernel implementations (simple, unrolled+pipelined,
 * AVX2), per benchmark with geomean, against the system's
 * 19,405 MiB/s full read bandwidth.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace cherivoke;

namespace {

/** Benchmarks with significant deallocation (the figure's subset). */
const char *kBenchmarks[] = {"ffmpeg", "astar",   "dealII",
                             "gobmk",  "h264ref", "hmmer",
                             "mcf",    "milc",    "omnetpp",
                             "povray", "soplex",  "sphinx3",
                             "xalancbmk"};

int
benchMain()
{
    bench::printSystems("Figure 7: Sweep-loop DRAM bandwidth by "
                        "kernel (MiB/s)");

    const sim::ExperimentConfig base = bench::defaultConfig();
    announceEnvKnobs();

    stats::TextTable table({"benchmark", "simple", "unrolled",
                            "AVX2"});
    std::vector<double> simple_col, unrolled_col, vec_col;

    for (const char *name : kBenchmarks) {
        const auto &profile = workload::profileFor(name);
        double rates[3] = {0, 0, 0};
        const revoke::SweepKernel kernels[3] = {
            revoke::SweepKernel::Naive,
            revoke::SweepKernel::Unrolled,
            revoke::SweepKernel::Vector};
        for (int k = 0; k < 3; ++k) {
            sim::ExperimentConfig cfg = base;
            cfg.kernel = kernels[k];
            const sim::BenchResult r =
                sim::runBenchmark(profile, cfg);
            rates[k] = r.achievedScanRate / MiB;
        }
        if (rates[0] <= 0)
            continue; // no sweeps ran
        table.addRow({name, stats::TextTable::num(rates[0], 0),
                      stats::TextTable::num(rates[1], 0),
                      stats::TextTable::num(rates[2], 0)});
        simple_col.push_back(rates[0]);
        unrolled_col.push_back(rates[1]);
        vec_col.push_back(rates[2]);
    }

    using stats::geomean;
    table.addRow({"geomean",
                  stats::TextTable::num(geomean(simple_col), 0),
                  stats::TextTable::num(geomean(unrolled_col), 0),
                  stats::TextTable::num(geomean(vec_col), 0)});
    std::printf("%s\n", table.render().c_str());
    const double peak = 19405.0;
    std::printf("Full read bandwidth: %.0f MiB/s. Fractions: "
                "simple %.0f%%, unrolled %.0f%%, AVX2 %.0f%% "
                "(paper: 28%%, 32%%, 39%%).\n",
                peak, 100 * geomean(simple_col) / peak,
                100 * geomean(unrolled_col) / peak,
                100 * geomean(vec_col) / peak);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
