/**
 * @file
 * Figure 5 reproduction: normalised execution time (5a) and memory
 * utilisation (5b) for CHERIvoke at the default 25% quarantine,
 * per benchmark with geomean, next to (i) the paper's own CHERIvoke
 * measurements and (ii) the published numbers for Oscar, pSweeper,
 * DangSan and Boehm-GC that the paper plots for comparison.
 */

#include <cstdio>
#include <vector>

#include "baseline/published.hh"
#include "bench_common.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace cherivoke;

namespace {

int
benchMain()
{
    bench::printSystems("Figure 5: CHERIvoke vs state of the art "
                        "(25% heap overhead)");

    const sim::ExperimentConfig cfg = bench::defaultConfig();
    announceEnvKnobs();

    stats::TextTable time_tab({"benchmark", "CHERIvoke(ours)",
                               "CHERIvoke(paper)", "Oscar",
                               "pSweeper", "DangSan", "Boehm-GC"});
    stats::TextTable mem_tab({"benchmark", "CHERIvoke(ours)",
                              "CHERIvoke(paper)", "DangSan",
                              "Oscar"});

    std::vector<double> ours_t, paper_t, oscar_t, psw_t, dang_t,
        gc_t, ours_m, paper_m;

    for (const auto &profile : workload::figure5Profiles()) {
        const sim::BenchResult r =
            sim::runBenchmark(profile, cfg);
        const auto &pub =
            baseline::publishedRowFor(profile.name);

        time_tab.addRow({profile.name,
                         stats::TextTable::num(r.normalizedTime),
                         stats::TextTable::num(pub.cherivokeTime),
                         stats::TextTable::num(pub.oscarTime),
                         stats::TextTable::num(pub.psweeperTime),
                         stats::TextTable::num(pub.dangsanTime),
                         stats::TextTable::num(pub.boehmGcTime)});
        mem_tab.addRow({profile.name,
                        stats::TextTable::num(r.normalizedMemory),
                        stats::TextTable::num(pub.cherivokeMem),
                        stats::TextTable::num(pub.dangsanMem),
                        stats::TextTable::num(pub.oscarMem)});

        ours_t.push_back(r.normalizedTime);
        paper_t.push_back(pub.cherivokeTime);
        oscar_t.push_back(pub.oscarTime);
        psw_t.push_back(pub.psweeperTime);
        dang_t.push_back(pub.dangsanTime);
        gc_t.push_back(pub.boehmGcTime);
        ours_m.push_back(r.normalizedMemory);
        paper_m.push_back(pub.cherivokeMem);
    }

    using stats::geomean;
    time_tab.addRow({"geomean", stats::TextTable::num(geomean(ours_t)),
                     stats::TextTable::num(geomean(paper_t)),
                     stats::TextTable::num(geomean(oscar_t)),
                     stats::TextTable::num(geomean(psw_t)),
                     stats::TextTable::num(geomean(dang_t)),
                     stats::TextTable::num(geomean(gc_t))});
    mem_tab.addRow({"geomean", stats::TextTable::num(geomean(ours_m)),
                    stats::TextTable::num(geomean(paper_m)), "-",
                    "-"});

    std::printf("--- (a) Normalised execution time ---\n%s\n",
                time_tab.render().c_str());
    std::printf("--- (b) Normalised memory utilisation "
                "(heap-relative) ---\n%s\n",
                mem_tab.render().c_str());
    std::printf("Comparison columns are the published numbers the "
                "paper plots (digitized);\nCHERIvoke(ours) is "
                "measured on this repository's simulator.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
