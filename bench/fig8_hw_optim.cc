/**
 * @file
 * Figure 8 reproduction.
 *
 * (a) Proportion of memory that must be swept per benchmark under
 *     PTE CapDirty (page elimination) and CLoadTags (line
 *     elimination) — measured by sweeping real memory images from
 *     the workload runs.
 *
 * (b) Normalised sweep execution time vs pointer density on the
 *     CHERI FPGA profile, for PTE-dirty, CLoadTags, and the ideal
 *     x=y line — measured on synthetic images of controlled density.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"
#include "support/rng.hh"

using namespace cherivoke;

namespace {

/** Build a memory image with a controlled fraction of cap-bearing
 *  pages/lines and report modelled sweep time per option. */
double
sweepTimeAtDensity(double density, bool use_pte, bool use_tags,
                   bool line_granular)
{
    mem::AddressSpace space(64 * KiB, 64 * KiB);
    auto &memory = space.memory();
    const uint64_t heap = space.mmapHeap(8 * MiB);
    const cap::Capability obj = space.rootCap()
                                    .setAddress(heap)
                                    .setBounds(8 * MiB)
                                    .andPerms(cap::kPermsData);
    Rng rng(7);
    const uint64_t pages = (8 * MiB) / kPageBytes;
    for (uint64_t p = 0; p < pages; ++p) {
        const uint64_t page_addr = heap + p * kPageBytes;
        if (line_granular) {
            // Spread: density applies per line within every page.
            bool page_touched = false;
            for (uint64_t line = 0; line < kPageBytes / kLineBytes;
                 ++line) {
                if (rng.nextDouble() < density) {
                    memory.writeCap(page_addr + line * kLineBytes,
                                    obj);
                    page_touched = true;
                }
            }
            if (!page_touched) {
                // Ensure the page data exists so the sweep walks it.
                memory.writeU64(page_addr, 1);
            }
        } else {
            // Density applies per page; pointered pages are full.
            if (rng.nextDouble() < density) {
                for (uint64_t line = 0;
                     line < kPageBytes / kLineBytes; ++line) {
                    memory.writeCap(page_addr + line * kLineBytes,
                                    obj);
                }
            } else {
                memory.writeU64(page_addr, 1);
            }
        }
    }

    alloc::ShadowMap shadow(memory); // unpainted: no revocations
    revoke::SweepOptions opts;
    opts.usePteCapDirty = use_pte;
    opts.useCloadTags = use_tags;
    opts.cleanFalsePositivePages = false;
    revoke::Sweeper sweeper(opts);
    const revoke::SweepStats stats =
        sweeper.sweep(space, shadow);
    return sim::sweepSeconds(sim::MachineProfile::cheriFpga(), stats,
                             0, 1, 1.0);
}

int
benchMain()
{
    bench::printSystems("Figure 8: Hardware work-elimination "
                        "(PTE CapDirty + CLoadTags)");

    const sim::ExperimentConfig base = bench::defaultConfig();
    announceEnvKnobs();

    // --- (a) proportion of memory swept per benchmark ---
    std::printf("--- (a) Proportion of memory swept ---\n");
    stats::TextTable prop({"benchmark", "PTE CapDirty", "CLoadTags"});
    for (const auto &profile : workload::specProfiles()) {
        sim::ExperimentConfig cfg = base;
        // PTE-only run measures page-level elimination.
        cfg.usePteCapDirty = true;
        cfg.useCloadTags = false;
        const sim::BenchResult pte_run =
            sim::runBenchmark(profile, cfg);
        const auto &s1 = pte_run.run.revoker.sweep;
        const double pte_prop =
            s1.pagesConsidered
                ? static_cast<double>(s1.pagesSwept) /
                      static_cast<double>(s1.pagesConsidered)
                : 0.0;
        // PTE+CLoadTags run measures line-level elimination.
        cfg.useCloadTags = true;
        const sim::BenchResult tag_run =
            sim::runBenchmark(profile, cfg);
        const auto &s2 = tag_run.run.revoker.sweep;
        const uint64_t lines_considered =
            s2.linesSwept + s2.linesSkippedTags +
            s2.pagesSkippedPte * (kPageBytes / kLineBytes);
        const double tag_prop =
            lines_considered
                ? static_cast<double>(s2.linesSwept) /
                      static_cast<double>(lines_considered)
                : 0.0;
        if (s1.pagesConsidered == 0)
            continue;
        prop.addRow({profile.name,
                     stats::TextTable::percent(pte_prop, 1),
                     stats::TextTable::percent(tag_prop, 1)});
    }
    std::printf("%s\n", prop.render().c_str());

    // --- (b) normalised sweep time vs density (CHERI FPGA) ---
    std::printf("--- (b) Normalised sweep time vs density "
                "(CHERI FPGA profile) ---\n");
    stats::TextTable curve({"density", "PTE dirty", "CLoadTags",
                            "ideal"});
    const double full_page =
        sweepTimeAtDensity(1.0, true, false, false);
    const double full_line =
        sweepTimeAtDensity(1.0, false, true, true);
    for (double d : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        const double t_pte =
            sweepTimeAtDensity(d, true, false, false) / full_page;
        const double t_tags =
            sweepTimeAtDensity(d, false, true, true) / full_line;
        curve.addRow({stats::TextTable::num(d, 1),
                      stats::TextTable::num(t_pte, 3),
                      stats::TextTable::num(t_tags, 3),
                      stats::TextTable::num(d, 3)});
    }
    std::printf("%s\n", curve.render().c_str());
    std::printf("PTE dirty tracks the ideal x=y closely; CLoadTags "
                "pays a per-line query cost\n(~10-cycle round trip, "
                "§6.3) so its curve sits above the ideal at low "
                "density.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
