/**
 * @file
 * Ablations for the design choices DESIGN.md §5 calls out, beyond the
 * paper's own figures:
 *
 *  1. Parallel sweeping (§3.5 "embarrassingly parallel"): real host
 *     wall-clock speedup of the sweeper across thread counts on a
 *     large memory image.
 *  2. Work-elimination combinations: none / PTE-only / CLoadTags-only
 *     / both / both+prefetch, measured as lines actually read and
 *     DRAM traffic.
 *  3. Strict use-after-free mode (§3.7): sweeps per free vs the
 *     default batched revocation, on the same workload.
 *  4. Incremental revocation: steps and load-barrier strips per
 *     step size.
 *
 * stdout holds only modelled columns, so two runs print the same
 * bytes; the host wall-clock columns of tables (1) and (4) go to
 * stderr.
 */

#include <cstdio>

#include "bench_common.hh"
#include "revoke/revocation_engine.hh"
#include "stats/table.hh"
#include "support/rng.hh"

using namespace cherivoke;

namespace {

/** Build a big pointered heap image for sweeping. */
struct Image
{
    mem::AddressSpace space{64 * KiB, 64 * KiB};
    std::unique_ptr<alloc::CherivokeAllocator> heap;
    std::vector<cap::Capability> live;

    explicit Image(uint64_t bytes, bool paint = true)
    {
        alloc::CherivokeConfig cfg;
        cfg.minQuarantineBytes = 16;
        heap = std::make_unique<alloc::CherivokeAllocator>(space,
                                                           cfg);
        Rng rng(3);
        uint64_t allocated = 0;
        while (allocated < bytes) {
            const uint64_t size = rng.nextLogUniform(64, 4096);
            const cap::Capability c = heap->malloc(size);
            // Half of all objects carry pointers.
            if (rng.nextBool(0.5) && !live.empty()) {
                space.memory().storeCap(
                    c, c.base(),
                    live[rng.nextBounded(live.size())]);
            }
            live.push_back(c);
            allocated += size;
        }
        if (!paint)
            return;
        // Quarantine a third of them and paint.
        for (size_t i = 0; i < live.size(); i += 3)
            heap->free(live[i]);
        heap->prepareSweep();
    }
};

void
parallelAblation()
{
    std::printf("--- (1) Parallel sweep (host wall-clock on stderr) ---\n");
    stats::TextTable table({"threads", "caps revoked"});
    stats::TextTable wall({"threads", "wall ms", "speedup"});
    double base_ms = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        Image image(64 * MiB);
        revoke::SweepOptions opts;
        opts.threads = threads;
        opts.useCloadTags = false;
        revoke::Sweeper sweeper(opts);
        const bench::Stopwatch watch;
        const revoke::SweepStats stats =
            sweeper.sweep(image.space, image.heap->shadowMap());
        const double ms = watch.seconds() * 1e3;
        if (threads == 1)
            base_ms = ms;
        table.addRow({std::to_string(threads),
                      std::to_string(stats.capsRevoked)});
        wall.addRow({std::to_string(threads),
                     stats::TextTable::num(ms, 1),
                     stats::TextTable::num(base_ms / ms, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::fprintf(stderr, "(1) host wall-clock:\n%s\n",
                 wall.render().c_str());
}

void
eliminationAblation()
{
    std::printf("--- (2) Work elimination: lines read + DRAM ---\n");
    stats::TextTable table({"config", "lines read", "dram KiB",
                            "LLC hits", "revoked"});
    struct Combo
    {
        const char *name;
        bool pte, tags, prefetch;
    };
    const Combo combos[] = {
        {"none", false, false, false},
        {"PTE only", true, false, false},
        {"CLoadTags only", false, true, false},
        {"PTE + CLoadTags", true, true, false},
        {"PTE + CLoadTags + prefetch", true, true, true},
    };
    for (const Combo &combo : combos) {
        Image image(8 * MiB);
        cache::Hierarchy hier;
        revoke::SweepOptions opts;
        opts.usePteCapDirty = combo.pte;
        opts.useCloadTags = combo.tags;
        opts.cloadTagsPrefetch = combo.prefetch;
        revoke::Sweeper sweeper(opts);
        const revoke::SweepStats stats = sweeper.sweep(
            image.space, image.heap->shadowMap(), &hier);
        table.addRow({combo.name, std::to_string(stats.linesSwept),
                      std::to_string(hier.dram().totalBytes() / KiB),
                      std::to_string(hier.llc() ? hier.llc()->hits()
                                                : 0),
                      std::to_string(stats.capsRevoked)});
    }
    std::printf("%s\n", table.render().c_str());
}

void
strictModeAblation()
{
    std::printf("--- (3) Strict UAF mode vs batched (§3.7) ---\n");
    stats::TextTable table(
        {"mode", "frees", "sweeps", "bytes swept", "caps revoked"});
    for (const bool strict : {false, true}) {
        mem::AddressSpace space(64 * KiB, 64 * KiB);
        alloc::CherivokeConfig cfg;
        cfg.minQuarantineBytes = 4 * KiB;
        alloc::CherivokeAllocator heap(space, cfg);
        revoke::RevocationEngine revoker(heap, space);
        Rng rng(11);
        std::vector<cap::Capability> live;
        uint64_t frees = 0;
        for (int i = 0; i < 1500; ++i) {
            if (rng.nextBool(0.55) || live.empty()) {
                const cap::Capability c =
                    heap.malloc(rng.nextLogUniform(32, 1024));
                // Stash references so sweeps have revocation work.
                space.memory().writeCap(
                    mem::kGlobalsBase + rng.nextBounded(2048) * 16,
                    c);
                if (!live.empty()) {
                    const cap::Capability &other =
                        live[rng.nextBounded(live.size())];
                    space.memory().storeCap(other, other.base(), c);
                }
                live.push_back(c);
            } else {
                const size_t idx = rng.nextBounded(live.size());
                const cap::Capability victim = live[idx];
                live.erase(live.begin() +
                           static_cast<long>(idx));
                ++frees;
                if (strict) {
                    revoker.freeAndRevoke(victim);
                } else {
                    heap.free(victim);
                    revoker.maybeRevoke();
                }
            }
        }
        table.addRow(
            {strict ? "strict (sweep per free)" : "batched (25%)",
             std::to_string(frees),
             std::to_string(revoker.totals().epochs),
             std::to_string(revoker.totals().sweep.bytesSwept()),
             std::to_string(revoker.totals().sweep.capsRevoked)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Strict mode gives use-after-free (not just "
                "use-after-reallocation) detection at a\nper-free "
                "sweep cost — the paper's rationale for batching "
                "(§3.7).\n");
}

void
incrementalAblation()
{
    std::printf("--- (4) Incremental revocation: pause bounds "
                "(§3.5 + load barrier) ---\n");
    stats::TextTable table({"pages/step", "steps", "barrier strips"});
    stats::TextTable wall({"pages/step", "max pause ms", "total ms"});
    for (const size_t pages_per_step : {4u, 16u, 64u, 0u}) {
        Image image(16 * MiB, /*paint=*/false);
        revoke::RevocationEngine inc(
            *image.heap, image.space,
            revoke::EngineConfig{
                .policy = revoke::PolicyKind::Incremental,
                .sweeperPlan = {}});
        for (size_t i = 0; i < image.live.size(); i += 5)
            image.heap->free(image.live[i]);
        const size_t step_size =
            pages_per_step == 0 ? SIZE_MAX : pages_per_step;
        inc.beginEpoch();
        size_t steps = 0;
        double max_pause = 0, total = 0;
        for (;;) {
            const bench::Stopwatch watch;
            const size_t left = inc.step(step_size);
            const double ms = watch.seconds() * 1e3;
            max_pause = std::max(max_pause, ms);
            total += ms;
            ++steps;
            if (left == 0)
                break;
        }
        inc.finishEpoch();
        const std::string label = pages_per_step == 0
                                      ? "all (stop-the-world)"
                                      : std::to_string(pages_per_step);
        table.addRow(
            {label, std::to_string(steps),
             std::to_string(
                 image.space.memory().counters().loadBarrierStrips)});
        wall.addRow({label, stats::TextTable::num(max_pause, 3),
                     stats::TextTable::num(total, 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::fprintf(stderr, "(4) host wall-clock:\n%s\n",
                 wall.render().c_str());
    std::printf("Smaller steps bound the mutator pause at slightly "
                "higher total cost; the load\nbarrier keeps "
                "revocation sound while the program runs between "
                "steps.\n");
}

int
benchMain()
{
    bench::printSystems("Ablations: parallelism, work elimination, "
                        "strict mode, incremental epochs");
    announceEnvKnobs();
    parallelAblation();
    eliminationAblation();
    strictModeAblation();
    incrementalAblation();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
