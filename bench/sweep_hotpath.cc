/**
 * @file
 * Sweep/paint hot-path throughput bench: how fast does the
 * *simulator itself* run, independent of the modelled cycle counts?
 *
 * Measures, on one deterministic pointered heap image:
 *  - paint throughput (granules painted per second), serial vs
 *    concurrent sharded painting (shards in {1, 2, 4, 8});
 *  - sweep throughput (pages swept per second), serial vs threaded
 *    (threads in {1, 2, 4, 8}) — steady-state scans after a warmup
 *    pass performs the revocations, isolating the page-directory and
 *    word-level tag-scan speed.
 *
 * Every configuration is checked against the serial reference: paint
 * must produce byte-identical shadow contents and identical
 * PaintStats, sweeps identical SweepStats; any divergence fails the
 * bench. Results are emitted both as a table and machine-readable
 * into BENCH_sweep.json so the perf trajectory is tracked across
 * changes.
 *
 * The two wall-clock gates (4-shard paint, 4-thread sweep, each
 * within 25% of serial) are timed apart from the table: every sample
 * repeats the work kGatePasses times, so one ~1.5 ms paint pass no
 * longer lets thread start-up decide the result, and serial and
 * threaded samples alternate so both see the same host load.
 *
 * Knobs: CHERIVOKE_BENCH_ALLOCS (image size) and
 * CHERIVOKE_BENCH_SECS (timing window per configuration).
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "report.hh"
#include "revoke/sweeper.hh"
#include "stats/table.hh"
#include "support/rng.hh"

using namespace cherivoke;
using bench::Json;

namespace {

/** Snapshot of the heap's whole shadow span. */
std::vector<uint8_t>
shadowBytes(mem::AddressSpace &space)
{
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const mem::Segment &seg : space.heapSegments()) {
        lo = std::min(lo, seg.base);
        hi = std::max(hi, seg.end());
    }
    if (lo >= hi)
        return {};
    const uint64_t s_lo = mem::shadowAddrOf(lo);
    const uint64_t s_hi = mem::shadowAddrOf(hi) + 1;
    std::vector<uint8_t> bytes(s_hi - s_lo);
    space.memory().peekBytes(s_lo, bytes.data(), bytes.size());
    return bytes;
}

bool
paintEqual(const alloc::PaintStats &a, const alloc::PaintStats &b)
{
    return a.bitOps == b.bitOps && a.byteOps == b.byteOps &&
           a.wordOps == b.wordOps && a.dwordOps == b.dwordOps;
}

/** Alternating serial/threaded samples per wall-clock gate. */
constexpr int kGateSamples = 15;
/** Times each gate sample repeats its paint or sweep. */
constexpr unsigned kGatePasses = 8;

/**
 * Threaded-over-serial wall time of one gate: the ratio of the
 * medians of kGateSamples samples each, alternating which side runs
 * first. Each callback returns the seconds its timed part took.
 */
double
gateRatio(const std::function<double()> &serial,
          const std::function<double()> &threaded)
{
    std::vector<double> s, t;
    for (int i = 0; i < kGateSamples; ++i) {
        if (i % 2 == 0) {
            s.push_back(serial());
            t.push_back(threaded());
        } else {
            t.push_back(threaded());
            s.push_back(serial());
        }
    }
    std::sort(s.begin(), s.end());
    std::sort(t.begin(), t.end());
    return t[t.size() / 2] / s[s.size() / 2];
}

struct PaintRow
{
    unsigned shards = 0; //!< 0 = serial (unsharded) reference
    double secPerIter = 0;
    double granulesPerSec = 0;
    bool equal = true;
};

struct SweepRow
{
    unsigned threads = 0;
    double secPerIter = 0;
    double pagesPerSec = 0;
    bool equal = true;
};

int
benchMain()
{
    const uint64_t allocs = knobInt("CHERIVOKE_BENCH_ALLOCS");
    const double window = knobReal("CHERIVOKE_BENCH_SECS");
    announceEnvKnobs();

    std::printf("==============================================\n");
    std::printf("Sweep/paint hot-path throughput "
                "(%llu allocations)\n",
                static_cast<unsigned long long>(allocs));
    std::printf("==============================================\n");

    // One deterministic pointered image; every configuration reuses
    // it, so all measurements and equality checks see equal work.
    mem::AddressSpace space;
    alloc::CherivokeAllocator heap(space, alloc::CherivokeConfig{});
    Rng rng(1234);
    std::vector<cap::Capability> live;
    live.reserve(allocs);
    for (uint64_t i = 0; i < allocs; ++i) {
        const cap::Capability c =
            heap.malloc(rng.nextLogUniform(32, 2048));
        space.memory().writeCap(
            mem::kGlobalsBase + (i % 200000) * kGranuleBytes, c);
        if (!live.empty() && rng.nextBool(0.4)) {
            const cap::Capability &other =
                live[rng.nextBounded(live.size())];
            space.memory().storeCap(other, other.base(), c);
        }
        live.push_back(c);
    }
    for (size_t i = 0; i < live.size(); i += 4)
        heap.free(live[i]);

    const std::vector<alloc::QuarantineRun> runs =
        heap.quarantine().runs();
    uint64_t painted_granules = 0;
    for (const alloc::QuarantineRun &run : runs)
        painted_granules += (run.size - alloc::kChunkHeader) /
                            kGranuleBytes;
    alloc::ShadowMap &shadow = heap.shadowMap();
    auto clearAll = [&] {
        for (const alloc::QuarantineRun &run : runs)
            shadow.clear(run.addr + alloc::kChunkHeader,
                         run.size - alloc::kChunkHeader);
    };

    // ---- Paint: serial reference, then concurrent shards --------
    bool all_equal = true;
    std::vector<PaintRow> paint_rows;
    alloc::PaintStats ref_stats;
    std::vector<uint8_t> ref_bytes;
    for (const unsigned shards : {0u, 1u, 2u, 4u, 8u}) {
        const auto sharded =
            shards ? heap.quarantine().shardedRuns(shards)
                   : std::vector<alloc::QuarantineShard>{};
        auto paintOnce = [&] {
            alloc::PaintStats st;
            if (shards == 0) {
                for (const alloc::QuarantineRun &run : runs)
                    st += shadow.paint(run.addr + alloc::kChunkHeader,
                                       run.size - alloc::kChunkHeader);
            } else {
                st = alloc::paintShardsConcurrent(shadow, sharded);
            }
            return st;
        };

        // Correctness first: identical shadow bytes + PaintStats.
        const alloc::PaintStats stats = paintOnce();
        PaintRow row;
        row.shards = shards;
        if (shards == 0) {
            ref_stats = stats;
            ref_bytes = shadowBytes(space);
        } else {
            row.equal = paintEqual(stats, ref_stats) &&
                        shadowBytes(space) == ref_bytes;
        }
        all_equal = all_equal && row.equal;
        clearAll();

        // Then throughput: repeat paint/clear, timing the paints.
        double painting = 0;
        uint64_t iters = 0;
        const bench::Stopwatch begin;
        while (begin.seconds() < window || iters < 3) {
            const bench::Stopwatch t0;
            paintOnce();
            painting += t0.seconds();
            ++iters;
            clearAll();
        }
        row.secPerIter = painting / static_cast<double>(iters);
        row.granulesPerSec =
            static_cast<double>(painted_granules) / row.secPerIter;
        paint_rows.push_back(row);
    }

    // Paint gate: every run painted kGatePasses times per sample, by
    // the serial loop or by four shards whose run lists repeat.
    std::vector<alloc::QuarantineShard> gate_shards =
        heap.quarantine().shardedRuns(4);
    for (alloc::QuarantineShard &shard : gate_shards) {
        const std::vector<alloc::QuarantineRun> once = shard.runs;
        for (unsigned p = 1; p < kGatePasses; ++p)
            shard.runs.insert(shard.runs.end(), once.begin(),
                              once.end());
    }
    const double paint_ratio = gateRatio(
        [&] {
            const bench::Stopwatch t0;
            for (unsigned p = 0; p < kGatePasses; ++p) {
                for (const alloc::QuarantineRun &run : runs)
                    shadow.paint(run.addr + alloc::kChunkHeader,
                                 run.size - alloc::kChunkHeader);
            }
            const double dt = t0.seconds();
            clearAll();
            return dt;
        },
        [&] {
            const bench::Stopwatch t0;
            alloc::paintShardsConcurrent(shadow, gate_shards);
            const double dt = t0.seconds();
            clearAll();
            return dt;
        });

    // ---- Sweep: serial vs threaded steady-state scans -----------
    heap.prepareSweep();
    std::vector<SweepRow> sweep_rows;
    revoke::SweepStats ref_sweep;
    {
        // Warmup: the first sweep performs the revocations (and
        // cleans pages that were already tag-free), the second
        // cleans the pages the revocations emptied. After that the
        // image is steady state — measured sweeps mutate nothing, so
        // every thread count scans identical tag and PTE state.
        revoke::Sweeper warm;
        warm.sweep(space, shadow);
        warm.sweep(space, shadow);
    }
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        revoke::SweepOptions opts;
        opts.threads = threads;
        revoke::Sweeper sweeper(opts);
        const revoke::SweepStats stats = sweeper.sweep(space, shadow);
        SweepRow row;
        row.threads = threads;
        if (threads == 1) {
            ref_sweep = stats;
        } else {
            row.equal = stats == ref_sweep;
        }
        all_equal = all_equal && row.equal;

        double sweeping = 0;
        uint64_t iters = 0, pages = 0;
        const bench::Stopwatch begin;
        while (begin.seconds() < window || iters < 3) {
            const bench::Stopwatch t0;
            const revoke::SweepStats s = sweeper.sweep(space, shadow);
            sweeping += t0.seconds();
            pages += s.pagesSwept;
            ++iters;
        }
        row.secPerIter = sweeping / static_cast<double>(iters);
        row.pagesPerSec = static_cast<double>(pages) / sweeping;
        sweep_rows.push_back(row);
    }
    // Sweep gate: kGatePasses steady-state sweeps per sample.
    revoke::SweepOptions gate_opts;
    revoke::Sweeper gate_serial(gate_opts);
    gate_opts.threads = 4;
    revoke::Sweeper gate_threaded(gate_opts);
    const auto timedSweeps = [&](revoke::Sweeper &sweeper) {
        const bench::Stopwatch t0;
        for (unsigned p = 0; p < kGatePasses; ++p)
            sweeper.sweep(space, shadow);
        return t0.seconds();
    };
    const double sweep_ratio =
        gateRatio([&] { return timedSweeps(gate_serial); },
                  [&] { return timedSweeps(gate_threaded); });
    heap.finishSweep();

    // ---- Report -------------------------------------------------
    stats::TextTable paint_table(
        {"paint", "ms/iter", "Mgranules/s", "equal"});
    for (const PaintRow &r : paint_rows) {
        paint_table.addRow(
            {r.shards ? std::to_string(r.shards) + " shards"
                      : "serial",
             stats::TextTable::num(r.secPerIter * 1e3, 3),
             stats::TextTable::num(r.granulesPerSec / 1e6, 2),
             r.equal ? "yes" : "NO"});
    }
    std::printf("%s\n", paint_table.render().c_str());

    stats::TextTable sweep_table(
        {"sweep", "ms/iter", "Mpages/s", "equal"});
    for (const SweepRow &r : sweep_rows) {
        sweep_table.addRow(
            {std::to_string(r.threads) + " thread" +
                 (r.threads > 1 ? "s" : ""),
             stats::TextTable::num(r.secPerIter * 1e3, 3),
             stats::TextTable::num(r.pagesPerSec / 1e6, 3),
             r.equal ? "yes" : "NO"});
    }
    std::printf("%s\n", sweep_table.render().c_str());

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("paint speedup (4 shards vs serial): %.2fx\n",
                1 / paint_ratio);
    std::printf("sweep speedup (4 threads vs 1):     %.2fx\n",
                1 / sweep_ratio);
    std::printf("hardware concurrency: %u%s\n", hw,
                hw < 2 ? " (threaded configs cannot beat serial "
                         "wall-clock on this host)"
                       : "");

    // ---- BENCH_sweep.json ---------------------------------------
    bench::Report report{"sweep_hotpath"};
    Json paint_det = Json::array(), paint_time = Json::array();
    for (const PaintRow &r : paint_rows) {
        paint_det.push(
            Json().set("shards", r.shards).set("equal", r.equal));
        paint_time.push(Json()
                            .set("shards", r.shards)
                            .set("sec_per_iter", r.secPerIter)
                            .set("granules_per_sec", r.granulesPerSec));
    }
    Json sweep_det = Json::array(), sweep_time = Json::array();
    for (const SweepRow &r : sweep_rows) {
        sweep_det.push(
            Json().set("threads", r.threads).set("equal", r.equal));
        sweep_time.push(Json()
                            .set("threads", r.threads)
                            .set("sec_per_iter", r.secPerIter)
                            .set("pages_per_sec", r.pagesPerSec));
    }
    report.deterministic.set("allocations", allocs)
        .set("painted_granules", painted_granules)
        .set("swept_pages_per_iter", ref_sweep.pagesSwept)
        .set("paint", std::move(paint_det))
        .set("sweep", std::move(sweep_det))
        .set("ok", all_equal);
    report.timing.set("paint", std::move(paint_time))
        .set("sweep", std::move(sweep_time))
        .set("paint_speedup_4shards", 1 / paint_ratio)
        .set("sweep_speedup_4threads", 1 / sweep_ratio);
    report.write("BENCH_sweep.json");

    // Gate parallel health wherever the host can show it: with
    // >= 4 hardware threads only a catastrophic threading regression
    // lands outside a 25% noise margin over serial — shared CI
    // runners stay deterministic, a serialisation bug still fails
    // the job. The speedups themselves are reported as data (and in
    // BENCH_sweep.json) rather than gated exactly.
    bool perf_ok = true;
    if (hw >= 4) {
        if (paint_ratio > 1.25) {
            std::printf("FAILED: 4-shard paint took %.2fx the serial "
                        "time (>25%% past serial) on a %u-thread "
                        "host\n",
                        paint_ratio, hw);
            perf_ok = false;
        }
        if (sweep_ratio > 1.25) {
            std::printf("FAILED: 4-thread sweep took %.2fx the serial "
                        "time (>25%% past serial) on a %u-thread "
                        "host\n",
                        sweep_ratio, hw);
            perf_ok = false;
        }
    }

    std::printf(all_equal
                    ? "OK: all shard/thread configurations match "
                      "the serial reference exactly\n"
                    : "FAILED: a configuration diverged from the "
                      "serial reference\n");
    return all_equal && perf_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
