/**
 * @file
 * Head-to-head comparison of the three revocation backends — sweep
 * (CHERIvoke quarantine + sweeping), color (PICASSO-style colored
 * capabilities), objid (CHERI-D-style inline object IDs) — on the
 * same workload matrix, machine model, and engine policy surface.
 *
 * Four phases:
 *  1. overhead/traffic curves: every SPEC profile under every
 *     backend, normalised runtime and backend-mechanics counters;
 *  2. color exhaustion: a deliberately tiny color pool, gating that
 *     pool-empty stalls and forced cohort sharing actually occur;
 *  3. object-ID compaction: a low compaction threshold, gating that
 *     table-compaction epochs actually run;
 *  4. cross-backend parity: backend-independent mutator statistics
 *     must agree across the three backends on the same seeded trace.
 *
 * The whole deterministic section runs twice in-process and its two
 * rendered report blocks must be byte-identical; wall-clock readings
 * live outside it. Emits BENCH_backend.json, uploaded by the Release
 * CI leg and diffed by the bench-regression step. Exit code reflects
 * the gates.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "report.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace cherivoke;
using bench::Json;

namespace {

constexpr revoke::BackendKind kBackends[] = {
    revoke::BackendKind::Sweep,
    revoke::BackendKind::Color,
    revoke::BackendKind::ObjectId,
};
constexpr size_t kNumBackends =
    sizeof(kBackends) / sizeof(kBackends[0]);

/** One profile × backend run. wallSec is the only field outside the
 *  deterministic section. */
struct Cell
{
    sim::BenchResult r;
    double wallSec = 0;
};

struct Row
{
    std::string benchmark;
    Cell cells[kNumBackends];
};

/** Everything one deterministic pass produces. */
struct Pass
{
    std::vector<Row> rows;
    Cell exhaustion; //!< color backend, 2-color pool
    Cell compaction; //!< objid backend, low compaction threshold
    bool parityOk = true;
    std::string parityDetail;
};

Cell
runCell(const workload::BenchmarkProfile &profile,
        const sim::ExperimentConfig &cfg)
{
    Cell cell;
    const bench::Stopwatch watch;
    cell.r = sim::runBenchmark(profile, cfg);
    cell.wallSec = watch.seconds();
    return cell;
}

/** One cell's deterministic statistics: the run and its backend's
 *  mechanics counters. */
Json
cellJson(const Cell &cell, revoke::BackendKind kind)
{
    const revoke::BackendStats &b = cell.r.backendStats;
    Json out;
    out.set("backend", revoke::backendName(kind));
    return bench::addBench(out, cell.r)
        .set("color_assigns", b.colorAssigns)
        .set("colors_retired", b.colorsRetired)
        .set("colors_recycled", b.colorsRecycled)
        .set("recycle_scans", b.recycleScans)
        .set("exhaustion_stalls", b.colorExhaustionStalls)
        .set("forced_shares", b.colorForcedShares)
        .set("ids_assigned", b.idsAssigned)
        .set("ids_retired", b.idsRetired)
        .set("id_checks", b.idChecks)
        .set("id_compactions", b.idCompactions)
        .set("entries_compacted", b.idTableEntriesCompacted)
        .set("metadata_bytes", b.metadataBytes);
}

/** Within @p tolerance relatively (handles the release-timing noise
 *  dlmalloc chunk splitting puts on byte totals). */
bool
bytesClose(uint64_t a, uint64_t b, double tolerance)
{
    const double hi = static_cast<double>(a > b ? a : b);
    const double lo = static_cast<double>(a > b ? b : a);
    return hi == 0 || (hi - lo) / hi <= tolerance;
}

/**
 * Cross-backend parity for one row: the mutator-side statistics a
 * backend cannot legitimately change must agree across all three.
 * Counters are exact; byte totals get 1% slack because release
 * timing changes dlmalloc chunk splitting (and thus usable sizes).
 */
bool
checkParity(const Row &row, std::string &detail)
{
    const workload::DriverResult &s = row.cells[0].r.run;
    bool ok = true;
    char buf[256];
    for (size_t i = 1; i < kNumBackends; ++i) {
        const workload::DriverResult &m = row.cells[i].r.run;
        const bool exact = m.allocCalls == s.allocCalls &&
                           m.freeCalls == s.freeCalls &&
                           m.ptrStores == s.ptrStores &&
                           m.peakLiveAllocs == s.peakLiveAllocs &&
                           m.virtualSeconds == s.virtualSeconds;
        const bool close =
            bytesClose(m.freedBytes, s.freedBytes, 0.01) &&
            bytesClose(m.peakLiveBytes, s.peakLiveBytes, 0.01);
        if (!exact || !close) {
            ok = false;
            std::snprintf(buf, sizeof(buf),
                          "  parity broken: %s %s vs sweep "
                          "(exact=%d close=%d)\n",
                          row.benchmark.c_str(),
                          revoke::backendName(kBackends[i]),
                          exact ? 1 : 0, close ? 1 : 0);
            detail += buf;
        }
    }
    return ok;
}

Pass
runPass(const sim::ExperimentConfig &base)
{
    Pass pass;
    for (const auto &profile : workload::specProfiles()) {
        Row row;
        row.benchmark = profile.name;
        for (size_t i = 0; i < kNumBackends; ++i) {
            sim::ExperimentConfig cfg = base;
            cfg.backend = kBackends[i];
            row.cells[i] = runCell(profile, cfg);
        }
        pass.parityOk &= checkParity(row, pass.parityDetail);
        pass.rows.push_back(std::move(row));
    }

    // Color exhaustion: a 2-color pool with short cohorts must run
    // out mid-run and fall back to forced cohort sharing.
    const workload::BenchmarkProfile stress =
        workload::profileFor("xalancbmk");
    {
        sim::ExperimentConfig cfg = base;
        cfg.backend = revoke::BackendKind::Color;
        cfg.backendConfig.colors = 2;
        cfg.backendConfig.allocsPerColor = 64;
        pass.exhaustion = runCell(stress, cfg);
    }

    // Object-ID compaction: a low retired-ID threshold must trigger
    // table-compaction epochs.
    {
        sim::ExperimentConfig cfg = base;
        cfg.backend = revoke::BackendKind::ObjectId;
        cfg.backendConfig.idCompactRetired = 512;
        pass.compaction = runCell(stress, cfg);
    }
    return pass;
}

/** Everything a pass reproduces; two passes must render alike. */
Json
passJson(const Pass &pass)
{
    Json rows = Json::array();
    for (const Row &row : pass.rows) {
        Json cells = Json::array();
        for (size_t k = 0; k < kNumBackends; ++k)
            cells.push(cellJson(row.cells[k], kBackends[k]));
        rows.push(Json()
                      .set("benchmark", row.benchmark)
                      .set("backends", std::move(cells)));
    }
    return Json()
        .set("rows", std::move(rows))
        .set("exhaustion",
             cellJson(pass.exhaustion, revoke::BackendKind::Color))
        .set("compaction",
             cellJson(pass.compaction, revoke::BackendKind::ObjectId))
        .set("parity", pass.parityOk);
}

int
benchMain()
{
    bench::printSystems("Backend comparison: sweep vs colored "
                        "capabilities vs inline object IDs");

    const sim::ExperimentConfig base = bench::defaultConfig();
    announceEnvKnobs();

    // Two full passes; every deterministic statistic must match
    // byte for byte (the acceptance gate for the whole subsystem).
    const Pass pass = runPass(base);
    bench::Report report{"backend_compare", passJson(pass)};
    const bool deterministic =
        report.deterministic == passJson(runPass(base));

    stats::TextTable time_table(
        {"benchmark", "sweep", "color", "objid"});
    std::vector<double> cols[kNumBackends];
    for (const Row &row : pass.rows) {
        std::vector<std::string> cells = {row.benchmark};
        for (size_t k = 0; k < kNumBackends; ++k) {
            cells.push_back(stats::TextTable::num(
                row.cells[k].r.normalizedTime, 3));
            cols[k].push_back(row.cells[k].r.normalizedTime);
        }
        time_table.addRow(cells);
    }
    time_table.addRow(
        {"geomean", stats::TextTable::num(stats::geomean(cols[0]), 3),
         stats::TextTable::num(stats::geomean(cols[1]), 3),
         stats::TextTable::num(stats::geomean(cols[2]), 3)});
    std::printf("Normalised runtime (1.0 = no revocation):\n%s\n",
                time_table.render().c_str());

    stats::TextTable mech_table({"benchmark", "col recycled",
                                 "recycle scans", "forced shares",
                                 "ids retired", "id checks",
                                 "compactions"});
    for (const Row &row : pass.rows) {
        const revoke::BackendStats &c = row.cells[1].r.backendStats;
        const revoke::BackendStats &o = row.cells[2].r.backendStats;
        mech_table.addRow({row.benchmark,
                           std::to_string(c.colorsRecycled),
                           std::to_string(c.recycleScans),
                           std::to_string(c.colorForcedShares),
                           std::to_string(o.idsRetired),
                           std::to_string(o.idChecks),
                           std::to_string(o.idCompactions)});
    }
    std::printf("Backend mechanics (color / objid cells):\n%s\n",
                mech_table.render().c_str());

    // ---- gates --------------------------------------------------
    const revoke::BackendStats &ex =
        pass.exhaustion.r.backendStats;
    const bool exhaustion_ok =
        ex.colorExhaustionStalls > 0 && ex.colorForcedShares > 0;
    std::printf("color exhaustion (2-color pool): stalls %llu, "
                "forced shares %llu, recycled %llu  [%s]\n",
                static_cast<unsigned long long>(
                    ex.colorExhaustionStalls),
                static_cast<unsigned long long>(ex.colorForcedShares),
                static_cast<unsigned long long>(ex.colorsRecycled),
                exhaustion_ok ? "ok" : "FAILED");

    const revoke::BackendStats &cp =
        pass.compaction.r.backendStats;
    const bool compaction_ok =
        cp.idCompactions > 0 && cp.idTableEntriesCompacted > 0;
    std::printf("objid compaction (threshold 512): compactions "
                "%llu, entries compacted %llu  [%s]\n",
                static_cast<unsigned long long>(cp.idCompactions),
                static_cast<unsigned long long>(
                    cp.idTableEntriesCompacted),
                compaction_ok ? "ok" : "FAILED");

    std::printf("cross-backend parity: %s\n",
                pass.parityOk ? "ok" : "FAILED");
    if (!pass.parityOk)
        std::printf("%s", pass.parityDetail.c_str());
    std::printf("deterministic across two passes: %s\n",
                deterministic ? "ok" : "FAILED");

    const bool ok = exhaustion_ok && compaction_ok &&
                    pass.parityOk && deterministic;
    Json wall = Json::array();
    for (const Row &row : pass.rows) {
        Json cells = Json::array();
        for (const Cell &cell : row.cells)
            cells.push(cell.wallSec);
        wall.push(Json()
                      .set("benchmark", row.benchmark)
                      .set("wall_sec", std::move(cells)));
    }
    report.deterministic.set("rerun_identical", deterministic)
        .set("ok", ok);
    report.timing.set("rows", std::move(wall))
        .set("exhaustion_wall_sec", pass.exhaustion.wallSec)
        .set("compaction_wall_sec", pass.compaction.wallSec);
    report.write("BENCH_backend.json");
    std::printf(ok ? "OK: all backend gates passed\n"
                   : "FAILED: see gates above\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
