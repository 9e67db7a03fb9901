/**
 * @file
 * Revocation-policy sweep, enumerated from the shared policy
 * registry (revoke::allPolicies()) so a newly registered policy can
 * never be silently skipped — ctest runs `--list-policies` to gate
 * coverage. Three passes:
 *
 *  1. Every policy × sweep thread count over the worst-case
 *     allocation-heavy workloads with traffic modelling on,
 *     checking that the thread count leaves the DRAM totals
 *     unchanged. A modelled sweep feeds its hierarchy on one
 *     thread, so this holds by construction; the column guards
 *     that construction.
 *
 *  2. The adaptive gate: over *all* SPEC profiles (table 2), the
 *     adaptive policy must match or beat every static policy's
 *     modelled overhead — with one global default configuration, no
 *     per-profile tuning. "Match" is two-clause: exactly <= the
 *     stop-the-world policy (the §6.1.3-optimal static schedule:
 *     overhead is monotone-decreasing in the quarantine fraction, so
 *     sweeping at the ceiling is the static optimum), and within the
 *     interleaving noise floor of the barrier policies. The
 *     incremental/concurrent numbers differ from stop-the-world only
 *     through *when* epoch boundaries land in the trace (density
 *     sampling instants, PTE-dirty timing), differences of order
 *     1e-5 that flip sign across profiles (concurrent loses mcf and
 *     soplex, wins xalancbmk) — noise no causal schedule could
 *     consistently capture, so the gate treats anything within
 *     1e-4 relative as a match.
 *
 *  3. Determinism: every adaptive run is replayed, and the rendered
 *     runs and replays must be byte-identical.
 *
 * Emits BENCH_adaptive.json.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "report.hh"
#include "stats/table.hh"
#include "workload/spec_profiles.hh"

using namespace cherivoke;
using bench::Json;

namespace {

/** `--list-policies`: one canonical name per line, after checking
 *  that every registered kind round-trips through parsePolicy. The
 *  ctest coverage gate matches the summary line. */
int
listPolicies()
{
    const auto &policies = revoke::allPolicies();
    for (const revoke::PolicyKind kind : policies) {
        const char *name = revoke::policyName(kind);
        revoke::PolicyKind parsed;
        if (!revoke::parsePolicy(name, parsed) || parsed != kind) {
            std::printf("FAILED: policy '%s' does not round-trip "
                        "through parsePolicy\n",
                        name);
            return 1;
        }
        std::printf("%s\n", name);
    }
    std::printf("policy registry coverage OK (%zu policies:",
                policies.size());
    for (const revoke::PolicyKind kind : policies)
        std::printf(" %s", revoke::policyName(kind));
    std::printf(")\n");
    return 0;
}

int
benchMain(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--list-policies") == 0)
        return listPolicies();

    const bench::Stopwatch elapsed;
    bench::printSystems("Policy sweep: registered RevocationEngine "
                        "policies x sweep threads, + adaptive gate");

    const std::vector<revoke::PolicyKind> &policies =
        revoke::allPolicies();
    const unsigned thread_counts[] = {1, 2, 4};
    const char *benchmarks[] = {"xalancbmk", "omnetpp", "povray"};

    const sim::ExperimentConfig base = bench::defaultConfig();
    announceEnvKnobs();

    // --- Pass 1: thread-count traffic parity, every policy --------
    stats::TextTable table({"benchmark", "policy", "threads",
                            "norm time", "epochs", "pauses",
                            "sweep DRAM KiB", "traffic=1T"});
    std::map<std::string, uint64_t> reference;
    bool all_match = true;

    for (const char *name : benchmarks) {
        const auto &profile = workload::profileFor(name);
        for (const revoke::PolicyKind policy : policies) {
            for (const unsigned threads : thread_counts) {
                sim::ExperimentConfig cfg = base;
                cfg.policy = policy;
                cfg.threads = threads;
                cfg.modelTraffic = true;
                const sim::BenchResult r =
                    sim::runBenchmark(profile, cfg);

                const uint64_t dram = r.sweepDramBytes;
                const std::string key =
                    std::string(name) + "/" +
                    revoke::policyName(policy);
                if (threads == 1)
                    reference[key] = dram;
                const bool match = reference[key] == dram;
                all_match = all_match && match;

                table.addRow(
                    {name, revoke::policyName(policy),
                     std::to_string(threads),
                     stats::TextTable::num(r.normalizedTime, 3),
                     std::to_string(r.run.revoker.epochs),
                     std::to_string(r.run.revoker.slices),
                     std::to_string(dram / KiB),
                     match ? "yes" : "NO"});
            }
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("pauses = bounded sweep slices (stop-the-world runs "
                "each epoch as one pause).\ntraffic=1T: threaded "
                "sweep reproduces the serial sweep's DRAM totals "
                "exactly.\n\n");

    // --- Pass 2: the adaptive gate over every SPEC profile --------
    // One global default configuration; adaptive must match or beat
    // the best static policy's modelled overhead on every profile.
    const std::vector<workload::BenchmarkProfile> &profiles =
        workload::specProfiles();
    stats::TextTable gate({"benchmark", "stw", "incremental",
                           "concurrent", "adaptive", "best static",
                           "adaptive<=best"});
    bool adaptive_ok = true;
    Json adaptive_runs = Json::array(), replays = Json::array(),
         gate_rows = Json::array();

    // Epoch-boundary noise floor (see the file comment): barrier
    // policies differ from stop-the-world by O(1e-5) either way.
    constexpr double kNoiseFloor = 1e-4;

    for (const workload::BenchmarkProfile &profile : profiles) {
        std::map<std::string, double> row;
        double best_static = 0;
        bool have_static = false;
        double adaptive_time = 0;
        double stw_time = 0;
        for (const revoke::PolicyKind policy : policies) {
            sim::ExperimentConfig cfg = base;
            cfg.policy = policy;
            const sim::BenchResult r =
                sim::runBenchmark(profile, cfg);
            row[revoke::policyName(policy)] = r.normalizedTime;
            if (policy == revoke::PolicyKind::Adaptive) {
                adaptive_time = r.normalizedTime;
                // Determinism: the identical run, replayed.
                Json run, replay;
                run.set("benchmark", profile.name);
                replay.set("benchmark", profile.name);
                adaptive_runs.push(std::move(bench::addBench(run, r)));
                replays.push(std::move(bench::addBench(
                    replay, sim::runBenchmark(profile, cfg))));
            } else {
                if (policy == revoke::PolicyKind::StopTheWorld)
                    stw_time = r.normalizedTime;
                if (!have_static ||
                    r.normalizedTime < best_static) {
                    best_static = r.normalizedTime;
                    have_static = true;
                }
            }
        }
        // Clause 1: exactly match-or-beat the §6.1.3-optimal static
        // schedule (no float slop — adaptive's default full-depth
        // epochs reproduce it bit-for-bit, and tier-scoped epochs
        // only ever run when the model predicts a win).
        // Clause 2: within the noise floor of the best static
        // policy, whichever one that is on this profile.
        const bool ok =
            adaptive_time <= stw_time &&
            adaptive_time <= best_static * (1.0 + kNoiseFloor);
        adaptive_ok = adaptive_ok && ok;
        row["best_static"] = best_static;
        Json gate_row;
        gate_row.set("benchmark", profile.name);
        for (const auto &entry : row)
            gate_row.set(entry.first, entry.second);
        gate_rows.push(std::move(gate_row));
        gate.addRow(
            {profile.name,
             stats::TextTable::num(row["stop-the-world"], 6),
             stats::TextTable::num(row["incremental"], 6),
             stats::TextTable::num(row["concurrent"], 6),
             stats::TextTable::num(adaptive_time, 6),
             stats::TextTable::num(best_static, 6),
             ok ? "yes" : "NO"});
    }
    std::printf("%s\n", gate.render().c_str());

    const bool deterministic = adaptive_runs == replays;
    std::printf("adaptive gate: %s\n",
                adaptive_ok ? "adaptive matches or beats every "
                              "static policy on all profiles"
                            : "FAILED: a static policy beat "
                              "adaptive");
    std::printf("determinism: two adaptive passes %s\n",
                deterministic ? "byte-identical"
                              : "DIVERGED");

    const bool ok = all_match && adaptive_ok && deterministic;
    Json names = Json::array();
    for (const revoke::PolicyKind policy : policies)
        names.push(revoke::policyName(policy));
    bench::Report report{"policy_sweep"};
    report.deterministic.set("policies", std::move(names))
        .set("rows", std::move(gate_rows))
        .set("adaptive_runs", std::move(adaptive_runs))
        .set("traffic_parity", all_match)
        .set("adaptive_ok", adaptive_ok)
        .set("rerun_identical", deterministic)
        .set("ok", ok);
    report.timing.set("elapsed_ms", elapsed.seconds() * 1e3);
    report.write("BENCH_adaptive.json");
    std::printf(ok ? "OK: traffic parity, adaptive gate and "
                     "determinism all hold\n"
                   : "FAILED: see the tables above\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv,
                      [&] { return benchMain(argc, argv); });
}
