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
 *  3. Determinism: the whole adaptive pass runs twice and the two
 *     %.17g fingerprints must be byte-identical.
 *
 * Emits BENCH_adaptive.json (deterministic fields + elapsed_ms).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"
#include "workload/spec_profiles.hh"

using namespace cherivoke;

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

/** One profile × policy result of the overhead pass. */
struct OverheadCell
{
    sim::BenchResult r;
};

/** Deterministic %.17g fingerprint of one adaptive run (doubles
 *  round-trip exactly at this precision). */
void
addFingerprint(std::string &out, const std::string &benchmark,
               const sim::BenchResult &r)
{
    char buf[512];
    const workload::DriverResult &m = r.run;
    std::snprintf(
        buf, sizeof(buf),
        "%s allocs=%llu frees=%llu freed=%llu stores=%llu "
        "vsec=%.17g epochs=%llu slices=%llu pages=%llu "
        "skipped_tier=%llu revoked=%llu released=%llu "
        "time=%.17g sweep=%.17g shadow=%.17g predicted=%.17g\n",
        benchmark.c_str(),
        static_cast<unsigned long long>(m.allocCalls),
        static_cast<unsigned long long>(m.freeCalls),
        static_cast<unsigned long long>(m.freedBytes),
        static_cast<unsigned long long>(m.ptrStores),
        m.virtualSeconds,
        static_cast<unsigned long long>(m.revoker.epochs),
        static_cast<unsigned long long>(m.revoker.slices),
        static_cast<unsigned long long>(m.revoker.sweep.pagesSwept),
        static_cast<unsigned long long>(
            m.revoker.sweep.pagesSkippedTier),
        static_cast<unsigned long long>(m.revoker.sweep.capsRevoked),
        static_cast<unsigned long long>(m.revoker.bytesReleased),
        r.normalizedTime, r.sweepOverhead, r.shadowOverhead,
        r.predictedSweepOverhead);
    out += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--list-policies") == 0)
        return listPolicies();

    const auto start = std::chrono::steady_clock::now();
    bench::printSystems("Policy sweep: registered RevocationEngine "
                        "policies x sweep threads, + adaptive gate");

    const std::vector<revoke::PolicyKind> &policies =
        revoke::allPolicies();
    const unsigned thread_counts[] = {1, 2, 4};
    const char *benchmarks[] = {"xalancbmk", "omnetpp", "povray"};

    const sim::ExperimentConfig base = bench::defaultConfig();
    bench::printKnobs();

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
    std::string fingerprint_a, fingerprint_b;
    std::vector<std::map<std::string, double>> gate_rows;

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
                addFingerprint(fingerprint_a, profile.name, r);
                // Determinism: the identical run, replayed.
                const sim::BenchResult again =
                    sim::runBenchmark(profile, cfg);
                addFingerprint(fingerprint_b, profile.name, again);
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
        gate_rows.push_back(row);
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

    const bool deterministic = fingerprint_a == fingerprint_b;
    std::printf("adaptive gate: %s\n",
                adaptive_ok ? "adaptive matches or beats every "
                              "static policy on all profiles"
                            : "FAILED: a static policy beat "
                              "adaptive");
    std::printf("determinism: two adaptive passes %s\n",
                deterministic ? "byte-identical"
                              : "DIVERGED");

    // --- BENCH_adaptive.json --------------------------------------
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    FILE *json = std::fopen("BENCH_adaptive.json", "w");
    if (!json) {
        std::fprintf(stderr, "cannot write BENCH_adaptive.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"policy_sweep\",\n");
    std::fprintf(json, "  \"policies\": [");
    for (size_t i = 0; i < policies.size(); ++i) {
        std::fprintf(json, "%s\"%s\"", i ? ", " : "",
                     revoke::policyName(policies[i]));
    }
    std::fprintf(json, "],\n");
    std::fprintf(json, "  \"rows\": [\n");
    for (size_t i = 0; i < gate_rows.size(); ++i) {
        std::fprintf(json, "    {\"benchmark\": \"%s\"",
                     profiles[i].name.c_str());
        for (const auto &entry : gate_rows[i]) {
            std::fprintf(json, ", \"%s\": %.17g",
                         entry.first.c_str(), entry.second);
        }
        std::fprintf(json, "}%s\n",
                     i + 1 < gate_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"traffic_parity\": %s,\n",
                 all_match ? "true" : "false");
    std::fprintf(json, "  \"adaptive_ok\": %s,\n",
                 adaptive_ok ? "true" : "false");
    std::fprintf(json, "  \"deterministic\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(json, "  \"elapsed_ms\": %.3f\n", elapsed_ms);
    std::fprintf(json, "}\n");
    std::fclose(json);

    const bool ok = all_match && adaptive_ok && deterministic;
    std::printf(ok ? "OK: traffic parity, adaptive gate and "
                     "determinism all hold\n"
                   : "FAILED: see the tables above\n");
    return ok ? 0 : 1;
}
