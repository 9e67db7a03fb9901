/**
 * @file
 * Shared helpers for the benchmark harness: the table 1 system
 * banner, default experiment settings used across figures, the
 * tenant_slice profile of the consolidation benches, a stopwatch,
 * and the guard every bench main runs through.
 */

#ifndef CHERIVOKE_BENCH_BENCH_COMMON_HH
#define CHERIVOKE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "support/env.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "sim/experiment.hh"
#include "tenant/trace_codec.hh"
#include "workload/spec_profiles.hh"

namespace cherivoke {
namespace bench {

/** Print the table 1 system banner every bench leads with. */
inline void
printSystems(const char *title)
{
    std::printf("==============================================\n");
    std::printf("%s\n", title);
    std::printf("==============================================\n");
    std::printf("Systems (paper table 1):\n");
    std::printf("  x86-64 : 2.9 GHz OoO, AVX2, 8 MiB LLC, "
                "DDR4 19405 MiB/s read\n");
    std::printf("  CHERI  : 100 MHz FPGA, in-order, 256 KiB LLC, "
                "DDR2\n\n");
}

/** Parse @p text, read from @p knob, with a name table's parser. */
template <typename Kind>
Kind
parseNamed(const char *knob, const std::string &text,
           bool (*parse)(const std::string &, Kind &))
{
    Kind kind{};
    if (!parse(text, kind))
        fatal("%s: unknown value '%s' (see --knobs)", knob,
              text.c_str());
    return kind;
}

/** A knob naming a policy, scope or backend. */
template <typename Kind>
Kind
namedKnob(const char *knob, bool (*parse)(const std::string &, Kind &))
{
    return parseNamed(knob, knobText(knob), parse);
}

/** A list knob of such names, one per tenant. */
template <typename Kind>
std::vector<Kind>
namedListKnob(const char *knob,
              bool (*parse)(const std::string &, Kind &))
{
    std::vector<Kind> kinds;
    for (const std::string &item : knobTextList(knob))
        kinds.push_back(parseNamed(knob, item, parse));
    return kinds;
}

/**
 * Default experiment configuration used by the figure benches, with
 * every shared CHERIVOKE_* knob (support/env.cc declares them all)
 * applied, so the whole suite reproduces under any engine
 * configuration.
 */
inline sim::ExperimentConfig
defaultConfig()
{
    sim::ExperimentConfig cfg;
    cfg.scale = 1.0 / 128;
    cfg.durationSec = 0.4;
    cfg.policy = namedKnob("CHERIVOKE_POLICY", revoke::parsePolicy);
    cfg.threads = knobUnsigned("CHERIVOKE_THREADS");
    cfg.tenantScope =
        namedKnob("CHERIVOKE_TENANT_SCOPE", tenant::parseScope);
    cfg.tenantHeapMiB = knobReal("CHERIVOKE_TENANT_HEAP_MIB");
    cfg.tenantWeights = knobRealList("CHERIVOKE_TENANT_WEIGHTS");
    cfg.tenantPolicies = namedListKnob("CHERIVOKE_TENANT_POLICIES",
                                       revoke::parsePolicy);
    cfg.backend = namedKnob("CHERIVOKE_BACKEND", revoke::parseBackend);
    cfg.tenantBackends = namedListKnob("CHERIVOKE_TENANT_BACKENDS",
                                       revoke::parseBackend);
    cfg.backendConfig.colors = knobUnsigned("CHERIVOKE_COLORS");
    cfg.backendConfig.allocsPerColor =
        knobInt("CHERIVOKE_ALLOCS_PER_COLOR");
    cfg.backendConfig.recycleFraction =
        knobReal("CHERIVOKE_RECYCLE_FRACTION");
    cfg.backendConfig.idCompactRetired =
        knobInt("CHERIVOKE_ID_COMPACT");
    cfg.mutatorThreads = knobUnsigned("CHERIVOKE_MUTATOR_THREADS");
    cfg.remoteBatch = knobUnsigned("CHERIVOKE_REMOTE_BATCH");
    cfg.faultPlanText = knobText("CHERIVOKE_FAULT_PLAN");
    if (!cfg.faultPlanText.empty())
        parseFaultPlan(cfg.faultPlanText); // strict: reject it here
    cfg.faultSeed = knobInt("CHERIVOKE_FAULT_SEED");
    cfg.pageBudgetMiB = knobReal("CHERIVOKE_PAGE_BUDGET_MIB");
    cfg.bgSweeper = knobInt("CHERIVOKE_BG_SWEEPER") != 0;
    cfg.sweeperRetries = knobUnsigned("CHERIVOKE_SWEEPER_RETRIES");
    return cfg;
}

/**
 * The consolidated-service profile for N tenants (bench/tenant_scale
 * and alloc_hotpath's tenant phase): each tenant is a 1/N slice of a
 * constant aggregate — live bytes and free traffic — so sweep period
 * and total work are comparable across tenant counts. Lifetimes are
 * FIFO (temporalFragmentation 0): the axis here is tenant count, so
 * lifetime interleaving (§6.1.1) is held at its simplest.
 */
inline workload::BenchmarkProfile
sliceProfile(unsigned tenants, uint64_t agg_allocs)
{
    /** Mean allocation size the profile implies (table 2 identity). */
    constexpr double kMeanAllocBytes = 128.0;
    /** Aggregate free traffic, split evenly across tenants. */
    constexpr double kAggFreeRateMiBps = 64.0;
    workload::BenchmarkProfile p;
    p.name = "tenant_slice";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    // Ramp target: agg_allocs allocations of ~125 B expected size,
    // plus margin so the allocation *count* target is certainly met.
    const double agg_heap_bytes =
        static_cast<double>(agg_allocs) * kMeanAllocBytes * 1.10;
    p.liveHeapMiB = agg_heap_bytes / MiB / tenants;
    p.freeRateMiBps = kAggFreeRateMiBps / tenants;
    p.freesPerSec =
        kAggFreeRateMiBps * MiB / kMeanAllocBytes / tenants;
    p.appDramMiBps = 2000.0 / tenants; //!< per-tenant app traffic
    return p;
}

/** Round every tenant trace through the binary codec: record once,
 *  replay exactly. */
inline std::vector<workload::Trace>
codecRoundTrip(const std::vector<workload::Trace> &traces)
{
    std::vector<workload::Trace> out;
    out.reserve(traces.size());
    for (const workload::Trace &t : traces)
        out.push_back(tenant::decodeTrace(tenant::encodeTrace(t)));
    return out;
}

/** Host wall time since construction (steady clock). Reporting
 *  only: nothing modelled may depend on it. */
class Stopwatch
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * Every bench main runs its body through here. `--knobs` prints the
 * knob table instead. Misspelled knobs are rejected before the body
 * runs, with a nearest-knob suggestion: a typo'd knob is never read,
 * so strict parsing alone cannot catch it. A FatalError (a bad knob,
 * a malformed plan) ends the run with its one `fatal:` line on
 * stderr and exit status 2, where it would otherwise terminate with
 * SIGABRT.
 */
template <typename Body>
int
run(int argc, char **argv, Body body)
{
    if (argc > 1 && std::strcmp(argv[1], "--knobs") == 0) {
        printKnobTable(stdout);
        return 0;
    }
    try {
        validateEnvironment();
        return body();
    } catch (const FatalError &err) {
        std::fflush(stdout);
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
}

} // namespace bench
} // namespace cherivoke

#endif // CHERIVOKE_BENCH_BENCH_COMMON_HH
