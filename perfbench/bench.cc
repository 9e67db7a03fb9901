/**
 * @file
 * The repository benchmark: three workloads that drive the simulator
 * only through its public entry points (workload::synthesize, the
 * binary trace codec, sim::runBenchmark / runMultiTenantBenchmark,
 * workload::TraceReplayer, tenant::TenantManager and
 * revoke::RevocationEngine), reporting host time and modelled
 * results per workload.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--golden-dir <dir>] [--write-golden]
 *
 * One run:
 *  1. sets the workload up three times (synthesis, codec round trip,
 *     pipeline construction) and keeps the median as setup_s;
 *  2. runs the library's own pipeline once as the parity reference;
 *  3. replays the bench-assembled pipeline for --seconds seconds,
 *     checking every replay's modelled results byte for byte against
 *     the reference and the first replay, and at seed 42 against the
 *     golden fingerprint in --golden-dir;
 *  4. prints '#'-prefixed report lines, then one JSON result line:
 *     end-to-end metrics with --trace 0, per-layer metrics with
 *     --trace 1. A traced run alternates untraced and traced replays,
 *     so the tracing overhead is measured in the same process.
 *
 * Layer spans are timed from the outside: around set-up calls, around
 * each TraceReplayer::step, and by a delegating RevocationPolicy
 * installed with setDomainPolicyObject on every engine domain.
 * README.md in this directory documents the workloads, the layer →
 * metric → workload predictions, and the model validation status.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/published.hh"
#include "sim/experiment.hh"
#include "tenant/trace_codec.hh"

using namespace cherivoke;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Workloads -------------------------------------------------

struct Workload
{
    std::string name;
    std::string why;
    workload::BenchmarkProfile profile;
    sim::ExperimentConfig cfg;
    /** Hosted on a TenantManager (else one TraceReplayer process). */
    bool multiTenant = false;
    /** Runs at the paper's measured configuration on a profile with
     *  a published figure 5a bar, so its model error is defined. */
    bool paperConfig = false;
};

/** bench/tenant_scale's consolidated-service slice for N tenants of
 *  a constant aggregate (1M live allocations of ~128 B). */
workload::BenchmarkProfile
tenantSliceProfile(unsigned tenants, uint64_t agg_allocs)
{
    constexpr double kMeanAllocBytes = 128.0;
    constexpr double kAggFreeRateMiBps = 64.0;
    workload::BenchmarkProfile p;
    p.name = "tenant_slice";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    p.liveHeapMiB = static_cast<double>(agg_allocs) * kMeanAllocBytes *
                    1.10 / MiB / tenants;
    p.freeRateMiBps = kAggFreeRateMiBps / tenants;
    p.freesPerSec = kAggFreeRateMiBps * MiB / kMeanAllocBytes / tenants;
    p.appDramMiBps = 2000.0 / tenants;
    return p;
}

bool
makeWorkload(const std::string &name, uint64_t seed, Workload &wl)
{
    wl = Workload{};
    wl.name = name;
    sim::ExperimentConfig &cfg = wl.cfg;
    cfg.quarantineFraction = 0.25;
    cfg.kernel = revoke::SweepKernel::Vector;
    cfg.seed = seed;
    if (name == "consolidate-4t") {
        wl.why = "mutator-bound: 1M live allocations over 4 tenants; "
                 "revocation is a few percent of the run";
        wl.multiTenant = true;
        wl.profile = tenantSliceProfile(4, 1000000);
        cfg.tenants = 4;
        cfg.tenantScope = tenant::RevocationScope::PerTenant;
        cfg.policy = revoke::PolicyKind::StopTheWorld;
        cfg.scale = 1.0;
        cfg.durationSec = 2.0;
        cfg.threads = 1;
        return true;
    }
    if (name == "sweep-traffic") {
        wl.why = "sweep- and cache-model-bound: xalancbmk at the "
                 "paper's configuration with the fig. 10 hierarchy";
        wl.paperConfig = true;
        wl.profile = workload::profileFor("xalancbmk");
        cfg.policy = revoke::PolicyKind::StopTheWorld;
        cfg.scale = 1.0 / 8;
        cfg.durationSec = 0.4;
        cfg.modelTraffic = true;
        cfg.threads = 2;
        cfg.paintShards = 2;
        return true;
    }
    if (name == "concurrent-bg") {
        wl.why = "revocation as bounded slices: omnetpp, 2 tenants, "
                 "concurrent policy with the background sweeper";
        wl.multiTenant = true;
        wl.profile = workload::profileFor("omnetpp");
        cfg.tenants = 2;
        cfg.tenantScope = tenant::RevocationScope::PerTenant;
        cfg.policy = revoke::PolicyKind::Concurrent;
        cfg.scale = 1.0 / 8;
        cfg.durationSec = 0.4;
        cfg.threads = 1;
        cfg.bgSweeper = true;
        return true;
    }
    return false;
}

// ---- Process configuration (mirrors sim::runBenchmark) ----------
// The three helpers below restate how sim/experiment.cc configures a
// process; the parity gate proves them equal on every run.

workload::SynthConfig
synthConfigFor(const workload::BenchmarkProfile &profile,
               const sim::ExperimentConfig &config)
{
    workload::SynthConfig synth_cfg;
    synth_cfg.scale = config.scale;
    synth_cfg.durationSec = config.durationSec;
    if (profile.allocationIntensive()) {
        const double live_scaled = std::max<double>(
            profile.liveHeapMiB * MiB * config.scale,
            static_cast<double>(synth_cfg.minLiveBytes));
        const double rate_scaled =
            profile.freeRateMiBps * MiB * config.scale;
        const double period =
            config.quarantineFraction * live_scaled / rate_scaled;
        synth_cfg.durationSec = std::max(
            config.durationSec, std::min(60.0, 3.0 * period));
    }
    synth_cfg.seed = config.seed;
    return synth_cfg;
}

alloc::CherivokeConfig
allocConfigFor(const sim::ExperimentConfig &config)
{
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = config.quarantineFraction;
    acfg.minQuarantineBytes = 64 * KiB;
    acfg.dl.initialHeapBytes = 1 * MiB;
    acfg.dl.growthChunkBytes = 512 * KiB;
    return acfg;
}

revoke::EngineConfig
engineConfigFor(const sim::ExperimentConfig &config)
{
    revoke::EngineConfig engine_cfg;
    engine_cfg.sweep.kernel = config.kernel;
    engine_cfg.sweep.usePteCapDirty = config.usePteCapDirty;
    engine_cfg.sweep.useCloadTags = config.useCloadTags;
    engine_cfg.sweep.threads = config.threads;
    engine_cfg.policy = config.policy;
    engine_cfg.pagesPerSlice = config.pagesPerSlice;
    engine_cfg.paintShards = config.paintShards;
    engine_cfg.backend = config.backend;
    engine_cfg.backendConfig = config.backendConfig;
    engine_cfg.backgroundSweeper = config.bgSweeper;
    engine_cfg.epochDeadlineMs = config.epochDeadlineMs;
    engine_cfg.sweeperRetries = config.sweeperRetries;
    return engine_cfg;
}

// ---- Layer spans ------------------------------------------------

/** Host seconds and counts of one traced replay, per layer. */
struct Layers
{
    double pumpS = 0;
    uint64_t pumps = 0;
    double openS = 0, sweepS = 0, closeS = 0;
    /** Indexed by replay op class: malloc, free, store. */
    double replayS[3] = {0, 0, 0};
    uint64_t replayN[3] = {0, 0, 0};
    double runS = 0;

    void
    add(const Layers &o)
    {
        pumpS += o.pumpS;
        pumps += o.pumps;
        openS += o.openS;
        sweepS += o.sweepS;
        closeS += o.closeS;
        runS += o.runS;
        for (int c = 0; c < 3; ++c) {
            replayS[c] += o.replayS[c];
            replayN[c] += o.replayN[c];
        }
    }
};

/** Accumulates one span's duration into @p into on destruction. */
class Span
{
  public:
    explicit Span(double &into) : into_(into), t0_(Clock::now()) {}
    ~Span() { into_ += secondsSince(t0_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    double &into_;
    Clock::time_point t0_;
};

/**
 * A delegating policy that times the calls a domain's policy makes
 * into the engine. The stop-the-world and concurrent schedules (the
 * only two the workloads run) are restated here so each epoch
 * building block (beginEpoch / step / finishEpoch) gets its own span;
 * the parity gate proves the timed schedule identical to the
 * library's.
 */
class TimedPolicy final : public revoke::RevocationPolicy
{
  public:
    TimedPolicy(revoke::PolicyKind kind, Layers &layers)
        : inner_(revoke::makePolicy(kind)), layers_(layers)
    {
        if (kind != revoke::PolicyKind::StopTheWorld &&
            kind != revoke::PolicyKind::Concurrent)
            throw std::invalid_argument("TimedPolicy: untimed policy");
    }

    revoke::PolicyKind kind() const override { return inner_->kind(); }
    const char *name() const override { return inner_->name(); }
    bool needsLoadBarrier() const override
    {
        return inner_->needsLoadBarrier();
    }

    bool
    pump(revoke::RevocationEngine &engine,
         cache::Hierarchy *hierarchy) override
    {
        ++layers_.pumps;
        // With no open epoch and no quarantine pressure both policies
        // return at once: an idle pump is counted but not timed, as a
        // span would cost more than the check it measures.
        if (!engine.epochOpen() && !engine.quarantinePressure())
            return false;
        Span span(layers_.pumpS);
        if (kind() == revoke::PolicyKind::StopTheWorld) {
            // Base pump: a full epoch (our timed runEpoch) on
            // quarantine pressure.
            return RevocationPolicy::pump(engine, hierarchy);
        }
        if (!engine.epochOpen()) {
            Span open(layers_.openS);
            engine.beginEpoch();
        }
        if (timedStep(engine, engine.config().pagesPerSlice,
                      hierarchy) == 0) {
            Span close(layers_.closeS);
            engine.finishEpoch();
            return true;
        }
        return false;
    }

    revoke::EpochStats
    runEpoch(revoke::RevocationEngine &engine,
             cache::Hierarchy *hierarchy) override
    {
        if (kind() != revoke::PolicyKind::StopTheWorld)
            return inner_->runEpoch(engine, hierarchy);
        {
            Span open(layers_.openS);
            engine.beginEpoch();
        }
        timedStep(engine, SIZE_MAX, hierarchy);
        {
            Span close(layers_.closeS);
            engine.finishEpoch();
        }
        return engine.lastEpoch();
    }

  private:
    size_t
    timedStep(revoke::RevocationEngine &engine, size_t max_pages,
              cache::Hierarchy *hierarchy)
    {
        Span sweep(layers_.sweepS);
        return engine.step(max_pages, hierarchy);
    }

    std::unique_ptr<revoke::RevocationPolicy> inner_;
    Layers &layers_;
};

void
installTimedPolicies(revoke::RevocationEngine &engine,
                     revoke::PolicyKind kind, Layers &layers)
{
    for (size_t d = 0; d < engine.domainCount(); ++d)
        engine.setDomainPolicyObject(
            d, std::make_unique<TimedPolicy>(kind, layers));
}

// ---- Fingerprints -----------------------------------------------

/** key=value lines; doubles with %.17g, which round-trips IEEE
 *  doubles exactly, so equal strings mean bit-identical results. */
class Fingerprint
{
  public:
    void
    add(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "=%.17g\n", v);
        text_ += key + buf;
    }
    void
    addU(const std::string &key, uint64_t v)
    {
        text_ += key + "=" + std::to_string(v) + "\n";
    }
    void
    addTotals(const std::string &p, const revoke::EngineTotals &t)
    {
        addU(p + "epochs", t.epochs);
        addU(p + "slices", t.slices);
        addU(p + "paint_bit", t.paint.bitOps);
        addU(p + "paint_byte", t.paint.byteOps);
        addU(p + "paint_word", t.paint.wordOps);
        addU(p + "paint_dword", t.paint.dwordOps);
        addU(p + "pages_considered", t.sweep.pagesConsidered);
        addU(p + "pages_swept", t.sweep.pagesSwept);
        addU(p + "pages_skipped_pte", t.sweep.pagesSkippedPte);
        addU(p + "pages_cleaned", t.sweep.pagesCleaned);
        addU(p + "lines_swept", t.sweep.linesSwept);
        addU(p + "lines_skipped_tags", t.sweep.linesSkippedTags);
        addU(p + "caps_examined", t.sweep.capsExamined);
        addU(p + "caps_revoked", t.sweep.capsRevoked);
        addU(p + "regs_examined", t.sweep.regsExamined);
        addU(p + "regs_revoked", t.sweep.regsRevoked);
        add(p + "kernel_cycles", t.sweep.kernelCycles);
        addU(p + "internal_frees", t.internalFrees);
        addU(p + "bytes_released", t.bytesReleased);
    }
    void
    addDriver(const std::string &p, const workload::DriverResult &r)
    {
        add(p + "virtual_sec", r.virtualSeconds);
        addU(p + "allocs", r.allocCalls);
        addU(p + "frees", r.freeCalls);
        addU(p + "freed_bytes", r.freedBytes);
        addU(p + "ptr_stores", r.ptrStores);
        addU(p + "peak_live_bytes", r.peakLiveBytes);
        addU(p + "peak_quarantine", r.peakQuarantineBytes);
        addU(p + "peak_footprint", r.peakFootprintBytes);
        addU(p + "peak_live_allocs", r.peakLiveAllocs);
        add(p + "free_rate_mibps", r.measuredFreeRateMiBps);
        add(p + "frees_per_sec", r.measuredFreesPerSec);
        add(p + "page_density", r.pageDensity);
        add(p + "line_density", r.lineDensity);
        addU(p + "density_samples", r.densitySamples);
        addTotals(p + "rv_", r.revoker);
    }
    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

/** The modelled quantities both pipelines derive from a run. */
struct Model
{
    double shadowOverhead = 0;
    double sweepOverhead = 0;
    double scanRate = 0;
    double trafficPct = 0;
    uint64_t sweepDramBytes = 0;
    double heapOverhead = 0;
    std::vector<double> tenantSweepOverhead;
};

void
addModel(Fingerprint &fp, const Model &m)
{
    fp.add("shadow_overhead", m.shadowOverhead);
    fp.add("sweep_overhead", m.sweepOverhead);
    fp.add("scan_rate", m.scanRate);
    fp.add("traffic_pct", m.trafficPct);
    fp.addU("sweep_dram_bytes", m.sweepDramBytes);
    fp.add("heap_overhead", m.heapOverhead);
    for (double t : m.tenantSweepOverhead)
        fp.add("tenant_sweep_overhead", t);
}

/** Single process: restates sim::runBenchmark's derivations. */
Model
modelSingle(const Workload &wl, const workload::DriverResult &run,
            const cache::Hierarchy *hierarchy)
{
    const sim::MachineProfile &machine = sim::MachineProfile::x86();
    const double scale = wl.cfg.scale;
    const double vt = std::max(run.virtualSeconds, 1e-9);
    Model m;
    m.shadowOverhead =
        sim::paintSeconds(machine, run.revoker.paint, scale) / vt;
    m.sweepDramBytes = hierarchy
                           ? hierarchy->dram().totalBytes()
                           : sim::approxSweepDramBytes(run.revoker.sweep);
    m.sweepOverhead =
        sim::sweepSeconds(machine, run.revoker.sweep, m.sweepDramBytes,
                          run.revoker.epochs, scale) /
        vt;
    m.scanRate = sim::achievedSweepBandwidth(
        machine, run.revoker.sweep, run.revoker.epochs, scale);
    m.trafficPct =
        100.0 *
        (static_cast<double>(sim::approxSweepDramBytes(run.revoker.sweep)) /
         scale / vt) /
        (wl.profile.appDramMiBps * MiB);
    m.heapOverhead = static_cast<double>(run.peakQuarantineBytes) /
                     std::max<double>(
                         static_cast<double>(run.peakLiveBytes), 1);
    return m;
}

Model
modelOf(const sim::BenchResult &r)
{
    Model m;
    m.shadowOverhead = r.shadowOverhead;
    m.sweepOverhead = r.sweepOverhead;
    m.scanRate = r.achievedScanRate;
    m.trafficPct = r.trafficOverheadPct;
    m.sweepDramBytes = r.sweepDramBytes;
    m.heapOverhead = static_cast<double>(r.run.peakQuarantineBytes) /
                     std::max<double>(
                         static_cast<double>(r.run.peakLiveBytes), 1);
    return m;
}

/** Multi-tenant: restates sim::runMultiTenantBenchmark's aggregate
 *  model (no cache hierarchy on the tenant workloads). */
Model
modelMulti(const Workload &wl, const tenant::MultiTenantResult &run)
{
    const sim::MachineProfile &machine = sim::MachineProfile::x86();
    const double scale = wl.cfg.scale;
    const double vt = std::max(run.virtualSeconds, 1e-9);
    Model m;
    m.shadowOverhead =
        sim::paintSeconds(machine, run.engine.paint, scale) / vt;
    m.sweepDramBytes = sim::approxSweepDramBytes(run.engine.sweep);
    m.sweepOverhead =
        sim::sweepSeconds(machine, run.engine.sweep, m.sweepDramBytes,
                          run.engine.epochs, scale) /
        vt;
    m.scanRate = sim::achievedSweepBandwidth(
        machine, run.engine.sweep, run.engine.epochs, scale);
    m.trafficPct =
        100.0 *
        (static_cast<double>(sim::approxSweepDramBytes(run.engine.sweep)) /
         scale / vt) /
        (wl.cfg.tenants * wl.profile.appDramMiBps * MiB);
    m.heapOverhead =
        static_cast<double>(run.peakAggQuarantineBytes) /
        std::max<double>(static_cast<double>(run.peakAggLiveBytes), 1);
    for (const tenant::TenantResult &tr : run.tenants) {
        const double tvt = std::max(tr.run.virtualSeconds, 1e-9);
        m.tenantSweepOverhead.push_back(
            sim::sweepSeconds(
                machine, tr.run.revoker.sweep,
                sim::approxSweepDramBytes(tr.run.revoker.sweep),
                tr.run.revoker.epochs, scale) /
            tvt);
    }
    return m;
}

Model
modelOf(const sim::MultiTenantBenchResult &r)
{
    Model m;
    m.shadowOverhead = r.shadowOverhead;
    m.sweepOverhead = r.sweepOverhead;
    m.scanRate = r.achievedScanRate;
    m.trafficPct = r.trafficOverheadPct;
    m.sweepDramBytes = r.sweepDramBytes;
    m.heapOverhead =
        static_cast<double>(r.run.peakAggQuarantineBytes) /
        std::max<double>(static_cast<double>(r.run.peakAggLiveBytes), 1);
    m.tenantSweepOverhead = r.tenantSweepOverhead;
    return m;
}

std::string
parityFingerprint(const workload::DriverResult &run, const Model &m)
{
    Fingerprint fp;
    fp.addDriver("", run);
    addModel(fp, m);
    return fp.text();
}

/** Every deterministic field of a multi-tenant run. Wall times and
 *  the supervision event log (a real thread racing the replay under
 *  a wall-clock watchdog) are host behaviour, not model state. */
std::string
parityFingerprint(const tenant::MultiTenantResult &run, const Model &m)
{
    Fingerprint fp;
    fp.addU("ops", run.totalOps);
    fp.addU("allocs", run.allocCalls);
    fp.addU("frees", run.freeCalls);
    fp.addU("freed_bytes", run.freedBytes);
    fp.addU("ptr_stores", run.ptrStores);
    fp.addU("peak_agg_live_allocs", run.peakAggLiveAllocs);
    fp.addU("peak_agg_live_bytes", run.peakAggLiveBytes);
    fp.addU("peak_agg_quarantine", run.peakAggQuarantineBytes);
    fp.addU("peak_agg_footprint", run.peakAggFootprintBytes);
    fp.add("virtual_sec", run.virtualSeconds);
    fp.addU("mutator_local_frees", run.mutatorLocalFrees);
    fp.addU("mutator_remote_frees", run.mutatorRemoteFrees);
    fp.addU("mutator_fingerprint", run.mutatorFingerprint);
    fp.addU("faults", run.faultsContained);
    fp.addTotals("engine_", run.engine);
    for (const tenant::TenantResult &t : run.tenants) {
        fp.addU("t_id", t.tenantId);
        fp.addU("t_ops_applied", t.opsApplied);
        fp.addDriver("t_", t.run);
    }
    addModel(fp, m);
    return fp.text();
}

// ---- Setup ------------------------------------------------------

struct SetupTimes
{
    double synthS = 0, encodeS = 0, decodeS = 0, constructS = 0;
    uint64_t codecBytes = 0;
    double total() const { return synthS + encodeS + decodeS + constructS; }
};

/** Synthesise the workload's traces and round-trip them through the
 *  binary codec (record once, replay exactly). */
std::vector<workload::Trace>
makeTraces(const Workload &wl, SetupTimes &t)
{
    std::vector<workload::Trace> synthesized;
    {
        Span span(t.synthS);
        if (wl.multiTenant) {
            synthesized = sim::synthesizeTenantTraces(wl.profile, wl.cfg);
        } else {
            synthesized.push_back(workload::synthesize(
                wl.profile, synthConfigFor(wl.profile, wl.cfg)));
        }
    }
    std::vector<workload::Trace> decoded;
    t.codecBytes = 0;
    for (workload::Trace &trace : synthesized) {
        std::vector<uint8_t> bytes;
        {
            Span span(t.encodeS);
            bytes = tenant::encodeTrace(trace);
        }
        t.codecBytes += bytes.size();
        trace = workload::Trace{}; // drop the source as we go
        Span span(t.decodeS);
        decoded.push_back(tenant::decodeTrace(bytes));
    }
    return decoded;
}

/** One single-process machine: the objects TraceDriver::run and
 *  sim::runBenchmark wire together, in the same order. */
struct SingleProcess
{
    SingleProcess(const Workload &wl, const workload::Trace &trace)
        : space(wl.cfg.globalsBytes, wl.cfg.stackBytes),
          allocator(space, allocConfigFor(wl.cfg)),
          engine(allocator, space, engineConfigFor(wl.cfg)),
          hierarchy(wl.cfg.modelTraffic
                        ? std::make_unique<cache::Hierarchy>(
                              sim::MachineProfile::x86()
                                  .hierarchyConfig())
                        : nullptr),
          replayer(space, allocator, &engine, trace)
    {}

    mem::AddressSpace space;
    alloc::CherivokeAllocator allocator;
    revoke::RevocationEngine engine;
    std::unique_ptr<cache::Hierarchy> hierarchy;
    workload::TraceReplayer replayer;
};

/** The TenantManager sim::runMultiTenantBenchmark would build. */
std::unique_ptr<tenant::TenantManager>
makeManager(const Workload &wl,
            const std::vector<workload::Trace> &traces)
{
    tenant::TenantManagerConfig mgr_cfg;
    mgr_cfg.engine = engineConfigFor(wl.cfg);
    mgr_cfg.scope = wl.cfg.tenantScope;
    mgr_cfg.mutator.threads = wl.cfg.mutatorThreads;
    mgr_cfg.mutator.remoteBatch = wl.cfg.remoteBatch;
    auto manager = std::make_unique<tenant::TenantManager>(mgr_cfg);
    for (unsigned i = 0; i < wl.cfg.tenants; ++i) {
        tenant::TenantConfig tcfg;
        tcfg.name = wl.profile.name + "#" + std::to_string(i);
        tcfg.alloc = allocConfigFor(wl.cfg);
        tcfg.globalsBytes = wl.cfg.globalsBytes;
        tcfg.stackBytes = wl.cfg.stackBytes;
        manager->addTenant(tcfg, traces[i]);
    }
    return manager;
}

// ---- Replays ----------------------------------------------------

struct Replay
{
    uint64_t ops = 0;
    double seconds = 0;
    std::string parity; //!< compared with the library reference
    std::string full;   //!< parity + bench-only deterministic counts
    uint64_t sweeperRetries = 0, sweeperCatchups = 0;
    revoke::EngineTotals totals;
    uint64_t dramReadBytes = 0, dramWriteBytes = 0;
    uint64_t llcMisses = 0, offCoreLines = 0;
};

int
opClass(workload::OpKind kind)
{
    switch (kind) {
      case workload::OpKind::Malloc: return 0;
      case workload::OpKind::Free: return 1;
      default: return 2;
    }
}

/** Replay @p trace on a fresh single-process machine; with @p layers
 *  time every step per op class (minus the engine pump inside it). */
Replay
replaySingle(const Workload &wl, const workload::Trace &trace,
             Layers *layers)
{
    SingleProcess p(wl, trace);
    if (layers)
        installTimedPolicies(p.engine, wl.cfg.policy, *layers);
    cache::Hierarchy *h = p.hierarchy.get();
    Replay out;
    const Clock::time_point t0 = Clock::now();
    while (!p.replayer.done()) {
        if (!layers) {
            p.replayer.step(h);
            continue;
        }
        const int cls = opClass(trace.ops[p.replayer.opsApplied()].kind);
        const double pump_before = layers->pumpS;
        const Clock::time_point s0 = Clock::now();
        p.replayer.step(h);
        layers->replayS[cls] +=
            secondsSince(s0) - (layers->pumpS - pump_before);
        ++layers->replayN[cls];
    }
    const workload::DriverResult run = p.replayer.finish(h);
    out.seconds = secondsSince(t0);
    if (layers)
        layers->runS += out.seconds;
    out.ops = trace.ops.size();
    out.parity = parityFingerprint(run, modelSingle(wl, run, h));
    out.totals = run.revoker;
    for (const revoke::SweeperEvent &ev : p.engine.sweeperEvents()) {
        out.sweeperRetries += ev.kind == revoke::SweeperEventKind::Retry;
        out.sweeperCatchups +=
            ev.kind == revoke::SweeperEventKind::StwCatchup;
    }
    Fingerprint extra;
    if (h) {
        out.dramReadBytes = h->dram().readBytes();
        out.dramWriteBytes = h->dram().writeBytes();
        out.llcMisses = h->llc() ? h->llc()->misses() : 0;
        out.offCoreLines = h->offCoreLines();
        extra.addU("cache_dram_read_bytes", out.dramReadBytes);
        extra.addU("cache_dram_write_bytes", out.dramWriteBytes);
        extra.addU("cache_llc_misses", out.llcMisses);
        extra.addU("cache_off_core_lines", out.offCoreLines);
    }
    out.full = out.parity + extra.text();
    return out;
}

Replay
replayMulti(const Workload &wl,
            const std::vector<workload::Trace> &traces, Layers *layers)
{
    std::unique_ptr<tenant::TenantManager> manager =
        makeManager(wl, traces);
    if (layers)
        installTimedPolicies(manager->engine(), wl.cfg.policy, *layers);
    Replay out;
    const Clock::time_point t0 = Clock::now();
    const tenant::MultiTenantResult run = manager->run();
    out.seconds = secondsSince(t0);
    if (layers)
        layers->runS += out.seconds;
    out.ops = run.totalOps;
    out.parity = parityFingerprint(run, modelMulti(wl, run));
    out.full = out.parity;
    out.totals = run.engine;
    out.sweeperRetries = run.sweeperRetries;
    out.sweeperCatchups = run.sweeperStwCatchups;
    return out;
}

Replay
replay(const Workload &wl, const std::vector<workload::Trace> &traces,
       Layers *layers)
{
    return wl.multiTenant ? replayMulti(wl, traces, layers)
                          : replaySingle(wl, traces[0], layers);
}

/** The library's own pipeline on the same inputs. */
struct Reference
{
    std::string parity;
    Model model;
    double normalizedTime = 0; //!< single process only
};

Reference
runReference(const Workload &wl,
             const std::vector<workload::Trace> &traces)
{
    Reference ref;
    if (wl.multiTenant) {
        const sim::MultiTenantBenchResult r =
            sim::runMultiTenantBenchmark(wl.profile, wl.cfg,
                                         sim::MachineProfile::x86(),
                                         &traces);
        ref.model = modelOf(r);
        ref.parity = parityFingerprint(r.run, ref.model);
    } else {
        // runBenchmark synthesises its own trace from the config.
        const sim::BenchResult r = sim::runBenchmark(wl.profile, wl.cfg);
        ref.model = modelOf(r);
        ref.parity = parityFingerprint(r.run, ref.model);
        ref.normalizedTime = r.normalizedTime;
    }
    return ref;
}

// ---- Output -----------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printHeader(const Workload &wl, uint64_t ops, unsigned trace)
{
    const sim::ExperimentConfig &c = wl.cfg;
    std::printf("# perfbench workload=%s seed=%llu trace=%u\n",
                wl.name.c_str(),
                static_cast<unsigned long long>(c.seed), trace);
    std::printf("# host nproc=%u compiler=\"%s\" build_type=%s\n",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE);
    std::printf("# why: %s\n", wl.why.c_str());
    std::printf("# profile=%s live_heap_mib=%.6g free_rate_mibps=%.6g "
                "frees_per_sec=%.6g page_density=%.6g "
                "line_density=%.6g temporal_frag=%.6g\n",
                wl.profile.name.c_str(), wl.profile.liveHeapMiB,
                wl.profile.freeRateMiBps, wl.profile.freesPerSec,
                wl.profile.pagesWithPointers,
                wl.profile.linePointerDensity,
                wl.profile.temporalFragmentation);
    std::printf("# config tenants=%u scope=%s policy=%s backend=%s "
                "Q=%.6g kernel=%s pte_capdirty=%d cloadtags=%d "
                "sweep_threads=%u paint_shards=%u pages_per_slice=%zu "
                "scale=%.6g duration_s=%.6g cache_model=%d "
                "bg_sweeper=%d mutator_threads=%u\n",
                c.tenants, tenant::scopeName(c.tenantScope),
                revoke::policyName(c.policy),
                revoke::backendName(c.backend), c.quarantineFraction,
                c.kernel == revoke::SweepKernel::Vector ? "vector"
                                                        : "scalar",
                c.usePteCapDirty ? 1 : 0, c.useCloadTags ? 1 : 0,
                c.threads, c.paintShards, c.pagesPerSlice, c.scale,
                c.durationSec, c.modelTraffic ? 1 : 0,
                c.bgSweeper ? 1 : 0, c.mutatorThreads);
    std::printf("# trace ops=%llu; modelled caches start empty on "
                "every replay (no warm-up)\n",
                static_cast<unsigned long long>(ops));
    if (wl.paperConfig) {
        std::printf("# model: paper configuration (§6.1.3 runs); "
                    "model_err_vs_paper is the gap to fig. 5a\n");
    } else {
        std::printf("# model: UNVALIDATED - this workload runs off the "
                    "paper's measured configuration, so its model_* "
                    "values have no published reference\n");
    }
}

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = static_cast<bool>(in);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <consolidate-4t|"
                 "sweep-traffic|concurrent-bg> --seed <n> --seconds "
                 "<s> --trace <0|1> [--golden-dir <dir>] "
                 "[--write-golden]\n");
    return 2;
}

/** What the measured replays of one run produced. */
struct Measured
{
    uint64_t attempted = 0, failed = 0;
    std::vector<double> untracedRate, tracedRate;
    std::vector<Replay> traced;
    Layers layers; //!< summed over the traced replays
    std::string firstFull;
};

/** Replay until @p seconds have passed, checking each replay against
 *  the reference and the first replay. A traced run alternates
 *  untraced and traced replays, so the tracing overhead compares like
 *  with like. */
Measured
measure(const Workload &wl, const std::vector<workload::Trace> &traces,
        const Reference &ref, unsigned trace, double seconds)
{
    Measured m;
    const Clock::time_point start = Clock::now();
    for (int n = 0;; ++n) {
        const bool traced_replay = trace == 1 && n % 2 == 1;
        Layers layers;
        Replay r = replay(wl, traces, traced_replay ? &layers : nullptr);
        const double rate = static_cast<double>(r.ops) / r.seconds;
        ++m.attempted;
        if (m.firstFull.empty())
            m.firstFull = r.full;
        const bool ok = r.parity == ref.parity && r.full == m.firstFull;
        if (!ok)
            ++m.failed;
        std::printf("# replay %d %s: %.3f s, %.6g ops/s, parity %s\n",
                    n, traced_replay ? "traced" : "untraced",
                    r.seconds, rate, ok ? "ok" : "MISMATCH");
        if (traced_replay) {
            m.tracedRate.push_back(rate);
            m.traced.push_back(r);
            m.layers.add(layers);
        } else {
            m.untracedRate.push_back(rate);
        }
        const bool enough = trace == 0 ? !m.untracedRate.empty()
                                       : !m.tracedRate.empty();
        if (enough && secondsSince(start) >= seconds)
            return m;
    }
}

/** Compare (and with @p write first store) the seed-42 golden
 *  fingerprint: the first replay's full fingerprint plus the model
 *  lines. @return false on a mismatch or a missing file */
bool
checkGolden(const std::string &path, const std::string &golden,
            bool write)
{
    if (write) {
        std::ofstream(path, std::ios::binary) << golden;
        std::printf("# golden: wrote %s\n", path.c_str());
    }
    bool have = false;
    const std::string want = readFile(path, have);
    const bool match = have && want == golden;
    std::printf("# golden fingerprint (seed 42): %s\n",
                !have ? "MISSING" : match ? "match" : "MISMATCH");
    return match;
}

std::vector<Metric>
endToEndMetrics(const std::vector<SetupTimes> &setups,
                const Reference &ref)
{
    std::vector<double> setup_s;
    for (const SetupTimes &t : setups)
        setup_s.push_back(t.total());
    return {
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
        {"model_overhead",
         ref.model.shadowOverhead + ref.model.sweepOverhead, "frac"},
        {"model_sweep_dram_mib",
         static_cast<double>(ref.model.sweepDramBytes) / MiB, "MiB"},
        {"model_heap_overhead", ref.model.heapOverhead, "frac"},
    };
}

std::vector<Metric>
perLayerMetrics(const Workload &wl,
                const std::vector<workload::Trace> &traces,
                const std::vector<SetupTimes> &setups, const Measured &m)
{
    std::vector<double> synth, enc, dec, cons;
    for (const SetupTimes &t : setups) {
        synth.push_back(t.synthS);
        enc.push_back(t.encodeS);
        dec.push_back(t.decodeS);
        cons.push_back(t.constructS);
    }
    const Layers &layers = m.layers;
    const double reps = static_cast<double>(m.traced.size());
    const Replay &r = m.traced.front();
    const revoke::EngineTotals &tot = r.totals;
    const double pump = layers.pumpS / reps;
    const double run = layers.runS / reps;
    const double sweep = layers.sweepS / reps;
    const double untraced = median(m.untracedRate);
    const double traced_ops = median(m.tracedRate);
    std::vector<Metric> metrics = {
        {"workload.synth_s", median(synth), "s"},
        {"tenant.codec_encode_s", median(enc), "s"},
        {"tenant.codec_decode_s", median(dec), "s"},
        {"tenant.codec_bytes",
         static_cast<double>(setups.back().codecBytes), "B"},
        {"setup.construct_s", median(cons), "s"},
        {"tenant.run_s", run, "s"},
        {"tenant.mutator_self_s", run - pump, "s"},
        {"revoke.pump_s", pump, "s"},
        {"revoke.pumps", static_cast<double>(layers.pumps) / reps,
         "count"},
        {"revoke.open_s", layers.openS / reps, "s"},
        {"revoke.sweep_s", sweep, "s"},
        {"revoke.close_s", layers.closeS / reps, "s"},
        {"revoke.run_share", pump / run, "frac"},
        {"revoke.sweep_pages_per_s",
         sweep > 0 ? static_cast<double>(tot.sweep.pagesSwept) / sweep : 0,
         "1/s"},
        {"revoke.epochs", static_cast<double>(tot.epochs), "count"},
        {"revoke.slices", static_cast<double>(tot.slices), "count"},
        {"revoke.paint_granules",
         static_cast<double>(tot.bytesReleased / kGranuleBytes), "count"},
        {"revoke.pages_swept", static_cast<double>(tot.sweep.pagesSwept),
         "count"},
        {"revoke.pages_skipped_pte",
         static_cast<double>(tot.sweep.pagesSkippedPte), "count"},
        {"revoke.lines_swept", static_cast<double>(tot.sweep.linesSwept),
         "count"},
        {"revoke.caps_examined",
         static_cast<double>(tot.sweep.capsExamined), "count"},
        {"revoke.caps_revoked", static_cast<double>(tot.sweep.capsRevoked),
         "count"},
        {"revoke.revoked_per_examined",
         tot.sweep.capsExamined
             ? static_cast<double>(tot.sweep.capsRevoked) /
                   static_cast<double>(tot.sweep.capsExamined)
             : 0,
         "frac"},
        {"revoke.sweeper_retries", static_cast<double>(r.sweeperRetries),
         "count"},
        {"revoke.sweeper_catchups",
         static_cast<double>(r.sweeperCatchups), "count"},
        {"cache.dram_read_bytes", static_cast<double>(r.dramReadBytes),
         "B"},
        {"cache.dram_write_bytes", static_cast<double>(r.dramWriteBytes),
         "B"},
        {"cache.llc_misses", static_cast<double>(r.llcMisses), "count"},
        {"cache.off_core_lines", static_cast<double>(r.offCoreLines),
         "count"},
        {"trace.untraced_ops_per_s", untraced, "1/s"},
        {"trace.traced_ops_per_s", traced_ops, "1/s"},
        {"trace.overhead_frac", untraced / traced_ops - 1, "frac"},
    };

    // TenantManager steps its replayers itself, so on the tenant
    // workloads the per-op replay spans come from tenant 0's trace
    // replayed alone on a single-process machine of the same config.
    Layers probe;
    if (wl.multiTenant) {
        Workload single = wl;
        single.multiTenant = false;
        single.cfg.tenants = 1;
        replaySingle(single, traces[0], &probe);
    }
    const Layers &replay_layers = wl.multiTenant ? probe : layers;
    const double replay_reps = wl.multiTenant ? 1.0 : reps;
    const char *cls_names[3] = {"malloc", "free", "store"};
    for (int c = 0; c < 3; ++c) {
        const std::string key = std::string("replay.") + cls_names[c];
        metrics.push_back(
            {key + "_s", replay_layers.replayS[c] / replay_reps, "s"});
        metrics.push_back(
            {key + "_n",
             static_cast<double>(replay_layers.replayN[c]) / replay_reps,
             "count"});
    }
    return metrics;
}

int
runMain(int argc, char **argv)
{
    std::string name, golden_dir;
    uint64_t seed = 42;
    double seconds = 10;
    unsigned trace = 0;
    bool write_golden = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            name = argv[++i];
        } else if (a == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            trace = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (a == "--golden-dir" && has_value) {
            golden_dir = argv[++i];
        } else if (a == "--write-golden") {
            write_golden = true;
        } else {
            return usage();
        }
    }
    Workload wl;
    if (!makeWorkload(name, seed, wl) || trace > 1 || !(seconds > 0))
        return usage();

    // 1. Setup, several times; the last set of traces is kept.
    constexpr int kSetupReps = 3;
    std::vector<SetupTimes> setups;
    std::vector<workload::Trace> traces;
    for (int k = 0; k < kSetupReps; ++k) {
        SetupTimes t;
        traces = makeTraces(wl, t);
        {
            Span span(t.constructS);
            if (wl.multiTenant) {
                makeManager(wl, traces).reset();
            } else {
                SingleProcess p(wl, traces[0]);
            }
        }
        setups.push_back(t);
    }
    uint64_t ops = 0;
    for (const workload::Trace &tr : traces)
        ops += tr.ops.size();
    printHeader(wl, ops, trace);

    // 2. The library's pipeline: the parity reference.
    const Reference ref = runReference(wl, traces);

    // 3. Measured replays of the bench-assembled pipeline.
    Measured m = measure(wl, traces, ref, trace, seconds);

    // 4. Golden fingerprint at the default seed.
    Fingerprint model_lines;
    model_lines.add("model_overhead",
                    ref.model.shadowOverhead + ref.model.sweepOverhead);
    model_lines.add("model_sweep_dram_mib",
                    static_cast<double>(ref.model.sweepDramBytes) / MiB);
    model_lines.add("model_heap_overhead", ref.model.heapOverhead);
    const double paper_bar =
        wl.paperConfig
            ? baseline::publishedRowFor(wl.profile.name).cherivokeTime
            : 0;
    const double err_vs_paper =
        wl.paperConfig ? std::fabs(ref.normalizedTime - paper_bar) : 0;
    if (wl.paperConfig) {
        model_lines.add("model_normalized_time", ref.normalizedTime);
        model_lines.add("model_err_vs_paper", err_vs_paper);
    }
    if (seed == 42 && !golden_dir.empty()) {
        ++m.attempted;
        if (!checkGolden(golden_dir + "/" + wl.name + ".txt",
                         m.firstFull + model_lines.text(), write_golden))
            ++m.failed;
    } else {
        std::printf("# golden fingerprint: not checked (held-out seed; "
                    "parity gate only)\n");
    }

    std::printf("# fail_frac=%.6g (%llu of %llu checks failed)\n",
                static_cast<double>(m.failed) /
                    static_cast<double>(m.attempted),
                static_cast<unsigned long long>(m.failed),
                static_cast<unsigned long long>(m.attempted));
    // Host throughput swings with the machine's neighbours by more than
    // any useful regression bound (README.md, "Bounds and host noise"),
    // so it is reported here and, traced, as trace.untraced_ops_per_s.
    std::printf("# sim_ops_per_s=%.6g 1/s (median of %zu untraced "
                "replays)\n",
                median(m.untracedRate), m.untracedRate.size());
    if (wl.paperConfig) {
        std::printf("# model_err_vs_paper=%.6g (normalised time %.6g vs "
                    "fig. 5a %s bar %.6g)\n",
                    err_vs_paper, ref.normalizedTime,
                    wl.profile.name.c_str(), paper_bar);
    } else {
        std::printf("# model_err_vs_paper: n/a - off the paper's "
                    "configuration; model unvalidated\n");
    }

    const std::vector<Metric> metrics =
        trace == 0 ? endToEndMetrics(setups, ref)
                   : perLayerMetrics(wl, traces, setups, m);
    std::fflush(stdout);
    printResult(m.failed == 0, m.attempted, m.failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
