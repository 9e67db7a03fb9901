/**
 * @file
 * The one writer behind every BENCH_*.json. A report has a fixed
 * schema:
 *
 *   schema         kReportSchema; a reader compares two reports only
 *                  when their schemas match
 *   bench          the producing binary
 *   config         every CHERIVOKE_* knob the run read, as text
 *   host           facts about the machine (hardware threads)
 *   deterministic  everything two same-seed runs reproduce exactly;
 *                  tools/check_bench_regression.py diffs this block
 *                  and nothing else
 *   timing         host wall-clock readings and the process's peak
 *                  RSS so far (peak_rss_mib), never compared
 *
 * Doubles render with %.17g, which round-trips every IEEE double, so
 * a two-pass determinism gate compares its passes' rendered blocks
 * byte for byte. The renderers below give DriverResult, EngineTotals
 * and multi-tenant results one field set wherever a bench reports or
 * gates them.
 */

#ifndef CHERIVOKE_BENCH_REPORT_HH
#define CHERIVOKE_BENCH_REPORT_HH

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hh"

namespace cherivoke {
namespace bench {

/** Bumped whenever the report layout changes incompatibly. */
constexpr int kReportSchema = 1;

/** A JSON value built in insertion order; an object by default. */
class Json
{
  public:
    Json() = default;

    template <typename T>
        requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
    Json(T value) : text_(std::to_string(value))
    {}

    Json(double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        text_ = std::isfinite(value) ? buf : "null";
    }

    Json(bool value) : text_(value ? "true" : "false") {}

    Json(const std::string &value) : text_("\"")
    {
        for (const char c : value) {
            if (c == '"' || c == '\\') {
                text_ += '\\';
                text_ += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                text_ += buf;
            } else {
                text_ += c;
            }
        }
        text_ += '"';
    }

    Json(const char *value) : Json(std::string(value)) {}

    static Json
    array()
    {
        Json json;
        json.array_ = true;
        return json;
    }

    /** Add an object field. */
    Json &
    set(const std::string &key, Json value)
    {
        items_.emplace_back(key, std::move(value));
        return *this;
    }

    /** Append an array item. */
    Json &
    push(Json value)
    {
        return set("", std::move(value));
    }

    /** The value as text; a container whose items are all scalars
     *  stays on one line. */
    std::string
    render(size_t indent = 0) const
    {
        if (!text_.empty())
            return text_;
        bool flat = true;
        for (const auto &item : items_)
            flat = flat && !item.second.text_.empty();
        std::string out(1, array_ ? '[' : '{');
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            if (!flat)
                out.append("\n").append(indent + 2, ' ');
            else if (i)
                out += ' ';
            if (!array_)
                out.append(Json(items_[i].first).text_).append(": ");
            out += items_[i].second.render(indent + 2);
        }
        if (!flat)
            out.append("\n").append(indent, ' ');
        out += array_ ? ']' : '}';
        return out;
    }

    bool
    operator==(const Json &other) const
    {
        return render() == other.render();
    }

  private:
    std::string text_; //!< a scalar's rendering; empty = container
    bool array_ = false;
    std::vector<std::pair<std::string, Json>> items_;
};

/** One BENCH_*.json: fill the two blocks, then write(). */
struct Report
{
    const char *bench;
    Json deterministic = Json();
    Json timing = Json();

    /** Write the report to @p path and say so on stdout; the
     *  timing block gains the process's peak RSS so far. */
    void
    write(const char *path) const
    {
        Json config;
        for (const EnvKnob &knob : envKnobs())
            config.set(knob.name, knob.value);
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        Json timed = timing;
        // Linux reports ru_maxrss in KiB.
        timed.set("peak_rss_mib",
                  static_cast<double>(usage.ru_maxrss) / 1024);
        Json doc;
        doc.set("schema", kReportSchema)
            .set("bench", bench)
            .set("config", std::move(config))
            .set("host", Json().set("hw_concurrency",
                                    std::thread::hardware_concurrency()))
            .set("deterministic", deterministic)
            .set("timing", std::move(timed));
        std::FILE *out = std::fopen(path, "w");
        if (!out)
            fatal("cannot write %s", path);
        std::fprintf(out, "%s\n", doc.render().c_str());
        std::fclose(out);
        std::printf("wrote %s\n", path);
    }
};

/** @name Result renderers: each appends its fields to @p out */
/// @{
inline Json &
addEngine(Json &out, const revoke::EngineTotals &e)
{
    return out.set("epochs", e.epochs)
        .set("slices", e.slices)
        .set("paint_ops", e.paint.total())
        .set("pages_swept", e.sweep.pagesSwept)
        .set("pages_skipped", e.sweep.pagesSkippedPte)
        .set("pages_skipped_tier", e.sweep.pagesSkippedTier)
        .set("lines_swept", e.sweep.linesSwept)
        .set("caps_examined", e.sweep.capsExamined)
        .set("caps_revoked", e.sweep.capsRevoked)
        .set("internal_frees", e.internalFrees)
        .set("bytes_released", e.bytesReleased);
}

inline Json &
addDriver(Json &out, const workload::DriverResult &r)
{
    out.set("allocs", r.allocCalls)
        .set("frees", r.freeCalls)
        .set("freed_bytes", r.freedBytes)
        .set("ptr_stores", r.ptrStores)
        .set("peak_live_allocs", r.peakLiveAllocs)
        .set("peak_live_bytes", r.peakLiveBytes)
        .set("peak_quarantine_bytes", r.peakQuarantineBytes)
        .set("peak_footprint_bytes", r.peakFootprintBytes)
        .set("virtual_sec", r.virtualSeconds)
        .set("page_density", r.pageDensity)
        .set("line_density", r.lineDensity);
    return addEngine(out, r.revoker);
}

/** A single-process run: its driver statistics and the modelled
 *  overheads the figures plot. */
inline Json &
addBench(Json &out, const sim::BenchResult &r)
{
    return addDriver(out, r.run)
        .set("normalized_time", r.normalizedTime)
        .set("sweep_overhead", r.sweepOverhead)
        .set("shadow_overhead", r.shadowOverhead)
        .set("predicted_sweep_overhead", r.predictedSweepOverhead)
        .set("traffic_pct", r.trafficOverheadPct);
}

/** One tenant's statistics without its identity, so a tenant in a
 *  reused slot can be compared with one in a fresh slot. */
inline Json &
addTenant(Json &out, const tenant::TenantResult &t)
{
    out.set("ops_applied", t.opsApplied)
        .set("ops_total", t.opsTotal)
        .set("mutator_fp", t.mutator.fingerprint());
    return addDriver(out, t.run);
}

inline Json
tenantJson(const tenant::TenantResult &t)
{
    Json out;
    return addTenant(out, t);
}

/**
 * A multi-tenant run: aggregates, modelled overheads, the lifecycle
 * and fault logs, and every tenant. Background-sweeper supervision
 * events are left out: they differ with the sweeper on, and nothing
 * modelled may.
 */
inline Json &
addMultiTenant(Json &out, const sim::MultiTenantBenchResult &r)
{
    const tenant::MultiTenantResult &m = r.run;
    out.set("ops", m.totalOps)
        .set("allocs", m.allocCalls)
        .set("frees", m.freeCalls)
        .set("freed_bytes", m.freedBytes)
        .set("ptr_stores", m.ptrStores)
        .set("peak_live_allocs", m.peakAggLiveAllocs)
        .set("peak_live_bytes", m.peakAggLiveBytes)
        .set("peak_quarantine_bytes", m.peakAggQuarantineBytes)
        .set("peak_footprint_bytes", m.peakAggFootprintBytes)
        .set("virtual_sec", m.virtualSeconds);
    addEngine(out, m.engine)
        .set("sweep_overhead", r.sweepOverhead)
        .set("shadow_overhead", r.shadowOverhead)
        .set("traffic_pct", r.trafficOverheadPct)
        .set("scan_rate", r.achievedScanRate)
        .set("spawns", m.spawns)
        .set("retires", m.retires)
        .set("slots_reused", m.slotsReused)
        .set("faults_contained", m.faultsContained)
        .set("oom_kills", m.oomKills)
        .set("pressure_events", m.pressureEvents)
        .set("pages_reclaimed", m.pressurePagesReclaimed);
    Json lifecycle = Json::array();
    for (const tenant::LifecycleEvent &ev : m.lifecycle) {
        lifecycle.push(
            Json()
                .set("event",
                     ev.kind == tenant::LifecycleEvent::Kind::Spawn
                         ? "spawn"
                         : "retire")
                .set("tenant_id", ev.tenantId)
                .set("slot", ev.slot)
                .set("step", ev.step)
                .set("reused_slot", ev.reusedSlot)
                .set("pages_released", ev.pagesReleased));
    }
    Json faults = Json::array();
    for (const tenant::FaultRecord &f : m.faults) {
        faults.push(Json()
                        .set("kind", heapFaultKindName(f.kind))
                        .set("tenant_id", f.tenantId)
                        .set("slot", f.slot)
                        .set("step", f.step)
                        .set("op", f.opIndex)
                        .set("injected", f.injected)
                        .set("message", f.message));
    }
    Json tenants = Json::array();
    for (const tenant::TenantResult &t : m.tenants) {
        Json row;
        row.set("id", t.tenantId).set("slot", t.index);
        tenants.push(std::move(addTenant(row, t)));
    }
    return out.set("lifecycle", std::move(lifecycle))
        .set("faults", std::move(faults))
        .set("per_tenant", std::move(tenants));
}

inline Json
multiTenantJson(const sim::MultiTenantBenchResult &r)
{
    Json out;
    return addMultiTenant(out, r);
}
/// @}

} // namespace bench
} // namespace cherivoke

#endif // CHERIVOKE_BENCH_REPORT_HH
