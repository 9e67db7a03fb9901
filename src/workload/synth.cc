#include "workload/synth.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "workload/live_set.hh"

namespace cherivoke {
namespace workload {

namespace {

/** Virtual-time ticks of an allocation-quiet benchmark's trace. */
constexpr int kQuietTicks = 100;
/** Chance that an allocation is also rooted in globals (RootPtr). */
constexpr double kRootChance = 0.05;
/** Chance that a steady-state step also writes data (StoreData). */
constexpr double kDataWriteChance = 0.1;

/** Pointer stores that populate a @p size-byte object allocated in a
 *  pointer phase: @p line_density of its lines, at least one. */
uint64_t
storesFor(uint64_t size, double line_density)
{
    const uint64_t lines = std::max<uint64_t>(1, size / 64);
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(lines) *
                                 line_density));
}

/** Mean size and mean pointer stores of one allocation drawn from
 *  @p law, by midpoint quadrature over the uniform variate the draw
 *  exponentiates. */
struct SizeLawMeans
{
    double bytes = 0;
    double stores = 0;
};

SizeLawMeans
sizeLawMeans(const LogUniform &law, double line_density)
{
    constexpr int kPoints = 64;
    SizeLawMeans means;
    for (int k = 0; k < kPoints; ++k) {
        const uint64_t size = law.at((k + 0.5) / kPoints);
        means.bytes += static_cast<double>(size);
        means.stores +=
            static_cast<double>(storesFor(size, line_density));
    }
    means.bytes /= kPoints;
    means.stores /= kPoints;
    return means;
}

} // namespace

Trace
synthesize(const BenchmarkProfile &profile, const SynthConfig &config)
{
    OpVector ops;
    Rng rng(config.seed);

    const double s = config.scale;
    const uint64_t live_target = std::max<uint64_t>(
        static_cast<uint64_t>(profile.liveHeapMiB * MiB * s),
        config.minLiveBytes);
    const double free_bytes_per_sec =
        profile.freeRateMiBps * static_cast<double>(MiB) * s;
    // Scale large-object sizes down when the scaled byte rate would
    // otherwise produce too few events to exercise the machinery
    // (the measured MiB/s target is preserved either way).
    double mean_alloc = profile.meanAllocBytes();
    if (free_bytes_per_sec > 0) {
        const double max_mean =
            free_bytes_per_sec * config.durationSec / 30.0;
        mean_alloc = std::clamp(mean_alloc, 64.0,
                                std::max(1024.0, max_mean));
    }
    const double alloc_events_per_sec =
        free_bytes_per_sec / mean_alloc;

    // Pointer placement is *bursty*: programs cluster pointer-dense
    // structures (vtables, node pools) onto the same pages, so page
    // density tracks the byte fraction of pointer-bearing phases
    // rather than a per-object coin flip. Phases span several pages
    // of consecutive allocations.
    const double ptr_phase_fraction = profile.pagesWithPointers;
    const double line_density_within =
        ptr_phase_fraction > 0.01
            ? std::min(1.0, profile.linePointerDensity /
                                ptr_phase_fraction)
            : 0.0;
    bool ptr_phase = false;
    int64_t phase_bytes_left = 0;

    const uint64_t size_lo = std::max<uint64_t>(
        16, static_cast<uint64_t>(mean_alloc / 4));
    const uint64_t size_hi = std::max<uint64_t>(
        size_lo + 16, static_cast<uint64_t>(mean_alloc * 2.5));
    const LogUniform size_law(size_lo, size_hi);

    const uint64_t steps =
        alloc_events_per_sec > 1.0
            ? static_cast<uint64_t>(config.durationSec *
                                    alloc_events_per_sec)
            : 0;

    // Reserve the trace and the live set once, from the expected
    // counts the loops below produce (plus a 25% margin), instead of
    // growing them by doubling. Each allocation emits a Malloc, a
    // RootPtr at kRootChance and, in a pointer phase, its stores;
    // each steady-state step adds a Free and, at kDataWriteChance, a
    // StoreData. Both buffers are huge-page mappings, so growing one
    // would map a new buffer and copy every entry. The margin costs
    // address space, plus at most the rest of the last 2 MiB page
    // written: pages synthesis never reaches are never faulted in.
    const SizeLawMeans per_alloc =
        sizeLawMeans(size_law, line_density_within);
    const double expected_allocs =
        static_cast<double>(live_target) / per_alloc.bytes +
        static_cast<double>(steps);
    const double expected_ops =
        expected_allocs * (1.0 + kRootChance +
                           ptr_phase_fraction * per_alloc.stores) +
        (alloc_events_per_sec > 1.0
             ? (1.0 + kDataWriteChance) * static_cast<double>(steps)
             : kQuietTicks);
    constexpr double kMargin = 1.25;
    ops.reserve(static_cast<size_t>(kMargin * expected_ops));

    uint64_t live_bytes = 0;
    LiveSet live;
    live.reserve(static_cast<size_t>(kMargin * expected_allocs));

    auto emit_alloc = [&](double dt) {
        const uint64_t size = size_law.at(rng.nextDouble());
        const uint64_t id = live.push(size);
        TraceOp op;
        op.kind = OpKind::Malloc;
        op.id = id;
        op.size = size;
        op.dt = dt;
        ops.push_back(op);
        live_bytes += size;

        // Phase bookkeeping: switch phases every few pages' worth
        // of allocation, landing in a pointer phase with the target
        // probability.
        phase_bytes_left -= static_cast<int64_t>(size);
        if (phase_bytes_left <= 0) {
            ptr_phase = rng.nextBool(ptr_phase_fraction);
            phase_bytes_left = static_cast<int64_t>(
                rng.nextRange(4, 16) * kPageBytes);
        }

        // Populate the object with pointers to live objects.
        if (ptr_phase && !live.empty()) {
            const uint64_t stores =
                storesFor(size, line_density_within);
            for (uint64_t k = 0; k < stores; ++k) {
                const LiveSet::Object src =
                    live.at(rng.nextBounded(live.size()));
                TraceOp st;
                st.kind = OpKind::StorePtr;
                st.src = src.id;
                st.dst = id;
                st.offset = static_cast<uint32_t>(
                    size >= 32
                        ? (rng.nextBounded((size - 16) / 16)) * 16
                        : 0);
                ops.push_back(st);
            }
        }
        // Occasionally root the object in globals (stack/global
        // pointers the sweep must also visit).
        if (rng.nextBool(kRootChance)) {
            TraceOp rt;
            rt.kind = OpKind::RootPtr;
            rt.src = id;
            rt.offset = static_cast<uint32_t>(rng.nextBounded(4096));
            ops.push_back(rt);
        }
    };

    auto emit_free_one = [&]() {
        if (live.empty())
            return;
        // FIFO frees the oldest object; temporal fragmentation frees
        // a random-aged one, interleaving lifetimes on the heap
        // (§6.1.1).
        const uint64_t rank =
            rng.nextBool(profile.temporalFragmentation)
                ? rng.nextBounded(live.size())
                : 0;
        const LiveSet::Object obj = live.erase(rank);
        live_bytes -= obj.size;
        TraceOp op;
        op.kind = OpKind::Free;
        op.id = obj.id;
        ops.push_back(op);
    };

    // Ramp: fill the live set (no virtual time elapses; SPEC-style
    // programs build their working set during init).
    while (live_bytes < live_target)
        emit_alloc(0.0);

    // Steady state.
    if (alloc_events_per_sec > 1.0) {
        const double dt = 1.0 / alloc_events_per_sec;
        for (uint64_t i = 0; i < steps; ++i) {
            emit_alloc(dt);
            while (live_bytes > live_target)
                emit_free_one();
            // Sprinkle plain data writes (tag-killing overwrites).
            if (rng.nextBool(kDataWriteChance) && !live.empty()) {
                const LiveSet::Object dst =
                    live.at(rng.nextBounded(live.size()));
                TraceOp st;
                st.kind = OpKind::StoreData;
                st.dst = dst.id;
                st.offset = static_cast<uint32_t>(
                    dst.size >= 16
                        ? (rng.nextBounded(dst.size / 8)) * 8
                        : 0);
                ops.push_back(st);
            }
        }
    } else {
        // Allocation-quiet benchmark (bzip2, sjeng, lbm...): virtual
        // time passes with data writes only.
        for (int i = 0; i < kQuietTicks; ++i) {
            TraceOp st;
            st.kind = OpKind::StoreData;
            st.dst = live.empty() ? 0 : live.front().id;
            st.offset = 0;
            st.dt = config.durationSec / kQuietTicks;
            ops.push_back(st);
        }
    }
    return Trace{std::move(ops)};
}

} // namespace workload
} // namespace cherivoke
