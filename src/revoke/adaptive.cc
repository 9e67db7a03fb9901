#include "revoke/adaptive.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "alloc/cherivoke_alloc.hh"
#include "alloc/chunk.hh"
#include "alloc/quarantine.hh"
#include "mem/addr_space.hh"
#include "mem/tagged_memory.hh"
#include "revoke/revocation_engine.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace revoke {

// ---------------------------------------------------------------------
// AdaptiveController
// ---------------------------------------------------------------------

AdaptiveController::AdaptiveController(const AdaptiveConfig &config)
    : config_(config)
{
    CHERIVOKE_ASSERT(config_.windowEpochs > 0);
    CHERIVOKE_ASSERT(config_.tiers > 0);
    CHERIVOKE_ASSERT(config_.tierAgeEpochs > 0);
    CHERIVOKE_ASSERT(config_.minPagesPerSlice > 0 &&
                     config_.minPagesPerSlice <=
                         config_.maxPagesPerSlice);
    CHERIVOKE_ASSERT(config_.maxSweepThreads > 0);
}

void
AdaptiveController::recordSample(const EpochSample &sample)
{
    window_.push_back(sample);
    while (window_.size() > config_.windowEpochs)
        window_.pop_front();

    // Tier hysteresis: a streak of hot-dominated quarantines promotes
    // the hot tier to its own scoped epochs; a streak of cold ones
    // demotes it back to full depth. The mid band resets both streaks
    // so a single borderline epoch cannot flip the mode.
    if (sample.hotShare >= config_.hotShareHigh) {
        demote_streak_ = 0;
        if (++promote_streak_ >= config_.promoteAfter)
            hot_promoted_ = true;
    } else if (sample.hotShare <= config_.hotShareLow) {
        promote_streak_ = 0;
        if (++demote_streak_ >= config_.demoteAfter)
            hot_promoted_ = false;
    } else {
        promote_streak_ = 0;
        demote_streak_ = 0;
    }
}

double
AdaptiveController::freeRate() const
{
    double seconds = 0;
    double freed = 0;
    for (const EpochSample &s : window_) {
        seconds += s.dtSeconds;
        freed += static_cast<double>(s.freedBytes);
    }
    return seconds > 0 ? freed / seconds : 0;
}

double
AdaptiveController::pointerDensity() const
{
    double caps = 0;
    double swept = 0;
    for (const EpochSample &s : window_) {
        caps += static_cast<double>(s.capsExamined) * kCapBytes;
        swept += static_cast<double>(s.sweptBytes);
    }
    return swept > 0 ? caps / swept : 0;
}

double
AdaptiveController::scanRate() const
{
    // Effective rate under the deterministic cost model: each epoch's
    // sweep takes the larger of its modelled CPU time and its DRAM
    // streaming time, plus a fixed startup — the same max() shape
    // sim::AnalyticalModel::sweepSeconds uses.
    double swept = 0;
    double seconds = 0;
    for (const EpochSample &s : window_) {
        if (s.sweptBytes == 0)
            continue;
        const double cpu = s.kernelCycles / config_.cpuHz;
        const double dram = static_cast<double>(s.sweptBytes) /
                            config_.dramBytesPerSec;
        swept += static_cast<double>(s.sweptBytes);
        seconds += std::max(cpu, dram) + config_.sweepStartupSeconds;
    }
    return seconds > 0 ? swept / seconds : 0;
}

ScheduleDecision
AdaptiveController::decide(const Pressure &now) const
{
    ScheduleDecision dec;
    dec.depth = config_.tiers - 1;
    dec.minBirth = 0;

    // §6.1.3: overhead = F·D / (R·Q) — monotone decreasing in the
    // quarantine fraction Q, so within [minTriggerFraction, ceiling]
    // the optimum is always the allocator's configured ceiling. This
    // also keeps the trigger bit-equal to the static policies'
    // needsSweep() threshold.
    const double ceiling =
        now.quarantineCeiling > 0 ? now.quarantineCeiling
                                  : dec.triggerFraction;
    dec.triggerFraction =
        std::min(std::max(ceiling, config_.minTriggerFraction),
                 ceiling);

    dec.pagesPerSlice = std::clamp<size_t>(dec.pagesPerSlice,
                                           config_.minPagesPerSlice,
                                           config_.maxPagesPerSlice);
    dec.sweepThreads = 1;

    const double F = freeRate();
    const double R = scanRate();
    const double H = static_cast<double>(now.liveBytes);

    if (F > 0 && H > 0 && R > 0) {
        // Predicted epoch period: the quarantine refills trigger·H
        // bytes at F bytes/second.
        const double period = dec.triggerFraction * H / F;

        // Threads: keep the sweep's share of the period under
        // targetDuty. ceil() is monotone nondecreasing in F (period
        // shrinks as F grows), clamped at the knob bound.
        const uint64_t full_bytes = now.fullSweepBytes
                                        ? now.fullSweepBytes
                                        : now.liveBytes;
        const double sweep_sec1 =
            static_cast<double>(full_bytes) / R +
            config_.sweepStartupSeconds;
        double want = sweep_sec1 / (config_.targetDuty * period);
        want = std::clamp(
            want, 1.0, static_cast<double>(config_.maxSweepThreads));
        dec.sweepThreads =
            static_cast<unsigned>(std::ceil(want - 1e-12));

        // Slice size: one bounded pause should cost about
        // slicePeriodFraction of the period at the effective scan
        // rate — monotone nonincreasing in F, clamped at the bounds.
        double slice_pages = period * config_.slicePeriodFraction *
                             R / kPageBytes;
        slice_pages = std::clamp(
            slice_pages,
            static_cast<double>(config_.minPagesPerSlice),
            static_cast<double>(config_.maxPagesPerSlice));
        dec.pagesPerSlice = static_cast<size_t>(slice_pages);
    }

    // Hierarchical depth: a hot-tier scoped epoch runs only when the
    // hysteresis has promoted the hot tier AND the scoped sweep is
    // sound AND the model predicts a clear win — otherwise adaptive
    // degrades to exactly the full-depth epochs the static policies
    // run, which is what makes the policy_sweep gate unconditional.
    if (config_.tiers > 1 && hot_promoted_) {
        const uint64_t cutoff =
            now.epochSeq >= config_.tierAgeEpochs
                ? now.epochSeq - config_.tierAgeEpochs + 1
                : 1;
        // Soundness: stores before the listener attached are
        // unrecorded, and birth stamps saturate at
        // kBirthSaturated-1 — past either limit the scoped skip is
        // no longer provable and shallow epochs stop firing.
        bool ok = cutoff > now.attachSeq &&
                  cutoff < alloc::kBirthSaturated;
        // Economics: the tier-local walk must be shallowMargin×
        // smaller than the full-depth walk...
        ok = ok && now.hotBytes > 0 && now.fullSweepBytes > 0 &&
             static_cast<double>(now.fullSweepBytes) >=
                 config_.shallowMargin *
                     static_cast<double>(now.hotSweepBytes);
        // ...and releasing the hot bytes must actually clear the
        // quarantine pressure, or a full-depth epoch follows anyway.
        ok = ok &&
             static_cast<double>(now.quarantinedBytes) -
                     static_cast<double>(now.hotBytes) <
                 dec.triggerFraction * H;
        if (ok) {
            dec.depth = 0;
            dec.minBirth = static_cast<uint32_t>(cutoff);
        }
    }
    return dec;
}

// ---------------------------------------------------------------------
// TierMap
// ---------------------------------------------------------------------

void
TierMap::attach(mem::TaggedMemory &memory, uint64_t lo, uint64_t hi)
{
    CHERIVOKE_ASSERT(!memory_, "(TierMap attached twice)");
    memory_ = &memory;
    lo_ = lo;
    hi_ = hi;
    attach_seq_ = seq_;
    listener_id_ = memory.addCapStoreListener(
        lo, hi, [this](uint64_t addr) { onCapStore(addr); });
}

void
TierMap::detach()
{
    if (!memory_)
        return;
    memory_->removeCapStoreListener(listener_id_);
    memory_ = nullptr;
    listener_id_ = 0;
    page_seq_.clear();
}

uint32_t
TierMap::currentBirthStamp() const
{
    return static_cast<uint32_t>(
        std::min<uint64_t>(seq_, alloc::kBirthSaturated - 1));
}

bool
TierMap::pageMayHoldYoung(uint64_t page_addr, uint32_t min_birth) const
{
    if (min_birth == 0)
        return true; // unscoped: everything qualifies
    if (page_addr < lo_ || page_addr >= hi_)
        return true; // outside the tracked range: assume the worst
    if (min_birth <= attach_seq_)
        return true; // pre-attach stores were never recorded
    const auto it = page_seq_.find(page_addr & ~(kPageBytes - 1));
    if (it == page_seq_.end())
        return false; // no tagged store ever landed here
    return it->second >= min_birth;
}

uint64_t
TierMap::pagesAtOrAfter(uint32_t min_birth) const
{
    uint64_t pages = 0;
    for (const auto &entry : page_seq_) {
        if (entry.second >= min_birth)
            ++pages;
    }
    return pages;
}

void
TierMap::onCapStore(uint64_t addr)
{
    page_seq_[addr & ~(kPageBytes - 1)] = seq_;
}

// ---------------------------------------------------------------------
// The adaptive policy
// ---------------------------------------------------------------------

namespace {

/**
 * PolicyKind::Adaptive: per-domain controller + tier map, driving
 * decided epochs through the standard engine protocol. All inputs
 * are modelled (CostModelClock, epoch statistics, quarantine
 * contents), so runs replay bit-identically; backends that ignore
 * tier scope (color, objid) simply run every epoch full-depth.
 */
class AdaptivePolicy final : public RevocationPolicy
{
  public:
    explicit AdaptivePolicy(const AdaptiveConfig &config)
        : config_(config)
    {}

    ~AdaptivePolicy() override
    {
        // Engine teardown never retires domains: detach from every
        // allocator that outlives the engine (the same contract the
        // engine destructor honours for backend observers).
        for (auto &entry : states_) {
            DomainState &st = *entry.second;
            if (st.allocator &&
                st.allocator->tierStamper() == &st)
                st.allocator->setTierStamper(nullptr);
        }
    }

    PolicyKind kind() const override
    {
        return PolicyKind::Adaptive;
    }
    const char *name() const override { return "adaptive"; }
    bool needsLoadBarrier() const override { return false; }

    bool
    pump(RevocationEngine &engine,
         cache::Hierarchy *hierarchy) override
    {
        // Epoch-owner-wins drains route here with an epoch already
        // open (begun outside this policy): just advance it.
        if (engine.epochOpen()) {
            if (engine.step(engine.config().pagesPerSlice,
                            hierarchy) == 0)
                engine.finishEpoch();
            return true;
        }
        const size_t index = engine.activeDomain();
        if (!engine.domainBackend(index).needsRevocation())
            return false;
        DomainState &st = stateFor(engine, index);
        // First epoch at the decided depth; if a shallow epoch did
        // not release enough to clear pressure, escalate to full
        // depth — epochs are synchronous, so two rounds always
        // settle the quarantine back under its ceiling.
        for (int round = 0; round < 2; ++round) {
            if (!engine.domainBackend(index).needsRevocation())
                break;
            const AdaptiveController::Pressure pressure =
                measure(engine, index, st);
            ScheduleDecision dec = st.controller.decide(pressure);
            if (round > 0) {
                dec.depth = config_.tiers - 1;
                dec.minBirth = 0;
            }
            runDecided(engine, index, st, dec,
                       hotShare(pressure), hierarchy);
        }
        return true;
    }

    EpochStats
    runEpoch(RevocationEngine &engine,
             cache::Hierarchy *hierarchy) override
    {
        // Forced pauses (revokeNow, §3.7 strict mode) are always
        // full-depth: the caller wants every stale capability gone.
        const size_t index = engine.activeDomain();
        DomainState &st = stateFor(engine, index);
        const AdaptiveController::Pressure pressure =
            measure(engine, index, st);
        ScheduleDecision dec = st.controller.decide(pressure);
        dec.depth = config_.tiers - 1;
        dec.minBirth = 0;
        return runDecided(engine, index, st, dec,
                          hotShare(pressure), hierarchy);
    }

    void
    onDomainRetired(RevocationEngine &engine, size_t index) override
    {
        (void)engine;
        const auto it = states_.find(index);
        if (it == states_.end())
            return;
        DomainState &st = *it->second;
        if (st.allocator && st.allocator->tierStamper() == &st)
            st.allocator->setTierStamper(nullptr);
        st.tiers.detach();
        states_.erase(it);
    }

  private:
    struct DomainState final : alloc::TierStamper
    {
        explicit DomainState(const AdaptiveConfig &config)
            : controller(config)
        {}

        uint32_t
        currentBirthStamp() const override
        {
            return tiers.currentBirthStamp();
        }

        AdaptiveController controller;
        TierMap tiers;
        alloc::CherivokeAllocator *allocator = nullptr;
        uint64_t lastFreed = 0;   //!< cumulative freed at last sample
        uint64_t lastClockNs = 0; //!< model time at last sample
        uint64_t lastFullSweepBytes = 0;
    };

    /** Total bytes ever freed on the domain: what still sits in
     *  quarantine plus everything epochs have released. */
    static uint64_t
    cumulativeFreed(RevocationEngine &engine, size_t index)
    {
        return engine.domainAllocator(index).quarantinedBytes() +
               engine.domainTotals(index).bytesReleased;
    }

    static double
    hotShare(const AdaptiveController::Pressure &pressure)
    {
        return pressure.quarantinedBytes
                   ? static_cast<double>(pressure.hotBytes) /
                         static_cast<double>(
                             pressure.quarantinedBytes)
                   : 0;
    }

    DomainState &
    stateFor(RevocationEngine &engine, size_t index)
    {
        std::unique_ptr<DomainState> &slot = states_[index];
        alloc::CherivokeAllocator &allocator =
            engine.domainAllocator(index);
        if (slot && slot->allocator != &allocator) {
            // The slot was rebound without a retirement callback:
            // the old allocator is gone (never touch it), but the
            // memory outlives tenants, so drop the store listener
            // before starting fresh.
            slot->tiers.detach();
            slot.reset();
        }
        if (!slot) {
            slot = std::make_unique<DomainState>(config_);
            slot->allocator = &allocator;
            allocator.setTierStamper(slot.get());
            // Track the whole address space: stores outside the
            // domain's segments merely mark extra pages young
            // (conservative), while the worklist only ever covers
            // the domain's own segments.
            slot->tiers.attach(engine.domainSpace(index).memory(), 0,
                               ~static_cast<uint64_t>(0));
            slot->lastClockNs = engine.modelClock().peekNs();
            slot->lastFreed = cumulativeFreed(engine, index);
        }
        return *slot;
    }

    AdaptiveController::Pressure
    measure(RevocationEngine &engine, size_t index,
            DomainState &st) const
    {
        const alloc::CherivokeAllocator &allocator =
            engine.domainAllocator(index);
        AdaptiveController::Pressure pressure;
        pressure.quarantinedBytes = allocator.quarantinedBytes();
        pressure.liveBytes = allocator.liveBytes();
        pressure.quarantineCeiling =
            allocator.config().quarantineFraction;
        pressure.epochSeq = st.tiers.seq();
        pressure.attachSeq = st.tiers.attachSeq();
        const uint64_t cutoff =
            pressure.epochSeq >= config_.tierAgeEpochs
                ? pressure.epochSeq - config_.tierAgeEpochs + 1
                : 1;
        pressure.hotBytes = allocator.quarantine().bytesBornSince(
            static_cast<uint32_t>(
                std::min<uint64_t>(cutoff, alloc::kBirthSaturated)));
        pressure.hotSweepBytes =
            st.tiers.pagesAtOrAfter(static_cast<uint32_t>(
                std::min<uint64_t>(cutoff,
                                   alloc::kBirthSaturated))) *
            kPageBytes;
        pressure.fullSweepBytes = st.lastFullSweepBytes
                                      ? st.lastFullSweepBytes
                                      : allocator.footprintBytes();
        return pressure;
    }

    EpochStats
    runDecided(RevocationEngine &engine, size_t index,
               DomainState &st, const ScheduleDecision &dec,
               double hot_share, cache::Hierarchy *hierarchy)
    {
        RevocationBackend &backend = engine.domainBackend(index);
        EpochScope scope;
        if (dec.minBirth != 0) {
            scope.minBirth = dec.minBirth;
            const TierMap *tiers = &st.tiers;
            const uint32_t min_birth = dec.minBirth;
            scope.pageQualifies = [tiers,
                                   min_birth](uint64_t page_addr) {
                return tiers->pageMayHoldYoung(page_addr, min_birth);
            };
        }
        backend.setEpochScope(scope);
        // The sweep thread count is a performance knob only: the
        // threaded paint and sweep report statistics bit-identical to
        // serial ones, so changing it never perturbs modelled output.
        SweepOptions &options = engine.sweeper().options();
        const unsigned prev_threads = options.threads;
        options.threads = dec.sweepThreads;

        engine.beginEpoch();
        while (engine.step(dec.pagesPerSlice, hierarchy) > 0) {
        }
        engine.finishEpoch();

        options.threads = prev_threads;
        backend.setEpochScope(EpochScope{});

        const EpochStats &epoch = engine.lastEpoch();
        if (dec.minBirth == 0)
            st.lastFullSweepBytes = epoch.sweep.bytesSwept();

        EpochSample sample;
        const uint64_t now_ns = engine.modelClock().peekNs();
        sample.dtSeconds =
            static_cast<double>(now_ns - st.lastClockNs) * 1e-9;
        st.lastClockNs = now_ns;
        const uint64_t freed = cumulativeFreed(engine, index);
        sample.freedBytes =
            freed >= st.lastFreed ? freed - st.lastFreed : 0;
        st.lastFreed = freed;
        sample.liveBytes =
            engine.domainAllocator(index).liveBytes();
        sample.sweptBytes = epoch.sweep.bytesSwept();
        sample.capsExamined = epoch.sweep.capsExamined;
        sample.kernelCycles = epoch.sweep.kernelCycles;
        sample.releasedBytes = epoch.bytesReleased;
        sample.hotShare = hot_share;
        st.controller.recordSample(sample);
        st.tiers.advanceEpoch();
        return epoch;
    }

    AdaptiveConfig config_;
    /** Domain index -> state. unique_ptr keeps the TierStamper
     *  address stable across rehashes. Never iterated into ordered
     *  output (the destructor's detach order does not matter). */
    std::unordered_map<size_t, std::unique_ptr<DomainState>> states_;
};

} // namespace

std::unique_ptr<RevocationPolicy>
makeAdaptivePolicy(const AdaptiveConfig &config)
{
    return std::make_unique<AdaptivePolicy>(config);
}

} // namespace revoke
} // namespace cherivoke
