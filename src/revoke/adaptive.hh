/**
 * @file
 * Adaptive, hierarchical revocation scheduling (ROADMAP item; paper
 * §6.1.3 as the control law). The pieces:
 *
 *  - CostModelClock: the model-time source the controller consumes
 *    instead of wall clock. The trace drivers advance it by each
 *    operation's virtual duration, so every statistic the controller
 *    sees is a deterministic function of the trace — adaptive runs
 *    replay bit-identically.
 *
 *  - AdaptiveController: a pure, deterministic state machine. It
 *    samples free rate, pointer density (sweep-time tag counts) and
 *    effective scan rate over a sliding window of completed epochs,
 *    feeds the §6.1.3 model (overhead = F·D / (R·Q)), and picks the
 *    next epoch's quarantine trigger, pagesPerSlice, sweep thread
 *    count and tier depth. No engine types in its interface: unit
 *    tests drive it with synthetic samples.
 *
 *  - TierMap: PoisonCap-style generation tiers. Chunks are birth-
 *    stamped at allocation (alloc::TierStamper); a capability-store
 *    listener records, per page, the latest epoch sequence at which
 *    a tagged store landed. Because a capability to chunk X can only
 *    be stored *after* X is allocated, a page whose last tagged
 *    store predates a birth cutoff cannot hold a capability to any
 *    chunk born at/after that cutoff — so a tier-scoped sweep may
 *    skip it (SweepStats::pagesSkippedTier) while remaining sound.
 *
 *  - makeAdaptivePolicy(): the fourth engine policy
 *    (PolicyKind::Adaptive, CHERIVOKE_POLICY=adaptive). The policy
 *    object lives in adaptive.cc; it composes with all three
 *    backends and per-tenant policy mixes. Backends that cannot be
 *    scoped (color, objid) simply run full-depth epochs under it.
 *
 * Determinism contract: the controller reads *only* modelled inputs
 * (trace-driven clock, epoch statistics, quarantine contents) —
 * never wall time, never thread scheduling. Non-adaptive policies
 * never install a stamper or listener, so their size words, sweeps
 * and outputs stay byte-equal to pre-adaptive builds.
 */

#ifndef CHERIVOKE_REVOKE_ADAPTIVE_HH
#define CHERIVOKE_REVOKE_ADAPTIVE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "support/units.hh"

namespace cherivoke {

namespace mem {
class TaggedMemory;
}

namespace revoke {

class RevocationPolicy;

/**
 * Deterministic model-time clock: advanced by the trace drivers in
 * lock-step with modelled virtual seconds, read by the adaptive
 * controller. Nothing here reads a host clock, so wall time can
 * never reach a scheduling decision.
 */
class CostModelClock
{
  public:
    uint64_t peekNs() const { return now_ns_; }

    void set(uint64_t ns) { now_ns_ = ns; }
    void advance(uint64_t ns) { now_ns_ += ns; }

    /** Advance by @p seconds of model time (non-negative). */
    void
    advanceSeconds(double seconds)
    {
        if (seconds > 0)
            now_ns_ += static_cast<uint64_t>(seconds * 1e9);
    }

  private:
    uint64_t now_ns_ = 0;
};

/** Tunables for the adaptive controller. All defaults are global —
 *  the policy_sweep gate runs every SPEC profile without per-profile
 *  tuning. */
struct AdaptiveConfig
{
    /** Sliding window of completed epochs the estimates average. */
    unsigned windowEpochs = 8;

    /** Generation tiers (1 = no hierarchy; 3 = hot/warm/cold). */
    unsigned tiers = 3;
    /** Age span of one tier, in epochs: tier 0 (hot) holds chunks
     *  born within the last tierAgeEpochs epochs. */
    unsigned tierAgeEpochs = 4;

    /** Hysteresis: consecutive high-hot-share samples before the hot
     *  tier is promoted to its own scoped epochs, and consecutive
     *  low-share samples before it demotes back to full depth. */
    unsigned promoteAfter = 3;
    unsigned demoteAfter = 3;
    /** Hot-share thresholds the hysteresis compares against. */
    double hotShareHigh = 0.55;
    double hotShareLow = 0.25;

    /** A scoped epoch must be predicted cheaper than a full-depth
     *  one by at least this factor, or full depth runs — the gate
     *  margin that keeps adaptive from ever losing to a static
     *  policy on modelled overhead. */
    double shallowMargin = 1.5;

    /** Knob bounds the decisions clamp to. */
    size_t minPagesPerSlice = 16;
    size_t maxPagesPerSlice = 4096;
    unsigned maxSweepThreads = 4;
    /** Trigger-fraction floor (the ceiling is the allocator's
     *  configured quarantine fraction). */
    double minTriggerFraction = 0.05;

    /** Pause budget: a slice should take about this fraction of the
     *  predicted epoch period; the sweep itself about targetDuty of
     *  the period per thread. Deterministic cost-model constants —
     *  mirrors sim::MachineProfile's x86 system, never measured. */
    double slicePeriodFraction = 0.01;
    double targetDuty = 0.10;
    double cpuHz = 2.9e9;
    double dramBytesPerSec = 19405.0 * MiB;
    double sweepStartupSeconds = 30e-6;
};

/** One completed epoch, as the controller samples it. */
struct EpochSample
{
    /** Model seconds since the previous sample (free-rate
     *  denominator; 0 when the clock did not advance). */
    double dtSeconds = 0;
    /** Bytes freed (quarantined + released) since the previous
     *  sample. */
    uint64_t freedBytes = 0;
    /** Live heap bytes at completion. */
    uint64_t liveBytes = 0;
    /** The epoch's sweep: bytes whose data was read, tagged words
     *  examined (pointer density numerator), modelled kernel
     *  cycles. */
    uint64_t sweptBytes = 0;
    uint64_t capsExamined = 0;
    double kernelCycles = 0;
    /** Quarantined bytes the epoch released. */
    uint64_t releasedBytes = 0;
    /** Share of quarantined bytes that were hot (youngest tier) when
     *  the epoch opened — the tier promote/demote input. */
    double hotShare = 0;
};

/** The controller's choice for the next epoch. */
struct ScheduleDecision
{
    /** Quarantine fraction to trigger at (clamped to the allocator
     *  ceiling — never exceeds the configured fraction). */
    double triggerFraction = 0.25;
    size_t pagesPerSlice = 64;
    unsigned sweepThreads = 1;
    /** Epoch depth: 0 = hot tier only … tiers-1 = full depth. */
    unsigned depth = 0;
    /** Birth cutoff implementing the depth (0 = everything). */
    uint32_t minBirth = 0;
};

/**
 * The per-domain adaptive controller: pure, deterministic state.
 * recordSample() feeds it completed epochs; decide() returns the
 * next epoch's schedule from the §6.1.3 model over the windowed
 * estimates. No clocks, no engine types — directly unit-testable.
 */
class AdaptiveController
{
  public:
    explicit AdaptiveController(const AdaptiveConfig &config);

    /** Feed one completed epoch into the sliding window. */
    void recordSample(const EpochSample &sample);

    /** Inputs decide() needs beyond the window. */
    struct Pressure
    {
        uint64_t quarantinedBytes = 0;
        uint64_t liveBytes = 0;
        /** Quarantined bytes young enough for a hot-tier epoch. */
        uint64_t hotBytes = 0;
        /** Heap bytes a hot-tier sweep would actually walk vs a
         *  full-depth sweep (the TierMap's page filtering). */
        uint64_t hotSweepBytes = 0;
        uint64_t fullSweepBytes = 0;
        /** Allocator ceiling (configured quarantine fraction). */
        double quarantineCeiling = 0.25;
        /** Current epoch sequence and the sequence at attach (a
         *  scoped epoch needs minBirth > attachSeq: stores before
         *  the listener attached are unrecorded). */
        uint64_t epochSeq = 0;
        uint64_t attachSeq = 0;
    };

    /** Choose the next epoch's schedule. Pure function of recorded
     *  samples + @p now (no hidden inputs). */
    ScheduleDecision decide(const Pressure &now) const;

    /** @name Windowed estimates (§6.1.3 model inputs) */
    /// @{
    /** F: bytes freed per model second (0 until measurable). */
    double freeRate() const;
    /** D: capability bytes per byte swept (0 until a sweep ran). */
    double pointerDensity() const;
    /** R: effective sweep bytes per second under the cost model. */
    double scanRate() const;
    /// @}

    /** @name Tier hysteresis introspection */
    /// @{
    bool hotPromoted() const { return hot_promoted_; }
    unsigned promoteStreak() const { return promote_streak_; }
    unsigned demoteStreak() const { return demote_streak_; }
    /// @}

    const AdaptiveConfig &config() const { return config_; }
    size_t samples() const { return window_.size(); }

  private:
    AdaptiveConfig config_;
    std::deque<EpochSample> window_;
    bool hot_promoted_ = false;
    unsigned promote_streak_ = 0;
    unsigned demote_streak_ = 0;
};

/**
 * Generation-tier page map for one domain: which pages recently
 * received a tagged capability store, by epoch sequence. Provides
 * the birth stamp for alloc::TierStamper and the page filter for
 * tier-scoped sweeps. Deterministic: the map is used for point
 * lookups and order-independent sums only, never iterated into an
 * ordered output.
 */
class TierMap
{
  public:
    TierMap() = default;
    ~TierMap() { detach(); }

    TierMap(const TierMap &) = delete;
    TierMap &operator=(const TierMap &) = delete;

    /** Start observing tagged stores to [lo, hi) of @p memory. */
    void attach(mem::TaggedMemory &memory, uint64_t lo, uint64_t hi);
    void detach();
    bool attached() const { return memory_ != nullptr; }

    /** Epoch boundary: later stores (and births) are one epoch
     *  younger. */
    void advanceEpoch() { ++seq_; }
    uint64_t seq() const { return seq_; }
    /** The sequence advanceEpoch() had reached at attach time. */
    uint64_t attachSeq() const { return attach_seq_; }

    /** Saturating birth stamp for a chunk allocated now. */
    uint32_t currentBirthStamp() const;

    /**
     * May @p page_addr hold a capability to a chunk born at/after
     * @p min_birth? False only when the page is inside the tracked
     * range, the cutoff postdates attach, and no tagged store landed
     * there at/after the cutoff — the sound skip condition.
     */
    bool pageMayHoldYoung(uint64_t page_addr, uint32_t min_birth) const;

    /** Tracked-range pages a min_birth-scoped sweep must still
     *  walk (upper bound on qualifying pages). */
    uint64_t pagesAtOrAfter(uint32_t min_birth) const;
    /** Pages that have received at least one tagged store. */
    uint64_t pagesTracked() const { return page_seq_.size(); }

  private:
    void onCapStore(uint64_t addr);

    mem::TaggedMemory *memory_ = nullptr;
    uint64_t listener_id_ = 0;
    uint64_t lo_ = 0;
    uint64_t hi_ = 0;
    uint64_t seq_ = 1;
    uint64_t attach_seq_ = 0;
    /** page address -> latest tagged-store epoch sequence. */
    std::unordered_map<uint64_t, uint64_t> page_seq_;
};

/** Instantiate the adaptive policy (PolicyKind::Adaptive). */
std::unique_ptr<RevocationPolicy>
makeAdaptivePolicy(const AdaptiveConfig &config = AdaptiveConfig{});

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_ADAPTIVE_HH
