#include "revoke/revocation_engine.hh"

#include <algorithm>

#include "revoke/background_sweeper.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace cherivoke {
namespace revoke {

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::StopTheWorld: return "stop-the-world";
      case PolicyKind::Incremental: return "incremental";
      case PolicyKind::Concurrent: return "concurrent";
      case PolicyKind::Adaptive: return "adaptive";
    }
    return "unknown";
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> kAll = {
        PolicyKind::StopTheWorld,
        PolicyKind::Incremental,
        PolicyKind::Concurrent,
        PolicyKind::Adaptive,
    };
    return kAll;
}

bool
parsePolicy(const std::string &name, PolicyKind &out)
{
    if (name == "stw" || name == "stop-the-world") {
        out = PolicyKind::StopTheWorld;
        return true;
    }
    if (name == "incremental") {
        out = PolicyKind::Incremental;
        return true;
    }
    if (name == "concurrent") {
        out = PolicyKind::Concurrent;
        return true;
    }
    if (name == "adaptive") {
        out = PolicyKind::Adaptive;
        return true;
    }
    return false;
}

bool
RevocationPolicy::pump(RevocationEngine &engine,
                       cache::Hierarchy *hierarchy)
{
    if (!engine.quarantinePressure())
        return false;
    runEpoch(engine, hierarchy);
    return true;
}

EpochStats
RevocationPolicy::runEpoch(RevocationEngine &engine,
                           cache::Hierarchy *hierarchy)
{
    const size_t slice = engine.config().pagesPerSlice;
    engine.beginEpoch();
    while (engine.step(slice, hierarchy) > 0) {
    }
    engine.finishEpoch();
    return engine.lastEpoch();
}

namespace {

/** The paper's measured configuration: when the quarantine fills,
 *  the world stops and a whole epoch runs as a single pause. */
class StopTheWorldPolicy final : public RevocationPolicy
{
  public:
    PolicyKind kind() const override
    {
        return PolicyKind::StopTheWorld;
    }
    const char *name() const override { return "stop-the-world"; }
    bool needsLoadBarrier() const override { return false; }

    EpochStats
    runEpoch(RevocationEngine &engine,
             cache::Hierarchy *hierarchy) override
    {
        engine.beginEpoch();
        engine.step(SIZE_MAX, hierarchy);
        engine.finishEpoch();
        return engine.lastEpoch();
    }
};

/** §3.5 + Cornucopia load barrier: a full epoch runs at the trigger
 *  point, but as a sequence of bounded pauses (the base-class
 *  behaviour exactly). */
class IncrementalPolicy final : public RevocationPolicy
{
  public:
    PolicyKind kind() const override
    {
        return PolicyKind::Incremental;
    }
    const char *name() const override { return "incremental"; }
    bool needsLoadBarrier() const override { return true; }
};

/** Mutator-assist scheduling: the epoch stays open and every pump
 *  advances it by one slice, interleaving sweep work with program
 *  progress. The load barrier keeps this sound. */
class ConcurrentPolicy final : public RevocationPolicy
{
  public:
    PolicyKind kind() const override
    {
        return PolicyKind::Concurrent;
    }
    const char *name() const override { return "concurrent"; }
    bool needsLoadBarrier() const override { return true; }

    bool
    pump(RevocationEngine &engine,
         cache::Hierarchy *hierarchy) override
    {
        if (!engine.epochOpen()) {
            if (!engine.quarantinePressure())
                return false;
            engine.beginEpoch();
        }
        if (engine.step(engine.config().pagesPerSlice, hierarchy) ==
            0) {
            engine.finishEpoch();
            return true;
        }
        return false;
    }
};

} // namespace

std::unique_ptr<RevocationPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::StopTheWorld:
        return std::make_unique<StopTheWorldPolicy>();
      case PolicyKind::Incremental:
        return std::make_unique<IncrementalPolicy>();
      case PolicyKind::Concurrent:
        return std::make_unique<ConcurrentPolicy>();
      case PolicyKind::Adaptive:
        return makeAdaptivePolicy();
    }
    panic("unknown policy kind");
}

namespace {

/** makePolicy, but routing the adaptive kind through the engine's
 *  configured tunables. */
std::unique_ptr<RevocationPolicy>
makePolicyFor(PolicyKind kind, const AdaptiveConfig &adaptive)
{
    if (kind == PolicyKind::Adaptive)
        return makeAdaptivePolicy(adaptive);
    return makePolicy(kind);
}

} // namespace

RevocationEngine::RevocationEngine(
    alloc::CherivokeAllocator &allocator, mem::AddressSpace &space,
    EngineConfig config)
    : sweeper_(config.sweep), config_(config),
      policy_(makePolicyFor(config.policy, config.adaptive)),
      sweeper_plan_(config.sweeperPlan)
{
    CHERIVOKE_ASSERT(config_.pagesPerSlice > 0);
    CHERIVOKE_ASSERT(config_.paintShards > 0);
    domains_.push_back(Domain{&allocator, &space, EngineTotals{},
                              nullptr, nullptr, false});
    attachBackend(0, config_.backend);
}

RevocationEngine::RevocationEngine(
    alloc::CherivokeAllocator &allocator, mem::AddressSpace &space,
    SweepOptions sweep)
    : RevocationEngine(allocator, space,
                       EngineConfig{.sweep = sweep, .sweeperPlan = {}})
{}

RevocationEngine::~RevocationEngine()
{
    // The background worker may still hold the open epoch's frozen
    // snapshot and be probing its shadow: join it before any
    // barrier/shadow teardown below.
    if (bg_)
        bg_->cancel();
    // Never leave a dangling barrier behind, and detach from every
    // allocator that may outlive the engine.
    for (Domain &dom : domains_) {
        if (dom.backend)
            dom.backend->releaseBarrier();
        if (dom.allocator &&
            dom.allocator->observer() == dom.backend.get())
            dom.allocator->setObserver(nullptr);
    }
}

void
RevocationEngine::attachBackend(size_t index, BackendKind kind)
{
    Domain &dom = domains_[index];
    dom.backend = makeBackend(kind, config_.backendConfig);
    dom.backend->bind(BackendContext{dom.allocator, dom.space,
                                     &sweeper_, config_.paintShards});
    dom.allocator->setObserver(dom.backend.get());
}

size_t
RevocationEngine::addDomain(alloc::CherivokeAllocator &allocator,
                            mem::AddressSpace &space)
{
    return bindDomain(domains_.size(), allocator, space);
}

size_t
RevocationEngine::bindDomain(size_t index,
                             alloc::CherivokeAllocator &allocator,
                             mem::AddressSpace &space)
{
    CHERIVOKE_ASSERT(index <= domains_.size(),
                     "(bindDomain beyond the next fresh slot)");
    if (index == domains_.size()) {
        domains_.push_back(Domain{&allocator, &space, EngineTotals{},
                                  nullptr, nullptr, false});
    } else {
        Domain &dom = domains_[index];
        CHERIVOKE_ASSERT(dom.retired,
                         "(bindDomain over a live domain)");
        CHERIVOKE_ASSERT(!open_ || epoch_domain_ != index,
                         "(rebinding the open epoch's domain)");
        dom = Domain{&allocator, &space, EngineTotals{}, nullptr,
                     nullptr, false};
        supervisor_.resetStrikes(index);
    }
    attachBackend(index, config_.backend);
    return index;
}

void
RevocationEngine::setDomainPolicy(size_t index, PolicyKind kind)
{
    CHERIVOKE_ASSERT(index < domains_.size() &&
                     !domains_[index].retired);
    CHERIVOKE_ASSERT(!open_ || epoch_domain_ != index,
                     "(policy change under an open epoch)");
    domains_[index].policy =
        kind == config_.policy
            ? nullptr
            : makePolicyFor(kind, config_.adaptive);
}

void
RevocationEngine::setDomainPolicyObject(
    size_t index, std::unique_ptr<RevocationPolicy> policy)
{
    CHERIVOKE_ASSERT(index < domains_.size() &&
                     !domains_[index].retired);
    CHERIVOKE_ASSERT(!open_ || epoch_domain_ != index,
                     "(policy change under an open epoch)");
    domains_[index].policy = std::move(policy);
}

void
RevocationEngine::setDomainBackend(size_t index, BackendKind kind)
{
    CHERIVOKE_ASSERT(index < domains_.size() &&
                     !domains_[index].retired);
    CHERIVOKE_ASSERT(!open_ || epoch_domain_ != index,
                     "(backend change under an open epoch)");
    attachBackend(index, kind);
}

RevocationBackend &
RevocationEngine::domainBackend(size_t index)
{
    CHERIVOKE_ASSERT(index < domains_.size() &&
                     domains_[index].backend);
    return *domains_[index].backend;
}

const RevocationBackend &
RevocationEngine::domainBackend(size_t index) const
{
    CHERIVOKE_ASSERT(index < domains_.size() &&
                     domains_[index].backend);
    return *domains_[index].backend;
}

void
RevocationEngine::notePointerUse(uint64_t n)
{
    notePointerUse(active_, n);
}

void
RevocationEngine::notePointerUse(size_t domain, uint64_t n)
{
    CHERIVOKE_ASSERT(domain < domains_.size() &&
                     !domains_[domain].retired);
    domains_[domain].backend->onPointerUse(n);
}

RevocationPolicy &
RevocationEngine::domainPolicy(size_t index)
{
    CHERIVOKE_ASSERT(index < domains_.size());
    Domain &dom = domains_[index];
    return dom.policy ? *dom.policy : *policy_;
}

void
RevocationEngine::drainDomain(size_t index, cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(index < domains_.size());
    if (open_ && epoch_domain_ == index)
        drain(hierarchy);
}

void
RevocationEngine::retireDomain(size_t index,
                               cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(index < domains_.size());
    Domain &dom = domains_[index];
    CHERIVOKE_ASSERT(!dom.retired, "(retireDomain twice)");
    drainDomain(index, hierarchy);
    // Let the governing policy drop per-domain state while the
    // allocator is still alive (the adaptive policy uninstalls its
    // birth stamper and store listener here).
    domainPolicy(index).onDomainRetired(*this, index);
    dom.retired = true;
    if (dom.allocator &&
        dom.allocator->observer() == dom.backend.get())
        dom.allocator->setObserver(nullptr);
    dom.allocator = nullptr;
    dom.space = nullptr;
    dom.policy.reset();
    dom.backend.reset();
    CHERIVOKE_ASSERT(active_ != index || allRetired(),
                     "(retiring the active domain with others "
                     "still live: selectDomain elsewhere first)");
}

bool
RevocationEngine::allRetired() const
{
    for (const Domain &dom : domains_) {
        if (!dom.retired)
            return false;
    }
    return true;
}

void
RevocationEngine::selectDomain(size_t index)
{
    CHERIVOKE_ASSERT(index < domains_.size());
    CHERIVOKE_ASSERT(!domains_[index].retired,
                     "(selectDomain on a retired domain)");
    active_ = index;
}

const EngineTotals &
RevocationEngine::domainTotals(size_t index) const
{
    CHERIVOKE_ASSERT(index < domains_.size());
    return domains_[index].totals;
}

bool
RevocationEngine::quarantinePressure() const
{
    return domains_[active_].backend->needsRevocation();
}

size_t
RevocationEngine::pagesRemaining() const
{
    return open_ ? domains_[epoch_domain_].backend->pagesRemaining()
                 : 0;
}

bool
RevocationEngine::maybeRevoke(cache::Hierarchy *hierarchy)
{
    // Epoch-owner-wins arbitration: while an epoch is open, every
    // pump advances it under the owning domain's policy — so a
    // stop-the-world neighbour's allocator ops assist a concurrent
    // tenant's in-flight sweep instead of stacking a second epoch.
    const size_t domain = open_ ? epoch_domain_ : active_;
    return domainPolicy(domain).pump(*this, hierarchy);
}

EpochStats
RevocationEngine::revokeNow(cache::Hierarchy *hierarchy)
{
    // A forced pause (global-scope sweep, §3.7 strict mode) first
    // completes whatever per-tenant epoch is in flight — credited to
    // its own domain — then runs the requesting domain's epoch under
    // the requesting domain's policy.
    if (open_)
        drain(hierarchy);
    return domainPolicy(active_).runEpoch(*this, hierarchy);
}

EpochStats
RevocationEngine::freeAndRevoke(const cap::Capability &capability,
                                cache::Hierarchy *hierarchy)
{
    allocator().free(capability);
    // An open epoch was frozen before this free: drain it, then run
    // a fresh epoch that covers the allocation just freed.
    return revokeNow(hierarchy);
}

EpochStats
RevocationEngine::drain(cache::Hierarchy *hierarchy)
{
    if (open_) {
        while (step(config_.pagesPerSlice, hierarchy) > 0) {
        }
        finishEpoch();
    }
    return last_;
}

void
RevocationEngine::beginEpoch()
{
    CHERIVOKE_ASSERT(!open_, "(epoch already open)");
    open_ = true;
    epoch_domain_ = active_;
    Domain &dom = epochDomain();
    epoch_ = EpochStats{};

    // The backend owns the mechanics: freeze + paint + register
    // sweep + worklist for the sweep family, table work for the
    // object-ID backend. Barrier-bearing policies ask for the
    // load-side revocation barrier.
    dom.backend->beginEpoch(
        epoch_, domainPolicy(epoch_domain_).needsLoadBarrier());

    // The revocation set is now frozen: let observers (the mutator
    // front-end's epoch-boundary recorder) mark the spot where its
    // modelled threads flush and drain remote-free batches.
    if (epoch_open_hook_)
        epoch_open_hook_(epoch_domain_);

    if (config_.backgroundSweeper)
        dispatchBackgroundSweep();
}

support::Clock &
RevocationEngine::clock()
{
    return config_.clock ? *config_.clock : steady_clock_;
}

void
RevocationEngine::dispatchBackgroundSweep()
{
    bg_active_ = false;
    stw_catchup_ = false;
    Domain &dom = epochDomain();
    const std::vector<uint64_t> *worklist =
        dom.backend->frozenWorklist();
    if (!worklist)
        return; // backend with no page-granular sweep (objid)
    if (!bg_)
        bg_ = std::make_unique<BackgroundSweeper>();

    // Domain-local epoch ordinal, the unit sweeper injections are
    // keyed on (finishEpoch increments dom.totals.epochs).
    bg_epoch_seq_ = dom.totals.epochs;
    auto inject = BackgroundSweeper::Inject::None;
    uint64_t slow_factor = 1;
    for (SweeperInjection &si : sweeper_plan_) {
        if (si.fired || si.domain != epoch_domain_ ||
            si.epoch != bg_epoch_seq_)
            continue;
        si.fired = true;
        switch (si.kind) {
          case SweeperFaultKind::Stall:
            inject = BackgroundSweeper::Inject::Stall;
            break;
          case SweeperFaultKind::Crash:
            inject = BackgroundSweeper::Inject::Crash;
            break;
          case SweeperFaultKind::Slow:
            inject = BackgroundSweeper::Inject::Slow;
            break;
        }
        slow_factor = si.factor;
        break;
    }

    FrozenWorklist snapshot =
        buildFrozenWorklist(dom.space->memory(), *worklist);
    bg_total_ = snapshot.pages.size();

    supervisor_.record({SweeperEventKind::Dispatch, epoch_domain_,
                        bg_epoch_seq_, bg_total_, 0});

    // Per-epoch deadline: the configured override, or the §6.1.3
    // sweep-cost estimate for this worklist. The assumed scan rate
    // is the paper's commodity-DRAM order of magnitude; the derived
    // deadline carries generous slack on top.
    constexpr double kAssumedScanRate = 1024.0 * 1024 * 1024;
    const uint64_t window =
        config_.epochDeadlineMs > 0
            ? static_cast<uint64_t>(config_.epochDeadlineMs * 1e6)
            : derivedEpochDeadlineNs(bg_total_, kAssumedScanRate);
    supervisor_.watchdog().arm(clock().nowNs(), window,
                               config_.sweeperRetries);

    bg_->dispatch(std::move(snapshot),
                  &dom.allocator->shadowMap(),
                  config_.pagesPerSlice, inject, slow_factor);
    bg_active_ = true;
}

void
RevocationEngine::rendezvousBackgroundSweep(size_t max_pages)
{
    const size_t remaining = epochDomain().backend->pagesRemaining();
    const uint64_t target =
        bg_total_ - remaining +
        std::min<uint64_t>(max_pages, remaining);
    Watchdog &wd = supervisor_.watchdog();
    bool stall_recorded = false;
    uint64_t hb_seen = bg_->heartbeats();

    // Poll chunk for the real-clock path: long enough not to spin,
    // far below any deadline window.
    constexpr uint64_t kPollNs = 1'000'000;

    while (true) {
        if (bg_->watermark() >= target) {
            wd.heartbeat(clock().nowNs());
            return;
        }
        const BackgroundSweeper::State state = bg_->state();
        if (state == BackgroundSweeper::State::Done)
            return; // watermark covers the whole worklist
        if (state == BackgroundSweeper::State::Crashed) {
            // Dead worker: no retry can help — straight to the
            // ladder.
            supervisor_.record({SweeperEventKind::Crash,
                                epoch_domain_, bg_epoch_seq_,
                                bg_->watermark(), wd.retries()});
            failSweeperEpisode();
            return;
        }
        if (state == BackgroundSweeper::State::Stalled) {
            // Injected no-progress state: drive the same watchdog
            // machinery, but with its own deadline as "now" so the
            // retry/backoff walk is wall-time-free and
            // deterministic.
            if (!stall_recorded) {
                supervisor_.record({SweeperEventKind::StallDetected,
                                    epoch_domain_, bg_epoch_seq_,
                                    bg_->watermark(), wd.retries()});
                stall_recorded = true;
            }
            const Watchdog::Verdict verdict =
                wd.poll(wd.deadlineNs());
            if (verdict == Watchdog::Verdict::Retry) {
                supervisor_.record({SweeperEventKind::Retry,
                                    epoch_domain_, bg_epoch_seq_,
                                    bg_->watermark(), wd.retries()});
                // One retry credit: a Slow job whose credits run
                // out resumes synchronously inside nudge().
                bg_->nudge();
                continue;
            }
            failSweeperEpisode();
            return;
        }
        // Running: genuinely wait for progress, feeding heartbeats
        // to the watchdog; a real overrun (never hit by the
        // deterministic suites) walks the same retry path.
        bg_->waitProgress(target, kPollNs);
        const uint64_t hb = bg_->heartbeats();
        if (hb != hb_seen) {
            hb_seen = hb;
            wd.heartbeat(clock().nowNs());
        }
        const Watchdog::Verdict verdict = wd.poll(clock().nowNs());
        if (verdict == Watchdog::Verdict::Retry) {
            if (!stall_recorded) {
                supervisor_.record({SweeperEventKind::StallDetected,
                                    epoch_domain_, bg_epoch_seq_,
                                    bg_->watermark(),
                                    wd.retries() - 1});
                stall_recorded = true;
            }
            supervisor_.record({SweeperEventKind::Retry,
                                epoch_domain_, bg_epoch_seq_,
                                bg_->watermark(), wd.retries()});
            bg_->nudge();
        } else if (verdict == Watchdog::Verdict::Escalate) {
            failSweeperEpisode();
            return;
        }
    }
}

void
RevocationEngine::failSweeperEpisode()
{
    bg_->cancel();
    supervisor_.watchdog().disarm();
    bg_active_ = false;
    const uint64_t watermark = bg_->watermark();
    const unsigned strikes = supervisor_.addStrike(epoch_domain_);
    if (strikes >= 3) {
        // Rung 3: the domain's sweeper failed three epochs running —
        // contain it through the standard teardown path. The job is
        // already cancelled, so the containment drain completes the
        // epoch via plain mutator-assist.
        supervisor_.record({SweeperEventKind::Containment,
                            epoch_domain_, bg_epoch_seq_, watermark,
                            supervisor_.watchdog().retries()});
        heapFault(HeapFaultKind::SweeperFailure,
                  "domain %zu background sweeper failed %u epochs "
                  "(stalled at page %llu/%llu of epoch %llu)",
                  epoch_domain_, strikes,
                  static_cast<unsigned long long>(watermark),
                  static_cast<unsigned long long>(bg_total_),
                  static_cast<unsigned long long>(bg_epoch_seq_));
    }
    if (strikes == 2) {
        // Rung 2: besides falling back to assist, the next modelled
        // step drains the whole worklist in one stop-the-world
        // catch-up pause so the domain regains revocation cadence.
        supervisor_.record({SweeperEventKind::StwCatchup,
                            epoch_domain_, bg_epoch_seq_, watermark,
                            supervisor_.watchdog().retries()});
        stw_catchup_ = true;
        return;
    }
    // Rung 1: the epoch simply continues on the unchanged modelled
    // mutator-assist path — which is where all modelled statistics
    // come from anyway, so the fallback is bit-exact.
    supervisor_.record({SweeperEventKind::ReassignToAssist,
                        epoch_domain_, bg_epoch_seq_, watermark,
                        supervisor_.watchdog().retries()});
}

void
RevocationEngine::joinBackgroundSweep()
{
    if (!bg_active_)
        return;
    // The rendezvous before every modelled slice guarantees the
    // worker's watermark already covers the whole worklist; cancel()
    // doubles as the join (it returns once the worker has let go).
    bg_->cancel();
    supervisor_.watchdog().disarm();
    supervisor_.record({SweeperEventKind::Completed, epoch_domain_,
                        bg_epoch_seq_, bg_->watermark(),
                        supervisor_.watchdog().retries()});
    bg_active_ = false;
}

size_t
RevocationEngine::step(size_t max_pages, cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(open_, "(step without an open epoch)");
    if (bg_active_)
        rendezvousBackgroundSweep(max_pages);
    if (stw_catchup_) {
        stw_catchup_ = false;
        max_pages = SIZE_MAX;
    }
    return epochDomain().backend->step(epoch_, max_pages, hierarchy);
}

void
RevocationEngine::finishEpoch()
{
    CHERIVOKE_ASSERT(open_, "(finish without an open epoch)");
    Domain &dom = epochDomain();
    CHERIVOKE_ASSERT(dom.backend->pagesRemaining() == 0,
                     "(worklist not drained: call step() to "
                     "completion first)");
    // Join the racing worker before the backend releases the
    // barrier and unpaints the shadow it is probing.
    joinBackgroundSweep();
    dom.backend->finishEpoch(epoch_);
    open_ = false;

    auto accumulate = [this](EngineTotals &totals) {
        ++totals.epochs;
        totals.paint += epoch_.paint;
        totals.sweep += epoch_.sweep;
        totals.internalFrees += epoch_.internalFrees;
        totals.bytesReleased += epoch_.bytesReleased;
        totals.slices += epoch_.slices;
    };
    accumulate(totals_);
    accumulate(dom.totals);
    last_ = epoch_;
}

EpochStats
RevocationEngine::revokeIncrementally(size_t pages_per_step,
                                      cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(pages_per_step > 0);
    beginEpoch();
    while (step(pages_per_step, hierarchy) > 0) {
    }
    finishEpoch();
    return last_;
}

} // namespace revoke
} // namespace cherivoke
