#include "revoke/revocation_engine.hh"

#include <algorithm>
#include <utility>

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
    if (!sweeper_plan_.empty() && !config_.backgroundSweeper)
        fatal("%zu sweeper fault injection(s) need the background "
              "sweeper: set CHERIVOKE_BG_SWEEPER=1",
              sweeper_plan_.size());
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
    dom.backend->bind(
        BackendContext{dom.allocator, dom.space, &sweeper_});
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
        openSweeperWalk();
}

void
RevocationEngine::noteSweeper(SweeperEventKind kind, uint64_t pages)
{
    supervisor_.record(
        {kind, epoch_domain_, bg_epoch_seq_, pages, bg_retries_});
}

void
RevocationEngine::openSweeperWalk()
{
    bg_active_ = false;
    bg_inject_ = nullptr;
    Domain &dom = epochDomain();
    const std::vector<uint64_t> *worklist =
        dom.backend->frozenWorklist();
    if (!worklist)
        return; // backend with no page-granular sweep (objid)
    bg_active_ = true;
    bg_total_ = worklist->size();
    // Domain-local epoch ordinal, the unit sweeper injections are
    // keyed on (finishEpoch increments dom.totals.epochs).
    bg_epoch_seq_ = dom.totals.epochs;
    bg_retries_ = 0;
    noteSweeper(SweeperEventKind::Dispatch, bg_total_);
    for (SweeperInjection &si : sweeper_plan_) {
        if (!si.fired && si.domain == epoch_domain_ &&
            si.epoch == bg_epoch_seq_) {
            si.fired = true;
            bg_inject_ = &si;
            break;
        }
    }
}

bool
RevocationEngine::walkSweeperInjection()
{
    const SweeperInjection &si = *std::exchange(bg_inject_, nullptr);
    if (si.kind == SweeperFaultKind::Crash) {
        // A dead sweeper: no retry can help, straight to the ladder.
        noteSweeper(SweeperEventKind::Crash);
    } else {
        // A stall is granted every retry and never recovers; a slow
        // sweeper recovers after `factor` of them.
        noteSweeper(SweeperEventKind::StallDetected);
        const uint64_t retries = config_.sweeperRetries;
        const uint64_t granted = si.kind == SweeperFaultKind::Stall
                                     ? retries
                                     : std::min(si.factor, retries);
        while (bg_retries_ < granted) {
            ++bg_retries_;
            noteSweeper(SweeperEventKind::Retry);
        }
        if (si.kind == SweeperFaultKind::Slow && si.factor <= retries)
            return false;
    }

    // The episode failed: one more strike against this domain.
    bg_active_ = false;
    const unsigned strikes = supervisor_.addStrike(epoch_domain_);
    if (strikes >= 3) {
        // Rung 3: contain the domain through the standard teardown
        // path, whose drain completes the epoch by mutator-assist.
        noteSweeper(SweeperEventKind::Containment);
        heapFault(HeapFaultKind::SweeperFailure,
                  "domain %zu background sweeper failed %u epochs "
                  "(stalled at page 0/%llu of epoch %llu)",
                  epoch_domain_, strikes,
                  static_cast<unsigned long long>(bg_total_),
                  static_cast<unsigned long long>(bg_epoch_seq_));
    }
    // Rung 1 hands the epoch to the mutator-assist slices, where the
    // modelled statistics come from anyway; rung 2 also drains the
    // whole worklist in this step, a stop-the-world catch-up.
    noteSweeper(strikes == 2 ? SweeperEventKind::StwCatchup
                             : SweeperEventKind::ReassignToAssist);
    return strikes == 2;
}

size_t
RevocationEngine::step(size_t max_pages, cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(open_, "(step without an open epoch)");
    RevocationBackend &backend = *epochDomain().backend;
    // The injected state shows at the first step that needs a page.
    if (bg_inject_ &&
        std::min(max_pages, backend.pagesRemaining()) > 0 &&
        walkSweeperInjection())
        max_pages = SIZE_MAX;
    return backend.step(epoch_, max_pages, hierarchy);
}

void
RevocationEngine::finishEpoch()
{
    CHERIVOKE_ASSERT(open_, "(finish without an open epoch)");
    Domain &dom = epochDomain();
    CHERIVOKE_ASSERT(dom.backend->pagesRemaining() == 0,
                     "(worklist not drained: call step() to "
                     "completion first)");
    if (bg_active_)
        noteSweeper(SweeperEventKind::Completed, bg_total_);
    bg_active_ = false;
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
