#include "tenant/tenant_manager.hh"

#include <algorithm>
#include <chrono>

#include "support/logging.hh"

namespace cherivoke {
namespace tenant {

namespace {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
scopeName(RevocationScope scope)
{
    switch (scope) {
      case RevocationScope::PerTenant: return "per-tenant";
      case RevocationScope::Global: return "global";
    }
    return "unknown";
}

bool
parseScope(const std::string &name, RevocationScope &out)
{
    if (name == "per-tenant" || name == "tenant") {
        out = RevocationScope::PerTenant;
        return true;
    }
    if (name == "global") {
        out = RevocationScope::Global;
        return true;
    }
    return false;
}

mem::AddressSpace::Layout
layoutForTenant(size_t index)
{
    if (index >= kMaxTenants)
        fatal("tenant %zu out of range: at a %llu-byte stride only "
              "%zu tenants fit below the shadow region",
              index, static_cast<unsigned long long>(kTenantStride),
              kMaxTenants);
    return mem::AddressSpace::Layout{}.shifted(index * kTenantStride);
}

std::pair<uint64_t, uint64_t>
shadowWindowForTenant(size_t index)
{
    // One shadow byte covers 128 bytes, so a 2 GiB stride owns a
    // 16 MiB shadow window; windows are page-aligned and disjoint
    // between slots.
    static_assert((kTenantStride >> 7) % kPageBytes == 0,
                  "slot shadow windows must be page aligned");
    const uint64_t lo = mem::kShadowBase + index * (kTenantStride >> 7);
    return {lo, lo + (kTenantStride >> 7)};
}

Tenant::Tenant(size_t index, const TenantConfig &config,
               mem::TaggedMemory &shared, workload::Trace trace)
    : index_(index), config_(config), trace_(std::move(trace)),
      space_(shared, layoutForTenant(index), config.globalsBytes,
             config.stackBytes),
      allocator_(space_, config.alloc)
{
    // The whole image — stack end included — must stay inside this
    // tenant's stride, or it would silently alias the next tenant.
    const uint64_t region_end = (index + 1) * kTenantStride;
    if (space_.stack().end() > region_end)
        fatal("tenant %zu: stack segment ends at 0x%llx, past the "
              "tenant's 0x%llx region boundary",
              index,
              static_cast<unsigned long long>(space_.stack().end()),
              static_cast<unsigned long long>(region_end));
}

TenantManager::TenantManager(TenantManagerConfig config)
    : config_(std::move(config))
{
    // Fail before any replay, not when the first tenant's result is
    // captured and its mutator traffic counted.
    checkMutatorConfig(config_.mutator);
    memory_.setSoftPageBudget(config_.pageBudgetPages);
}

size_t
TenantManager::slotOf(uint64_t id) const
{
    auto it = live_ids_.find(id);
    if (it == live_ids_.end())
        fatal("tenant %llu is not live",
              static_cast<unsigned long long>(id));
    return it->second;
}

Tenant &
TenantManager::tenant(size_t index)
{
    CHERIVOKE_ASSERT(index < slots_.size() && slots_[index].tenant,
                     "(no live tenant in this slot)");
    return *slots_[index].tenant;
}

size_t
TenantManager::takeSlot(bool &reused)
{
    if (!free_slots_.empty()) {
        // Ascending order: reuse the lowest retired slot, so slot
        // assignment is a deterministic function of the
        // spawn/retire history.
        const size_t slot = free_slots_.front();
        free_slots_.erase(free_slots_.begin());
        reused = true;
        return slot;
    }
    reused = false;
    return slots_.size();
}

size_t
TenantManager::activate(uint64_t id, const TenantConfig &config,
                        workload::Trace trace)
{
    if (config.weight <= 0)
        fatal("tenant '%s': weight must be positive (got %g)",
              config.name.c_str(), config.weight);

    const double t0 = wallNow();
    bool reused = false;
    const size_t slot = takeSlot(reused);
    auto t = std::make_unique<Tenant>(slot, config, memory_,
                                      std::move(trace));
    if (!engine_) {
        CHERIVOKE_ASSERT(slot == 0);
        // Sweeper injections ride in on the fault plan; surface
        // them to the engine unless the caller wired its own.
        if (config_.engine.sweeperPlan.empty() &&
            !config_.faultPlan.sweeper.empty())
            config_.engine.sweeperPlan = config_.faultPlan.sweeper;
        engine_ = std::make_unique<revoke::RevocationEngine>(
            t->allocator(), t->space(), config_.engine);
        // Route every epoch open to the owning tenant's replayer:
        // the recorded boundary is where that tenant's mutator
        // threads flush and drain their remote-free batches
        // (domain index == slot index by construction).
        engine_->setEpochOpenHook([this](size_t domain) {
            if (domain < slots_.size() && slots_[domain].replayer)
                slots_[domain].replayer->noteEpochBoundary();
        });
    } else {
        engine_->bindDomain(slot, t->allocator(), t->space());
    }
    if (config.policy)
        engine_->setDomainPolicy(slot, *config.policy);
    if (config.backend)
        engine_->setDomainBackend(slot, *config.backend);

    auto r = std::make_unique<workload::TraceReplayer>(
        t->space(), t->allocator(), engine_.get(), t->trace());
    r->setPump([this, slot](cache::Hierarchy *h) {
        pumpFor(slot, h);
    });
    // Per-use checks bill this tenant's own domain, never whichever
    // domain happens to be selected.
    r->setDeref([this, slot](uint64_t n) {
        engine_->notePointerUse(slot, n);
    });
    // Finishing (or retiring) this tenant must never complete a
    // neighbour's in-flight epoch: drain only our own domain's.
    r->setDrain([this, slot](cache::Hierarchy *h) {
        engine_->drainDomain(slot, h);
    });
    r->setLifecycle([this](const workload::TraceOp &op) {
        onLifecycleOp(op);
    });

    scheduler_.arrive(slot, config.weight);
    if (r->done())
        scheduler_.markDone(slot); // empty trace: never scheduled

    Slot state{std::move(t), std::move(r), id};
    if (slot == slots_.size()) {
        slots_.push_back(std::move(state));
    } else {
        slots_[slot] = std::move(state);
    }
    live_ids_[id] = slot;

    ++spawns_;
    if (reused)
        ++slots_reused_;
    LifecycleEvent ev;
    ev.kind = LifecycleEvent::Kind::Spawn;
    ev.tenantId = id;
    ev.slot = slot;
    ev.step = steps_;
    ev.reusedSlot = reused;
    ev.wallSec = wallNow() - t0;
    events_.push_back(ev);
    return slot;
}

size_t
TenantManager::addTenant(const TenantConfig &config,
                         workload::Trace trace)
{
    CHERIVOKE_ASSERT(!ran_, "(addTenant after run())");
    // The static tenant's id equals the slot activate() will take
    // (the lowest free slot, else the next fresh one).
    const size_t id = free_slots_.empty() ? slots_.size()
                                          : free_slots_.front();
    if (live_ids_.count(id) || definitions_.count(id))
        fatal("tenant id %zu already in use", id);
    return activate(id, config, std::move(trace));
}

void
TenantManager::defineTenant(uint64_t id, const TenantConfig &config,
                            workload::Trace trace)
{
    if (definitions_.count(id))
        fatal("tenant definition %llu already registered",
              static_cast<unsigned long long>(id));
    if (live_ids_.count(id))
        fatal("tenant id %llu already names a live tenant",
              static_cast<unsigned long long>(id));
    if (config.weight <= 0)
        fatal("tenant '%s': weight must be positive (got %g)",
              config.name.c_str(), config.weight);
    definitions_.emplace(id,
                         Definition{config, std::move(trace)});
}

size_t
TenantManager::spawnTenant(uint64_t id)
{
    CHERIVOKE_ASSERT(!ran_ || running_,
                     "(spawnTenant after run() completed)");
    auto it = definitions_.find(id);
    if (it == definitions_.end())
        fatal("spawn of unknown tenant definition %llu",
              static_cast<unsigned long long>(id));
    if (live_ids_.count(id))
        fatal("spawn of already-live tenant %llu",
              static_cast<unsigned long long>(id));
    // The definition stays registered: a retired id can respawn.
    return activate(id, it->second.config, it->second.trace);
}

TenantResult
TenantManager::captureResult(size_t slot, bool retired_mid_run)
{
    Slot &s = slots_[slot];
    TenantResult tr;
    tr.name = s.tenant->name();
    tr.tenantId = s.id;
    tr.index = slot;
    tr.weight = s.tenant->config().weight;
    tr.opsApplied = s.replayer->opsApplied();
    tr.opsTotal = s.replayer->opsTotal();
    tr.retiredMidRun = retired_mid_run;
    tr.run = s.replayer->finish(hierarchy_);
    tr.run.revoker = engine_->domainTotals(slot);
    // Count the configured mutator threads' traffic over the applied
    // prefix with the epoch boundaries this replay actually hit.
    // Purely additive: the modelled statistics above never depend
    // on it.
    tr.mutator = countMutatorTraffic(s.tenant->trace(), tr.opsApplied,
                                     config_.mutator,
                                     s.replayer->epochOpenOps());
    if (containing_) {
        tr.faulted = true;
        tr.faultKind = containing_->kind;
        tr.faultOp = tr.opsApplied;
        tr.faultMessage = containing_->message;
    }
    return tr;
}

uint64_t
TenantManager::releaseSlotMemory(size_t slot)
{
    Tenant &t = *slots_[slot].tenant;
    mem::PageTable &pt = memory_.pageTable();
    for (const mem::Segment &seg : t.space().sweepableSegments())
        pt.unmap(seg.base, seg.size);
    const auto [shadow_lo, shadow_hi] = shadowWindowForTenant(slot);
    pt.unmap(shadow_lo, shadow_hi - shadow_lo);

    uint64_t released =
        memory_.releaseRange(slot * kTenantStride, kTenantStride);
    released += memory_.releaseRange(shadow_lo,
                                     shadow_hi - shadow_lo);
    return released;
}

void
TenantManager::retireTenant(uint64_t id)
{
    // Legal before run() (tests, setup) and during it (lifecycle
    // ops), but not after: the replayers have been finished.
    CHERIVOKE_ASSERT(!ran_ || running_,
                     "(retireTenant after run() completed)");
    const double t0 = wallNow();
    const size_t slot = slotOf(id);

    // 1. An epoch this tenant owns must complete before its region
    //    disappears (a neighbour's open epoch is left untouched).
    engine_->drainDomain(slot, hierarchy_);

    // 2. Capture the partial replay before the state goes away.
    live_allocs_ -= slots_[slot].replayer->liveObjects();
    TenantResult tr = captureResult(slot, true);

    // 3. Retire the engine domain; the engine requires the active
    //    domain to move off the slot first when others remain.
    if (engine_->activeDomain() == slot) {
        for (size_t j = 0; j < slots_.size(); ++j) {
            if (j != slot && slots_[j].tenant) {
                engine_->selectDomain(j);
                break;
            }
        }
    }
    engine_->retireDomain(slot, hierarchy_);

    // 4. Unmap the image + shadow PTEs and release every backing
    //    page of the slot: the next occupant must observe a
    //    fresh-slot image (zero data, zero tags, zero shadow, zero
    //    residency, no CapDirty history).
    const uint64_t released = releaseSlotMemory(slot);

    // 5. Free the slot for reuse.
    slots_[slot].replayer.reset();
    slots_[slot].tenant.reset();
    free_slots_.insert(
        std::lower_bound(free_slots_.begin(), free_slots_.end(),
                         slot),
        slot);
    scheduler_.markDone(slot);
    live_ids_.erase(id);
    retired_results_.push_back(std::move(tr));

    ++retires_;
    LifecycleEvent ev;
    ev.kind = LifecycleEvent::Kind::Retire;
    ev.tenantId = id;
    ev.slot = slot;
    ev.step = steps_;
    ev.pagesReleased = released;
    ev.wallSec = wallNow() - t0;
    events_.push_back(ev);
}

void
TenantManager::onLifecycleOp(const workload::TraceOp &op)
{
    // Validate eagerly (the fatal belongs to the op that asked), but
    // apply after the current step returns: tearing down the tenant
    // that is mid-step — a trace retiring its own issuer — would
    // destroy the replayer under its own feet.
    if (op.kind == workload::OpKind::SpawnTenant) {
        if (!definitions_.count(op.id))
            fatal("spawn of unknown tenant definition %llu",
                  static_cast<unsigned long long>(op.id));
        if (live_ids_.count(op.id))
            fatal("spawn of already-live tenant %llu",
                  static_cast<unsigned long long>(op.id));
    } else {
        if (!live_ids_.count(op.id))
            fatal("retire of unknown tenant %llu",
                  static_cast<unsigned long long>(op.id));
    }
    CHERIVOKE_ASSERT(!pending_,
                     "(two lifecycle ops from one trace step)");
    pending_ = op;
}

void
TenantManager::applyPendingLifecycle()
{
    if (!pending_)
        return;
    const workload::TraceOp op = *pending_;
    pending_.reset();
    if (op.kind == workload::OpKind::SpawnTenant) {
        spawnTenant(op.id);
    } else {
        retireTenant(op.id);
    }
}

// Engine pump for tenant `index`: bind the engine to the tenant's
// domain, then let the configured scope decide what a budget trigger
// sweeps. An epoch already in flight always just advances, under the
// policy of the domain that owns it (cross-tenant mutator assist —
// also the arbitration point when policies are mixed).
void
TenantManager::pumpFor(size_t index, cache::Hierarchy *hierarchy)
{
    engine_->selectDomain(index);
    if (config_.scope == RevocationScope::PerTenant ||
        engine_->epochOpen()) {
        engine_->maybeRevoke(hierarchy);
        return;
    }
    // Global scope: one tenant's pressure stops the world for every
    // tenant that has anything quarantined.
    if (!engine_->quarantinePressure())
        return;
    for (size_t j = 0; j < slots_.size(); ++j) {
        if (!slots_[j].tenant ||
            slots_[j].tenant->allocator().quarantinedBytes() == 0)
            continue;
        engine_->selectDomain(j);
        engine_->revokeNow(hierarchy);
    }
    engine_->selectDomain(index);
}

void
TenantManager::maybeInjectFault(size_t slot)
{
    if (config_.faultPlan.empty())
        return;
    const uint64_t id = slots_[slot].id;
    for (FaultInjection &fi : config_.faultPlan.injections) {
        if (fi.fired || fi.tenantId != id ||
            slots_[slot].replayer->opsApplied() < fi.opIndex)
            continue;
        fi.fired = true;
        inject_in_flight_ = true;
        slots_[slot].replayer->injectFault(fi.kind); // throws
    }
}

void
TenantManager::containFault(size_t slot, const HeapFault &fault)
{
    const double t0 = wallNow();
    FaultRecord rec;
    rec.kind = fault.kind();
    rec.tenantId = slots_[slot].id;
    rec.slot = slot;
    rec.step = steps_;
    rec.opIndex = slots_[slot].replayer->opsApplied();
    rec.injected = inject_in_flight_;
    rec.message = fault.what();
    inject_in_flight_ = false;
    // The standard teardown path IS the containment mechanism:
    // drain the tenant's own epoch, capture its partial results
    // (captureResult stamps the fault from containing_), retire its
    // engine domain, unmap + release its slot. Surviving tenants
    // never observe the faulty tenant's post-fault ops.
    containing_ = rec;
    retireTenant(rec.tenantId);
    containing_.reset();
    rec.wallSec = wallNow() - t0;
    faults_.push_back(std::move(rec));
}

uint64_t
TenantManager::emergencyReclaim(size_t slot,
                                cache::Hierarchy *hierarchy)
{
    const uint64_t before = memory_.residentPages();
    Slot &s = slots_[slot];
    // Force-complete any epoch the tenant owns, then revoke its
    // whole quarantine now: revoked chunks become internal-free, so
    // their interior pages are releasable cold pages.
    engine_->selectDomain(slot);
    engine_->drainDomain(slot, hierarchy);
    if (s.tenant->allocator().quarantinedBytes() > 0)
        engine_->revokeNow(hierarchy);
    s.tenant->allocator().dl().releaseColdPages();
    const uint64_t after = memory_.residentPages();
    return before > after ? before - after : 0;
}

bool
TenantManager::applyPressureLadder(size_t slot,
                                   cache::Hierarchy *hierarchy)
{
    if (config_.pageBudgetPages == 0)
        return false;
    if (!memory_.overSoftBudget()) {
        pressure_strikes_ = 0; // episode over; reclamation caught up
        return false;
    }
    if (pressure_strikes_ > 0 && steps_ < pressure_retry_at_)
        return false; // backoff: give the last rung room to land
    ++pressure_events_;
    ++pressure_strikes_;
    pressure_retry_at_ = steps_ + config_.pressureBackoffSteps;
    if (pressure_strikes_ == 1) {
        // Rung 1: emergency revocation + cold-page release for the
        // tenant about to step (it is the one asking for pages).
        pressure_pages_reclaimed_ += emergencyReclaim(slot, hierarchy);
        return false;
    }
    if (pressure_strikes_ == 2) {
        // Rung 2: the pressured tenant alone was not enough — one
        // global reclaim pass over every live tenant.
        for (size_t j = 0; j < slots_.size(); ++j)
            if (slots_[j].tenant)
                pressure_pages_reclaimed_ +=
                    emergencyReclaim(j, hierarchy);
        return false;
    }
    // Rung 3: last resort — OOM-kill the tenant about to step.
    ++oom_kills_;
    pressure_strikes_ = 0;
    const HeapFault fault(
        HeapFaultKind::OutOfMemory,
        "heap fault (oom): " +
            detail::formatMessage(
                "%llu resident pages still over the %llu-page soft "
                "budget after emergency and global reclamation",
                static_cast<unsigned long long>(
                    memory_.residentPages()),
                static_cast<unsigned long long>(
                    config_.pageBudgetPages)));
    containFault(slot, fault);
    return true;
}

MultiTenantResult
TenantManager::run(cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(!ran_, "(run() is callable once)");
    CHERIVOKE_ASSERT(!live_ids_.empty(), "(run() with no tenants)");
    ran_ = true;
    running_ = true;
    hierarchy_ = hierarchy;

    MultiTenantResult result;

    auto sample_byte_peaks = [&]() {
        uint64_t live = 0, quarantined = 0, footprint = 0;
        for (const Slot &s : slots_) {
            if (!s.tenant)
                continue;
            live += s.tenant->allocator().liveBytes();
            quarantined += s.tenant->allocator().quarantinedBytes();
            footprint += s.tenant->allocator().footprintBytes();
        }
        result.peakAggLiveBytes =
            std::max(result.peakAggLiveBytes, live);
        result.peakAggQuarantineBytes =
            std::max(result.peakAggQuarantineBytes, quarantined);
        result.peakAggFootprintBytes =
            std::max(result.peakAggFootprintBytes, footprint);
    };

    while (!scheduler_.allDone()) {
        const size_t i = scheduler_.next();
        // Memory pressure resolves before the tenant steps; the
        // ladder's last rung OOM-kills the slot, leaving nothing
        // to step this turn.
        if (applyPressureLadder(i, hierarchy))
            continue;
        workload::TraceReplayer &r = *slots_[i].replayer;
        const uint64_t live_before = r.liveObjects();
        try {
            maybeInjectFault(i);
            r.step(hierarchy);
            live_allocs_ += r.liveObjects() - live_before;
            // may wrap; sums exactly
        } catch (const HeapFault &fault) {
            // The step's own live delta must land before containment:
            // the retire path inside subtracts the tenant's full
            // remaining live count. PanicError (TCB bugs) and plain
            // FatalError (configuration) fall through uncontained.
            live_allocs_ += r.liveObjects() - live_before;
            // A sweeper failure belongs to the domain whose epoch
            // the supervisor gave up on — under cross-tenant assist
            // that may not be the tenant that was stepping.
            size_t victim = i;
            if (fault.kind() == HeapFaultKind::SweeperFailure &&
                engine_->epochOpen() &&
                slots_[engine_->epochDomainIndex()].tenant)
                victim = engine_->epochDomainIndex();
            containFault(victim, fault);
        }
        ++steps_;
        result.peakAggLiveAllocs =
            std::max(result.peakAggLiveAllocs, live_allocs_);
        if (steps_ % kAggregateSampleOps == 0)
            sample_byte_peaks();
        // A lifecycle op this step requested applies now, once the
        // issuing replayer is off the stack (it may retire itself).
        applyPendingLifecycle();
        if (slots_[i].replayer && slots_[i].replayer->done())
            scheduler_.markDone(i);
    }
    sample_byte_peaks();

    // Finish every surviving tenant (drains an epoch it owns) and
    // patch each result's revocation view down to its own domain;
    // retired tenants were captured at retirement.
    result.tenants = std::move(retired_results_);
    retired_results_.clear();
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].tenant)
            continue;
        engine_->selectDomain(i);
        result.tenants.push_back(captureResult(i, false));
    }

    result.engine = engine_->totals();
    for (const TenantResult &tr : result.tenants) {
        result.allocCalls += tr.run.allocCalls;
        result.freeCalls += tr.run.freeCalls;
        result.freedBytes += tr.run.freedBytes;
        result.ptrStores += tr.run.ptrStores;
        result.virtualSeconds =
            std::max(result.virtualSeconds, tr.run.virtualSeconds);
        result.tenantEpochs.add(
            static_cast<double>(tr.run.revoker.epochs));
        result.tenantCapsRevoked.add(
            static_cast<double>(tr.run.revoker.sweep.capsRevoked));
        result.tenantPagesSwept.add(
            static_cast<double>(tr.run.revoker.sweep.pagesSwept));
        result.tenantPeakLiveAllocs.add(
            static_cast<double>(tr.run.peakLiveAllocs));
        result.mutatorLocalFrees += tr.mutator.localFrees;
        result.mutatorRemoteFrees += tr.mutator.remoteFrees;
        result.mutatorEpochBarriers += tr.mutator.epochBarriers;
    }
    // Fold the per-tenant traffic fingerprints (FNV-1a over the
    // result-order sequence, seeded with the offset basis).
    result.mutatorFingerprint = 0xcbf29ce484222325ULL;
    for (const TenantResult &tr : result.tenants) {
        result.mutatorFingerprint ^= tr.mutator.fingerprint();
        result.mutatorFingerprint *= 0x100000001b3ULL;
    }
    result.totalOps = steps_;
    result.lifecycle = events_;
    result.spawns = spawns_;
    result.retires = retires_;
    result.slotsReused = slots_reused_;
    result.faults = faults_;
    result.faultsContained = faults_.size();
    result.oomKills = oom_kills_;
    result.pressureEvents = pressure_events_;
    result.pressurePagesReclaimed = pressure_pages_reclaimed_;

    result.sweeperEvents = engine_->sweeperEvents();
    for (const revoke::SweeperEvent &ev : result.sweeperEvents) {
        switch (ev.kind) {
          case revoke::SweeperEventKind::Dispatch:
            ++result.sweeperDispatches;
            break;
          case revoke::SweeperEventKind::Completed:
            ++result.sweeperCompletions;
            break;
          case revoke::SweeperEventKind::StallDetected:
            ++result.sweeperStalls;
            break;
          case revoke::SweeperEventKind::Retry:
            ++result.sweeperRetries;
            break;
          case revoke::SweeperEventKind::Crash:
            ++result.sweeperCrashes;
            break;
          case revoke::SweeperEventKind::ReassignToAssist:
            ++result.sweeperReassigns;
            break;
          case revoke::SweeperEventKind::StwCatchup:
            ++result.sweeperStwCatchups;
            break;
          case revoke::SweeperEventKind::Containment:
            ++result.sweeperContainments;
            break;
        }
    }

    running_ = false;
    hierarchy_ = nullptr;
    return result;
}

} // namespace tenant
} // namespace cherivoke
