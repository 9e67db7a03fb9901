/**
 * @file
 * The typed recoverable-fault channel: errors attributable to a
 * *tenant's own input* (a double free in its trace, a corrupt trace
 * record, its heap blowing the page budget) are raised as HeapFault
 * instead of plain fatal(), so a multi-tenant host can catch the
 * fault, retire just the offending tenant, and keep serving the
 * others. TCB invariant violations (a bug in this library) remain
 * PanicError, and configuration errors remain plain FatalError —
 * neither is ever contained.
 *
 * HeapFault derives from FatalError on purpose: a single-process run
 * that never installs a containment boundary still dies with the
 * same catchable error the pre-fault-channel code threw, so every
 * existing EXPECT_THROW(..., FatalError) contract holds.
 *
 * The file also defines the deterministic fault-injection plan
 * (CHERIVOKE_FAULT_PLAN / CHERIVOKE_FAULT_SEED): a list of
 * (kind, tenant, op-index) injections, either parsed from the strict
 * `kind@tenant:op[,...]` grammar or generated from a seed, that a
 * TenantManager fires through the TraceReplayer hook machinery so
 * every chaos run replays bit-identically.
 */

#ifndef CHERIVOKE_SUPPORT_FAULT_HH
#define CHERIVOKE_SUPPORT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace cherivoke {

/** What went wrong, from the containment boundary's point of view. */
enum class HeapFaultKind : uint8_t
{
    DoubleFree,       //!< free/realloc of a non-live allocation
    WildFree,         //!< free through an untagged cap or of an
                      //!< address outside the heap
    HeaderCorruption, //!< chunk boundary tag fails sanity checks
    OutOfMemory,      //!< page budget exhausted after escalation
    CodecCorruption,  //!< corrupt record mid-stream in a trace
    SweeperFailure,   //!< background sweeper exhausted its
                      //!< degradation ladder for this domain
};

/**
 * Kinds a seeded plan may inject through the trace-replay hook.
 * SweeperFailure is excluded: it is only ever *raised* by the
 * supervision ladder (driven by the sweeper-* injections below),
 * never planted directly into a tenant's trace.
 */
constexpr size_t kNumInjectableHeapFaultKinds = 5;
constexpr size_t kNumHeapFaultKinds = 6;

/** Stable lowercase name ("double-free", "oom", ...). */
const char *heapFaultKindName(HeapFaultKind kind);

/** Inverse of heapFaultKindName(). @return false on unknown name */
bool parseHeapFaultKind(const std::string &name, HeapFaultKind &out);

/**
 * A recoverable heap fault. Raised where the fault is detected
 * (allocator, codec, pressure ladder); the containment boundary,
 * which knows whose op was executing, records the tenant in its
 * FaultRecord.
 */
class HeapFault : public FatalError
{
  public:
    HeapFault(HeapFaultKind kind, const std::string &what)
        : FatalError(what), kind_(kind)
    {}

    HeapFaultKind kind() const { return kind_; }

  private:
    HeapFaultKind kind_;
};

/** Raise a HeapFault of @p kind with a printf-formatted message. */
template <typename... Args>
[[noreturn]] void
heapFault(HeapFaultKind kind, const char *fmt, Args &&...args)
{
    std::string message = "heap fault (";
    message += heapFaultKindName(kind);
    message += "): ";
    if constexpr (sizeof...(Args) == 0) {
        message += fmt;
    } else {
        message +=
            detail::formatMessage(fmt, std::forward<Args>(args)...);
    }
    throw HeapFault(kind, message);
}

/** One planned injection: raise @p kind the first time tenant
 *  @p tenantId is scheduled with >= @p opIndex ops applied. */
struct FaultInjection
{
    HeapFaultKind kind = HeapFaultKind::DoubleFree;
    uint64_t tenantId = 0;
    uint64_t opIndex = 0;
    bool fired = false; //!< consumed by the manager at run time
};

/** Which background-sweeper failure mode to inject. */
enum class SweeperFaultKind : uint8_t
{
    Stall, //!< sweeper stops making progress, never recovers
    Crash, //!< sweeper thread dies mid-epoch (heartbeat stops)
    Slow,  //!< sweeper stalls, but recovers after `factor` retries
};

constexpr size_t kNumSweeperFaultKinds = 3;

/** Stable lowercase name ("sweeper-stall", ...). */
const char *sweeperFaultKindName(SweeperFaultKind kind);

/** Inverse of sweeperFaultKindName(). @return false on unknown */
bool parseSweeperFaultKind(const std::string &name,
                           SweeperFaultKind &out);

/**
 * One planned sweeper injection: afflict the background sweeper of
 * @p domain on its @p epoch-th revocation epoch (0-based ordinal of
 * completed epochs at open time). For Slow, @p factor is how many
 * watchdog retries it takes before the sweeper recovers.
 */
struct SweeperInjection
{
    SweeperFaultKind kind = SweeperFaultKind::Stall;
    uint64_t domain = 0;
    uint64_t epoch = 0;
    uint64_t factor = 1;
    bool fired = false; //!< consumed by the engine at run time
};

/** A deterministic chaos schedule. */
struct FaultPlan
{
    std::vector<FaultInjection> injections;
    std::vector<SweeperInjection> sweeper;

    bool empty() const
    {
        return injections.empty() && sweeper.empty();
    }

    /** Canonical `kind@tenant:op,...` text (parse round-trips).
     *  Sweeper items render as `kind@domain:epoch[:factor]` (the
     *  factor is emitted only when != 1). */
    std::string text() const;
};

/**
 * Strict-parse the `kind@tenant:op[,kind@tenant:op...]` grammar
 * (kinds: double-free, wild-free, header-corruption, oom,
 * codec-corruption, plus the sweeper kinds sweeper-stall,
 * sweeper-crash and sweeper-slow with grammar
 * `kind@domain:epoch[:factor]`). Empty text yields an empty plan;
 * anything malformed — unknown kind, missing separator, non-numeric
 * field, trailing comma — throws FatalError naming the offending
 * token.
 */
FaultPlan parseFaultPlan(const std::string &text);

/**
 * Seed-generate a plan with one injection of every fault kind,
 * spread across @p tenant_ids at op indices below the target
 * tenant's entry in @p op_counts (deterministic xoshiro stream:
 * same seed, same tenants, same counts -> same plan).
 */
FaultPlan generateFaultPlan(uint64_t seed,
                            const std::vector<uint64_t> &tenant_ids,
                            const std::vector<uint64_t> &op_counts);

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_FAULT_HH
