/**
 * @file
 * Supervision of the background sweeper, as the engine walks it
 * serially (RevocationEngine, EngineConfig::backgroundSweeper): the
 * typed SweeperEvent taxonomy every transition is recorded as, and
 * the per-domain strike ledger that drives the degradation ladder.
 *
 * An injected sweeper fault (SweeperInjection) is a *state*, walked
 * at the first step of its epoch that needs a page: a crash takes a
 * strike at once; a stall is granted EngineConfig::sweeperRetries
 * retries and then takes one; a slow sweeper recovers once it has
 * had `factor` retries, and takes a strike only when the budget runs
 * out first. Each strike fires the rung for the domain's count:
 *
 *     strike 1:  ReassignToAssist - the epoch carries on in the
 *                mutator-assist slices
 *     strike 2:  StwCatchup - that step drains the whole worklist in
 *                one stop-the-world pause
 *     strike 3+: Containment - the engine raises
 *                HeapFaultKind::SweeperFailure and the domain is
 *                retired through the standard teardown path
 */

#ifndef CHERIVOKE_REVOKE_SUPERVISOR_HH
#define CHERIVOKE_REVOKE_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cherivoke {
namespace revoke {

/** Every supervision transition, in the order the ladder fires. */
enum class SweeperEventKind : uint8_t
{
    Dispatch,         //!< epoch opened with a page worklist
    Completed,        //!< epoch closed without a strike
    StallDetected,    //!< injected stall or slow sweeper seen
    Retry,            //!< one bounded retry granted
    Crash,            //!< injected sweeper crash seen
    ReassignToAssist, //!< rung 1: worklist back to mutator-assist
    StwCatchup,       //!< rung 2: stop-the-world catch-up pause
    Containment,      //!< rung 3: domain contained via teardown
};

constexpr size_t kNumSweeperEventKinds = 8;

/** Stable lowercase name ("dispatch", "reassign-to-assist", ...). */
const char *sweeperEventKindName(SweeperEventKind kind);

/**
 * One supervision transition. Every field is a function of the
 * trace, the plan and the retry budget (epoch ordinals and page
 * counts, never wall time), so event sequences are gated
 * byte-identical across runs.
 */
struct SweeperEvent
{
    SweeperEventKind kind = SweeperEventKind::Dispatch;
    uint64_t domain = 0;   //!< engine domain index
    uint64_t epochSeq = 0; //!< domain-local epoch ordinal
    uint64_t pages = 0;    //!< worklist pages (Dispatch/Completed);
                           //!< 0 for every other kind
    uint64_t attempt = 0;  //!< retries granted so far this epoch
};

/** Canonical one-line rendering for fingerprints and logs. */
std::string sweeperEventLine(const SweeperEvent &event);

/**
 * The strike ledger + event log the engine's degradation ladder
 * reads. Strikes accumulate per domain across epochs: a domain
 * whose sweeper keeps failing climbs the ladder monotonically.
 */
class SweeperSupervisor
{
  public:
    /** One more failed episode for @p domain; returns the total. */
    unsigned addStrike(uint64_t domain)
    {
        if (domain >= strikes_.size())
            strikes_.resize(domain + 1, 0);
        return ++strikes_[domain];
    }

    unsigned strikes(uint64_t domain) const
    {
        return domain < strikes_.size() ? strikes_[domain] : 0;
    }

    /** Slot reuse (bindDomain): a new tenant starts clean. */
    void resetStrikes(uint64_t domain)
    {
        if (domain < strikes_.size())
            strikes_[domain] = 0;
    }

    void record(const SweeperEvent &event)
    {
        events_.push_back(event);
    }

    const std::vector<SweeperEvent> &events() const
    {
        return events_;
    }

  private:
    std::vector<unsigned> strikes_;
    std::vector<SweeperEvent> events_;
};

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_SUPERVISOR_HH
