/**
 * @file
 * The background revocation sweeper: one worker thread per
 * RevocationEngine that races the mutator over each epoch's frozen
 * worklist. The handoff keeps modelled output deterministic:
 *
 *  - At dispatch (epoch open, mutator quiescent at the pump point)
 *    the engine snapshots the frozen worklist — page bases plus the
 *    raw 128-bit words of every tagged granule, read counter-free —
 *    into a FrozenWorklist the worker owns outright.
 *  - Off-thread, the worker decodes capability bases and probes the
 *    genuinely shared, frozen shadow map (ShadowMap::isRevoked is a
 *    lock-free pure read), publishing an atomic page watermark and
 *    heartbeat, and accumulating per-slice stat logs in canonical
 *    (worklist) order — deterministic regardless of interleaving.
 *  - The engine's modelled statistics still come from the unchanged
 *    mutator-assist replay; it merely *rendezvouses* with the
 *    worker's watermark before each modelled slice, so a bg-on run
 *    is bit-identical to bg-off by construction, and joins the
 *    worker before the epoch's barrier/shadow are released.
 *
 * Failure modes are injectable as *states*, never wall time: a
 * Stalled job makes no progress until cancelled (sweeper-stall), a
 * Crashed job drops dead before its first slice (sweeper-crash),
 * and a Slow job recovers after `factor` supervision nudges
 * (sweeper-slow) — all observed at deterministic rendezvous points.
 */

#ifndef CHERIVOKE_REVOKE_BACKGROUND_SWEEPER_HH
#define CHERIVOKE_REVOKE_BACKGROUND_SWEEPER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace cherivoke {

namespace alloc {
class ShadowMap;
} // namespace alloc

namespace mem {
class TaggedMemory;
} // namespace mem

namespace revoke {

/**
 * The dispatch-time snapshot of one epoch's frozen sweep work: the
 * worklist's page bases and, per page, the raw lo/hi words of every
 * tagged granule. Built counter-free on the dispatching thread so a
 * bg-on run perturbs no modelled statistic; owned by the worker for
 * the epoch, so the only memory it shares with the mutator is the
 * frozen shadow map.
 */
struct FrozenWorklist
{
    struct PageEntry
    {
        uint64_t pageBase = 0;
        uint32_t firstCap = 0; //!< index into caps
        uint32_t capCount = 0;
    };

    struct CapEntry
    {
        uint64_t lo = 0;
        uint64_t hi = 0;
    };

    std::vector<PageEntry> pages;
    std::vector<CapEntry> caps;
};

/**
 * Build the snapshot on the dispatching thread (mutator quiescent
 * at the pump point) using only counter-free reads — a bg-on run
 * must not perturb any modelled memory statistic.
 */
FrozenWorklist
buildFrozenWorklist(const mem::TaggedMemory &memory,
                    const std::vector<uint64_t> &pages);

class BackgroundSweeper
{
  public:
    /** Job lifecycle, readable at any rendezvous. */
    enum class State : uint8_t
    {
        Idle,      //!< no job since construction / last epoch
        Running,   //!< sweeping slices
        Stalled,   //!< injected no-progress state (stall / slow)
        Done,      //!< worklist fully swept
        Crashed,   //!< injected thread death; heartbeat stopped
        Cancelled, //!< cancel() consumed the job
    };

    /** Injected failure mode for one dispatched job. */
    enum class Inject : uint8_t
    {
        None,
        Stall, //!< sticky: only cancel() ends it
        Crash, //!< dies before the first slice
        Slow,  //!< recovers after `slowFactor` nudge() calls
    };

    /** Per-slice stat log, in canonical worklist order. */
    struct SliceLog
    {
        uint64_t firstPage = 0;
        uint64_t pages = 0;
        uint64_t capsExamined = 0;
        uint64_t capsRevoked = 0;

        bool operator==(const SliceLog &o) const = default;
    };

    BackgroundSweeper();
    ~BackgroundSweeper();

    BackgroundSweeper(const BackgroundSweeper &) = delete;
    BackgroundSweeper &operator=(const BackgroundSweeper &) = delete;

    /**
     * Hand an epoch's frozen snapshot to the worker. The previous
     * job must be terminal (Idle/Done/Crashed/Cancelled). @p shadow
     * must stay frozen (painted, unwritten) until the job is joined
     * via cancel() or observed Done.
     */
    void dispatch(FrozenWorklist worklist,
                  const alloc::ShadowMap *shadow,
                  size_t pages_per_slice, Inject inject,
                  uint64_t slow_factor);

    /** One supervision retry credit: a Slow job whose credits are
     *  exhausted resumes sweeping. No-op for Stall/Crash. */
    void nudge();

    /**
     * Cancel the in-flight job and block until the worker has let
     * go of it (state becomes Cancelled, or was already terminal).
     * After cancel() returns, the shadow/barrier may be released.
     */
    void cancel();

    State state() const;

    /** Pages completed, monotone within a job (lock-free read). */
    uint64_t
    watermark() const
    {
        return watermark_.load(std::memory_order_acquire);
    }

    /** Slice-completion heartbeat counter (lock-free read). */
    uint64_t
    heartbeats() const
    {
        return heartbeats_.load(std::memory_order_acquire);
    }

    /**
     * Block until watermark >= @p target_pages, the job leaves the
     * Running state, or @p timeout_ns elapses. Returns true iff the
     * watermark target was reached.
     */
    bool waitProgress(uint64_t target_pages, uint64_t timeout_ns);

    /** The finished/cancelled job's per-slice logs (canonical
     *  order). Call only while the job is terminal. */
    const std::vector<SliceLog> &sliceLogs() const { return logs_; }

  private:
    void workerMain();
    SliceLog sweepSlice(size_t first, size_t end) const;

    std::thread worker_;
    mutable std::mutex mutex_;
    std::condition_variable job_cv_;      //!< worker waits here
    std::condition_variable progress_cv_; //!< engine waits here

    // Job inputs (written by dispatch under mutex_, read by the
    // worker; immutable while a job is in flight).
    FrozenWorklist worklist_;
    const alloc::ShadowMap *shadow_ = nullptr;
    size_t pages_per_slice_ = 64;
    Inject inject_ = Inject::None;
    uint64_t slow_credits_ = 0;

    // Job state (mutex_-guarded; watermark/heartbeat also atomic
    // for lock-free observation from the rendezvous).
    State state_ = State::Idle;
    bool job_pending_ = false;
    bool cancel_requested_ = false;
    bool shutdown_ = false;
    size_t next_ = 0;
    std::vector<SliceLog> logs_;
    std::atomic<uint64_t> watermark_{0};
    std::atomic<uint64_t> heartbeats_{0};
};

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_BACKGROUND_SWEEPER_HH
