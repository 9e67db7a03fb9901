/**
 * @file
 * PICASSO-style colored capabilities. Every allocation is assigned a
 * color from a bounded pool, carried in the capability's spare
 * metadata bits (cap::kColorBits). A color is *open* while it
 * accepts allocations, *sealed* once allocsPerColor allocations
 * share it, and *retired* once every allocation in its cohort has
 * been freed. Freed memory still quarantines — reuse is blocked
 * until the chunk's color is recycled — but the revocation trigger
 * is color retirement, not quarantine fill, so scans run far less
 * often than CHERIvoke's sweeps on cohort-friendly workloads.
 *
 * The recycling scan is a sweep epoch (inherited mechanics: paint,
 * registers, page worklist — stale colored capabilities lose their
 * tags exactly like stale sweep-era capabilities) plus a color-table
 * pass that bumps each retired color's generation and returns it to
 * the free pool, modelled as tableEntryBytes per pool entry.
 *
 * Pool exhaustion: when no color is free at allocation time, the
 * backend deterministically *shares* the lowest-numbered non-free
 * color (colorForcedShares) and flags the stall
 * (colorExhaustionStalls) — the hardware analogue would be stalling
 * the allocator on the recycler.
 */

#ifndef CHERIVOKE_REVOKE_BACKENDS_COLOR_BACKEND_HH
#define CHERIVOKE_REVOKE_BACKENDS_COLOR_BACKEND_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "revoke/backends/sweep_backend.hh"

namespace cherivoke {
namespace revoke {

class ColorBackend final : public SweepBackend
{
  public:
    explicit ColorBackend(const BackendConfig &config);

    BackendKind kind() const override { return BackendKind::Color; }
    const char *name() const override { return "color"; }

    cap::Capability onAlloc(const cap::Capability &capability) override;
    alloc::FreeRouting onFree(uint64_t chunk_addr, uint64_t chunk_size,
                              uint64_t payload) override;

    /** Retired colors reached the recycle threshold, the pool is
     *  exhausted with colors waiting to recycle, or the quarantine
     *  safety valve fired. */
    bool needsRevocation() const override;

    void finishEpoch(EpochStats &epoch) override;

    /** Recycling scans must observe the whole heap: a retired
     *  color's stale capabilities can be anywhere, so tier scoping
     *  is ignored and every epoch stays full-depth. */
    void setEpochScope(EpochScope scope) override { (void)scope; }

    /** @name Introspection (tests, benches) */
    /// @{
    unsigned poolColors() const { return pool_colors_; }
    unsigned retiredColors() const { return retired_; }
    uint64_t generation(uint8_t color) const
    {
        return table_.at(color).generation;
    }
    unsigned recycleThreshold() const;
    /// @}

  private:
    enum class ColorState { Free, Open, Sealed, Retired };

    struct ColorEntry
    {
        uint64_t generation = 0;
        uint64_t liveAllocs = 0;
        uint64_t allocs = 0; //!< cohort size since last recycle
        ColorState state = ColorState::Free;
    };

    /** Colors actually in the pool (config clamped to the
     *  architectural field width, colors 1..pool_colors_). */
    unsigned pool_colors_;
    /** Indexed by color value; entry 0 unused ("uncolored"). */
    std::vector<ColorEntry> table_;
    /** FIFO recycle order keeps color assignment deterministic. */
    std::deque<uint8_t> free_colors_;
    uint8_t open_color_ = 0; //!< 0 = none open
    unsigned retired_ = 0;
    /** payload base -> color. Never iterated (determinism). */
    std::unordered_map<uint64_t, uint8_t> chunk_color_;
};

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_BACKENDS_COLOR_BACKEND_HH
