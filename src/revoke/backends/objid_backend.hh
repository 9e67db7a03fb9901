/**
 * @file
 * CHERI-D-style inline object IDs. Every allocation gets a
 * monotonically increasing object ID, stamped into the chunk
 * header's spare size-word bits (alloc::ChunkView::setIdTag) and
 * tracked in a live-ID table. Every pointer dereference is modelled
 * as an ID check — the hardware compares the capability's expected
 * ID against the inline header tag — accounted as a counter plus
 * one header-word read of traffic per check.
 *
 * free() retires the ID in O(1) and the memory is reusable
 * *immediately* (FreeRouting::ReleaseNow): a stale reference fails
 * its ID check instead of being swept. No quarantine, no shadow
 * map, no load barrier. The only epoch-shaped work is *table
 * compaction*: once enough IDs have retired, the live table is
 * rewritten without the dead entries, modelled as one read of every
 * entry plus one write of every surviving entry.
 */

#ifndef CHERIVOKE_REVOKE_BACKENDS_OBJID_BACKEND_HH
#define CHERIVOKE_REVOKE_BACKENDS_OBJID_BACKEND_HH

#include <unordered_map>

#include "revoke/backends/backend.hh"

namespace cherivoke {
namespace revoke {

class ObjectIdBackend final : public RevocationBackend
{
  public:
    using RevocationBackend::RevocationBackend;

    BackendKind kind() const override { return BackendKind::ObjectId; }
    const char *name() const override { return "objid"; }

    cap::Capability onAlloc(const cap::Capability &capability) override;
    alloc::FreeRouting onFree(uint64_t chunk_addr, uint64_t chunk_size,
                              uint64_t payload) override;
    void onPointerUse(uint64_t n) override;

    /** Enough retired IDs to warrant a table compaction? */
    bool needsRevocation() const override;

    void beginEpoch(EpochStats &epoch, bool want_barrier) override;
    size_t step(EpochStats &epoch, size_t max_pages,
                cache::Hierarchy *hierarchy) override;
    void finishEpoch(EpochStats &epoch) override;

    /** @name Introspection (tests, benches) */
    /// @{
    uint64_t liveIds() const { return live_.size(); }
    uint64_t retiredIds() const { return retired_; }
    /// @}

  private:
    /** payload base -> object ID. Never iterated (determinism). */
    std::unordered_map<uint64_t, uint64_t> live_;
    uint64_t next_id_ = 1; //!< 0 reserved: "no ID"
    uint64_t retired_ = 0; //!< retired since the last compaction
    uint64_t compacting_ = 0; //!< entries frozen for the open epoch
};

} // namespace revoke
} // namespace cherivoke

#endif // CHERIVOKE_REVOKE_BACKENDS_OBJID_BACKEND_HH
