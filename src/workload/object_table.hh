/**
 * @file
 * The trace replayer's live-object table: allocation id -> the
 * capability its Malloc returned. Internal to src/workload (the
 * replayer holds one); not part of the workload API.
 *
 * Capabilities live in slots, handed out in fixed-size chunks and
 * recycled last-freed-first, so the table grows with the most
 * allocations ever live at once, not with the trace. A dense index
 * maps each id below the table's id bound to its slot, so no lookup
 * hashes. The replayer renumbers a trace whose ids are sparse before
 * it builds the table (TraceReplayer::indexObjects).
 */

#ifndef CHERIVOKE_WORKLOAD_OBJECT_TABLE_HH
#define CHERIVOKE_WORKLOAD_OBJECT_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cap/capability.hh"
#include "support/logging.hh"
#include "support/zero_pages.hh"

namespace cherivoke {
namespace workload {

class ObjectTable
{
  public:
    /** A table for ids [0, @p id_bound), none of them live. */
    explicit ObjectTable(uint64_t id_bound = 0) : slot_of_(id_bound) {}

    /** The capability of @p id, or nullptr when @p id is not live. */
    const cap::Capability *
    find(uint64_t id) const
    {
        const uint32_t s = slot_of_[id];
        return s ? &slot(s - 1).cap : nullptr;
    }

    /** Make @p id live with @p capability, unless it is live already:
     *  then the first capability stays, as a map's emplace keeps it. */
    void
    insert(uint64_t id, const cap::Capability &capability)
    {
        uint32_t &entry = slot_of_[id];
        if (entry)
            return;
        uint32_t s;
        if (free_) {
            s = free_ - 1;
            free_ = slot(s).nextFree;
        } else {
            s = used_++;
            if (s % kChunkSlots == 0)
                chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
        }
        std::construct_at(&slot(s).cap, capability);
        entry = s + 1;
        ++live_;
    }

    /** Make live @p id dead; its slot is the next one handed out. */
    void
    erase(uint64_t id)
    {
        uint32_t &entry = slot_of_[id];
        CHERIVOKE_ASSERT(entry, "(erase of an id that is not live)");
        std::construct_at(&slot(entry - 1).nextFree, free_);
        free_ = entry;
        entry = 0;
        --live_;
    }

    /** Ids live now. */
    uint64_t size() const { return live_; }

  private:
    /** Slots per chunk: 96 KiB of capabilities. */
    static constexpr uint32_t kChunkSlots = 4096;

    /** A live capability, or a dead slot's link in the free list. */
    union Slot
    {
        Slot() : nextFree(0) {}
        cap::Capability cap;
        uint32_t nextFree; //!< next free slot + 1; 0 ends the list
    };

    Slot &
    slot(uint32_t s) const
    {
        return chunks_[s / kChunkSlots][s % kChunkSlots];
    }

    ZeroPages<uint32_t> slot_of_; //!< id -> slot + 1; 0 = not live
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    uint32_t free_ = 0; //!< first free slot + 1; 0 = none
    uint32_t used_ = 0; //!< slots ever handed out
    uint64_t live_ = 0;
};

} // namespace workload
} // namespace cherivoke

#endif // CHERIVOKE_WORKLOAD_OBJECT_TABLE_HH
