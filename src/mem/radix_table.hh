/**
 * @file
 * A two-level radix table over virtual page numbers, on lazily zeroed
 * memory: the storage behind mem::PageDirectory (a page pointer per
 * VPN) and mem::PageTable (a PTE per VPN).
 *
 * The 36-bit VPN of a 48-bit virtual address splits into an 18-bit
 * root index and an 18-bit leaf index, so each leaf spans 1 GiB. The
 * root and every leaf are ZeroPages: a level of 2^18 entries is
 * resident only in the 4 KiB pages holding an entry that was ever
 * written, and an entry never written reads as zero (a null pointer,
 * an unmapped PTE).
 */

#ifndef CHERIVOKE_MEM_RADIX_TABLE_HH
#define CHERIVOKE_MEM_RADIX_TABLE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "support/logging.hh"
#include "support/units.hh"
#include "support/zero_pages.hh"

namespace cherivoke {
namespace mem {

template <typename Entry>
class RadixTable
{
  public:
    static constexpr unsigned kVaBits = 48;
    static constexpr unsigned kLeafBits = 18;
    static constexpr unsigned kRootBits =
        kVaBits - kPageShift - kLeafBits;
    static constexpr size_t kLeafEntries = size_t{1} << kLeafBits;
    static constexpr uint64_t kMaxVpn = uint64_t{1}
                                        << (kRootBits + kLeafBits);

    RadixTable() : root_(size_t{1} << kRootBits) {}

    /**
     * The entry of @p vpn, or nullptr when its leaf was never
     * materialised or @p vpn lies beyond the VA width. Lock-free: the
     * leaf pointer is one acquire load, paired with materialise()'s
     * release store, so a concurrent materialise() is safe.
     */
    Entry *
    find(uint64_t vpn) const
    {
        if (vpn >= kMaxVpn)
            return nullptr;
        Entry *leaf = std::atomic_ref<Entry *>(root_[vpn >> kLeafBits])
                          .load(std::memory_order_acquire);
        return leaf ? leaf + (vpn & (kLeafEntries - 1)) : nullptr;
    }

    /** The entry of @p vpn, materialising its zero leaf first if
     *  needed; fatal beyond the VA width. Thread-safe. */
    Entry &
    materialise(uint64_t vpn)
    {
        if (Entry *entry = find(vpn))
            return *entry;
        if (vpn >= kMaxVpn) {
            fatal("address 0x%llx beyond the %u-bit simulated VA space",
                  static_cast<unsigned long long>(vpn << kPageShift),
                  kVaBits);
        }
        std::lock_guard<std::mutex> lock(mu_);
        std::atomic_ref<Entry *> slot(root_[vpn >> kLeafBits]);
        Entry *leaf = slot.load(std::memory_order_relaxed);
        if (!leaf) {
            leaf = leaves_.try_emplace(vpn >> kLeafBits, kLeafEntries)
                       .first->second.get();
            slot.store(leaf, std::memory_order_release);
        }
        return leaf[vpn & (kLeafEntries - 1)];
    }

    /**
     * Call fn(vpn, entry) for every entry of every materialised leaf
     * in [vpn_lo, vpn_hi), in VPN order, skipping unmaterialised
     * leaves whole; an untouched entry is read, not made resident.
     * A concurrent materialise() of a new leaf waits for the walk, so
     * @p fn must not materialise. Entries are not locked: @p fn must
     * itself be safe against whoever else writes them.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn, uint64_t vpn_lo = 0, uint64_t vpn_hi = kMaxVpn) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        vpn_hi = std::min(vpn_hi, kMaxVpn);
        for (auto it = leaves_.lower_bound(vpn_lo >> kLeafBits);
             it != leaves_.end() && (it->first << kLeafBits) < vpn_hi;
             ++it) {
            const uint64_t base = it->first << kLeafBits;
            const uint64_t hi = std::min(vpn_hi, base + kLeafEntries);
            for (uint64_t vpn = std::max(vpn_lo, base); vpn < hi; ++vpn)
                fn(vpn, it->second[vpn - base]);
        }
    }

  private:
    ZeroPages<Entry *> root_;
    /** Guards leaves_; root_ entries are published under it too. */
    mutable std::mutex mu_;
    /** The leaves by root index: their owner, and their VPN order. */
    std::map<uint64_t, ZeroPages<Entry>> leaves_;
};

} // namespace mem
} // namespace cherivoke

#endif // CHERIVOKE_MEM_RADIX_TABLE_HH
