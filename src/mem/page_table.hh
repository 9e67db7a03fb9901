/**
 * @file
 * Page table with the CHERI PTE CapDirty flag (paper §3.4.2).
 *
 * CapDirty records whether a page has ever received a valid capability
 * store. Clean pages cannot contain capabilities and are skipped by
 * the revocation sweep. The first capability store to a clean page
 * "traps" (modelled as a counted event, since the OS handler's only
 * job is to set the flag), after which stores proceed silently.
 */

#ifndef CHERIVOKE_MEM_PAGE_TABLE_HH
#define CHERIVOKE_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "mem/radix_table.hh"
#include "support/units.hh"

namespace cherivoke {
namespace mem {

/** Page protection bits. */
enum PageProt : uint8_t
{
    ProtRead  = 1u << 0,
    ProtWrite = 1u << 1,
    ProtExec  = 1u << 2,
};

/** A page-table entry. All zero bytes is an unmapped page. */
struct Pte
{
    uint8_t prot = 0;
    /** Set on the first tagged (capability) store to the page. */
    bool capDirty = false;
    /**
     * Capability-store inhibit (the CHERI-MIPS S bit, §3.4.2 fn 3):
     * tagged stores to this page fault. Used for shared/file pages.
     */
    bool capStoreInhibit = false;
    /** Set while the page is mapped (a hardware PTE's valid bit). */
    bool valid = false;
};

/**
 * The page table over the simulated virtual address space: a
 * RadixTable of PTEs, split 18/18 like the page directory. A lookup
 * is two loads and lock-free, so sweep threads may read PTEs while
 * the owner maps more heap; map and unmap take a single writer.
 * Enumerations run in virtual page order, so sweeps are deterministic.
 */
class PageTable
{
  public:
    /** Map [base, base+size) with @p prot; both page-aligned. */
    void map(uint64_t base, uint64_t size, uint8_t prot,
             bool cap_store_inhibit = false);

    /** Unmap [base, base+size); both page-aligned. */
    void unmap(uint64_t base, uint64_t size);

    /** PTE pointer, or nullptr if unmapped. */
    const Pte *lookup(uint64_t addr) const { return validPte(addr); }
    Pte *lookup(uint64_t addr) { return validPte(addr); }

    bool isMapped(uint64_t addr) const { return lookup(addr) != nullptr; }

    /** Number of mapped pages. */
    size_t pageCount() const { return mapped_; }

    /**
     * Mark the page containing @p addr CapDirty.
     * @return true if this transition was a clean→dirty "trap".
     */
    bool setCapDirty(uint64_t addr);

    /** Clear CapDirty (a sweep found the page tag-free, §3.4.2). */
    void clearCapDirty(uint64_t addr);

    /**
     * The system API of §5.3: the page-aligned addresses of every
     * mapped page whose CapDirty flag is set, in address order.
     */
    std::vector<uint64_t> capDirtyPages() const;

    /** All mapped page base addresses, in address order. */
    std::vector<uint64_t> mappedPages() const;

    /** Count of CapDirty pages (fig. 8a numerator). */
    size_t capDirtyCount() const;

  private:
    Pte *
    validPte(uint64_t addr) const
    {
        Pte *pte = ptes_.find(addr >> kPageShift);
        return pte && pte->valid ? pte : nullptr;
    }

    RadixTable<Pte> ptes_; //!< indexed by virtual page number
    size_t mapped_ = 0;    //!< valid PTEs
};

} // namespace mem
} // namespace cherivoke

#endif // CHERIVOKE_MEM_PAGE_TABLE_HH
