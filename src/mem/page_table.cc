#include "mem/page_table.hh"

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace mem {

void
PageTable::map(uint64_t base, uint64_t size, uint8_t prot,
               bool cap_store_inhibit)
{
    CHERIVOKE_ASSERT(isAligned(base, kPageBytes) &&
                     isAligned(size, kPageBytes),
                     "(map must be page aligned)");
    for (uint64_t vpn = base >> kPageShift;
         vpn < (base + size) >> kPageShift; ++vpn) {
        Pte &pte = ptes_.materialise(vpn);
        mapped_ += !pte.valid;
        pte.valid = true;
        pte.prot = prot;
        pte.capStoreInhibit = cap_store_inhibit;
    }
}

void
PageTable::unmap(uint64_t base, uint64_t size)
{
    CHERIVOKE_ASSERT(isAligned(base, kPageBytes) &&
                     isAligned(size, kPageBytes),
                     "(unmap must be page aligned)");
    // Only valid PTEs are written, so unmapping a sparse range makes
    // no untouched part of a leaf resident.
    ptes_.forEach(
        [this](uint64_t, Pte &pte) {
            if (pte.valid) {
                pte = Pte{};
                --mapped_;
            }
        },
        base >> kPageShift, (base + size) >> kPageShift);
}

bool
PageTable::setCapDirty(uint64_t addr)
{
    Pte *pte = lookup(addr);
    CHERIVOKE_ASSERT(pte, "(setCapDirty on unmapped page)");
    if (pte->capDirty)
        return false;
    pte->capDirty = true;
    return true;
}

void
PageTable::clearCapDirty(uint64_t addr)
{
    Pte *pte = lookup(addr);
    CHERIVOKE_ASSERT(pte, "(clearCapDirty on unmapped page)");
    pte->capDirty = false;
}

std::vector<uint64_t>
PageTable::capDirtyPages() const
{
    std::vector<uint64_t> pages;
    ptes_.forEach([&](uint64_t vpn, const Pte &pte) {
        if (pte.valid && pte.capDirty)
            pages.push_back(vpn << kPageShift);
    });
    return pages;
}

std::vector<uint64_t>
PageTable::mappedPages() const
{
    std::vector<uint64_t> pages;
    pages.reserve(mapped_);
    ptes_.forEach([&](uint64_t vpn, const Pte &pte) {
        if (pte.valid)
            pages.push_back(vpn << kPageShift);
    });
    return pages;
}

size_t
PageTable::capDirtyCount() const
{
    size_t n = 0;
    ptes_.forEach([&](uint64_t, const Pte &pte) {
        n += pte.valid && pte.capDirty;
    });
    return n;
}

} // namespace mem
} // namespace cherivoke
