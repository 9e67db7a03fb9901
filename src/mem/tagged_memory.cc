#include "mem/tagged_memory.hh"

#include <cstring>
#include <vector>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace mem {

using cap::CapFault;
using cap::FaultKind;

void
Page::setGranuleTag(unsigned g)
{
    uint64_t &word = tags[g >> 6];
    const uint64_t bit = uint64_t{1} << (g & 63);
    if (!(word & bit)) {
        word |= bit;
        ++tagCount;
    }
}

void
Page::clearGranuleTag(unsigned g)
{
    uint64_t &word = tags[g >> 6];
    const uint64_t bit = uint64_t{1} << (g & 63);
    if (word & bit) {
        word &= ~bit;
        --tagCount;
    }
}

PageDirectory::~PageDirectory()
{
    slots_.forEach([](uint64_t, Page *page) { delete page; });
}

Page &
PageDirectory::getOrCreate(uint64_t vpn)
{
    std::atomic_ref<Page *> slot(slots_.materialise(vpn));
    Page *page = slot.load(std::memory_order_acquire);
    if (!page) {
        std::lock_guard<std::mutex> lock(stripes_[vpn % kStripes]);
        page = slot.load(std::memory_order_acquire);
        if (!page) {
            page = new Page();
            resident_.fetch_add(1, std::memory_order_relaxed);
            slot.store(page, std::memory_order_release);
        }
    }
    return *page;
}

size_t
PageDirectory::releaseRange(uint64_t vpn_lo, uint64_t vpn_hi)
{
    size_t released = 0;
    slots_.forEach(
        [&released](uint64_t, Page *&entry) {
            std::atomic_ref<Page *> slot(entry);
            Page *page = slot.load(std::memory_order_acquire);
            if (!page)
                return;
            slot.store(nullptr, std::memory_order_release);
            delete page;
            ++released;
        },
        vpn_lo, vpn_hi);
    resident_.fetch_sub(released, std::memory_order_relaxed);
    return released;
}

size_t
TaggedMemory::releaseRange(uint64_t base, uint64_t size)
{
    CHERIVOKE_ASSERT(isAligned(base, kPageBytes) &&
                     isAligned(size, kPageBytes),
                     "(releaseRange must be page aligned)");
    return dir_.releaseRange(base >> kPageShift,
                             (base + size) >> kPageShift);
}

Page &
TaggedMemory::pageForWrite(uint64_t addr)
{
    return dir_.getOrCreate(addr >> kPageShift);
}

const Pte &
TaggedMemory::mappedPte(uint64_t addr, bool write) const
{
    const Pte *pte = pt_.lookup(addr);
    if (!pte)
        throw CapFault(FaultKind::Bounds, "access to unmapped address");
    if (!(pte->prot & (write ? ProtWrite : ProtRead)))
        throw CapFault(FaultKind::Permission, "page protection violation");
    return *pte;
}

void
TaggedMemory::checkMapped(uint64_t addr, uint64_t size, bool write) const
{
    const uint64_t last = (addr + size - 1) >> kPageShift;
    for (uint64_t vpn = addr >> kPageShift; vpn <= last; ++vpn)
        mappedPte(vpn << kPageShift, write);
}

void
TaggedMemory::clearTagsInRange(uint64_t addr, uint64_t size)
{
    if (size == 0)
        return;
    uint64_t g_first = addr >> kGranuleShift;
    const uint64_t g_last = (addr + size - 1) >> kGranuleShift;
    for (uint64_t g = g_first; g <= g_last; ++g) {
        const uint64_t g_addr = g << kGranuleShift;
        Page *page = pageIfPresentMutable(g_addr);
        if (!page)
            continue;
        const unsigned idx =
            static_cast<unsigned>((g_addr & (kPageBytes - 1)) >>
                                  kGranuleShift);
        if (page->granuleTag(idx)) {
            page->clearGranuleTag(idx);
            ++counters_.tagsClearedByOverwrite;
        }
    }
}

void
TaggedMemory::writeBytes(uint64_t addr, const void *src, uint64_t size)
{
    if (size == 0)
        return;
    checkMapped(addr, size, true);
    clearTagsInRange(addr, size);
    const uint8_t *p = static_cast<const uint8_t *>(src);
    uint64_t remaining = size;
    uint64_t cur = addr;
    while (remaining > 0) {
        Page &page = pageForWrite(cur);
        const uint64_t off = cur & (kPageBytes - 1);
        const uint64_t chunk = std::min(remaining, kPageBytes - off);
        std::memcpy(page.data.data() + off, p, chunk);
        p += chunk;
        cur += chunk;
        remaining -= chunk;
    }
}

void
TaggedMemory::readBytes(uint64_t addr, void *dst, uint64_t size) const
{
    if (size == 0)
        return;
    checkMapped(addr, size, false);
    uint8_t *p = static_cast<uint8_t *>(dst);
    uint64_t remaining = size;
    uint64_t cur = addr;
    while (remaining > 0) {
        const uint64_t off = cur & (kPageBytes - 1);
        const uint64_t chunk = std::min(remaining, kPageBytes - off);
        const Page *page = pageIfPresent(cur);
        if (page) {
            std::memcpy(p, page->data.data() + off, chunk);
        } else {
            std::memset(p, 0, chunk);
        }
        p += chunk;
        cur += chunk;
        remaining -= chunk;
    }
}

void
TaggedMemory::peekBytes(uint64_t addr, void *dst, uint64_t size) const
{
    uint8_t *p = static_cast<uint8_t *>(dst);
    uint64_t remaining = size;
    uint64_t cur = addr;
    while (remaining > 0) {
        const uint64_t off = cur & (kPageBytes - 1);
        const uint64_t chunk = std::min(remaining, kPageBytes - off);
        const Page *page = pageIfPresent(cur);
        if (page) {
            std::memcpy(p, page->data.data() + off, chunk);
        } else {
            std::memset(p, 0, chunk);
        }
        p += chunk;
        cur += chunk;
        remaining -= chunk;
    }
}

void
TaggedMemory::writeU64(uint64_t addr, uint64_t value)
{
    writeBytes(addr, &value, sizeof(value));
}

uint64_t
TaggedMemory::readU64(uint64_t addr) const
{
    uint64_t value = 0;
    readBytes(addr, &value, sizeof(value));
    return value;
}

void
TaggedMemory::fill(uint64_t addr, uint8_t byte, uint64_t size)
{
    if (size == 0)
        return;
    checkMapped(addr, size, true);
    clearTagsInRange(addr, size);
    uint64_t remaining = size;
    uint64_t cur = addr;
    while (remaining > 0) {
        Page &page = pageForWrite(cur);
        const uint64_t off = cur & (kPageBytes - 1);
        const uint64_t chunk = std::min(remaining, kPageBytes - off);
        std::memset(page.data.data() + off, byte, chunk);
        cur += chunk;
        remaining -= chunk;
    }
}

void
TaggedMemory::writeCap(uint64_t addr, const cap::Capability &capability)
{
    if (!isAligned(addr, kCapBytes)) {
        throw CapFault(FaultKind::Alignment,
                       "capability store must be 16-byte aligned");
    }
    // An aligned capability lies in one page, so one PTE authorises
    // the store.
    const Pte &pte = mappedPte(addr, true);
    if (capability.tag() && pte.capStoreInhibit) {
        throw CapFault(FaultKind::CapStoreInhibit,
                       "tagged store to capability-store-inhibited page");
    }

    Page &page = pageForWrite(addr);
    const uint64_t off = addr & (kPageBytes - 1);
    const uint64_t lo = capability.packLow();
    const uint64_t hi = capability.packHigh();
    std::memcpy(page.data.data() + off, &lo, 8);
    std::memcpy(page.data.data() + off + 8, &hi, 8);

    const unsigned g = static_cast<unsigned>(off >> kGranuleShift);
    if (capability.tag()) {
        page.setGranuleTag(g);
        ++counters_.capWrites;
        if (pt_.setCapDirty(addr))
            ++counters_.capDirtyTraps;
        for (const CapStoreListener &l : cap_store_listeners_) {
            if (addr >= l.lo && addr < l.hi)
                l.fn(addr);
        }
    } else {
        page.clearGranuleTag(g);
    }
}

cap::Capability
TaggedMemory::readCap(uint64_t addr) const
{
    if (!isAligned(addr, kCapBytes)) {
        throw CapFault(FaultKind::Alignment,
                       "capability load must be 16-byte aligned");
    }
    checkMapped(addr, kCapBytes, false);
    const Page *page = pageIfPresent(addr);
    if (!page)
        return cap::Capability{};
    const uint64_t off = addr & (kPageBytes - 1);
    uint64_t lo, hi;
    std::memcpy(&lo, page->data.data() + off, 8);
    std::memcpy(&hi, page->data.data() + off + 8, 8);
    bool tag =
        page->granuleTag(static_cast<unsigned>(off >> kGranuleShift));

    // Load-side revocation barrier: a tagged load whose base is
    // marked in the shadow map is stripped here — in the result and
    // in place (the hardware clears the tag in the cache line; the
    // const_cast models that write-on-load).
    if (tag && load_barrier_ &&
        load_barrier_(cap::Capability::decodeBase(lo, hi))) {
        tag = false;
        const_cast<TaggedMemory *>(this)->clearTagAt(addr);
        ++counters_.loadBarrierStrips;
    }
    return cap::Capability::unpack(lo, hi, tag);
}

uint64_t
TaggedMemory::addCapStoreListener(uint64_t lo, uint64_t hi,
                                  std::function<void(uint64_t)> fn)
{
    const uint64_t id = next_listener_id_++;
    cap_store_listeners_.push_back(
        CapStoreListener{id, lo, hi, std::move(fn)});
    return id;
}

void
TaggedMemory::removeCapStoreListener(uint64_t id)
{
    for (size_t i = 0; i < cap_store_listeners_.size(); ++i) {
        if (cap_store_listeners_[i].id == id) {
            cap_store_listeners_.erase(cap_store_listeners_.begin() +
                                       static_cast<long>(i));
            return;
        }
    }
    CHERIVOKE_ASSERT(false, "(unknown cap-store listener id)");
}

void
TaggedMemory::installLoadBarrier(
    std::function<bool(uint64_t)> is_revoked)
{
    load_barrier_ = std::move(is_revoked);
}

void
TaggedMemory::removeLoadBarrier()
{
    load_barrier_ = nullptr;
}

bool
TaggedMemory::readTag(uint64_t addr) const
{
    const Page *page = pageIfPresent(addr);
    if (!page)
        return false;
    const uint64_t off = addr & (kPageBytes - 1);
    return page->granuleTag(static_cast<unsigned>(off >> kGranuleShift));
}

void
TaggedMemory::clearTagAt(uint64_t addr)
{
    CHERIVOKE_ASSERT(isAligned(addr, kGranuleBytes));
    Page *page = pageIfPresentMutable(addr);
    if (!page)
        return;
    const uint64_t off = addr & (kPageBytes - 1);
    page->clearGranuleTag(static_cast<unsigned>(off >> kGranuleShift));
}

void
TaggedMemory::copyPreservingTags(uint64_t dst, uint64_t src,
                                 uint64_t size)
{
    CHERIVOKE_ASSERT(isAligned(dst, kCapBytes) &&
                     isAligned(src, kCapBytes),
                     "(tag-preserving copy must be 16B aligned)");
    CHERIVOKE_ASSERT(dst + size <= src || src + size <= dst,
                     "(tag-preserving copy ranges overlap)");
    uint64_t off = 0;
    // Whole granules: capability-width copies carry the tag.
    for (; off + kCapBytes <= size; off += kCapBytes) {
        if (readTag(src + off)) {
            writeCap(dst + off, readCap(src + off));
        } else {
            uint8_t buf[kCapBytes];
            readBytes(src + off, buf, kCapBytes);
            writeBytes(dst + off, buf, kCapBytes);
        }
    }
    // Trailing partial granule: plain data.
    if (off < size) {
        std::vector<uint8_t> buf(size - off);
        readBytes(src + off, buf.data(), buf.size());
        writeBytes(dst + off, buf.data(), buf.size());
    }
}

uint64_t
TaggedMemory::loadU64(const cap::Capability &auth, uint64_t addr) const
{
    checkAccess(auth, addr, 8, cap::PermLoad);
    return readU64(addr);
}

void
TaggedMemory::storeU64(const cap::Capability &auth, uint64_t addr,
                       uint64_t value)
{
    checkAccess(auth, addr, 8, cap::PermStore);
    writeU64(addr, value);
}

cap::Capability
TaggedMemory::loadCap(const cap::Capability &auth, uint64_t addr) const
{
    checkAccess(auth, addr, kCapBytes,
                cap::PermLoad | cap::PermLoadCap);
    return readCap(addr);
}

void
TaggedMemory::storeCap(const cap::Capability &auth, uint64_t addr,
                       const cap::Capability &value)
{
    checkAccess(auth, addr, kCapBytes,
                cap::PermStore | cap::PermStoreCap);
    writeCap(addr, value);
}

void
TaggedMemory::checkAccess(const cap::Capability &auth, uint64_t addr,
                          uint64_t size, uint16_t perm_needed) const
{
    if (!auth.tag()) {
        throw CapFault(FaultKind::Tag,
                       "dereference of untagged capability");
    }
    if (!auth.hasPerm(perm_needed)) {
        throw CapFault(FaultKind::Permission,
                       "capability lacks required permission");
    }
    if (!auth.inBounds(addr, size)) {
        throw CapFault(FaultKind::Bounds,
                       "access outside capability bounds");
    }
}

uint8_t
TaggedMemory::lineTagMask(uint64_t line_addr) const
{
    CHERIVOKE_ASSERT(isAligned(line_addr, kLineBytes));
    const Page *page = pageIfPresent(line_addr);
    if (!page)
        return 0;
    const uint64_t off = line_addr & (kPageBytes - 1);
    const unsigned g0 = static_cast<unsigned>(off >> kGranuleShift);
    uint8_t mask = 0;
    for (unsigned i = 0; i < kCapsPerLine; ++i) {
        if (page->granuleTag(g0 + i))
            mask |= static_cast<uint8_t>(1u << i);
    }
    return mask;
}

bool
TaggedMemory::pageHasTags(uint64_t addr) const
{
    const Page *page = pageIfPresent(addr);
    return page && page->tagCount > 0;
}

uint32_t
TaggedMemory::pageTagCount(uint64_t addr) const
{
    const Page *page = pageIfPresent(addr);
    return page ? page->tagCount : 0;
}

void
TaggedMemory::assertSpanSemantics(uint64_t addr, uint64_t size) const
{
    // Raw and checked reads must observe the same storage.
    for (uint64_t a = alignDown(addr, 8); a < addr + size; a += 8) {
        uint64_t checked = 0;
        peekBytes(a, &checked, 8);
        CHERIVOKE_ASSERT(spanReadU64(a) == checked,
                         "(raw span read diverged from checked read)");
    }
    // The caller vouches the range was last written through the raw
    // span path; those stores must have invalidated every tag.
    const uint64_t g_last = (addr + size - 1) >> kGranuleShift;
    for (uint64_t g = addr >> kGranuleShift; g <= g_last; ++g) {
        CHERIVOKE_ASSERT(!readTag(g << kGranuleShift),
                         "(raw span store left a capability tag "
                         "alive)");
    }
}

void
TaggedMemory::shadowFill(uint64_t addr, uint8_t byte, uint64_t size)
{
    uint64_t remaining = size;
    uint64_t cur = addr;
    while (remaining > 0) {
        Page &page = pageForWrite(cur);
        const uint64_t off = cur & (kPageBytes - 1);
        const uint64_t chunk = std::min(remaining, kPageBytes - off);
        std::memset(page.data.data() + off, byte, chunk);
        cur += chunk;
        remaining -= chunk;
    }
}

void
TaggedMemory::shadowApplyBits(uint64_t addr, uint8_t mask, bool set)
{
    Page &page = pageForWrite(addr);
    std::atomic_ref<uint8_t> byte(
        page.data[addr & (kPageBytes - 1)]);
    if (set) {
        byte.fetch_or(mask, std::memory_order_relaxed);
    } else {
        byte.fetch_and(static_cast<uint8_t>(~mask),
                       std::memory_order_relaxed);
    }
}

} // namespace mem
} // namespace cherivoke
