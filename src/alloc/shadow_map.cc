#include "alloc/shadow_map.hh"

#include <algorithm>
#include <cstring>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace alloc {

PaintStats &
PaintStats::operator+=(const PaintStats &o)
{
    bitOps += o.bitOps;
    byteOps += o.byteOps;
    wordOps += o.wordOps;
    dwordOps += o.dwordOps;
    return *this;
}

PaintStats
ShadowMap::apply(uint64_t addr, uint64_t size, bool set)
{
    PaintStats st;
    if (size == 0)
        return st;
    CHERIVOKE_ASSERT(isAligned(addr, kGranuleBytes),
                     "(paint range must be granule aligned)");

    // Granule range [g0, g1).
    const uint64_t g0 = addr >> kGranuleShift;
    const uint64_t g1 = (addr + size + kGranuleBytes - 1) >>
                        kGranuleShift;

    uint64_t g = g0;
    // Head: partial first shadow byte. Atomic RMW — another painter
    // may own the byte's other granules.
    if (g & 7) {
        const uint64_t byte_addr = mem::kShadowBase + (g >> 3);
        const unsigned lo = g & 7;
        const unsigned hi =
            static_cast<unsigned>(std::min<uint64_t>(8, lo + (g1 - g)));
        uint8_t mask = 0;
        for (unsigned b = lo; b < hi; ++b)
            mask |= static_cast<uint8_t>(1u << b);
        mem_->shadowApplyBits(byte_addr, mask, set);
        ++st.bitOps;
        g += hi - lo;
    }

    // Body: whole shadow bytes. The *modelled* store sequence keeps
    // the §5.2 width optimisation (byte / word / dword stores,
    // counted below, feeding the paint cost model), but the
    // simulator now issues one raw fill for the whole span instead
    // of one checked write per modelled store.
    const uint8_t fill = set ? 0xff : 0x00;
    const uint64_t body_begin = g;
    while (g + 8 <= g1) {
        const uint64_t byte_addr = mem::kShadowBase + (g >> 3);
        const uint64_t bytes_left = (g1 - g) >> 3;
        if (bytes_left >= 8 && isAligned(byte_addr, 8)) {
            ++st.dwordOps;
            g += 64;
        } else if (bytes_left >= 4 && isAligned(byte_addr, 4)) {
            ++st.wordOps;
            g += 32;
        } else {
            ++st.byteOps;
            g += 8;
        }
    }
    if (g > body_begin) {
        mem_->shadowFill(mem::kShadowBase + (body_begin >> 3), fill,
                         (g - body_begin) >> 3);
    }

    // Tail: partial last shadow byte (atomic, as for the head).
    if (g < g1) {
        const uint64_t byte_addr = mem::kShadowBase + (g >> 3);
        uint8_t mask = 0;
        for (uint64_t b = g & 7; b < (g & 7) + (g1 - g); ++b)
            mask |= static_cast<uint8_t>(1u << b);
        mem_->shadowApplyBits(byte_addr, mask, set);
        ++st.bitOps;
    }
    return st;
}

PaintStats
ShadowMap::paint(uint64_t addr, uint64_t size)
{
    return apply(addr, size, true);
}

PaintStats
ShadowMap::clear(uint64_t addr, uint64_t size)
{
    return apply(addr, size, false);
}

PaintStats
ShadowMap::paintBitByBit(uint64_t addr, uint64_t size)
{
    PaintStats st;
    if (size == 0)
        return st;
    CHERIVOKE_ASSERT(isAligned(addr, kGranuleBytes));
    const uint64_t g0 = addr >> kGranuleShift;
    const uint64_t g1 = (addr + size + kGranuleBytes - 1) >>
                        kGranuleShift;
    for (uint64_t g = g0; g < g1; ++g) {
        mem_->shadowApplyBits(mem::kShadowBase + (g >> 3),
                              static_cast<uint8_t>(1u << (g & 7)),
                              true);
        ++st.bitOps;
    }
    return st;
}

bool
ShadowMap::isRevoked(uint64_t addr) const
{
    // The §3.3 inner-loop lookup: shift to the granule, index the
    // shadow byte, test the bit. Counter- and lock-free so that
    // concurrent sweep threads can share the (read-only) map.
    const uint64_t g = addr >> kGranuleShift;
    const uint8_t byte = mem_->peekU8(mem::kShadowBase + (g >> 3));
    return (byte >> (g & 7)) & 1;
}

uint64_t
ShadowMap::countPainted(uint64_t addr, uint64_t size) const
{
    const uint64_t g0 = addr >> kGranuleShift;
    const uint64_t g1 = (addr + size + kGranuleBytes - 1) >>
                        kGranuleShift;
    uint64_t n = 0;
    for (uint64_t g = g0; g < g1; ++g) {
        uint8_t byte = 0;
        mem_->readBytes(mem::kShadowBase + (g >> 3), &byte, 1);
        n += (byte >> (g & 7)) & 1;
    }
    return n;
}

} // namespace alloc
} // namespace cherivoke
