/**
 * @file
 * The revocation shadow map (paper §3.2): one bit per 16-byte
 * allocation granule, stored in the shadow region of the simulated
 * address space at a fixed transform (shadow byte = kShadowBase +
 * (addr >> 7)), exactly as dlmalloc_cherivoke lays it out (§5.2).
 *
 * Painting is width-optimised: large aligned runs use byte, word and
 * double-word stores instead of per-bit read-modify-write (§5.2:
 * "large and aligned contiguous regions use byte, half-word, word,
 * and double-word store instructions when possible"). The per-width
 * operation counts feed the paint cost model and the ablation bench.
 *
 * All painting goes through TaggedMemory's raw shadow-store path
 * (shadowFill / shadowApplyBits): whole-byte spans are plain fills
 * (each byte belongs to exactly one quarantined run), partial
 * head/tail bytes are atomic RMWs (adjacent runs may share them).
 * Disjoint granule ranges can therefore paint concurrently from
 * several threads (alloc::paintRuns) and still produce shadow
 * contents byte-identical to a serial paint.
 */

#ifndef CHERIVOKE_ALLOC_SHADOW_MAP_HH
#define CHERIVOKE_ALLOC_SHADOW_MAP_HH

#include <cstdint>

#include "mem/addr_space.hh"
#include "mem/tagged_memory.hh"

namespace cherivoke {
namespace alloc {

/** Counts of stores performed while painting, by access width. */
struct PaintStats
{
    uint64_t bitOps = 0;    //!< read-modify-write partial bytes
    uint64_t byteOps = 0;
    uint64_t wordOps = 0;   //!< 4-byte stores
    uint64_t dwordOps = 0;  //!< 8-byte stores

    uint64_t total() const
    {
        return bitOps + byteOps + wordOps + dwordOps;
    }
    PaintStats &operator+=(const PaintStats &o);
    bool operator==(const PaintStats &o) const = default;
};

/**
 * Paints, clears, and queries revocation bits for address ranges.
 * One shadow bit covers one 16-byte granule; one shadow byte covers
 * 128 bytes; one shadow 8-byte word covers 1 KiB.
 */
class ShadowMap
{
  public:
    explicit ShadowMap(mem::TaggedMemory &memory) : mem_(&memory) {}

    /** Set the revocation bits for every granule overlapping
     *  [addr, addr+size); addr must be granule-aligned. */
    PaintStats paint(uint64_t addr, uint64_t size);

    /** Clear the same bits after a sweep. */
    PaintStats clear(uint64_t addr, uint64_t size);

    /** Unoptimised bit-at-a-time painting, for the ablation bench. */
    PaintStats paintBitByBit(uint64_t addr, uint64_t size);

    /**
     * The sweeping-loop test (§3.3 listing, lines 4–9): is the
     * granule containing @p addr marked for revocation? Callers pass
     * a capability's *base*.
     */
    bool isRevoked(uint64_t addr) const;

    /** Population count over [addr, addr+size) for verification. */
    uint64_t countPainted(uint64_t addr, uint64_t size) const;

  private:
    PaintStats apply(uint64_t addr, uint64_t size, bool set);

    mem::TaggedMemory *mem_;
};

} // namespace alloc
} // namespace cherivoke

#endif // CHERIVOKE_ALLOC_SHADOW_MAP_HH
