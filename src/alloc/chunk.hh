/**
 * @file
 * Boundary-tag chunk layout for the dlmalloc-style allocator, stored
 * in simulated tagged memory.
 *
 * Chunk layout (all chunks 16-byte aligned, sizes multiples of 16):
 *
 *     C + 0  : prev_size — size of the previous chunk; valid only
 *              when the previous chunk is free (!PINUSE)
 *     C + 8  : size | flags (low 4 bits)
 *     C + 16 : payload (the address handed to the program)
 *
 * Free chunks additionally hold their bin links in the payload:
 *
 *     C + 16 : fd — next chunk in bin
 *     C + 24 : bk — previous chunk in bin
 *
 * and write their size into the *next* chunk's prev_size field (the
 * boundary tag enabling constant-time coalescing).
 *
 * Access goes through a mem::HostSpan cached at construction: the
 * page containing the chunk header is resolved once and every field
 * is then a plain host load/store (with the granule-tag invalidation
 * a data write implies). Fields that land outside the cached page —
 * links of a chunk whose header sits at the very end of a page, or
 * the boundary-tag footer in the *next* chunk — fall back to
 * TaggedMemory's raw out-of-span accessors. Both paths are O(1); the
 * span path additionally skips the per-field page lookup.
 */

#ifndef CHERIVOKE_ALLOC_CHUNK_HH
#define CHERIVOKE_ALLOC_CHUNK_HH

#include <cstdint>

#include "mem/tagged_memory.hh"
#include "stats/summary.hh"
#include "support/bitops.hh"

namespace cherivoke {
namespace alloc {

/** Low-bit flags packed into the chunk size word. */
enum ChunkFlags : uint64_t
{
    kCinuse = 1u << 0,      //!< this chunk is allocated
    kPinuse = 1u << 1,      //!< the previous chunk is allocated
    kQuarantine = 1u << 2,  //!< freed but awaiting revocation
    kFlagMask = 0xf,
};

/**
 * Inline object-ID tag (CHERI-D-style backend) packed into the high
 * bits of the size word. Chunk sizes are bounded far below 2^40, so
 * bits [63:40] hold a 24-bit ID without colliding with the size or
 * the low-bit flags. size() masks the tag out; setHeader clears it
 * (the backend re-stamps at allocation time).
 */
constexpr unsigned kIdTagShift = 40;
constexpr uint64_t kIdTagMask = 0xffffffULL << kIdTagShift;

/**
 * Birth stamp (hierarchical-epoch generation tiers) packed into bits
 * [39:32] of the size word, beside the object-ID tag. The adaptive
 * policy stamps each chunk at allocation with a saturating epoch
 * sequence (min(seq, 254)); the tier classifier ages chunks against
 * the full-width current sequence, so a saturated stamp only ever
 * *overestimates* age — conservative, never unsound. 0 means
 * "unstamped" (non-adaptive builds never write these bits, keeping
 * their size words bit-identical). setHeader clears the stamp (the
 * stamper re-writes it at allocation time, like the ID tag).
 */
constexpr unsigned kBirthShift = 32;
constexpr uint64_t kBirthMask = 0xffULL << kBirthShift;
/** Largest storable stamp; stamps saturate here. */
constexpr uint64_t kBirthSaturated = 0xff;
/** Bits of the size word that actually encode the chunk size. */
constexpr uint64_t kSizeMask = ~(kIdTagMask | kBirthMask | kFlagMask);

/** Header bytes before the payload. */
constexpr uint64_t kChunkHeader = 16;
/** Smallest legal chunk: header + room for fd/bk links. */
constexpr uint64_t kMinChunk = 32;

/**
 * Reads and writes chunk metadata through the simulated memory.
 * Each access bumps the raw or slow header count of the optional
 * @p counters; views constructed without them count nothing.
 */
class ChunkView
{
  public:
    ChunkView(mem::TaggedMemory &memory, uint64_t addr,
              stats::MutatorPathSummary *counters = nullptr)
        : mem_(&memory), span_(memory.hostSpan(addr)), addr_(addr),
          counters_(counters)
    {}

    uint64_t addr() const { return addr_; }
    uint64_t payload() const { return addr_ + kChunkHeader; }

    uint64_t sizeWord() const { return read(addr_ + 8); }
    uint64_t size() const { return sizeWord() & kSizeMask; }
    bool cinuse() const { return sizeWord() & kCinuse; }
    bool pinuse() const { return sizeWord() & kPinuse; }
    bool quarantined() const { return sizeWord() & kQuarantine; }

    uint64_t prevSize() const { return read(addr_); }

    /** Address of the chunk after this one. */
    uint64_t next() const { return addr_ + size(); }
    /** Address of the chunk before this one (valid iff !pinuse()). */
    uint64_t prev() const { return addr_ - prevSize(); }

    void
    setHeader(uint64_t size, uint64_t flags)
    {
        write(addr_ + 8, size | flags);
    }

    void
    setFlags(uint64_t flags)
    {
        write(addr_ + 8, (sizeWord() & ~kFlagMask) | flags);
    }

    /** Inline object-ID tag in the size word's high bits. */
    uint32_t
    idTag() const
    {
        return static_cast<uint32_t>(sizeWord() >> kIdTagShift);
    }

    void
    setIdTag(uint32_t id)
    {
        write(addr_ + 8, (sizeWord() & ~kIdTagMask) |
                             (static_cast<uint64_t>(id) << kIdTagShift &
                              kIdTagMask));
    }

    /** Birth stamp (generation-tier epoch sequence) in [39:32]. */
    uint32_t
    birthStamp() const
    {
        return static_cast<uint32_t>((sizeWord() & kBirthMask) >>
                                     kBirthShift);
    }

    void
    setBirthStamp(uint32_t stamp)
    {
        write(addr_ + 8,
              (sizeWord() & ~kBirthMask) |
                  (static_cast<uint64_t>(stamp) << kBirthShift &
                   kBirthMask));
    }

    /** Free-list links, stored in the (dead) payload. */
    uint64_t fd() const { return read(addr_ + 16); }
    uint64_t bk() const { return read(addr_ + 24); }
    void setFd(uint64_t a) { write(addr_ + 16, a); }
    void setBk(uint64_t a) { write(addr_ + 24, a); }

    /** Write this free chunk's boundary tag into the next chunk. */
    void
    writeFooter()
    {
        write(next(), size());
    }

  private:
    uint64_t
    read(uint64_t a) const
    {
        if (span_.covers(a, 8)) {
            if (counters_)
                ++counters_->rawHeaderAccesses;
            return span_.readU64(a);
        }
        if (counters_)
            ++counters_->slowHeaderAccesses;
        return mem_->spanReadU64(a);
    }

    void
    write(uint64_t a, uint64_t v)
    {
        if (span_.covers(a, 8)) {
            if (counters_)
                ++counters_->rawHeaderAccesses;
            span_.writeU64(a, v);
            return;
        }
        if (counters_)
            ++counters_->slowHeaderAccesses;
        mem_->spanWriteU64(a, v);
    }

    mem::TaggedMemory *mem_;
    mem::HostSpan span_;
    uint64_t addr_;
    stats::MutatorPathSummary *counters_;
};

} // namespace alloc
} // namespace cherivoke

#endif // CHERIVOKE_ALLOC_CHUNK_HH
