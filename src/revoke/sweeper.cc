#include "revoke/sweeper.hh"

#include <algorithm>
#include <cstring>

#include "cap/capability.hh"
#include "support/bitops.hh"
#include "support/fork_join.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace revoke {

namespace {

/** Modelled CLoadTags round trip (L1 -> L2 -> tag cache, §6.3). */
constexpr double kCloadTagsCycles = 10.0;

/** The leaf-tag-line region a root-level tag query covers (§3.4.1). */
constexpr uint64_t kTagRegionBytes = 8 * KiB;

} // namespace

SweepStats &
SweepStats::operator+=(const SweepStats &o)
{
    pagesConsidered += o.pagesConsidered;
    pagesSwept += o.pagesSwept;
    pagesSkippedPte += o.pagesSkippedPte;
    pagesSkippedTier += o.pagesSkippedTier;
    pagesCleaned += o.pagesCleaned;
    linesSwept += o.linesSwept;
    linesSkippedTags += o.linesSkippedTags;
    capsExamined += o.capsExamined;
    capsRevoked += o.capsRevoked;
    regsExamined += o.regsExamined;
    regsRevoked += o.regsRevoked;
    kernelCycles += o.kernelCycles;
    return *this;
}

bool
SweepStats::operator==(const SweepStats &o) const
{
    return pagesConsidered == o.pagesConsidered &&
           pagesSwept == o.pagesSwept &&
           pagesSkippedPte == o.pagesSkippedPte &&
           pagesSkippedTier == o.pagesSkippedTier &&
           pagesCleaned == o.pagesCleaned &&
           linesSwept == o.linesSwept &&
           linesSkippedTags == o.linesSkippedTags &&
           capsExamined == o.capsExamined &&
           capsRevoked == o.capsRevoked &&
           regsExamined == o.regsExamined &&
           regsRevoked == o.regsRevoked &&
           kernelCycles == o.kernelCycles;
}

std::vector<uint64_t>
Sweeper::buildWorklist(mem::AddressSpace &space,
                       SweepStats &stats) const
{
    // Assemble the work list of pages, applying PTE CapDirty
    // elimination (§3.4.2: "an array of pages that could contain
    // capabilities", the §5.3 system API).
    std::vector<uint64_t> pages;
    const std::vector<mem::Segment> segments =
        space.sweepableSegments();
    if (segments.empty())
        return pages;
    // Reserve from the segment sizes: one push_back per candidate
    // page, never a reallocation, even on large address spaces.
    size_t upper = 0;
    for (const mem::Segment &seg : segments)
        upper += (seg.size + kPageBytes - 1) >> kPageShift;
    pages.reserve(upper);
    auto &pt = space.memory().pageTable();
    for (const mem::Segment &seg : segments) {
        for (uint64_t p = seg.base; p < seg.end(); p += kPageBytes) {
            ++stats.pagesConsidered;
            if (options_.usePteCapDirty) {
                const mem::Pte *pte = pt.lookup(p);
                if (!pte || !pte->capDirty) {
                    ++stats.pagesSkippedPte;
                    continue;
                }
            }
            pages.push_back(p);
        }
    }
    return pages;
}

SweepStats
Sweeper::sweepRegisters(mem::AddressSpace &space,
                        const alloc::ShadowMap &shadow)
{
    SweepStats stats;
    space.registers().forEach([&](cap::Capability &reg) {
        if (!reg.tag())
            return;
        ++stats.regsExamined;
        if (shadow.isRevoked(reg.base())) {
            reg.clearTag();
            ++stats.regsRevoked;
        }
    });
    return stats;
}

SweepStats
Sweeper::sweep(mem::AddressSpace &space,
               const alloc::ShadowMap &shadow,
               cache::Hierarchy *hierarchy)
{
    SweepStats stats;
    const std::vector<uint64_t> pages = buildWorklist(space, stats);
    stats += sweepPages(space, shadow, pages, 0, pages.size(),
                        hierarchy);
    // Sweep the register file (§3.3: "the stack, register files...").
    stats += sweepRegisters(space, shadow);
    return stats;
}

SweepStats
Sweeper::sweepPages(mem::AddressSpace &space,
                    const alloc::ShadowMap &shadow,
                    const std::vector<uint64_t> &pages,
                    size_t lo, size_t hi,
                    cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(lo <= hi && hi <= pages.size());
    const size_t count = hi - lo;

    // The hierarchy is one stateful model whose totals depend on the
    // order of its events, so a modelled sweep feeds it inline, in
    // worklist order, on this thread.
    if (hierarchy || options_.threads <= 1 || count < 2)
        return sweepPageRange(space, shadow, pages, lo, hi, hierarchy);

    // Partition [lo, hi) into contiguous index ranges (§3.5). Workers
    // write only their own pages' tags and PTEs, and the shadow map
    // is read-only for the whole sweep, so they share it safely. A
    // boundary may split an 8 KiB tag region: the root query, the
    // one read of a neighbour page, runs only for the model. A
    // worker's fault resurfaces as the catchable exception a serial
    // sweep would have thrown.
    const size_t workers = std::min<size_t>(options_.threads, count);
    const size_t per = (count + workers - 1) / workers;
    std::vector<SweepStats> partial(workers);
    forkJoin(workers, [&](size_t t) {
        partial[t] = sweepPageRange(space, shadow, pages,
                                    lo + std::min(count, t * per),
                                    lo + std::min(count, (t + 1) * per));
    });

    // Merge in worklist order.
    SweepStats stats;
    for (const SweepStats &p : partial)
        stats += p;
    return stats;
}

SweepStats
Sweeper::sweepPageRange(mem::AddressSpace &space,
                        const alloc::ShadowMap &shadow,
                        const std::vector<uint64_t> &pages,
                        size_t lo, size_t hi,
                        cache::Hierarchy *hierarchy)
{
    CHERIVOKE_ASSERT(lo <= hi && hi <= pages.size());
    SweepStats stats;
    auto &memory = space.memory();
    auto &pt = memory.pageTable();
    const KernelCosts costs = defaultCosts(options_.kernel);
    const double zero_line_cycles = kernelCyclesForLine(costs, 0);

    // Each 64-bit word of Page::tags covers 64 granules: 16 lines,
    // a 1 KiB sub-run of the page.
    constexpr unsigned kLinesPerWord =
        64 / static_cast<unsigned>(kCapsPerLine);
    constexpr uint64_t kWordSpanBytes = kLinesPerWord * kLineBytes;
    constexpr uint8_t kLineMaskBits = maskLow(kCapsPerLine);

    for (size_t idx = lo; idx < hi; ++idx) {
        const uint64_t page_addr = pages[idx];
        ++stats.pagesSwept;
        mem::Page *page = memory.pageIfPresentMutable(page_addr);
        bool any_tag_found = false;

        // Root-level tag presence for the covering 8 KiB
        // leaf-tag-line region (§3.4.1): a 4 KiB page lies in
        // exactly one region, so resolve the region's two pages once
        // per page instead of twice per line. tagCount is still read
        // per query — mid-sweep revocations lower it and later lines
        // must observe that, exactly as the per-line lookup did.
        const uint64_t region = alignDown(page_addr, kTagRegionBytes);
        const mem::Page *r0 = memory.pageIfPresent(region);
        const mem::Page *r1 =
            memory.pageIfPresent(region + kPageBytes);
        const auto region_has_tags = [r0, r1] {
            return (r0 && r0->tagCount > 0) ||
                   (r1 && r1->tagCount > 0);
        };

        for (unsigned w = 0; w < kGranulesPerPage / 64; ++w) {
            // Snapshot the tag word: revocations only clear bits of
            // the line being processed, never of a later line, so
            // the snapshot observes exactly what the per-line probes
            // used to.
            const uint64_t word = page ? page->tags[w] : 0;
            const uint64_t sub = page_addr + w * kWordSpanBytes;

            if (word == 0) {
                // Tag-empty 1 KiB sub-run: account the 16 lines
                // without touching any per-line state. Nothing in
                // this block mutates tag counts, so the root query
                // answer is constant across the sub-run.
                if (options_.useCloadTags) {
                    stats.linesSkippedTags += kLinesPerWord;
                    for (unsigned l = 0; l < kLinesPerWord; ++l)
                        stats.kernelCycles += kCloadTagsCycles;
                    if (hierarchy) {
                        const bool region_tags = region_has_tags();
                        for (unsigned l = 0; l < kLinesPerWord; ++l) {
                            hierarchy->cloadTags(
                                sub + l * kLineBytes, region_tags,
                                options_.cloadTagsPrefetch, false);
                        }
                    }
                } else {
                    stats.linesSwept += kLinesPerWord;
                    for (unsigned l = 0; l < kLinesPerWord; ++l)
                        stats.kernelCycles += zero_line_cycles;
                    if (hierarchy) {
                        for (unsigned l = 0; l < kLinesPerWord; ++l) {
                            hierarchy->access(sub + l * kLineBytes,
                                              kLineBytes, false);
                        }
                    }
                }
                continue;
            }

            any_tag_found = true;
            for (unsigned l = 0; l < kLinesPerWord; ++l) {
                const uint64_t line = sub + l * kLineBytes;
                const uint8_t mask = static_cast<uint8_t>(
                    (word >> (l * kCapsPerLine)) & kLineMaskBits);

                if (options_.useCloadTags) {
                    stats.kernelCycles += kCloadTagsCycles;
                    if (hierarchy) {
                        hierarchy->cloadTags(line, region_has_tags(),
                                             options_.cloadTagsPrefetch,
                                             mask != 0);
                    }
                    if (mask == 0) {
                        ++stats.linesSkippedTags;
                        continue;
                    }
                }

                ++stats.linesSwept;
                stats.kernelCycles +=
                    kernelCyclesForLine(costs, popCount(mask));
                if (hierarchy)
                    hierarchy->access(line, kLineBytes, false);
                if (mask == 0)
                    continue;

                bool revoked_in_line = false;
                uint8_t pending = mask;
                while (pending) {
                    const unsigned i = static_cast<unsigned>(
                        std::countr_zero(pending));
                    pending &= static_cast<uint8_t>(pending - 1);
                    ++stats.capsExamined;
                    const uint64_t addr = line + i * kCapBytes;
                    uint64_t lo_word, hi_word;
                    const uint64_t off = addr & (kPageBytes - 1);
                    std::memcpy(&lo_word, page->data.data() + off, 8);
                    std::memcpy(&hi_word,
                                page->data.data() + off + 8, 8);
                    const uint64_t base =
                        cap::Capability::decodeBase(lo_word, hi_word);
                    if (hierarchy) {
                        hierarchy->access(mem::shadowAddrOf(base), 1,
                                          false);
                    }
                    if (shadow.isRevoked(base)) {
                        page->clearGranuleTag(static_cast<unsigned>(
                            off >> kGranuleShift));
                        ++stats.capsRevoked;
                        revoked_in_line = true;
                    }
                }
                if (revoked_in_line && hierarchy) {
                    hierarchy->access(line, kLineBytes, true);
                    hierarchy->recordRevocationTagWrite(line);
                }
            }
        }

        // §3.4.2: a CapDirty page found without capabilities can be
        // marked clean again.
        if (options_.usePteCapDirty &&
            options_.cleanFalsePositivePages && !any_tag_found) {
            if (pt.lookup(page_addr)) {
                pt.clearCapDirty(page_addr);
                ++stats.pagesCleaned;
            }
        }
    }
    return stats;
}

} // namespace revoke
} // namespace cherivoke
