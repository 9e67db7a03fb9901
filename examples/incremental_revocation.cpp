/**
 * @file
 * Incremental revocation demo: the sweep runs in bounded steps while
 * the "application" keeps allocating, freeing, and copying pointers
 * between them. The Cornucopia-style load barrier keeps revocation
 * sound: a dangling capability loaded from a not-yet-swept page is
 * stripped at the load, so it can never hide behind the sweep.
 *
 * Run: ./incremental_revocation
 */

#include <cstdio>

#include "revoke/revocation_engine.hh"
#include "support/rng.hh"

using namespace cherivoke;

int
main()
{
    mem::AddressSpace space;
    alloc::CherivokeConfig cfg;
    cfg.minQuarantineBytes = 4 * KiB;
    alloc::CherivokeAllocator heap(space, cfg);
    revoke::RevocationEngine revoker(
        heap, space,
        revoke::EngineConfig{.policy = revoke::PolicyKind::Incremental,
                             .pagesPerSlice = 8,
                             .sweeperPlan = {}});
    auto &memory = space.memory();
    Rng rng(1);

    // Build a working set with cross references.
    std::vector<cap::Capability> live;
    for (int i = 0; i < 400; ++i) {
        const cap::Capability c = heap.malloc(512);
        if (!live.empty()) {
            memory.storeCap(c, c.base(),
                            live[rng.nextBounded(live.size())]);
        }
        live.push_back(c);
    }
    // Free a third — references to them dangle all over the heap.
    int freed = 0;
    for (size_t i = 0; i < live.size(); i += 3, ++freed)
        heap.free(live[i]);
    std::printf("freed %d objects; quarantine holds %llu bytes\n",
                freed,
                static_cast<unsigned long long>(
                    heap.quarantinedBytes()));

    // Revoke incrementally: 8 pages per pause, with the mutator
    // running between pauses.
    revoker.beginEpoch();
    std::printf("epoch open: %zu pages to sweep, load barrier on\n",
                revoker.pagesRemaining());
    int pauses = 0;
    uint64_t mutator_ops = 0;
    while (revoker.step(8) > 0) {
        ++pauses;
        // The mutator between pauses: loads (through the barrier),
        // stores, and fresh allocations.
        for (int i = 0; i < 16; ++i) {
            const size_t idx = 1 + 3 * rng.nextBounded(100);
            const cap::Capability holder = live[idx];
            const cap::Capability loaded =
                memory.loadCap(holder, holder.base());
            // Copy whatever was loaded somewhere else; if it was
            // dangling, the barrier has already stripped it.
            memory.writeCap(mem::kGlobalsBase +
                                rng.nextBounded(256) * 16,
                            loaded);
            ++mutator_ops;
        }
    }
    revoker.finishEpoch();

    std::printf("epoch done: %d bounded pauses, %llu mutator ops "
                "interleaved\n",
                pauses,
                static_cast<unsigned long long>(mutator_ops));
    std::printf("caps revoked by sweep: %llu; stripped at load by "
                "the barrier: %llu\n",
                static_cast<unsigned long long>(
                    revoker.totals().sweep.capsRevoked),
                static_cast<unsigned long long>(
                    memory.counters().loadBarrierStrips));

    // Verify: no tagged reference to any freed object anywhere.
    uint64_t dangling = 0;
    for (size_t i = 0; i < live.size(); i += 3) {
        for (uint64_t s = 0; s < 256; ++s) {
            const cap::Capability c =
                memory.readCap(mem::kGlobalsBase + s * 16);
            if (c.tag() && c.base() == live[i].base())
                ++dangling;
        }
    }
    std::printf("dangling references remaining: %llu\n",
                static_cast<unsigned long long>(dangling));
    std::printf(dangling == 0 ? "OK\n" : "FAILED\n");
    return dangling == 0 ? 0 : 1;
}
