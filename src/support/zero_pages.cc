#include "support/zero_pages.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <new>

#include "support/fork_join.hh"

// The advice's Linux value, for C libraries older than the kernel.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace cherivoke {

namespace {

/** Bytes per populate task. More than four tasks fault no faster:
 *  on a 4-vCPU x86-64 host, 32 MiB took ~8 ms in four tasks and
 *  ~12 ms in eight, against ~19 ms faulted in by the fill alone. */
constexpr size_t kPopulateTaskBytes = size_t{4} << 20;
constexpr size_t kMaxPopulateTasks = 4;

/** Map @p bytes of zero pages with @p advice; mmap refuses a zero
 *  length, so 0 bytes map nothing. A refused advice is ignored. */
void *
mapAnonymous(size_t bytes, int advice)
{
    if (bytes == 0)
        return nullptr;
    void *addr = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (addr == MAP_FAILED)
        throw std::bad_alloc();
    madvise(addr, bytes, advice);
    return addr;
}

} // namespace

void *
mapZeroPages(size_t bytes)
{
    // One touched entry should cost a 4 KiB page, not a 2 MiB huge
    // page, on hosts whose transparent huge pages are "always" on.
    return mapAnonymous(bytes, MADV_NOHUGEPAGE);
}

void *
mapHugePages(size_t bytes)
{
    return mapAnonymous(bytes, MADV_HUGEPAGE);
}

void
unmapZeroPages(void *addr, size_t bytes)
{
    if (addr)
        munmap(addr, bytes);
}

void
populatePages(void *addr, size_t bytes)
{
    const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto start = reinterpret_cast<uintptr_t>(addr);
    const uintptr_t first = (start + page - 1) & ~(page - 1);
    const uintptr_t last = (start + bytes) & ~(page - 1);
    if (last <= first)
        return; // no whole page inside the range
    const size_t pages = (last - first) / page;
    const size_t tasks = std::clamp(bytes / kPopulateTaskBytes,
                                    size_t{1}, kMaxPopulateTasks);
    forkJoin(tasks, [&](size_t t) {
        const size_t begin = t * pages / tasks;
        const size_t end = (t + 1) * pages / tasks;
        // A refused advice (EINVAL before Linux 5.14) is ignored.
        madvise(reinterpret_cast<void *>(first + begin * page),
                (end - begin) * page, MADV_POPULATE_WRITE);
    });
}

} // namespace cherivoke
