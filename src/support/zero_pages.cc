#include "support/zero_pages.hh"

#include <sys/mman.h>

#include <new>

namespace cherivoke {

void *
mapZeroPages(size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    void *addr = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (addr == MAP_FAILED)
        throw std::bad_alloc();
    // One touched entry should cost a 4 KiB page, not a 2 MiB huge
    // page, on hosts whose transparent huge pages are "always" on.
    madvise(addr, bytes, MADV_NOHUGEPAGE);
    return addr;
}

void
unmapZeroPages(void *addr, size_t bytes)
{
    if (addr)
        munmap(addr, bytes);
}

} // namespace cherivoke
