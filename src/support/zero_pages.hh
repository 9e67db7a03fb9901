/**
 * @file
 * Memory on anonymous mmap, outside glibc's heaps, in two shapes.
 *
 * Sparse zero pages (ZeroPages). The kernel backs such memory with a
 * page only when that page is first written, so a large table that
 * is touched sparsely (the page directory's and page table's radix
 * levels, the replayer's id index) is resident only where it is
 * used. Value-initialising new[] writes every byte, and glibc serves
 * and clears multi-MiB calloc blocks from its own heap, so neither
 * gives that. These mappings are advised MADV_NOHUGEPAGE.
 *
 * Dense huge pages (HugePageAllocator). A trace-sized buffer is
 * written front to back, so it is advised MADV_HUGEPAGE and a first
 * write faults in 2 MiB instead of 4 KiB. Freeing it unmaps it, so
 * its pages go back to the kernel at once; glibc would keep a freed
 * block below its dynamic mmap threshold (at most 32 MiB) in the
 * arena of the thread that allocated it.
 * A kernel that refuses or ignores the advice leaves the same
 * mapping on 4 KiB pages.
 */

#ifndef CHERIVOKE_SUPPORT_ZERO_PAGES_HH
#define CHERIVOKE_SUPPORT_ZERO_PAGES_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cherivoke {

/** Map @p bytes of zero pages advised MADV_NOHUGEPAGE; nullptr for
 *  0 bytes. Throws std::bad_alloc on failure. */
void *mapZeroPages(size_t bytes);

/** As mapZeroPages, but advised MADV_HUGEPAGE. */
void *mapHugePages(size_t bytes);

/** Unmap what mapZeroPages(@p bytes) or mapHugePages(@p bytes)
 *  returned. */
void unmapZeroPages(void *addr, size_t bytes);

/**
 * A std allocator whose every allocation is its own mapHugePages
 * mapping, for buffers as large as a trace: an allocation costs an
 * mmap and its deallocation a munmap. Stateless, so all instances
 * compare equal.
 */
template <typename T>
struct HugePageAllocator
{
    using value_type = T;

    HugePageAllocator() = default;
    template <typename U>
    HugePageAllocator(const HugePageAllocator<U> &) noexcept
    {}

    T *
    allocate(size_t n)
    {
        if (n > static_cast<size_t>(-1) / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(mapHugePages(n * sizeof(T)));
    }
    void deallocate(T *p, size_t n) noexcept
    {
        unmapZeroPages(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const HugePageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/**
 * Fault in, writable, the whole pages inside [@p addr, @p addr +
 * @p bytes) with MADV_POPULATE_WRITE, in forkJoin tasks, so the
 * caller's first write to them takes no page fault. Only page tables
 * change: no byte is written, so the range keeps its contents. The
 * split depends only on @p bytes: one task per full 4 MiB, at least
 * one and at most four; a single task runs on the calling thread. A
 * page already resident costs a page-table walk and stays as it is. A
 * kernel without the advice (before Linux 5.14) refuses it, and the
 * writes then fault the pages in as they would anyway.
 */
void populatePages(void *addr, size_t bytes);

/**
 * An owned array of @p count Ts whose every byte starts zero. T must
 * be a type whose all-zero bytes are its default state (pointers,
 * integers, flag structs), since no constructor runs.
 */
template <typename T>
class ZeroPages
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "zero pages hold T's all-zero bytes, no constructor");

  public:
    explicit ZeroPages(size_t count)
        : data_(static_cast<T *>(mapZeroPages(count * sizeof(T)))),
          count_(count)
    {}
    ~ZeroPages() { unmapZeroPages(data_, count_ * sizeof(T)); }

    ZeroPages(ZeroPages &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          count_(std::exchange(other.count_, 0))
    {}
    ZeroPages &
    operator=(ZeroPages &&other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(count_, other.count_);
        return *this;
    }

    /** Like unique_ptr<T[]>: constness is the owner's, not the
     *  elements'. */
    T &operator[](size_t i) const { return data_[i]; }
    T *get() const { return data_; }

  private:
    T *data_ = nullptr;
    size_t count_ = 0;
};

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_ZERO_PAGES_HH
