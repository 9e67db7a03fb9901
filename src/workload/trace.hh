/**
 * @file
 * Allocation traces: the workload representation the synthesiser
 * emits and the driver replays. Traces are allocator-independent —
 * allocations are named by id, not address — so the same trace can
 * drive CHERIvoke, plain dlmalloc, or a baseline technique.
 */

#ifndef CHERIVOKE_WORKLOAD_TRACE_HH
#define CHERIVOKE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "support/zero_pages.hh"

namespace cherivoke {
namespace workload {

/** Trace operation kinds. */
enum class OpKind : uint8_t
{
    Malloc,    //!< allocate `size` bytes as allocation `id`
    Free,      //!< free allocation `id`
    StorePtr,  //!< store a capability to `src` at `dst`+`offset`
    StoreData, //!< store plain data at `dst`+`offset` (kills a tag)
    RootPtr,   //!< store a capability to `src` in global root slot
               //!< `offset` (models pointers in globals/stack)

    /** @name Tenant-lifecycle control ops (trace-codec v2)
     *  Replayable only under a tenant::TenantManager, which resolves
     *  `id` against its registered tenant definitions / live tenants
     *  (unknown ids are fatal). A plain TraceDriver replay of a
     *  lifecycle op is a configuration error. */
    /// @{
    SpawnTenant, //!< activate registered tenant definition `id`
    RetireTenant, //!< tear down live tenant `id`
    /// @}
};

/** Largest valid OpKind value (range checks in codecs). */
constexpr uint8_t kMaxOpKind =
    static_cast<uint8_t>(OpKind::RetireTenant);

/** True for the tenant-lifecycle control ops. */
constexpr bool
isLifecycleOp(OpKind kind)
{
    return kind == OpKind::SpawnTenant || kind == OpKind::RetireTenant;
}

/**
 * One trace operation. No op kind defines both members of a union
 * pair, so each pair shares one slot, as in the binary codec's
 * record (tenant/trace_codec.hh). Read only the fields @c kind
 * defines: the other member of a pair aliases a defined field.
 */
struct TraceOp
{
    OpKind kind = OpKind::Malloc;
    uint32_t offset = 0; //!< StorePtr/StoreData: byte offset within
                         //!< dest; RootPtr: root slot no.
    union
    {
        uint64_t id = 0; //!< Malloc/Free: allocation id;
                         //!< Spawn/RetireTenant: tenant id
        uint64_t src;    //!< StorePtr/RootPtr: source allocation id
    };
    union
    {
        uint64_t size = 0; //!< Malloc: requested bytes
        uint64_t dst;      //!< StorePtr/StoreData: dest allocation id
    };
    double dt = 0; //!< virtual seconds since the previous op
};
static_assert(sizeof(TraceOp) == 32);

/** A trace-sized op vector: its buffer is its own huge-page mapping
 *  (HugePageAllocator), not a glibc block. */
using OpVector = std::vector<TraceOp, HugePageAllocator<TraceOp>>;

/**
 * An immutable op sequence: a cheap-copy handle to one
 * reference-counted buffer, held as an aliasing pointer plus a
 * size. Copying it, and so copying a Trace into a TenantManager, a
 * tenant definition or a TraceReplayer, bumps a reference count and
 * never copies an op; prefix() shares the buffer too. A buffer is
 * written once, before any handle to it exists, either as a vector
 * (an OpVector wherever the library builds one) or as raw storage
 * (the binary decoder), and never changes after.
 */
class TraceOps
{
  public:
    TraceOps() = default;

    /** Adopt @p ops's buffer, whatever its allocator; implicit, so
     *  `trace.ops = std::move(vec)` adopts without copying. */
    template <typename Alloc>
    TraceOps(std::vector<TraceOp, Alloc> &&ops)
    {
        auto owner = std::make_shared<std::vector<TraceOp, Alloc>>(
            std::move(ops));
        data_ = std::shared_ptr<const TraceOp>(owner, owner->data());
        size_ = owner->size();
        capacity_ = owner->capacity();
    }

    /** Adopt @p size ops already written at @p data. */
    TraceOps(std::shared_ptr<const TraceOp> data, size_t size)
        : data_(std::move(data)), size_(size), capacity_(size)
    {}

    size_t size() const { return size_; }
    const TraceOp &operator[](size_t i) const { return data_.get()[i]; }
    const TraceOp *begin() const { return data_.get(); }
    const TraceOp *end() const { return data_.get() + size_; }

    /** Ops the shared buffer has room for from begin(): what this
     *  handle keeps allocated (a prefix keeps its source's). */
    size_t capacity() const { return capacity_; }

    /** The first @p n ops (n <= size()), sharing this buffer. */
    TraceOps prefix(size_t n) const;

  private:
    std::shared_ptr<const TraceOp> data_;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

/** A full trace plus its metadata. */
struct Trace
{
    TraceOps ops;

    /** Sum of all dt fields: the virtual duration. */
    double virtualSeconds() const;

    /** True when any op is a tenant-lifecycle control op (such a
     *  trace needs the v2 binary encoding and a TenantManager). */
    bool hasLifecycleOps() const;

    /** Plain-text serialisation, one op per line: kind, then the
     *  columns id, size, src, dst, offset and dt. `save` writes the
     *  kind's own fields, 0 in the other columns, and dt exactly
     *  (17 significant digits). `load` reads only the columns the
     *  kind defines, and throws FatalError on a malformed line or
     *  an offset of 2^32 or more. */
    void save(std::ostream &os) const;
    static Trace load(std::istream &is);
};

} // namespace workload
} // namespace cherivoke

#endif // CHERIVOKE_WORKLOAD_TRACE_HH
