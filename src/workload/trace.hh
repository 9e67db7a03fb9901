/**
 * @file
 * Allocation traces: the workload representation the synthesiser
 * emits and the driver replays. Traces are allocator-independent —
 * allocations are named by id, not address — so the same trace can
 * drive CHERIvoke, plain dlmalloc, or a baseline technique.
 */

#ifndef CHERIVOKE_WORKLOAD_TRACE_HH
#define CHERIVOKE_WORKLOAD_TRACE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

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
                   //!< (see validDt)
};
static_assert(sizeof(TraceOp) == 32);

/** True when @p dt is a valid op delay: finite and not negative
 *  (-0.0 is valid). Trace::load and the binary decoder reject any
 *  other. */
constexpr bool
validDt(double dt)
{
    return dt >= 0 && dt <= std::numeric_limits<double>::max();
}

/** Bits naming the TraceOp fields besides kind and dt. */
enum OpField : unsigned
{
    kFieldId = 1,
    kFieldSize = 2,
    kFieldSrc = 4,
    kFieldDst = 8,
    kFieldOffset = 16,
};

/** The fields @p kind defines, as OpField bits (0 for a value that
 *  is no kind). A stored, encoded or saved op keeps only these; the
 *  others read back as 0. */
constexpr unsigned
fieldsOf(OpKind kind)
{
    switch (kind) {
      case OpKind::Malloc: return kFieldId | kFieldSize;
      case OpKind::Free:
      case OpKind::SpawnTenant:
      case OpKind::RetireTenant: return kFieldId;
      case OpKind::StorePtr: return kFieldSrc | kFieldDst | kFieldOffset;
      case OpKind::StoreData: return kFieldDst | kFieldOffset;
      case OpKind::RootPtr: return kFieldSrc | kFieldOffset;
    }
    return 0;
}

/** Ops per block: a TraceOps buffer keeps its dt value and wide-op
 *  table per block of this many ops, so writers of different blocks
 *  never share one. */
constexpr size_t kTraceBlockOps = size_t{64} << 10;

/**
 * The stored form of one TraceOp. `a` holds the id/src member, `b`
 * the low half of size/dst, and `c` a Malloc's size high half or
 * another kind's offset; fields the kind does not define are 0.
 * `head` holds the kind in its low TraceOps::kPackedKindBits bits
 * and, above them, one bit choosing the op's dt: clear for +0.0, set
 * for its block's dt, the first other bit pattern a slot of the
 * block took. An op whose id/src or dst does not fit 32 bits, or
 * whose dt is neither, is kept whole in its block's wide table
 * instead: its head's kind is TraceOps::kWideOp and `a` its index
 * there.
 */
struct PackedOp
{
    uint32_t head;
    uint32_t a;
    uint32_t b;
    uint32_t c;
};
static_assert(sizeof(PackedOp) == 16);

/** What a TraceOps buffer holds, for footprint checks. */
struct TraceFootprint
{
    /** Slots for capacity() ops plus every block's dt value and
     *  wide-table entries. */
    size_t bytes = 0;
    /** Ops kept whole in wide tables. */
    size_t wideOps = 0;
};

class TraceOpsBuilder;

/**
 * An immutable op sequence: a cheap-copy handle to one
 * reference-counted buffer plus a size. Copying it, and so copying a
 * Trace into a TenantManager, a tenant definition or a
 * TraceReplayer, bumps a reference count and never copies an op;
 * prefix() shares the buffer too. The buffer holds each op in a
 * 16-byte PackedOp slot on its own huge-page mapping
 * (HugePageAllocator), with each block's dt value and table of ops
 * kept whole; `ops[i]` unpacks op i by value, bit for bit as it was
 * written, with the fields its kind does not define read as 0. A
 * TraceOpsBuilder writes a buffer once, before any handle to it
 * exists, and it never changes after.
 */
class TraceOps
{
    static constexpr unsigned kPackedKindBits = 4;
    static constexpr uint32_t kPackedKindMask =
        (1u << kPackedKindBits) - 1;
    /** A PackedOp head kind: the op is in its block's wide table. */
    static constexpr uint32_t kWideOp = kPackedKindMask;
    /** The PackedOp head bit choosing the block's dt over +0.0. */
    static constexpr uint32_t kBlockDt = 1u << kPackedKindBits;

    struct Block
    {
        /** The dt bit pattern kBlockDt names: the first other than
         *  +0.0's that a slot of the block took (0 until one does). */
        uint64_t dt = 0;
        std::vector<TraceOp> wide;
    };

    struct Store
    {
        Store() = default;
        Store(const Store &) = delete;
        Store &operator=(const Store &) = delete;
        ~Store();

        TraceOp
        op(size_t i) const
        {
            const PackedOp &s = slots[i];
            const Block &block = blocks[i / kTraceBlockOps];
            const unsigned kind = s.head & kPackedKindMask;
            if (kind == kWideOp)
                return block.wide[s.a];
            // Selects, not branches: kinds interleave unpredictably.
            const bool malloc =
                kind == static_cast<uint32_t>(OpKind::Malloc);
            TraceOp op;
            op.kind = static_cast<OpKind>(kind);
            op.id = s.a;
            op.size = s.b | (malloc ? uint64_t{s.c} << 32 : 0);
            op.offset = malloc ? 0 : s.c;
            op.dt = std::bit_cast<double>(s.head & kBlockDt ? block.dt
                                                            : 0);
            return op;
        }

        PackedOp *slots = nullptr; //!< a HugePageAllocator mapping
        size_t capacity = 0;
        std::vector<Block> blocks;
    };

  public:
    /** Reads ops by value (an input iterator). Two iterators are
     *  equal when they index the same op of the same buffer. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = TraceOp;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = TraceOp;

        Iterator() = default;
        TraceOp operator*() const { return store_->op(i_); }
        Iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        Iterator
        operator++(int)
        {
            Iterator old = *this;
            ++i_;
            return old;
        }
        bool operator==(const Iterator &) const = default;

      private:
        friend class TraceOps;
        Iterator(const Store *store, size_t i) : store_(store), i_(i) {}

        const Store *store_ = nullptr;
        size_t i_ = 0;
    };

    TraceOps() = default;

    /** Pack a copy of @p ops; implicit, so `trace.ops = vec` and
     *  `Trace{vec}` work. */
    TraceOps(const std::vector<TraceOp> &ops);

    size_t size() const { return size_; }
    TraceOp operator[](size_t i) const { return store_->op(i); }
    Iterator begin() const { return {store_.get(), 0}; }
    Iterator end() const { return {store_.get(), size_}; }

    /** Ops the shared buffer has room for from begin(): what this
     *  handle keeps allocated (a prefix keeps its source's). */
    size_t capacity() const { return store_ ? store_->capacity : 0; }

    /** The first @p n ops (n <= size()), sharing this buffer. */
    TraceOps prefix(size_t n) const;

    /** What the whole shared buffer holds (a prefix reports its
     *  source's). */
    TraceFootprint footprint() const;

  private:
    friend class TraceOpsBuilder;

    std::shared_ptr<const Store> store_;
    size_t size_ = 0;
};

/**
 * Writes a TraceOps buffer, the one way ops are packed: synthesis,
 * Trace::load, churn injection, the replayer's dense-id renumbering
 * and TraceOps' vector constructor append with push_back; the binary
 * decoder sizes the buffer up front and writes each op with set(),
 * in parallel tasks that each own whole blocks.
 */
class TraceOpsBuilder
{
  public:
    TraceOpsBuilder() = default;

    /** @p size ops, each to be written once with set(). */
    explicit TraceOpsBuilder(size_t size);

    /** Room for @p capacity ops; pages are faulted in only where
     *  written. */
    void reserve(size_t capacity);

    /** Append @p op, growing by doubling past the reservation. */
    void
    push_back(const TraceOp &op)
    {
        if (size_ == store_->capacity || size_ % kTraceBlockOps == 0)
            makeRoom();
        set(size_++, op);
    }

    /** Write op @p i (< size()). The block's first op to take a
     *  slot with a dt other than +0.0 sets the block's dt. Calls for
     *  ops of one block must not overlap; calls for different blocks
     *  may run concurrently. */
    void
    set(size_t i, const TraceOp &op)
    {
        const unsigned fields = fieldsOf(op.kind);
        const uint64_t first =
            fields & (kFieldId | kFieldSrc) ? op.id : 0;
        const uint64_t second =
            fields & (kFieldSize | kFieldDst) ? op.size : 0;
        const uint32_t offset = fields & kFieldOffset ? op.offset : 0;
        const bool malloc = op.kind == OpKind::Malloc;
        constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();
        if (i >= size_ || fields == 0 || first > kMax32 ||
            (!malloc && second > kMax32)) {
            setWide(i, op);
            return;
        }
        const uint64_t dt = std::bit_cast<uint64_t>(op.dt);
        if (dt != 0) {
            uint64_t &block_dt = store_->blocks[i / kTraceBlockOps].dt;
            if (block_dt == 0) {
                block_dt = dt;
            } else if (block_dt != dt) {
                setWide(i, op);
                return;
            }
        }
        store_->slots[i] = {
            static_cast<uint32_t>(op.kind) |
                (dt != 0 ? TraceOps::kBlockDt : 0),
            static_cast<uint32_t>(first), static_cast<uint32_t>(second),
            malloc ? static_cast<uint32_t>(second >> 32) : offset};
    }

    size_t size() const { return size_; }

    /** The ops written, as an immutable buffer; the builder is left
     *  empty. */
    TraceOps build();

  private:
    /** Map blocks up to the one holding op @p n - 1. */
    void addBlocks(size_t n);
    /** Make room for op size(): grow the slots, open its block. */
    void makeRoom();
    /** Check @p i and @p op's kind, then keep @p op, reduced to the
     *  fields its kind defines, in its block's wide table. */
    void setWide(size_t i, const TraceOp &op);

    std::unique_ptr<TraceOps::Store> store_ =
        std::make_unique<TraceOps::Store>();
    size_t size_ = 0;
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
     *  kind defines, and throws FatalError on a malformed line, a
     *  '-' before any integer column, an offset of 2^32 or more, or
     *  a dt that fails validDt. */
    void save(std::ostream &os) const;
    static Trace load(std::istream &is);
};

} // namespace workload
} // namespace cherivoke

#endif // CHERIVOKE_WORKLOAD_TRACE_HH
