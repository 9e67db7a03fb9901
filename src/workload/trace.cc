#include "workload/trace.hh"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "support/logging.hh"
#include "support/zero_pages.hh"

namespace cherivoke {
namespace workload {

namespace {

const char *
opName(OpKind kind)
{
    switch (kind) {
      case OpKind::Malloc: return "malloc";
      case OpKind::Free: return "free";
      case OpKind::StorePtr: return "storeptr";
      case OpKind::StoreData: return "storedata";
      case OpKind::RootPtr: return "rootptr";
      case OpKind::SpawnTenant: return "spawn";
      case OpKind::RetireTenant: return "retire";
    }
    return "?";
}

OpKind
opFromName(const std::string &name)
{
    if (name == "malloc")
        return OpKind::Malloc;
    if (name == "free")
        return OpKind::Free;
    if (name == "storeptr")
        return OpKind::StorePtr;
    if (name == "storedata")
        return OpKind::StoreData;
    if (name == "rootptr")
        return OpKind::RootPtr;
    if (name == "spawn")
        return OpKind::SpawnTenant;
    if (name == "retire")
        return OpKind::RetireTenant;
    fatal("unknown trace op '%s'", name.c_str());
}

/** Ops the first push_back into an unreserved builder maps. */
constexpr size_t kMinCapacity = 1024;

} // namespace

TraceOps::Store::~Store()
{
    HugePageAllocator<PackedOp>().deallocate(slots, capacity);
}

TraceOps::TraceOps(const std::vector<TraceOp> &ops)
{
    TraceOpsBuilder builder;
    builder.reserve(ops.size());
    for (const TraceOp &op : ops)
        builder.push_back(op);
    *this = builder.build();
}

TraceOps
TraceOps::prefix(size_t n) const
{
    CHERIVOKE_ASSERT(n <= size_, "(prefix longer than the trace)");
    TraceOps out = *this;
    out.size_ = n;
    return out;
}

TraceFootprint
TraceOps::footprint() const
{
    TraceFootprint fp;
    if (!store_)
        return fp;
    for (const Block &block : store_->blocks)
        fp.wideOps += block.wide.size();
    fp.bytes = store_->capacity * sizeof(PackedOp) +
               store_->blocks.size() * sizeof(uint64_t) +
               fp.wideOps * sizeof(TraceOp);
    return fp;
}

TraceOpsBuilder::TraceOpsBuilder(size_t size)
{
    reserve(size);
    addBlocks(size);
    size_ = size;
}

void
TraceOpsBuilder::reserve(size_t capacity)
{
    TraceOps::Store &store = *store_;
    if (capacity <= store.capacity)
        return;
    HugePageAllocator<PackedOp> alloc;
    PackedOp *slots = alloc.allocate(capacity);
    if (size_ > 0)
        std::memcpy(slots, store.slots, size_ * sizeof(PackedOp));
    alloc.deallocate(store.slots, store.capacity);
    store.slots = slots;
    store.capacity = capacity;
}

void
TraceOpsBuilder::addBlocks(size_t n)
{
    const size_t blocks = (n + kTraceBlockOps - 1) / kTraceBlockOps;
    if (store_->blocks.size() < blocks)
        store_->blocks.resize(blocks);
}

void
TraceOpsBuilder::makeRoom()
{
    if (size_ == store_->capacity)
        reserve(std::max(2 * size_, kMinCapacity));
    addBlocks(size_ + 1);
}

void
TraceOpsBuilder::setWide(size_t i, const TraceOp &op)
{
    CHERIVOKE_ASSERT(i < size_, "(op past the builder's size)");
    const unsigned fields = fieldsOf(op.kind);
    CHERIVOKE_ASSERT(fields != 0, "(not an op kind)");
    std::vector<TraceOp> &wide = store_->blocks[i / kTraceBlockOps].wide;
    TraceOp whole;
    whole.kind = op.kind;
    whole.id = fields & (kFieldId | kFieldSrc) ? op.id : 0;
    whole.size = fields & (kFieldSize | kFieldDst) ? op.size : 0;
    whole.offset = fields & kFieldOffset ? op.offset : 0;
    whole.dt = op.dt;
    store_->slots[i] = {TraceOps::kWideOp,
                        static_cast<uint32_t>(wide.size()), 0, 0};
    wide.push_back(whole);
}

TraceOps
TraceOpsBuilder::build()
{
    TraceOps ops;
    ops.store_ = std::move(store_);
    ops.size_ = size_;
    store_ = std::make_unique<TraceOps::Store>();
    size_ = 0;
    return ops;
}

double
Trace::virtualSeconds() const
{
    double t = 0;
    for (const auto &op : ops)
        t += op.dt;
    return t;
}

bool
Trace::hasLifecycleOps() const
{
    for (const auto &op : ops) {
        if (isLifecycleOp(op.kind))
            return true;
    }
    return false;
}

void
Trace::save(std::ostream &os) const
{
    // Enough digits that load() reads back the same double.
    const std::streamsize precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    os << "# cherivoke-trace v1\n";
    for (const auto &op : ops) {
        const unsigned fields = fieldsOf(op.kind);
        const auto col = [fields](unsigned f, uint64_t v) {
            return (fields & f) ? v : 0;
        };
        os << opName(op.kind) << ' ' << col(kFieldId, op.id) << ' '
           << col(kFieldSize, op.size) << ' '
           << col(kFieldSrc, op.src) << ' ' << col(kFieldDst, op.dst)
           << ' ' << col(kFieldOffset, op.offset) << ' ' << op.dt
           << '\n';
    }
    os.precision(precision);
}

Trace
Trace::load(std::istream &is)
{
    TraceOpsBuilder ops;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        // operator>> reads "-5" into a uint64_t as 2^64 - 5.
        const auto column = [&](uint64_t &v) {
            ls >> std::ws;
            if (ls.peek() == '-')
                fatal("negative trace column: %s", line.c_str());
            ls >> v;
        };
        std::string name;
        uint64_t id = 0, size = 0, src = 0, dst = 0, offset = 0;
        TraceOp op;
        ls >> name;
        for (uint64_t *v : {&id, &size, &src, &dst, &offset})
            column(*v);
        ls >> op.dt;
        if (ls.fail())
            fatal("malformed trace line: %s", line.c_str());
        op.kind = opFromName(name);
        const unsigned fields = fieldsOf(op.kind);
        if ((fields & kFieldOffset) &&
            offset > std::numeric_limits<uint32_t>::max())
            fatal("trace offset %llu overflows 32 bits: %s",
                  static_cast<unsigned long long>(offset),
                  line.c_str());
        if (!validDt(op.dt))
            fatal("trace dt is negative or not finite: %s",
                  line.c_str());
        // No kind defines both members of a TraceOp union pair, so
        // these assignments never overwrite one another.
        if (fields & kFieldId)
            op.id = id;
        if (fields & kFieldSize)
            op.size = size;
        if (fields & kFieldSrc)
            op.src = src;
        if (fields & kFieldDst)
            op.dst = dst;
        if (fields & kFieldOffset)
            op.offset = static_cast<uint32_t>(offset);
        ops.push_back(op);
    }
    return Trace{ops.build()};
}

} // namespace workload
} // namespace cherivoke
