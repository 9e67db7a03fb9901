#include "workload/trace.hh"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "support/logging.hh"

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

/** The text format's numeric columns, in line order after the op
 *  name (dt, which every kind defines, follows them). */
enum Column : unsigned
{
    kId = 1,
    kSize = 2,
    kSrc = 4,
    kDst = 8,
    kOffset = 16,
};

/** The columns @p kind defines. `save` writes 0 in the others and
 *  `load` ignores them. */
unsigned
columnsOf(OpKind kind)
{
    switch (kind) {
      case OpKind::Malloc: return kId | kSize;
      case OpKind::Free:
      case OpKind::SpawnTenant:
      case OpKind::RetireTenant: return kId;
      case OpKind::StorePtr: return kSrc | kDst | kOffset;
      case OpKind::StoreData: return kDst | kOffset;
      case OpKind::RootPtr: return kSrc | kOffset;
    }
    return 0;
}

} // namespace

TraceOps
TraceOps::prefix(size_t n) const
{
    CHERIVOKE_ASSERT(n <= size_, "(prefix longer than the trace)");
    TraceOps out = *this;
    out.size_ = n;
    return out;
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
        const unsigned cols = columnsOf(op.kind);
        const auto col = [cols](unsigned c, uint64_t v) {
            return (cols & c) ? v : 0;
        };
        os << opName(op.kind) << ' ' << col(kId, op.id) << ' '
           << col(kSize, op.size) << ' ' << col(kSrc, op.src) << ' '
           << col(kDst, op.dst) << ' ' << col(kOffset, op.offset)
           << ' ' << op.dt << '\n';
    }
    os.precision(precision);
}

Trace
Trace::load(std::istream &is)
{
    OpVector ops;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        uint64_t id = 0, size = 0, src = 0, dst = 0, offset = 0;
        TraceOp op;
        ls >> name >> id >> size >> src >> dst >> offset >> op.dt;
        if (ls.fail())
            fatal("malformed trace line: %s", line.c_str());
        op.kind = opFromName(name);
        const unsigned cols = columnsOf(op.kind);
        if ((cols & kOffset) &&
            offset > std::numeric_limits<uint32_t>::max())
            fatal("trace offset %llu overflows 32 bits: %s",
                  static_cast<unsigned long long>(offset),
                  line.c_str());
        // No kind defines both members of a TraceOp union pair, so
        // these assignments never overwrite one another.
        if (cols & kId)
            op.id = id;
        if (cols & kSize)
            op.size = size;
        if (cols & kSrc)
            op.src = src;
        if (cols & kDst)
            op.dst = dst;
        if (cols & kOffset)
            op.offset = static_cast<uint32_t>(offset);
        ops.push_back(op);
    }
    return Trace{std::move(ops)};
}

} // namespace workload
} // namespace cherivoke
