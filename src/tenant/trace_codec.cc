#include "tenant/trace_codec.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <type_traits>

#include "support/fault.hh"
#include "support/fork_join.hh"
#include "support/logging.hh"
#include "support/zero_pages.hh"

namespace cherivoke {
namespace tenant {

namespace {

void
putU32(uint8_t *dst, uint32_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

void
putU64(uint8_t *dst, uint64_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

void
putF64(uint8_t *dst, double v)
{
    std::memcpy(dst, &v, sizeof(v));
}

uint32_t
getU32(const uint8_t *src)
{
    uint32_t v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

uint64_t
getU64(const uint8_t *src)
{
    uint64_t v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

double
getF64(const uint8_t *src)
{
    double v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

/** Records per codec task: a trace of fewer than two of these
 *  encodes and decodes on the calling thread. */
constexpr size_t kTaskRecords = size_t{64} << 10;
/** Most tasks one trace is split into, so a ten-million-op trace
 *  does not start a thread per 64 Ki records. */
constexpr size_t kMaxTasks = 16;

/** Codec tasks for @p n records: one per kTaskRecords, at least one
 *  and at most kMaxTasks, each given a contiguous record range. */
size_t
codecTasks(size_t n)
{
    return std::clamp<size_t>(n / kTaskRecords, 1, kMaxTasks);
}

void
encodeRecord(const workload::TraceOp &op, uint8_t *rec)
{
    using workload::OpKind;
    rec[0] = static_cast<uint8_t>(op.kind);
    switch (op.kind) {
      case OpKind::Malloc:
        putU64(&rec[8], op.id);
        putU64(&rec[16], op.size);
        break;
      case OpKind::Free:
        putU64(&rec[8], op.id);
        break;
      case OpKind::StorePtr:
        putU32(&rec[4], op.offset);
        putU64(&rec[8], op.src);
        putU64(&rec[16], op.dst);
        break;
      case OpKind::StoreData:
        putU32(&rec[4], op.offset);
        putU64(&rec[8], op.dst);
        break;
      case OpKind::RootPtr:
        putU32(&rec[4], op.offset);
        putU64(&rec[8], op.src);
        break;
      case OpKind::SpawnTenant:
      case OpKind::RetireTenant:
        putU64(&rec[8], op.id);
        break;
    }
    putF64(&rec[24], op.dt);
}

/** Decode record @p index at @p rec; its kind must not exceed
 *  @p kind_limit, the largest kind stream @p version defines. */
workload::TraceOp
decodeRecord(const uint8_t *rec, size_t index, uint32_t version,
             uint8_t kind_limit)
{
    using workload::OpKind;
    const uint8_t kind = rec[0];
    if (kind > kind_limit)
        heapFault(HeapFaultKind::CodecCorruption,
                  "binary trace record %llu: unknown op kind %u "
                  "for version %u",
                  static_cast<unsigned long long>(index), kind,
                  version);
    workload::TraceOp op;
    op.kind = static_cast<OpKind>(kind);
    switch (op.kind) {
      case OpKind::Malloc:
        op.id = getU64(&rec[8]);
        op.size = getU64(&rec[16]);
        break;
      case OpKind::Free:
        op.id = getU64(&rec[8]);
        break;
      case OpKind::StorePtr:
        op.offset = getU32(&rec[4]);
        op.src = getU64(&rec[8]);
        op.dst = getU64(&rec[16]);
        break;
      case OpKind::StoreData:
        op.offset = getU32(&rec[4]);
        op.dst = getU64(&rec[8]);
        break;
      case OpKind::RootPtr:
        op.offset = getU32(&rec[4]);
        op.src = getU64(&rec[8]);
        break;
      case OpKind::SpawnTenant:
      case OpKind::RetireTenant:
        op.id = getU64(&rec[8]);
        break;
    }
    op.dt = getF64(&rec[24]);
    return op;
}

} // namespace

size_t
encodedTraceBytes(const workload::Trace &trace)
{
    return kTraceHeaderBytes + trace.ops.size() * kTraceRecordBytes;
}

std::vector<uint8_t>
encodeTrace(const workload::Trace &trace)
{
    const workload::TraceOps &ops = trace.ops;
    // The one serial pass: a std::vector cannot hand out
    // uninitialised bytes, and the zeros are the fields a record's
    // kind leaves undefined. Faulting the reserved pages in first,
    // in parallel, leaves the fill to run over resident memory.
    const size_t bytes = encodedTraceBytes(trace);
    std::vector<uint8_t> out;
    out.reserve(bytes);
    populatePages(out.data(), bytes);
    out.resize(bytes);
    uint8_t *records = out.data() + kTraceHeaderBytes;
    const size_t tasks = codecTasks(ops.size());
    // One flag per task (char, not vector<bool>, so each task
    // writes its own byte): did its range hold a lifecycle op?
    std::vector<char> lifecycle(tasks, 0);
    forkJoinRanges(ops.size(), tasks, [&](size_t t, size_t lo, size_t hi) {
        bool any = false;
        for (size_t i = lo; i < hi; ++i) {
            encodeRecord(ops[i], records + i * kTraceRecordBytes);
            any |= workload::isLifecycleOp(ops[i].kind);
        }
        lifecycle[t] = any;
    });
    const bool v2 =
        std::find(lifecycle.begin(), lifecycle.end(), 1) !=
        lifecycle.end();
    putU64(&out[0], kTraceMagic);
    putU32(&out[8],
           v2 ? kTraceVersionLifecycle : kTraceVersionClassic);
    putU32(&out[12], static_cast<uint32_t>(kTraceRecordBytes));
    putU64(&out[16], ops.size());
    return out;
}

workload::Trace
decodeTrace(const uint8_t *data, size_t size)
{
    using workload::OpKind;
    using workload::TraceOp;
    if (size < kTraceHeaderBytes)
        fatal("binary trace truncated: %zu bytes, need a %zu-byte "
              "header",
              size, kTraceHeaderBytes);
    if (getU64(&data[0]) != kTraceMagic)
        fatal("not a binary cherivoke trace (bad magic)");
    const uint32_t version = getU32(&data[8]);
    if (version != kTraceVersionClassic &&
        version != kTraceVersionLifecycle)
        fatal("binary trace version %u unsupported (expected %u "
              "or %u)",
              version, kTraceVersionClassic, kTraceVersionLifecycle);
    const uint32_t stride = getU32(&data[12]);
    if (stride != kTraceRecordBytes)
        fatal("binary trace record stride %u unsupported "
              "(expected %zu)",
              stride, kTraceRecordBytes);
    const uint64_t count = getU64(&data[16]);
    // Division form: the multiplied bound could overflow uint64 for
    // a corrupt header and bypass the check. Mid-stream truncation
    // is record-level damage — one tenant's bad trace, not a
    // harness misconfiguration — so it goes through the typed fault
    // channel a multi-tenant host can contain.
    if (count > (size - kTraceHeaderBytes) / kTraceRecordBytes)
        heapFault(HeapFaultKind::CodecCorruption,
                  "binary trace truncated: header promises %llu "
                  "records but only %zu bytes follow",
                  static_cast<unsigned long long>(count),
                  size - kTraceHeaderBytes);

    const uint8_t kind_limit =
        version >= kTraceVersionLifecycle
            ? workload::kMaxOpKind
            : static_cast<uint8_t>(OpKind::RootPtr);
    // Uninitialised storage on a huge-page mapping, owned before any
    // task starts, so a task's throw unwinds through the owner and
    // unmaps it. Each op is constructed once, by the task that
    // decodes its record, whose first write faults in a 2 MiB page
    // where the advice holds; TraceOp is trivially destructible, so a
    // partly written buffer needs no destruction.
    static_assert(std::is_trivially_destructible_v<TraceOp>);
    const size_t n = count;
    std::shared_ptr<TraceOp> ops(
        HugePageAllocator<TraceOp>().allocate(n), [n](TraceOp *p) {
            HugePageAllocator<TraceOp>().deallocate(p, n);
        });
    const uint8_t *records = data + kTraceHeaderBytes;
    // Each task stops at its first bad record, and forkJoin rethrows
    // the lowest failing task's fault: the lowest bad record, as a
    // serial decode reports it.
    forkJoinRanges(n, codecTasks(n), [&](size_t, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            std::construct_at(
                ops.get() + i,
                decodeRecord(records + i * kTraceRecordBytes, i,
                             version, kind_limit));
    });
    return workload::Trace{workload::TraceOps(std::move(ops), n)};
}

workload::Trace
decodeTrace(const std::vector<uint8_t> &bytes)
{
    return decodeTrace(bytes.data(), bytes.size());
}

bool
isBinaryTrace(const uint8_t *data, size_t size)
{
    return size >= sizeof(uint64_t) && getU64(data) == kTraceMagic;
}

uint32_t
traceVersion(const uint8_t *data, size_t size)
{
    if (!isBinaryTrace(data, size) || size < kTraceHeaderBytes)
        return 0;
    return getU32(&data[8]);
}

void
saveTraceFile(const std::string &path, const workload::Trace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    const std::vector<uint8_t> bytes = encodeTrace(trace);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os)
        fatal("short write to '%s'", path.c_str());
}

workload::Trace
loadTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open '%s'", path.c_str());
    // One read of the file's size: a stream iterator would copy it a
    // byte at a time.
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        fatal("cannot read '%s': %s", path.c_str(),
              ec.message().c_str());
    std::vector<uint8_t> bytes(size);
    if (!is.read(reinterpret_cast<char *>(bytes.data()),
                 static_cast<std::streamsize>(size)))
        fatal("short read from '%s'", path.c_str());
    if (isBinaryTrace(bytes.data(), bytes.size()))
        return decodeTrace(bytes);
    std::istringstream text(
        std::string(bytes.begin(), bytes.end()));
    return workload::Trace::load(text);
}

} // namespace tenant
} // namespace cherivoke
