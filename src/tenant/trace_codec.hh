/**
 * @file
 * Compact binary trace format for multi-million-operation workloads.
 *
 * The text format (workload::Trace::save/load) parses at a few MiB/s,
 * which dominates wall-clock once traces reach PICASSO-scale millions
 * of live allocations. This codec stores a trace as a 32-byte header
 * followed by fixed-stride 32-byte little-endian records, so a trace
 * file can be mmap'ed (or read whole) and decoded with one bounds
 * check per record — no tokenising, no allocation per op.
 *
 * Layout (all little-endian):
 *
 *     header   byte 0   u64  magic   "CHERIVTB"
 *              byte 8   u32  version (1 = classic ops only,
 *                            2 = may contain tenant-lifecycle ops)
 *              byte 12  u32  record stride in bytes (32)
 *              byte 16  u64  op count
 *              byte 24  u64  reserved (0)
 *     record   byte 0   u8   op kind (workload::OpKind)
 *              byte 1   u8[3] zero padding
 *              byte 4   u32  aux: byte offset / root slot
 *              byte 8   u64  a:  Malloc/Free id; StorePtr/RootPtr src;
 *                                StoreData dst; Spawn/RetireTenant
 *                                tenant id
 *              byte 16  u64  b:  Malloc size; StorePtr dst
 *              byte 24  f64  dt (virtual seconds since previous op)
 *
 * Encoding is canonical: only the fields the op kind defines are
 * stored, and decode leaves the rest zero. Round-tripping a canonical
 * trace (everything workload::synthesize emits) reproduces the op
 * stream byte for byte, which is what makes binary traces a
 * deterministic-replay interchange format: record once, replay
 * anywhere, bit-identical statistics.
 *
 * Versioning: v2 adds the SpawnTenant/RetireTenant record kinds and
 * nothing else — header and record layouts are unchanged. The
 * encoder emits version 1 whenever a trace contains no lifecycle
 * ops, so every pre-lifecycle trace still round-trips to the exact
 * v1 byte image, and the decoder accepts both versions (a lifecycle
 * record inside a v1 stream is corruption and fails fast).
 */

#ifndef CHERIVOKE_TENANT_TRACE_CODEC_HH
#define CHERIVOKE_TENANT_TRACE_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace cherivoke {
namespace tenant {

/** "CHERIVTB" read as a little-endian u64. */
constexpr uint64_t kTraceMagic = 0x4254564952454843ULL;
/** Classic (pre-lifecycle) record set. */
constexpr uint32_t kTraceVersionClassic = 1;
/** Adds SpawnTenant/RetireTenant records; layout unchanged. */
constexpr uint32_t kTraceVersionLifecycle = 2;
/** Newest version this codec writes. */
constexpr uint32_t kTraceVersion = kTraceVersionLifecycle;
constexpr size_t kTraceHeaderBytes = 32;
constexpr size_t kTraceRecordBytes = 32;

/** Exact encoded size of @p trace in bytes. */
size_t encodedTraceBytes(const workload::Trace &trace);

/** Serialise @p trace to the binary format — version 1 when it
 *  contains no lifecycle ops (so pre-lifecycle traces keep their
 *  exact v1 byte image), version 2 otherwise. Every op encodes: the
 *  record's 32-bit aux field is as wide as TraceOp::offset. The
 *  image is reserved, its pages are faulted in (populatePages, which
 *  writes no byte; forkJoin tasks for an image of 8 MiB or more),
 *  and only then is it zero-filled once, serially, over resident
 *  pages; a trace of 128 Ki records or more then writes its records
 *  in forkJoin tasks. */
std::vector<uint8_t> encodeTrace(const workload::Trace &trace);

/** Decode a binary trace from an in-memory image (for example an
 *  mmap'ed file) into a fresh op buffer on its own huge-page mapping
 *  (HugePageAllocator), writing each op once; a trace of 128 Ki
 *  records or more decodes in forkJoin tasks.
 *  Accepts versions 1 and 2. Throws FatalError on bad magic,
 *  version, stride, truncation, an unknown op kind, or a lifecycle
 *  record inside a v1 stream; a bad record's fault names the lowest
 *  bad record, as a serial decode would. */
workload::Trace decodeTrace(const uint8_t *data, size_t size);
workload::Trace decodeTrace(const std::vector<uint8_t> &bytes);

/** True when @p data begins with the binary trace magic. */
bool isBinaryTrace(const uint8_t *data, size_t size);

/** Header version of a binary trace image — sniffing only, no
 *  validation beyond the magic. @return 0 when @p data is not a
 *  binary trace (e.g. the text format). */
uint32_t traceVersion(const uint8_t *data, size_t size);

/** Write @p trace to @p path in the binary format. */
void saveTraceFile(const std::string &path,
                   const workload::Trace &trace);

/** Load a trace file: binary when the magic matches, otherwise the
 *  text format (so existing .trace files keep working). */
workload::Trace loadTraceFile(const std::string &path);

} // namespace tenant
} // namespace cherivoke

#endif // CHERIVOKE_TENANT_TRACE_CODEC_HH
