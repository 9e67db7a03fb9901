/**
 * @file
 * Binary trace codec tests: header/record layout, canonical
 * round-tripping (record → serialize → deserialize → replay), error
 * paths, and the end-to-end guarantee the multi-tenant benches rely
 * on — a decoded trace replays to *identical* allocator and
 * revocation statistics. TraceCodecTasks covers traces long enough
 * that the codec splits them into several threaded tasks, and
 * TraceBuffers where op buffers live.
 */

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "revoke/revocation_engine.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "tenant/trace_codec.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

using namespace cherivoke;
using workload::OpKind;
using workload::Trace;
using workload::TraceOp;

namespace {

Trace
sampleTrace()
{
    const char *text = R"(# cherivoke-trace v1
malloc 1 4096 0 0 0 0
malloc 2 128 0 0 0 0.001
storeptr 0 0 1 2 16 0
rootptr 0 0 2 0 7 0
storedata 0 0 0 1 64 0.001
free 1 0 0 0 0 0.001
malloc 3 256 0 0 0 0.001
free 2 0 0 0 0 0.0005
free 3 0 0 0 0 0.001
)";
    std::istringstream is(text);
    return Trace::load(is);
}

// Field-wise (not memcmp: struct padding is indeterminate). dt is
// compared bit-exactly — the codec stores the IEEE double verbatim.
bool
sameOp(const TraceOp &x, const TraceOp &y)
{
    return x.kind == y.kind && x.id == y.id && x.size == y.size &&
           x.src == y.src && x.dst == y.dst && x.offset == y.offset &&
           std::bit_cast<uint64_t>(x.dt) ==
               std::bit_cast<uint64_t>(y.dt);
}

bool
opsIdentical(const Trace &a, const Trace &b)
{
    if (a.ops.size() != b.ops.size())
        return false;
    for (size_t i = 0; i < a.ops.size(); ++i) {
        if (!sameOp(a.ops[i], b.ops[i]))
            return false;
    }
    return true;
}

workload::DriverResult
replay(const Trace &trace)
{
    mem::AddressSpace space;
    alloc::CherivokeConfig cfg;
    cfg.minQuarantineBytes = 4 * KiB;
    alloc::CherivokeAllocator allocator(space, cfg);
    revoke::RevocationEngine engine(allocator, space);
    workload::TraceDriver driver(space, allocator, &engine);
    return driver.run(trace);
}

} // namespace

TEST(TraceCodec, HeaderLayout)
{
    const Trace trace = sampleTrace();
    const std::vector<uint8_t> bytes = tenant::encodeTrace(trace);
    ASSERT_EQ(bytes.size(), tenant::encodedTraceBytes(trace));
    ASSERT_EQ(bytes.size(), tenant::kTraceHeaderBytes +
                                trace.ops.size() *
                                    tenant::kTraceRecordBytes);
    // Magic is the ASCII string "CHERIVTB".
    EXPECT_EQ(0, std::memcmp(bytes.data(), "CHERIVTB", 8));
    EXPECT_TRUE(tenant::isBinaryTrace(bytes.data(), bytes.size()));

    // A text trace is not mistaken for binary.
    const uint8_t text[] = "# cherivoke-trace v1\n";
    EXPECT_FALSE(tenant::isBinaryTrace(text, sizeof(text)));
}

TEST(TraceCodec, RoundTripByteIdentical)
{
    const Trace trace = sampleTrace();
    const std::vector<uint8_t> bytes = tenant::encodeTrace(trace);
    const Trace decoded = tenant::decodeTrace(bytes);

    // The op stream survives byte for byte...
    EXPECT_TRUE(opsIdentical(trace, decoded));
    EXPECT_DOUBLE_EQ(trace.virtualSeconds(),
                     decoded.virtualSeconds());
    // ...and so does a re-encode of the decode.
    EXPECT_EQ(bytes, tenant::encodeTrace(decoded));
}

TEST(TraceCodec, SynthesizedRoundTripAndReplayStats)
{
    // A real synthesised workload: the round trip must preserve the
    // ops exactly AND replaying original vs decoded must produce
    // identical end-of-run allocator/revocation statistics.
    workload::SynthConfig cfg;
    cfg.scale = 1.0 / 256;
    cfg.durationSec = 0.3;
    cfg.seed = 7;
    const Trace trace =
        workload::synthesize(workload::profileFor("dealII"), cfg);
    ASSERT_GT(trace.ops.size(), 1000u);

    const Trace decoded =
        tenant::decodeTrace(tenant::encodeTrace(trace));
    ASSERT_TRUE(opsIdentical(trace, decoded));

    const workload::DriverResult a = replay(trace);
    const workload::DriverResult b = replay(decoded);
    EXPECT_EQ(a.allocCalls, b.allocCalls);
    EXPECT_EQ(a.freeCalls, b.freeCalls);
    EXPECT_EQ(a.freedBytes, b.freedBytes);
    EXPECT_EQ(a.ptrStores, b.ptrStores);
    EXPECT_EQ(a.peakLiveBytes, b.peakLiveBytes);
    EXPECT_EQ(a.peakLiveAllocs, b.peakLiveAllocs);
    EXPECT_EQ(a.peakQuarantineBytes, b.peakQuarantineBytes);
    EXPECT_EQ(a.revoker.epochs, b.revoker.epochs);
    EXPECT_TRUE(a.revoker.sweep == b.revoker.sweep);
    EXPECT_EQ(a.revoker.paint.total(), b.revoker.paint.total());
    EXPECT_EQ(a.revoker.bytesReleased, b.revoker.bytesReleased);
    EXPECT_DOUBLE_EQ(a.virtualSeconds, b.virtualSeconds);
}

TEST(TraceCodec, FileRoundTripAndTextFallback)
{
    const Trace trace = sampleTrace();
    const std::string bin_path =
        testing::TempDir() + "codec_test.cvt";
    tenant::saveTraceFile(bin_path, trace);
    EXPECT_TRUE(opsIdentical(trace,
                             tenant::loadTraceFile(bin_path)));
    std::remove(bin_path.c_str());

    // loadTraceFile falls back to the text format transparently.
    const std::string text_path =
        testing::TempDir() + "codec_test.trace";
    {
        std::ostringstream os;
        trace.save(os);
        FILE *f = std::fopen(text_path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(os.str().c_str(), f);
        std::fclose(f);
    }
    EXPECT_TRUE(opsIdentical(trace,
                             tenant::loadTraceFile(text_path)));
    std::remove(text_path.c_str());
}

TEST(TraceCodec, RejectsMalformedInput)
{
    const Trace trace = sampleTrace();
    std::vector<uint8_t> bytes = tenant::encodeTrace(trace);

    // Truncated header.
    EXPECT_THROW(tenant::decodeTrace(bytes.data(), 8), FatalError);
    // Truncated records.
    EXPECT_THROW(tenant::decodeTrace(bytes.data(), bytes.size() - 1),
                 FatalError);
    // Bad magic.
    {
        std::vector<uint8_t> bad = bytes;
        bad[0] ^= 0xff;
        EXPECT_THROW(tenant::decodeTrace(bad), FatalError);
    }
    // Unsupported version.
    {
        std::vector<uint8_t> bad = bytes;
        bad[8] = 99;
        EXPECT_THROW(tenant::decodeTrace(bad), FatalError);
    }
    // Unknown op kind in a record.
    {
        std::vector<uint8_t> bad = bytes;
        bad[tenant::kTraceHeaderBytes] = 0x7f;
        EXPECT_THROW(tenant::decodeTrace(bad), FatalError);
    }
    // An offset wider than the 32-bit field is rejected where it can
    // still arrive: a text line. 2^32 - 1 is the widest that loads.
    for (const char *line : {"storedata 0 0 0 1 1099511627776 0\n",
                             "rootptr 0 0 1 0 4294967296 0\n"}) {
        std::istringstream is(line);
        EXPECT_THROW(Trace::load(is), FatalError) << line;
    }
    {
        std::istringstream is("storeptr 0 0 1 2 4294967295 0\n");
        EXPECT_EQ(Trace::load(is).ops[0].offset, 4294967295u);
    }
    // A '-' before an integer column is refused, not wrapped modulo
    // 2^64 (nor reported as an offset overflow), and dt must be
    // finite and not negative.
    for (const char *line :
         {"malloc -5 64 0 0 0 0", "malloc 1 -64 0 0 0 0",
          "storedata 0 0 0 1 -8 0", "free 1 0 0 0 0 -0.5",
          "free 1 0 0 0 0 nan", "free 1 0 0 0 0 inf"}) {
        std::istringstream is(line);
        try {
            Trace::load(is);
            ADD_FAILURE() << "loaded " << line;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(line),
                      std::string::npos)
                << e.what();
        }
    }
    {
        // -0.0 is a valid dt and keeps its sign bit; so is a huge one.
        std::istringstream is("free 1 0 0 0 0 -0\n"
                              "free 2 0 0 0 0 1e30\n");
        const Trace t = Trace::load(is);
        EXPECT_EQ(std::bit_cast<uint64_t>(t.ops[0].dt),
                  std::bit_cast<uint64_t>(-0.0));
        EXPECT_EQ(t.ops[1].dt, 1e30);
    }
    // Missing file.
    EXPECT_THROW(tenant::loadTraceFile("/nonexistent/x.cvt"),
                 FatalError);
}

TEST(TraceCodec, TruncatedOrUnreadableFileFails)
{
    const std::string path = testing::TempDir() + "codec_cut.cvt";
    tenant::saveTraceFile(path, sampleTrace());
    const uintmax_t whole = std::filesystem::file_size(path);
    // A record cut short, and a header cut short after the magic:
    // the magic still selects the binary decoder, which refuses both.
    for (const uintmax_t size : {whole - 1, uintmax_t{8}}) {
        std::filesystem::resize_file(path, size);
        EXPECT_THROW(tenant::loadTraceFile(path), FatalError) << size;
    }
    std::remove(path.c_str());
    // A directory opens but cannot be read as a file.
    EXPECT_THROW(tenant::loadTraceFile(testing::TempDir()), FatalError);
}

// ---- In-memory layout and the text format ----------------------

TEST(TraceLayout, TextColumnsAKindDoesNotDefineAreIgnored)
{
    // TraceOp shares slots between fields no kind defines together,
    // so load must assign only the kind's own columns: junk in the
    // others would overwrite a defined field.
    struct Case
    {
        const char *canonical, *noisy;
    };
    const Case cases[] = {
        {"malloc 1 64 0 0 0 0.5", "malloc 1 64 9 9 9 0.5"},
        {"free 1 0 0 0 0 0", "free 1 9 9 9 9 0"},
        {"storeptr 0 0 1 2 16 0", "storeptr 9 9 1 2 16 0"},
        {"storedata 0 0 0 1 64 0", "storedata 9 9 9 1 64 0"},
        {"rootptr 0 0 2 0 7 0", "rootptr 9 9 2 9 7 0"},
        {"spawn 5 0 0 0 0 0", "spawn 5 9 9 9 9 0"},
        {"retire 5 0 0 0 0 0", "retire 5 9 9 9 9 0"},
    };
    for (const Case &c : cases) {
        std::istringstream canonical(c.canonical), noisy(c.noisy);
        const Trace want = Trace::load(canonical);
        const Trace got = Trace::load(noisy);
        EXPECT_TRUE(opsIdentical(want, got)) << c.noisy;
        std::ostringstream os;
        got.save(os);
        EXPECT_EQ(os.str(),
                  std::string("# cherivoke-trace v1\n") + c.canonical +
                      "\n");
    }
    // The fields land where the kinds put them.
    std::istringstream is("storedata 9 9 9 1 64 0\n"
                          "rootptr 9 9 2 9 7 0\n");
    const Trace t = Trace::load(is);
    EXPECT_EQ(t.ops[0].dst, 1u);
    EXPECT_EQ(t.ops[0].offset, 64u);
    EXPECT_EQ(t.ops[1].src, 2u);
    EXPECT_EQ(t.ops[1].offset, 7u);
}

TEST(TraceLayout, SaveKeepsTheTextImage)
{
    // One op of every kind, each with only its own fields set, and
    // dt values that print exactly: the text image is the one the
    // six-column format has always written.
    auto make = [](OpKind kind, uint64_t a, uint64_t b,
                   uint32_t offset, double dt) {
        TraceOp op;
        op.kind = kind;
        op.offset = offset;
        op.dt = dt;
        switch (kind) {
          case OpKind::Malloc:
            op.id = a;
            op.size = b;
            break;
          case OpKind::StorePtr:
            op.src = a;
            op.dst = b;
            break;
          case OpKind::StoreData:
            op.dst = b;
            break;
          case OpKind::RootPtr:
            op.src = a;
            break;
          default:
            op.id = a;
            break;
        }
        return op;
    };
    Trace trace;
    trace.ops = std::vector<TraceOp>{
        make(OpKind::Malloc, 1, 4096, 0, 0),
        make(OpKind::Malloc, 2, 128, 0, 0.001),
        make(OpKind::StorePtr, 1, 2, 16, 0),
        make(OpKind::RootPtr, 2, 0, 7, 0.25),
        make(OpKind::StoreData, 0, 1, 64, 0.001),
        make(OpKind::SpawnTenant, 7, 0, 0, 0.5),
        make(OpKind::RetireTenant, 7, 0, 0, 0),
        make(OpKind::Free, 1, 0, 0, 1.5),
    };
    std::ostringstream os;
    trace.save(os);
    EXPECT_EQ(os.str(), "# cherivoke-trace v1\n"
                        "malloc 1 4096 0 0 0 0\n"
                        "malloc 2 128 0 0 0 0.001\n"
                        "storeptr 0 0 1 2 16 0\n"
                        "rootptr 0 0 2 0 7 0.25\n"
                        "storedata 0 0 0 1 64 0.001\n"
                        "spawn 7 0 0 0 0 0.5\n"
                        "retire 7 0 0 0 0 0\n"
                        "free 1 0 0 0 0 1.5\n");
}

// ---- v2 (tenant lifecycle) records -----------------------------

namespace {

Trace
lifecycleTrace()
{
    const Trace sample = sampleTrace();
    TraceOp spawn;
    spawn.kind = OpKind::SpawnTenant;
    spawn.id = 1000;
    spawn.dt = 0.001;
    TraceOp retire;
    retire.kind = OpKind::RetireTenant;
    retire.id = 1000;
    std::vector<TraceOp> ops(sample.ops.begin(), sample.ops.end());
    ops.insert(ops.begin() + 2, spawn);
    ops.push_back(retire);
    return Trace{std::move(ops)};
}

uint32_t
headerVersion(const std::vector<uint8_t> &bytes)
{
    uint32_t v;
    std::memcpy(&v, &bytes[8], sizeof(v));
    return v;
}

} // namespace

TEST(TraceCodecV2, ClassicTracesStillEncodeAsV1ByteIdentically)
{
    // A pre-lifecycle trace keeps its exact v1 image: same version
    // byte, and decode → re-encode reproduces the input bytes, so
    // every trace file recorded before the lifecycle ops existed
    // still loads and round-trips unchanged.
    const Trace classic = sampleTrace();
    const std::vector<uint8_t> bytes = tenant::encodeTrace(classic);
    EXPECT_EQ(headerVersion(bytes), tenant::kTraceVersionClassic);
    const Trace decoded = tenant::decodeTrace(bytes);
    EXPECT_TRUE(opsIdentical(classic, decoded));
    EXPECT_EQ(tenant::encodeTrace(decoded), bytes);
}

TEST(TraceCodecV2, LifecycleTracesRoundTripAsV2)
{
    const Trace trace = lifecycleTrace();
    const std::vector<uint8_t> bytes = tenant::encodeTrace(trace);
    EXPECT_EQ(headerVersion(bytes), tenant::kTraceVersionLifecycle);
    const Trace decoded = tenant::decodeTrace(bytes);
    EXPECT_TRUE(opsIdentical(trace, decoded));
    EXPECT_EQ(decoded.ops[2].kind, OpKind::SpawnTenant);
    EXPECT_EQ(decoded.ops[2].id, 1000u);
    EXPECT_TRUE(decoded.hasLifecycleOps());
    // Canonical: re-encode is byte-identical.
    EXPECT_EQ(tenant::encodeTrace(decoded), bytes);
    // The text format carries the new ops too.
    std::ostringstream os;
    trace.save(os);
    std::istringstream is(os.str());
    EXPECT_TRUE(opsIdentical(trace, Trace::load(is)));
}

TEST(TraceCodecV2, RejectsMalformedLifecycleInput)
{
    const Trace trace = lifecycleTrace();
    std::vector<uint8_t> bytes = tenant::encodeTrace(trace);

    // Truncated v2 records.
    EXPECT_THROW(tenant::decodeTrace(bytes.data(), bytes.size() - 1),
                 FatalError);
    EXPECT_THROW(tenant::decodeTrace(bytes.data(),
                                     tenant::kTraceHeaderBytes - 4),
                 FatalError);
    // Bad version.
    {
        std::vector<uint8_t> bad = bytes;
        bad[8] = 3;
        EXPECT_THROW(tenant::decodeTrace(bad), FatalError);
    }
    // A lifecycle record inside a v1 stream is corruption: v1
    // predates the op kinds.
    {
        std::vector<uint8_t> bad = bytes;
        bad[8] = 1;
        EXPECT_THROW(tenant::decodeTrace(bad), FatalError);
    }
    // An op kind beyond v2's limit.
    {
        std::vector<uint8_t> bad = bytes;
        bad[tenant::kTraceHeaderBytes] = workload::kMaxOpKind + 1;
        EXPECT_THROW(tenant::decodeTrace(bad), FatalError);
    }
}

TEST(TraceCodecV2, LifecycleOpsOutsideATenantManagerAreFatal)
{
    // A classic single-process replay cannot give SpawnTenant any
    // meaning: replaying a decoded v2 trace without a TenantManager
    // must fail, not silently skip.
    const Trace decoded =
        tenant::decodeTrace(tenant::encodeTrace(lifecycleTrace()));
    EXPECT_THROW(replay(decoded), FatalError);
}

// ---- Traces long enough to split into codec tasks --------------

namespace {

/** Records per codec task: the codec splits a trace into one task
 *  per full 64 Ki records, in record order. */
constexpr size_t kTaskRecords = 64 * 1024;
/** Four tasks of about 65.6k records each. */
constexpr size_t kLongOps = 4 * kTaskRecords + 123;
/** Records in the second and the fourth task. */
constexpr size_t kInTask1 = 100000;
constexpr size_t kInTask3 = 250000;

/** @p n ops cycling through the classic kinds (and the lifecycle
 *  kinds too when @p lifecycle), every field distinct per op. */
Trace
longTrace(size_t n, bool lifecycle)
{
    const size_t kinds =
        1 + (lifecycle ? workload::kMaxOpKind
                       : static_cast<size_t>(OpKind::RootPtr));
    std::vector<TraceOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        TraceOp op;
        op.kind = static_cast<OpKind>(i % kinds);
        op.dt = 1e-6 * static_cast<double>(i % 997);
        const auto offset = static_cast<uint32_t>(i * 16 % 4096);
        switch (op.kind) {
          case OpKind::Malloc:
            op.id = i;
            op.size = 16 + i % 4000;
            break;
          case OpKind::StorePtr:
            op.src = i;
            op.dst = i / 2;
            op.offset = offset;
            break;
          case OpKind::StoreData:
            op.dst = i;
            op.offset = offset;
            break;
          case OpKind::RootPtr:
            op.src = i;
            op.offset = offset;
            break;
          default:
            op.id = i;
            break;
        }
        ops.push_back(op);
    }
    return Trace{std::move(ops)};
}

/** The message of the HeapFault decoding @p bytes raises, or "". */
std::string
decodeFault(const std::vector<uint8_t> &bytes)
{
    try {
        tenant::decodeTrace(bytes);
    } catch (const HeapFault &fault) {
        EXPECT_EQ(fault.kind(), HeapFaultKind::CodecCorruption);
        return fault.what();
    }
    return "";
}

} // namespace

TEST(TraceCodecTasks, EveryKindRoundTripsAcrossTaskBoundaries)
{
    const Trace trace = longTrace(kLongOps, true);
    const std::vector<uint8_t> bytes = tenant::encodeTrace(trace);
    EXPECT_EQ(headerVersion(bytes), tenant::kTraceVersionLifecycle);
    const Trace decoded = tenant::decodeTrace(bytes);
    EXPECT_TRUE(opsIdentical(trace, decoded));
    EXPECT_TRUE(tenant::encodeTrace(decoded) == bytes);
}

TEST(TraceCodecTasks, LifecycleOpInTheLastTaskSelectsV2)
{
    const Trace classic = longTrace(kLongOps, false);
    EXPECT_EQ(headerVersion(tenant::encodeTrace(classic)),
              tenant::kTraceVersionClassic);

    std::vector<TraceOp> ops(classic.ops.begin(), classic.ops.end());
    ops.back() = TraceOp{};
    ops.back().kind = OpKind::RetireTenant;
    ops.back().id = 9;
    const Trace late{std::move(ops)};
    const std::vector<uint8_t> bytes = tenant::encodeTrace(late);
    EXPECT_EQ(headerVersion(bytes), tenant::kTraceVersionLifecycle);
    const Trace decoded = tenant::decodeTrace(bytes);
    EXPECT_TRUE(opsIdentical(late, decoded));
    EXPECT_TRUE(tenant::encodeTrace(decoded) == bytes);
}

TEST(TraceCodecTasks, LowestBadRecordIsReported)
{
    const std::vector<uint8_t> good =
        tenant::encodeTrace(longTrace(kLongOps, false));
    auto record = [](size_t i) {
        return tenant::kTraceHeaderBytes + i * tenant::kTraceRecordBytes;
    };

    // Bad kinds in two tasks: the lower record is reported, as a
    // serial decode reports it, whichever task fails first.
    std::vector<uint8_t> bad = good;
    bad[record(kInTask1)] = 0x7f;
    bad[record(kInTask3)] = 0x7f;
    EXPECT_NE(decodeFault(bad).find("record 100000:"),
              std::string::npos)
        << decodeFault(bad);
    // A lifecycle kind inside this v1 stream is as bad.
    bad[record(kInTask1)] =
        static_cast<uint8_t>(OpKind::SpawnTenant);
    EXPECT_NE(decodeFault(bad).find("record 100000:"),
              std::string::npos)
        << decodeFault(bad);
    bad[record(kInTask1)] = good[record(kInTask1)];
    EXPECT_NE(decodeFault(bad).find("record 250000:"),
              std::string::npos)
        << decodeFault(bad);

    // A truncated record block is rejected before any task decodes
    // a record: the truncation is reported, not the bad kind in the
    // first task.
    std::vector<uint8_t> cut = good;
    cut[record(0)] = 0x7f;
    cut.resize(cut.size() - tenant::kTraceRecordBytes);
    EXPECT_NE(decodeFault(cut).find("truncated"), std::string::npos)
        << decodeFault(cut);
}

TEST(TraceCodecTasks, BadDtIsReportedAtItsRecord)
{
    // dt must be finite and not negative; the decoder checks it in
    // its one pass, and the fault names the record.
    const std::vector<uint8_t> good =
        tenant::encodeTrace(longTrace(kLongOps, false));
    const size_t dt_at = tenant::kTraceHeaderBytes +
                         kInTask3 * tenant::kTraceRecordBytes + 24;
    for (const double dt : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
        std::vector<uint8_t> bad = good;
        std::memcpy(&bad[dt_at], &dt, sizeof(dt));
        EXPECT_NE(decodeFault(bad).find("record 250000:"),
                  std::string::npos)
            << dt << ": " << decodeFault(bad);
    }
    // -0.0 decodes, sign bit and all.
    std::vector<uint8_t> negative_zero = good;
    const double nz = -0.0;
    std::memcpy(&negative_zero[dt_at], &nz, sizeof(nz));
    EXPECT_EQ(std::bit_cast<uint64_t>(
                  tenant::decodeTrace(negative_zero).ops[kInTask3].dt),
              std::bit_cast<uint64_t>(nz));
}

TEST(TraceCodecTasks, WideOpsAndNewDtsDecodeInPlace)
{
    // Every block's ops take dts of +0.0 and 0.25, which their
    // slots name. A wide op (an id past 32 bits) and a third dt, in
    // a middle block and in the last, partial one, are kept whole:
    // each decode task fills its own blocks' wide tables.
    const Trace base = longTrace(kLongOps, false);
    std::vector<TraceOp> ops(base.ops.begin(), base.ops.end());
    for (size_t i = 0; i < ops.size(); ++i)
        ops[i].dt = i % 2 ? 0.25 : 0.0;
    for (const size_t i : {2 * kTaskRecords + 5, kLongOps - 7}) {
        ops[i] = TraceOp{};
        ops[i].kind = OpKind::Free;
        ops[i].id = (uint64_t{1} << 32) + i;
        ops[i + 1].dt = 0.375;
    }
    const Trace trace{ops};
    EXPECT_EQ(trace.ops.footprint().wideOps, 4u);
    const std::vector<uint8_t> bytes = tenant::encodeTrace(trace);
    const Trace decoded = tenant::decodeTrace(bytes);
    ASSERT_EQ(decoded.ops.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        ASSERT_TRUE(sameOp(decoded.ops[i], ops[i])) << "op " << i;
    EXPECT_EQ(decoded.ops.footprint().wideOps, 4u);
    EXPECT_TRUE(tenant::encodeTrace(decoded) == bytes);
}

// ---- Packed op storage -----------------------------------------

namespace {

constexpr uint64_t kTwo32 = uint64_t{1} << 32;
constexpr size_t kBlock = workload::kTraceBlockOps;

/** True when @p op has an id/src or a dst too wide for a slot. */
bool
needsWideSlot(const TraceOp &op)
{
    switch (op.kind) {
      case OpKind::StorePtr: return op.src >= kTwo32 || op.dst >= kTwo32;
      case OpKind::StoreData: return op.dst >= kTwo32;
      default: return op.id >= kTwo32;
    }
}

/** Ops of @p ops kept whole: those too wide for a slot, and those
 *  whose dt is neither +0.0 nor the first other dt a slot of their
 *  block took. */
size_t
expectedWideOps(const std::vector<TraceOp> &ops)
{
    size_t wide = 0;
    uint64_t block_dt = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (i % kBlock == 0)
            block_dt = 0;
        if (needsWideSlot(ops[i])) {
            ++wide;
            continue;
        }
        const uint64_t dt = std::bit_cast<uint64_t>(ops[i].dt);
        if (block_dt == 0)
            block_dt = dt;
        wide += dt != 0 && dt != block_dt;
    }
    return wide;
}

/**
 * Three blocks and a partial fourth of canonical ops of every kind,
 * seeded: ids at and around 2^32, Malloc sizes up to UINT64_MAX,
 * offsets up to 2^32 - 1, and dts of +0.0, -0.0, a denormal and
 * 0.375, two more bit patterns than a block's slots name.
 */
std::vector<TraceOp>
edgeOps()
{
    const uint64_t ids[] = {0, 1, kTwo32 - 1, kTwo32, UINT64_MAX};
    const uint64_t sizes[] = {0, 1, kTwo32 - 1, kTwo32, UINT64_MAX};
    const uint32_t offsets[] = {0, 16, UINT32_MAX};
    const double dts[] = {0.0, -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          0.375};
    Rng rng(31);
    std::vector<TraceOp> ops(3 * kBlock + 300);
    for (size_t i = 0; i < ops.size(); ++i) {
        const auto id = [&] {
            return ids[rng.nextBounded(std::size(ids))];
        };
        const auto offset = [&] {
            return offsets[rng.nextBounded(std::size(offsets))];
        };
        TraceOp &op = ops[i];
        op.kind = static_cast<OpKind>(
            rng.nextBounded(workload::kMaxOpKind + 1));
        switch (op.kind) {
          case OpKind::Malloc:
            op.id = id();
            op.size = sizes[rng.nextBounded(std::size(sizes))];
            break;
          case OpKind::StorePtr:
            op.src = id();
            op.dst = id();
            op.offset = offset();
            break;
          case OpKind::StoreData:
            op.dst = id();
            op.offset = offset();
            break;
          case OpKind::RootPtr:
            op.src = id();
            op.offset = offset();
            break;
          default:
            op.id = id();
            break;
        }
        op.dt = dts[rng.nextBounded(std::size(dts))];
    }
    return ops;
}

} // namespace

TEST(TracePacking, EveryOpRoundTripsBitForBit)
{
    static_assert(sizeof(workload::PackedOp) == 16);
    const std::vector<TraceOp> ops = edgeOps();
    const Trace trace{ops};
    ASSERT_EQ(trace.ops.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        ASSERT_TRUE(sameOp(trace.ops[i], ops[i])) << "op " << i;
    const size_t wide = expectedWideOps(ops);
    EXPECT_GT(wide, 0u);
    EXPECT_GT(ops.size() - wide, ops.size() / 8); // and many in slots
    EXPECT_EQ(trace.ops.footprint().wideOps, wide);

    // A prefix ending at a block boundary, and one crossing it.
    for (const size_t n : {kBlock, kBlock + 1, 2 * kBlock - 1}) {
        const workload::TraceOps head = trace.ops.prefix(n);
        ASSERT_EQ(head.size(), n);
        size_t i = 0;
        for (const TraceOp &op : head)
            ASSERT_TRUE(sameOp(op, ops[i++])) << n << ": op " << i;
        EXPECT_EQ(i, n);
    }

    // Text and binary round trips are exact, and re-encode the same.
    std::ostringstream text;
    trace.save(text);
    std::istringstream is(text.str());
    const Trace loaded = Trace::load(is);
    EXPECT_TRUE(opsIdentical(trace, loaded));
    std::ostringstream again;
    loaded.save(again);
    EXPECT_TRUE(again.str() == text.str());
    const std::vector<uint8_t> bytes = tenant::encodeTrace(trace);
    const Trace decoded = tenant::decodeTrace(bytes);
    EXPECT_TRUE(opsIdentical(trace, decoded));
    EXPECT_EQ(decoded.ops.footprint().wideOps, wide);
    EXPECT_TRUE(tenant::encodeTrace(decoded) == bytes);
}

TEST(TracePacking, FieldsAKindDoesNotDefineReadAsZero)
{
    // A stray value in a field the kind does not define is not kept,
    // in a slot or in the wide table, as decode has never kept one.
    TraceOp free_op;
    free_op.kind = OpKind::Free;
    free_op.id = 3;
    free_op.size = 99;
    free_op.offset = 7;
    TraceOp wide_data;
    wide_data.kind = OpKind::StoreData;
    wide_data.src = 5;
    wide_data.dst = kTwo32 + 1;
    wide_data.offset = 8;
    const Trace trace{std::vector<TraceOp>{free_op, wide_data}};
    EXPECT_EQ(trace.ops.footprint().wideOps, 1u);
    EXPECT_EQ(trace.ops[0].id, 3u);
    EXPECT_EQ(trace.ops[0].size, 0u);
    EXPECT_EQ(trace.ops[0].offset, 0u);
    EXPECT_EQ(trace.ops[1].src, 0u);
    EXPECT_EQ(trace.ops[1].dst, kTwo32 + 1);
    EXPECT_EQ(trace.ops[1].offset, 8u);
}

// ---- Where op buffers live -------------------------------------

TEST(TraceBuffers, EmptyTraceEncodesToAHeaderAndDecodesToNoOps)
{
    // mmap refuses a zero length, so an empty buffer maps nothing.
    const Trace empty{std::vector<TraceOp>{}};
    const std::vector<uint8_t> bytes = tenant::encodeTrace(empty);
    EXPECT_EQ(bytes.size(), tenant::kTraceHeaderBytes);
    EXPECT_EQ(headerVersion(bytes), tenant::kTraceVersionClassic);
    const Trace decoded = tenant::decodeTrace(bytes);
    EXPECT_EQ(decoded.ops.size(), 0u);
    EXPECT_EQ(decoded.ops.begin(), decoded.ops.end());
    EXPECT_EQ(tenant::encodeTrace(decoded), bytes);
}

TEST(TraceBuffers, BuilderGrownPastItsReservationKeepsEveryOp)
{
    // Each growth maps a new slot buffer, copies the slots and unmaps
    // the old one; 262k ops (4 MiB of slots) span several 2 MiB
    // pages and five blocks.
    const Trace source = longTrace(kLongOps, true);
    workload::TraceOpsBuilder ops;
    ops.reserve(1000);
    for (const TraceOp &op : source.ops)
        ops.push_back(op);
    const Trace grown{ops.build()};
    EXPECT_GT(grown.ops.capacity(), size_t{1000});
    EXPECT_TRUE(opsIdentical(source, grown));
}

TEST(TraceBuffers, LiveTracesStayOutOfGlibcHeaps)
{
#ifndef __GLIBC__
    GTEST_SKIP() << "mallinfo2 is glibc's";
#else
    const auto glibc_bytes = [] {
        const struct mallinfo2 info = mallinfo2();
        return info.arena + info.hblkhd;
    };
    const size_t before = glibc_bytes();
    workload::SynthConfig cfg;
    cfg.scale = 1.0 / 8;
    cfg.durationSec = 0.4;
    cfg.seed = 42;
    const Trace trace =
        workload::synthesize(workload::profileFor("omnetpp"), cfg);
    ASSERT_EQ(trace.ops.size(), 466208u);
    const std::vector<uint8_t> image = tenant::encodeTrace(trace);
    const Trace decoded = tenant::decodeTrace(image);
    ASSERT_EQ(decoded.ops.size(), trace.ops.size());
    // The synthesised ops, the live set's slots and the decoded ops
    // are mappings of their own; only the encoded image is glibc's.
    const size_t after = glibc_bytes();
    EXPECT_LE(after, before + image.size() + MiB)
        << "glibc heaps grew by " << (after - before) << " bytes for a "
        << image.size() << "-byte image";
#endif
}
