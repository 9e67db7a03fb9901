/**
 * @file
 * Multi-threaded mutator front-end contention bench: the remote-free
 * message-passing layer under its three canonical stress shapes
 * (snmalloc's msgpass/ping-pong/lotsofthreads), plus the end-to-end
 * parity gate that the threaded front-end leaves every modelled
 * statistic bit-identical.
 *
 * Phases:
 *  - msgpass: P producer threads blast batched remote frees at one
 *    consumer's MPSC queue (P in {1, 2, 4}); reports message
 *    throughput and gates on exact conservation (every entry sent is
 *    drained, per-producer batch order preserved).
 *  - pingpong: a 2-thread race over a crafted trace in which *every*
 *    effective free is remote (thread 1 frees what thread 0 owns),
 *    the worst-case message pattern; gates on localFrees == 0 and
 *    bit-identical replay.
 *  - lotsofthreads: one synthesized trace raced under M in
 *    {1, 2, 4, 8, 16} mutator threads; every row must replay
 *    bit-identically run-over-run, and the modelled totals
 *    (effective mallocs/frees, quarantined bytes) must be invariant
 *    in M.
 *  - tenant_parity: the full multi-tenant benchmark pipeline with 1
 *    vs 4 mutator threads per tenant; every modelled statistic must
 *    be bit-identical (the ISSUE's headline acceptance gate).
 *
 * Wall-clock numbers are reporting only — the container CI runs on
 * one CPU, so gates are determinism and equality, never throughput.
 *
 * Results go to stdout and BENCH_mutator.json; every row carries its
 * thread-count configuration, and the report's host block the
 * hardware thread count, so trajectory tracking can bucket hosts.
 *
 * Knobs: the shared engine knobs apply (CHERIVOKE_REMOTE_BATCH sets
 * the batch capacity everywhere), plus CHERIVOKE_MUTATOR_OPS (trace
 * ops for the race phases) and CHERIVOKE_MSGPASS_ENTRIES (entries
 * per msgpass producer).
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "report.hh"
#include "tenant/mutator_threads.hh"
#include "tenant/remote_queue.hh"
#include "workload/synth.hh"

using namespace cherivoke;
using bench::Json;

namespace {

struct MsgpassRow
{
    unsigned producers = 0;
    uint64_t entries = 0;
    uint64_t batches = 0;
    double wallSec = 0;
    bool conserved = false;
};

/** P producers blast batched frees at one consumer queue. */
MsgpassRow
runMsgpass(unsigned producers, uint64_t entries_each,
           unsigned batch_capacity)
{
    MsgpassRow row;
    row.producers = producers;
    tenant::RemoteFreeQueue queue;
    const bench::Stopwatch watch;

    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&queue, p, entries_each,
                              batch_capacity] {
            tenant::RemoteSender sender(p, queue, batch_capacity);
            for (uint64_t i = 0; i < entries_each; ++i)
                sender.send(tenant::RemoteFree{i});
            sender.flush();
        });
    }

    uint64_t entries = 0, batches = 0;
    std::vector<uint64_t> next_seq(producers, 0);
    bool order_ok = true;
    const uint64_t expect_batches =
        producers *
        ((entries_each + batch_capacity - 1) / batch_capacity);
    while (batches < expect_batches) {
        auto batch = queue.tryDequeue();
        if (!batch)
            continue;
        order_ok &= batch->seq == next_seq[batch->producer];
        ++next_seq[batch->producer];
        entries += batch->entries.size();
        ++batches;
    }
    for (auto &t : threads)
        t.join();

    row.wallSec = watch.seconds();
    row.entries = entries;
    row.batches = batches;
    row.conserved = order_ok && queue.drained() &&
                    entries == producers * entries_each;
    return row;
}

/** A trace in which every effective free is remote under M=2:
 *  thread 0 owns every chunk (even ids), thread 1 executes every
 *  free (odd op indices). */
workload::Trace
pingPongTrace(size_t pairs)
{
    std::vector<workload::TraceOp> ops;
    for (size_t i = 0; i < pairs; ++i) {
        workload::TraceOp m;
        m.kind = workload::OpKind::Malloc;
        m.id = 2 * i; // even: owner 0 under M=2; op index 2i: exec 0
        m.size = 64;
        ops.push_back(m);
        workload::TraceOp f;
        f.kind = workload::OpKind::Free;
        f.id = 2 * i; // op index 2i+1: executor 1 != owner 0
        ops.push_back(f);
    }
    return workload::Trace{std::move(ops)};
}

/** The synthesized race workload shared by the ramp rows. */
workload::Trace
rampTrace(uint64_t ops_target)
{
    workload::BenchmarkProfile profile =
        workload::profileFor("dealII");
    workload::SynthConfig cfg;
    // dealII at 1/512 scale synthesizes ~10k ops/virtual-second
    // with a steady malloc/free mix once the (small) heap target is
    // reached; stretching the duration — never truncating the trace
    // — keeps frees present at every ops target.
    cfg.scale = 1.0 / 512;
    cfg.durationSec = static_cast<double>(ops_target) / 10000.0;
    cfg.seed = 42;
    return workload::synthesize(profile, cfg);
}

int
benchMain()
{
    bench::printSystems(
        "Mutator contention: batched remote-free message passing");

    const sim::ExperimentConfig base = bench::defaultConfig();
    const unsigned batch = base.remoteBatch;
    const uint64_t race_ops = knobInt("CHERIVOKE_MUTATOR_OPS");
    const uint64_t msg_entries = knobInt("CHERIVOKE_MSGPASS_ENTRIES");
    announceEnvKnobs();
    bool ok = true;

    // ---- Phase 1: msgpass producers/consumer --------------------
    std::printf("msgpass: %llu entries/producer, batch %u\n",
                static_cast<unsigned long long>(msg_entries), batch);
    std::printf("  %-10s %12s %12s %10s %s\n", "producers",
                "entries/s", "batches", "wall_s", "conserved");
    std::vector<MsgpassRow> msgpass;
    for (unsigned p : {1u, 2u, 4u}) {
        const MsgpassRow row = runMsgpass(p, msg_entries, batch);
        msgpass.push_back(row);
        ok &= row.conserved;
        std::printf("  %-10u %12.3g %12llu %10.3f %s\n", p,
                    row.entries / std::max(row.wallSec, 1e-9),
                    static_cast<unsigned long long>(row.batches),
                    row.wallSec, row.conserved ? "yes" : "NO");
    }

    // ---- Phase 2: ping-pong (every free remote) -----------------
    const workload::Trace pingpong = pingPongTrace(race_ops / 2);
    tenant::MutatorConfig pp_cfg;
    pp_cfg.threads = 2;
    pp_cfg.remoteBatch = batch;
    const auto pp_a =
        tenant::runMutatorRace(pingpong, SIZE_MAX, pp_cfg);
    const auto pp_b =
        tenant::runMutatorRace(pingpong, SIZE_MAX, pp_cfg);
    const bool pp_all_remote =
        pp_a.localFrees == 0 &&
        pp_a.remoteFrees == pp_a.effectiveFrees &&
        pp_a.effectiveFrees == race_ops / 2;
    const bool pp_deterministic =
        pp_a.fingerprint() == pp_b.fingerprint();
    ok &= pp_all_remote && pp_deterministic;
    std::printf("\npingpong: %llu frees, %llu remote (%s), "
                "%llu batches, deterministic %s\n",
                static_cast<unsigned long long>(pp_a.effectiveFrees),
                static_cast<unsigned long long>(pp_a.remoteFrees),
                pp_all_remote ? "all" : "NOT ALL",
                static_cast<unsigned long long>(pp_a.batches),
                pp_deterministic ? "yes" : "NO");

    // ---- Phase 3: lotsofthreads ramp ----------------------------
    const workload::Trace ramp = rampTrace(race_ops);
    std::printf("\nlotsofthreads: %zu-op trace, batch %u\n",
                ramp.ops.size(), batch);
    std::printf("  %-8s %10s %10s %10s %10s %10s %s\n", "threads",
                "remote", "batches", "drains", "barriers", "wall_s",
                "bit-identical");
    struct RampRow
    {
        unsigned threads;
        tenant::MutatorRaceResult result;
        bool deterministic;
    };
    std::vector<RampRow> rows;
    const std::vector<uint64_t> ramp_epochs = {
        ramp.ops.size() / 4, ramp.ops.size() / 2,
        3 * ramp.ops.size() / 4};
    uint64_t base_mallocs = 0, base_frees = 0, base_qbytes = 0;
    for (unsigned m : {1u, 2u, 4u, 8u, 16u}) {
        tenant::MutatorConfig cfg;
        cfg.threads = m;
        cfg.remoteBatch = batch;
        auto a = tenant::runMutatorRace(ramp, SIZE_MAX, cfg,
                                        ramp_epochs);
        const auto b = tenant::runMutatorRace(ramp, SIZE_MAX, cfg,
                                              ramp_epochs);
        const bool det = a.fingerprint() == b.fingerprint();
        if (m == 1) {
            base_mallocs = a.effectiveMallocs;
            base_frees = a.effectiveFrees;
            base_qbytes = a.quarantinedBytes;
        }
        const bool invariant = a.effectiveMallocs == base_mallocs &&
                               a.effectiveFrees == base_frees &&
                               a.quarantinedBytes == base_qbytes;
        // Multi-thread rows must see genuine remote traffic, or the
        // phase is not exercising the message-passing layer at all.
        ok &= det && invariant && (m == 1 || a.remoteFrees > 0);
        std::printf("  %-8u %10llu %10llu %10llu %10llu %10.3f %s\n",
                    m,
                    static_cast<unsigned long long>(a.remoteFrees),
                    static_cast<unsigned long long>(a.batches),
                    static_cast<unsigned long long>(a.drains),
                    static_cast<unsigned long long>(a.epochBarriers),
                    a.wallSec,
                    det && invariant ? "yes" : "NO");
        rows.push_back(RampRow{m, std::move(a), det && invariant});
    }

    // ---- Phase 4: tenant parity (the headline gate) -------------
    auto tenant_run = [&base](unsigned threads) {
        sim::ExperimentConfig cfg = base;
        cfg.scale = 1.0 / 256;
        cfg.durationSec = 0.4;
        cfg.tenants = 2;
        cfg.mutatorThreads = threads;
        return sim::runMultiTenantBenchmark(
            workload::profileFor("dealII"), cfg);
    };
    const sim::MultiTenantBenchResult serial = tenant_run(1);
    const sim::MultiTenantBenchResult threaded = tenant_run(4);
    const bool parity =
        serial.run.totalOps == threaded.run.totalOps &&
        serial.run.allocCalls == threaded.run.allocCalls &&
        serial.run.freeCalls == threaded.run.freeCalls &&
        serial.run.freedBytes == threaded.run.freedBytes &&
        serial.run.engine.epochs == threaded.run.engine.epochs &&
        serial.run.engine.sweep.capsRevoked ==
            threaded.run.engine.sweep.capsRevoked &&
        serial.run.engine.sweep.pagesSwept ==
            threaded.run.engine.sweep.pagesSwept &&
        serial.run.peakAggQuarantineBytes ==
            threaded.run.peakAggQuarantineBytes &&
        serial.run.peakAggLiveBytes ==
            threaded.run.peakAggLiveBytes &&
        serial.sweepDramBytes == threaded.sweepDramBytes;
    ok &= parity;
    std::printf("\ntenant_parity: 1-thread vs 4-thread modelled "
                "stats %s (%llu remote frees in the threaded run)\n",
                parity ? "bit-identical" : "DIVERGED",
                static_cast<unsigned long long>(
                    threaded.run.mutatorRemoteFrees));

    // ---- BENCH_mutator.json -------------------------------------
    bench::Report report{"mutator_contention"};
    Json msg_det = Json::array(), msg_time = Json::array();
    for (const MsgpassRow &r : msgpass) {
        msg_det.push(Json()
                         .set("producers", r.producers)
                         .set("entries", r.entries)
                         .set("batches", r.batches)
                         .set("conserved", r.conserved));
        msg_time.push(r.wallSec);
    }
    Json ramp_det = Json::array(), ramp_time = Json::array();
    for (const auto &r : rows) {
        ramp_det.push(Json()
                          .set("threads", r.threads)
                          .set("remote_frees", r.result.remoteFrees)
                          .set("batches", r.result.batches)
                          .set("drains", r.result.drains)
                          .set("epoch_barriers", r.result.epochBarriers)
                          .set("fingerprint", r.result.fingerprint())
                          .set("deterministic", r.deterministic));
        ramp_time.push(r.result.wallSec);
    }
    report.deterministic.set("remote_batch", batch)
        .set("msgpass", std::move(msg_det))
        .set("pingpong",
             Json()
                 .set("threads", 2)
                 .set("frees", pp_a.effectiveFrees)
                 .set("remote", pp_a.remoteFrees)
                 .set("batches", pp_a.batches)
                 .set("deterministic",
                      pp_all_remote && pp_deterministic))
        .set("lotsofthreads", std::move(ramp_det))
        .set("tenant_parity",
             Json()
                 .set("serial_threads", 1)
                 .set("threaded_threads", 4)
                 .set("bit_identical", parity)
                 .set("remote_frees", threaded.run.mutatorRemoteFrees)
                 .set("epoch_barriers",
                      threaded.run.mutatorEpochBarriers))
        .set("ok", ok);
    report.timing.set("msgpass_wall_sec", std::move(msg_time))
        .set("pingpong_wall_sec", pp_a.wallSec)
        .set("lotsofthreads_wall_sec", std::move(ramp_time));
    report.write("BENCH_mutator.json");

    if (ok) {
        std::printf("OK: conservation, all-remote ping-pong, "
                    "bit-identical replay at every thread count, "
                    "1-vs-4-thread tenant parity\n");
    } else {
        std::printf("FAILED: see gates above\n");
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::run(argc, argv, benchMain);
}
