/**
 * @file
 * The two replay workloads: the paper's Table 2 replay engine driving
 * BTrace on one thread in virtual time, followed by the final dump,
 * analyzeContinuity, and persisting the ring through a daemon.
 */

#include <cmath>

#include "analysis/continuity.h"
#include "timed_tracer.h"
#include "workloads.h"
#include "workloads/catalog.h"

namespace perfbench {

using namespace btrace;

namespace {

/** One replay input: a catalog workload and the replay knobs. */
struct ReplayInput
{
    const char *workload;
    double virtualSec;
    uint32_t leaseEntries;
    uint64_t seed;
};

struct ReplayTotals
{
    uint64_t events = 0;
    double wallNs = 0.0;        //!< replay + analysis
    double latestBytes = 0.0;
    double logLatency = 0.0;    //!< sum of log(geo-mean ns) per replay
    double segBytes = 0.0, segRecords = 0.0;
    uint64_t notPersisted = 0;  //!< dumped records missing on disk
    unsigned replays = 0;
};

/** What the traced run accumulates for the per-layer metrics. */
struct LayerTotals
{
    double simSelfNs = 0.0, dumpNs = 0.0, analysisNs = 0.0;
    uint64_t events = 0, dumpEntries = 0, replays = 0;
    uint64_t retries = 0, preempted = 0, leases = 0, leasesPreempted = 0;
    double blockedSec = 0.0, maxBacklog = 0.0;
    double fragments = 0.0, lossRate = 0.0;
    BTraceCounters::Snapshot ctrs;
    CallSampler alloc, confirm, claim;
    PersistOutcome persist;
};

void
addCounters(BTraceCounters::Snapshot &into,
            const BTraceCounters::Snapshot &c)
{
    into.advances += c.advances;
    into.skips += c.skips;
    into.wouldBlock += c.wouldBlock;
    into.sharedRmws += c.sharedRmws;
    into.leases += c.leases;
    into.leaseEntries += c.leaseEntries;
    into.fastAllocs += c.fastAllocs;
}

/**
 * Replay @p in once, check its outputs, persist the ring, and fold
 * the results. Returns the number of produced events missing from
 * the final dump.
 */
uint64_t
replayOnce(RunContext &ctx, const ReplayInput &in, ReplayTotals &tot,
           LayerTotals *layers, SpanLog *log, RunResult &res)
{
    Session session = createSession(BTraceConfig{});
    BTrace &bt = session.tracer();

    ReplayOptions opt;
    opt.durationSec = in.virtualSec;
    opt.seed = in.seed;
    opt.leaseEntries = in.leaseEntries;
    const Workload &wl = workloadByName(in.workload);

    const int64_t t0 = nowNs();
    ReplayResult rr;
    TimedTracer timed(bt, log);
    {
        ScopedSpan span(log, "sim.replay");
        rr = layers ? replay(timed, wl, opt) : replay(bt, wl, opt);
        if (layers)
            timed.chargeSpans();
    }
    const int64_t t1 = nowNs();
    double analysisNs = 0.0;
    const ContinuityReport rep = checkContinuity(
        rr.produced, rr.dump, rr.capacityBytes, res, log, &analysisNs);
    const double wall = double(nowNs() - t0);
    // The auditor needs a quiescent ring; a replayed writer that never
    // resumes (ReplayResult::unconfirmed) stays in flight for good.
    if (rr.unconfirmed == 0)
        checkAudit(bt, res, in.workload);

    const BTraceCounters::Snapshot ctrs = bt.countersSnapshot();
    PersistOutcome po = persistThroughDaemon(
        std::move(session), ctx.workDir + "/replay", log, res);
    // The persisted records must be records the replay produced; the
    // final dump's records the daemon did not persist are counted.
    std::vector<uint8_t> seen(rr.produced.size() + 1, 0);
    for (const DumpEntry &e : po.segments.entries) {
        if (e.stamp < 1 || e.stamp > rr.produced.size() ||
            seen[e.stamp] || !e.payloadOk ||
            e.size != rr.produced[e.stamp - 1].bytes) {
            res.violation("persisted record " + std::to_string(e.stamp) +
                          " unknown, repeated or damaged");
            break;
        }
        seen[e.stamp] = 1;
    }
    uint64_t notPersisted = 0;
    for (const DumpEntry &e : rr.dump.entries)
        if (e.stamp >= 1 && e.stamp <= rr.produced.size() && !seen[e.stamp])
            ++notPersisted;

    const uint64_t events = rr.produced.size();
    tot.events += events;
    tot.wallNs += wall;
    tot.latestBytes += rep.latestFragmentBytes;
    tot.logLatency += std::log(std::max(rr.latencyNs.geoMean(), 1e-3));
    tot.segBytes += double(po.segments.fileBytes);
    tot.segRecords += double(po.segments.records);
    tot.notPersisted += notPersisted;
    ++tot.replays;

    if (layers) {
        LayerTotals &l = *layers;
        const double inTracer = timed.allocNs.estimatedTotalNs() +
                                timed.confirmNs.estimatedTotalNs() +
                                timed.claimNs.estimatedTotalNs() +
                                timed.dumpNs;
        l.simSelfNs += double(t1 - t0) - inTracer;
        l.dumpNs += timed.dumpNs;
        l.dumpEntries += timed.dumpEntries;
        l.analysisNs += analysisNs;
        l.alloc.merge(timed.allocNs);
        l.confirm.merge(timed.confirmNs);
        l.claim.merge(timed.claimNs);
        l.events += events;
        ++l.replays;
        l.retries += rr.retries;
        l.preempted += rr.preemptedWrites;
        l.leases += rr.leasesOpened;
        l.leasesPreempted += rr.leasesPreempted;
        l.blockedSec += rr.blockedSec;
        l.maxBacklog = std::max(l.maxBacklog, double(rr.maxBacklog));
        l.fragments += double(rep.fragments);
        l.lossRate += rep.lossRate;
        addCounters(l.ctrs, ctrs);
        l.persist.drainNs += po.drainNs;
        l.persist.drainCpuNs += po.drainCpuNs;
        l.persist.stopNs += po.stopNs;
        l.persist.stats.entries += po.stats.entries;
        l.persist.stats.drains += po.stats.drains;
        l.persist.stats.segmentsOpened += po.stats.segmentsOpened;
    }
    return events - rep.retainedCount;
}

/**
 * Replay @p inputs in whole rounds until the time is used. A traced
 * run alternates untraced rounds (the overhead baseline) with traced
 * ones.
 */
RunResult
runReplays(RunContext &ctx, const std::vector<ReplayInput> &inputs,
           const char *name, bool count_missing)
{
    RunResult res;
    std::vector<double> setups, rates, latest, latency, segPerRec,
        untraced;
    // Set-up is creating the tracer (12 MB: 3072 x 4 KB, A = 16 x 12
    // cores), which every replay does.
    timedSetup(BTraceConfig{}, setups);
    LayerTotals layers;
    SpanLog spans(0);
    uint64_t notPersisted = 0, replays = 0;
    const int64_t deadline = nowNs() + int64_t(ctx.seconds * 0.85e9);
    unsigned round = 0;
    do {
        const bool traced = ctx.traced && round % 2 == 1;
        ReplayTotals tot;
        for (const ReplayInput &in : inputs) {
            const uint64_t missing = replayOnce(
                ctx, in, tot, traced ? &layers : nullptr,
                traced ? &spans : nullptr, res);
            if (count_missing)
                res.failed += missing;
        }
        res.attempted += tot.events;
        notPersisted += tot.notPersisted;
        replays += tot.replays;
        const double rate = double(tot.events) / tot.wallNs * 1e3;
        ++round;
        if (ctx.traced && !traced) {
            untraced.push_back(rate);
            continue;
        }
        rates.push_back(rate);
        latest.push_back(tot.latestBytes / tot.replays / kMiB);
        latency.push_back(std::exp(tot.logLatency / tot.replays));
        segPerRec.push_back(tot.segBytes / std::max(1.0, tot.segRecords));
    } while (nowNs() < deadline || (ctx.traced && round < 2));

    res.set("throughput_mrec_s", median(rates));
    res.set("setup_s", median(setups));
    res.set("latest_fragment_mb", median(latest));
    res.set("segment_bytes_per_rec", median(segPerRec));
    if (ctx.traced) {
        res.set("core.model_latency_ns", median(latency));
        const LayerTotals &l = layers;
        const double kev = std::max<double>(1.0, double(l.events)) / 1e3;
        const double n = std::max<double>(1.0, double(l.replays));
        res.set("bench.untraced_mrec_s", median(untraced));
        res.set("bench.traced_mrec_s", median(rates));
        res.set("bench.trace_overhead_pct",
                100.0 * (median(untraced) - median(rates)) /
                    median(untraced));
        res.set("sim.self_ns_per_event", l.simSelfNs / (kev * 1e3));
        res.set("sim.retries_per_kevent", double(l.retries) / kev);
        res.set("sim.blocked_virtual_s", l.blockedSec / n);
        res.set("sim.max_backlog", l.maxBacklog);
        res.set("sim.preempted_writes_per_kevent",
                double(l.preempted) / kev);
        res.set("sim.leases_preempted_per_lease",
                double(l.leasesPreempted) /
                    std::max<double>(1.0, double(l.leases)));
        res.set("core.allocate_ns", median(l.alloc.values()));
        res.set("core.confirm_ns", median(l.confirm.values()));
        res.set("core.lease_claim_ns", median(l.claim.values()));
        res.set("core.dump_ms", l.dumpNs / n / 1e6);
        res.set("core.dump_ns_per_rec",
                l.dumpNs / std::max<double>(1.0, double(l.dumpEntries)));
        res.set("core.shared_rmws_per_rec",
                double(l.ctrs.sharedRmws) / (kev * 1e3));
        res.set("core.advances_per_krec", double(l.ctrs.advances) / kev);
        res.set("core.skips_per_krec", double(l.ctrs.skips) / kev);
        res.set("core.would_block_per_krec",
                double(l.ctrs.wouldBlock) / kev);
        res.set("core.entries_per_lease",
                l.ctrs.leases ? double(l.ctrs.leaseEntries) /
                                    double(l.ctrs.leases)
                              : 1.0);
        res.set("analysis.continuity_ms", l.analysisNs / n / 1e6);
        res.set("analysis.fragments", l.fragments / n);
        res.set("analysis.loss_rate", l.lossRate / n);
        reportPersist(l.persist, n, res);
        res.set("daemon.persist_missing_rec",
                double(notPersisted) / double(replays));
        reportSpans({&spans},
                    ctx.workDir + "/spans-" + name + ".jsonl", res);
    }
    return res;
}

} // namespace

RunResult
runReplayRetention(RunContext &ctx)
{
    // Heavy catalog workloads at scale 1.0 that overflow the 12 MB
    // ring several times in 4 virtual seconds. The replay seed comes
    // from --seed; no event may fail (overwriting is by design).
    std::vector<ReplayInput> inputs;
    const char *names[] = {"Video-3", "CPUTest", "Game-2", "eShop-2"};
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back({names[i], 4.0, 0, ctx.seed * 4 + i + 1});
    return runReplays(ctx, inputs, "replay-retention", false);
}

RunResult
runReplayLeased(RunContext &ctx)
{
    // Leased replay (32 entries per lease) of an input whose produced
    // bytes fit the ring, so every event should survive. Fixed input,
    // independent of --seed: the events it loses are fault F2 and
    // every round loses the same ones.
    const std::vector<ReplayInput> inputs = {{"eShop-1", 0.5, 32, 1}};
    return runReplays(ctx, inputs, "replay-leased", true);
}

} // namespace perfbench
