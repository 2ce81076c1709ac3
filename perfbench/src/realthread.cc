/**
 * @file
 * The two real-thread workloads: record-contended (the flight-recorder
 * write path under contention) and drain-pipeline (producers to a
 * ConsumerDaemon writing segments). All load comes from this process:
 * two producer threads plus, for the drain, one consumer thread.
 */

#include <cmath>
#include <filesystem>
#include <thread>

#include "core/auditor.h"
#include "timed_tracer.h"
#include "workloads.h"

namespace perfbench {

using namespace btrace;

namespace {

constexpr unsigned kProducers = 2;
constexpr uint32_t kLeaseEntries = 32;

/**
 * record-contended mix per cycle: single-entry records, then 32-entry
 * leases. Fixed counts (not adaptive), chosen so each path took about
 * half of a cycle's time on the reference host.
 */
constexpr unsigned kSinglesPerCycle = 64;
constexpr unsigned kLeasesPerCycle = 8;

/**
 * One producer's state; owned by its thread while it runs. Aligned so
 * that producers kept side by side share no cache line.
 */
struct alignas(64) Producer
{
    Producer(unsigned producer_id, const PayloadTable &t)
        : id(producer_id), table(t)
    {
    }

    /** One single-entry Tracer::record. */
    void
    record(Tracer &tr, bool timed)
    {
        const uint32_t len = table.payload(id, seq);
        double cost = 0.0;
        if (timed && recordNs.due()) {
            const int64_t t0 = nowNs();
            tr.record(core(), thread(), StampCodec::stamp(id, seq), len,
                      category(), &cost);
            recordNs.add(nowNs() - t0);
        } else {
            tr.record(core(), thread(), StampCodec::stamp(id, seq), len,
                      category(), &cost);
        }
        if ((seq & 63) == 0)
            noteCost(cost, 1.0);
        ++seq;
    }

    /** Write @p n entries through leases, renewing as spans run out. */
    void
    leaseBatch(Tracer &tr, uint32_t n, bool timed)
    {
        while (n > 0) {
            // A span sized from the mean alone may be too short for the
            // next entry; size it so at least that entry fits.
            const uint32_t hint =
                std::max(table.meanPayload(), table.payload(id, seq));
            Lease l = tr.lease(core(), thread(), hint, n);
            if (!l.ok())
                continue;  // every active block in flight; retry
            for (; n > 0; --n) {
                const uint32_t len = table.payload(id, seq);
                const bool sample = timed && entryNs.due();
                const int64_t t0 = sample ? nowNs() : 0;
                WriteTicket t = l.allocate(len);
                if (!t.ok())
                    break;  // span exhausted: renew
                writeNormal(t.dst, StampCodec::stamp(id, seq), core(),
                            thread(), category(), len);
                l.confirm(t);
                if (sample)
                    entryNs.add(nowNs() - t0);
                ++seq;
            }
            const uint32_t served = l.entries();
            if (timed && closeNs.due()) {
                const int64_t t0 = nowNs();
                l.close();
                closeNs.add(nowNs() - t0);
            } else {
                l.close();
            }
            if (served > 0)
                noteCost(l.cost() / served, served);
        }
    }

    void
    noteCost(double ns, double weight)
    {
        logCost += std::log(std::max(ns, 1e-3)) * weight;
        costWeight += weight;
    }

    uint16_t core() const { return uint16_t(id); }
    uint32_t thread() const { return StampCodec::kThreadBase + id; }
    uint16_t category() const { return uint16_t(id); }

    unsigned id;
    const PayloadTable &table;
    uint64_t seq = 0;
    double logCost = 0.0;     //!< sum of log(modelled ns) x weight
    double costWeight = 0.0;
    double writeNs = 0.0;     //!< traced: wall time inside write calls
    double waitNs = 0.0;      //!< drain: time waiting for credit
    double busyNs = 0.0;      //!< drain: producing wall time
    CallSampler recordNs{16};
    CallSampler entryNs{16};
    CallSampler closeNs{4};
};

/** Geometric mean of the modelled write cost over producers. */
double
modelLatency(const std::vector<Producer *> &ps)
{
    double l = 0.0, w = 0.0;
    for (const Producer *p : ps) {
        l += p->logCost;
        w += p->costWeight;
    }
    return w > 0 ? std::exp(l / w) : 0.0;
}

BTraceConfig
defaultGeometry()
{
    return BTraceConfig{};  // 3072 x 4 KB blocks, A = 192
}

/** Ring capacity in records of the smallest entry: an upper bound on
 *  how far back a retained record can be. */
uint64_t
ringRecordBound(const BTraceConfig &cfg)
{
    return cfg.capacityBytes() / EntryLayout::normalSize(16);
}

/** Ledger-check every record and the per-producer continuity. */
void
checkRecords(Ledger &ledger, const PayloadTable &table, uint64_t window,
             const std::vector<DumpEntry> &entries, std::size_t capacity,
             unsigned producers, RunResult &res, SpanLog *log,
             double &latest_bytes, double &fragments, double &loss,
             double &analysis_ns)
{
    for (const DumpEntry &e : entries)
        ledger.check(e, res);
    std::vector<ProducedEvent> produced;
    Dump view;
    for (unsigned p = 0; p < producers; ++p) {
        producerView(ledger, table, p, window, entries, produced, view);
        const ContinuityReport rep = checkContinuity(
            produced, view, capacity, res, log, &analysis_ns);
        latest_bytes += rep.latestFragmentBytes;
        fragments += double(rep.fragments);
        loss += rep.lossRate / producers;
    }
}

/** Empty (or create) directory @p dir. */
void
resetDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

} // namespace

Session
createSession(const BTraceConfig &cfg)
{
    auto s = Session::create(cfg);
    BTRACE_ASSERT(s.ok(), "perfbench: Session::create failed");
    return std::move(s.value());
}

Session
timedSetup(const BTraceConfig &cfg, std::vector<double> &setups)
{
    Session session;
    for (int batch = 0; batch < kSetupBatches; ++batch) {
        if (batch > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kSetupGapMs));
        for (int rep = 0; rep < kSetupRepeats; ++rep) {
            session = Session();
            const int64_t t0 = nowNs();
            session = createSession(cfg);
            setups.push_back(double(nowNs() - t0) / 1e9);
        }
    }
    return session;
}

PersistOutcome
persistThroughDaemon(Session session, const std::string &dir,
                     SpanLog *log, RunResult &out)
{
    PersistOutcome po;
    resetDir(dir);
    DaemonOptions opts;
    opts.outDir = dir;
    auto made = ConsumerDaemon::make(std::move(session), opts);
    if (!made.ok()) {
        out.violation("ConsumerDaemon::make: " + made.status().toString());
        return po;
    }
    ConsumerDaemon &d = *made.value();
    for (;;) {
        const int64_t t0 = nowNs(), c0 = threadCpuNs();
        Expected<uint64_t> n(uint64_t(0));
        {
            ScopedSpan s(log, "daemon.drain_once");
            n = d.drainOnce();
        }
        po.drainNs += double(nowNs() - t0);
        po.drainCpuNs += double(threadCpuNs() - c0);
        if (!n.ok()) {
            out.violation("drainOnce: " + n.status().toString());
            break;
        }
        if (n.value() == 0)
            break;
    }
    const int64_t t0 = nowNs();
    {
        ScopedSpan s(log, "daemon.stop");
        d.stop();
    }
    po.stopNs = double(nowNs() - t0);
    po.stats = d.stats();
    ScopedSpan s(log, "trace.read_segments");
    po.segments = checkSegments(dir, out);
    if (po.segments.records != po.stats.entries)
        out.violation("segments hold " +
                      std::to_string(po.segments.records) +
                      " records, the daemon wrote " +
                      std::to_string(po.stats.entries));
    return po;
}

void
reportPersist(const PersistOutcome &p, double persists, RunResult &out)
{
    const double recs = std::max<double>(1.0, double(p.stats.entries));
    out.set("daemon.drain_ns_per_rec", p.drainNs / recs);
    out.set("daemon.drain_cpu_ns_per_rec", p.drainCpuNs / recs);
    out.set("daemon.rec_per_drain",
            double(p.stats.entries) /
                std::max<double>(1.0, double(p.stats.drains)));
    out.set("daemon.stop_ms", p.stopNs / persists / 1e6);
    out.set("trace.segments_opened",
            double(p.stats.segmentsOpened) / persists);
}

RunResult
runRecordContended(RunContext &ctx)
{
    RunResult res;
    const PayloadTable table(ctx.seed);
    const BTraceConfig cfg = defaultGeometry();
    constexpr unsigned kWarm = kProducers;  // ledger id of the set-up lap
    ctx.pinned.store(true);

    // Set-up: create the ring; the median creation time is reported
    // and the last ring is kept. One full lap written through it
    // before timing makes every page resident (untimed warm-up).
    std::vector<double> setups;
    Session session = timedSetup(cfg, setups);
    BTrace &bt = session.tracer();
    Producer warm(kWarm, table);
    while (bt.headPosition() < cfg.numBlocks)
        warm.leaseBatch(bt, kLeaseEntries, false);

    std::vector<Producer> prods;
    for (unsigned p = 0; p < kProducers; ++p)
        prods.emplace_back(p, table);
    PaddedCounter progress[kProducers];
    std::vector<SpanLog> logs;
    for (unsigned p = 0; p <= kProducers; ++p)
        logs.emplace_back(p);
    SpanLog *mainLog = ctx.traced ? &logs[kProducers] : nullptr;

    // One measured phase: both producers loop the fixed mix until
    // stopped; throughput is sampled in 200 ms windows after a warm-up.
    auto phase = [&](double seconds, bool traced) {
        std::atomic<bool> stop{false};
        std::vector<std::unique_ptr<TimedTracer>> wrappers;
        std::vector<std::thread> threads;
        for (unsigned p = 0; p < kProducers; ++p) {
            SpanLog *log = traced ? &logs[p] : nullptr;
            wrappers.push_back(std::make_unique<TimedTracer>(bt, log));
            Tracer *tr = traced ? static_cast<Tracer *>(wrappers[p].get())
                                : static_cast<Tracer *>(&bt);
            threads.emplace_back([&, p, tr, log] {
                // Pinned: which vCPUs the two writers share decides how
                // fast their shared words move between them, and left
                // to the scheduler that changes from run to run.
                if (!pinToCpu(1 + p))
                    ctx.pinned.store(false);
                Producer &me = prods[p];
                ScopedSpan span(log, "bench.producer");
                while (!stop.load(std::memory_order_relaxed)) {
                    const int64_t c0 = traced ? nowNs() : 0;
                    for (unsigned i = 0; i < kSinglesPerCycle; ++i)
                        me.record(*tr, traced);
                    for (unsigned j = 0; j < kLeasesPerCycle; ++j)
                        me.leaseBatch(*tr, kLeaseEntries, traced);
                    if (traced)
                        me.writeNs += double(nowNs() - c0);
                    progress[p].value.store(me.seq,
                                            std::memory_order_relaxed);
                }
                if (log)
                    log->chargeChild("core.write", me.writeNs);
            });
        }
        auto total = [&] {
            uint64_t s = 0;
            for (auto &c : progress)
                s += c.value.load(std::memory_order_relaxed);
            return s;
        };
        const double warmup = 0.3, window = 0.2;
        std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
        std::vector<double> rates;
        uint64_t last = total();
        int64_t lastT = nowNs();
        const int64_t end = lastT + int64_t((seconds - warmup) * 1e9);
        while (nowNs() < end) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(window));
            const uint64_t cur = total();
            const int64_t t = nowNs();
            rates.push_back(double(cur - last) / double(t - lastT) * 1e3);
            last = cur;
            lastT = t;
        }
        stop.store(true);
        for (auto &t : threads)
            t.join();
        return std::make_pair(median(rates), std::move(wrappers));
    };

    double throughput = 0.0;
    if (!ctx.traced) {
        throughput = phase(ctx.seconds * 0.8, false).first;
    } else {
        const double untraced = phase(ctx.seconds * 0.4, false).first;
        const BTraceCounters::Snapshot c0 = bt.countersSnapshot();
        uint64_t before = 0;
        for (auto &p : prods)
            before += p.seq;
        auto [traced, wrappers] = phase(ctx.seconds * 0.4, true);
        const BTraceCounters::Snapshot dc = bt.countersSnapshot() - c0;
        uint64_t recs = 0;
        for (auto &p : prods)
            recs += p.seq;
        recs -= before;
        const double k = std::max<double>(1.0, double(recs)) / 1e3;
        res.set("bench.untraced_mrec_s", untraced);
        res.set("bench.traced_mrec_s", traced);
        res.set("bench.trace_overhead_pct",
                100.0 * (untraced - traced) / untraced);
        res.set("core.shared_rmws_per_rec",
                double(dc.sharedRmws) / (k * 1e3));
        res.set("core.advances_per_krec", double(dc.advances) / k);
        res.set("core.skips_per_krec", double(dc.skips) / k);
        res.set("core.would_block_per_krec", double(dc.wouldBlock) / k);
        res.set("core.entries_per_lease",
                double(dc.leaseEntries) /
                    std::max<double>(1.0, double(dc.leases)));
        CallSampler rec, entry, close, claim, alloc, conf;
        for (unsigned p = 0; p < kProducers; ++p) {
            rec.merge(prods[p].recordNs);
            entry.merge(prods[p].entryNs);
            close.merge(prods[p].closeNs);
            claim.merge(wrappers[p]->claimNs);
            alloc.merge(wrappers[p]->allocNs);
            conf.merge(wrappers[p]->confirmNs);
        }
        res.set("core.record_ns", median(rec.values()));
        res.set("core.record_p99_ns", quantile(rec.values(), 0.99));
        res.set("core.lease_entry_ns", median(entry.values()));
        res.set("core.lease_close_ns", median(close.values()));
        res.set("core.lease_claim_ns", median(claim.values()));
        res.set("core.allocate_ns", median(alloc.values()));
        res.set("core.confirm_ns", median(conf.values()));
        throughput = traced;
    }

    // The trigger: snapshot the ring, check it, then persist it.
    Dump dump;
    {
        ScopedSpan s(mainLog, "core.dump");
        const int64_t t0 = nowNs();
        dump = bt.dump();
        const double ns = double(nowNs() - t0);
        res.set("core.dump_ms", ns / 1e6);
        res.set("core.dump_ns_per_rec",
                ns / std::max<double>(1.0, double(dump.entries.size())));
    }
    checkAudit(bt, res, "record-contended");
    const uint64_t window = ringRecordBound(cfg);
    Ledger ledger(table, kProducers + 1);
    for (unsigned p = 0; p < kProducers; ++p)
        ledger.setProduced(p, prods[p].seq, window);
    ledger.setProduced(kWarm, warm.seq, window);
    double latest = 0.0, fragments = 0.0, loss = 0.0, analysisNs = 0.0;
    checkRecords(ledger, table, window, dump.entries,
                 bt.capacityBytes(), kProducers, res, mainLog, latest,
                 fragments, loss, analysisNs);

    const PersistOutcome po = persistThroughDaemon(
        std::move(session), ctx.workDir + "/record-contended", mainLog,
        res);
    Ledger persisted(table, kProducers + 1);
    for (unsigned p = 0; p <= kProducers; ++p)
        persisted.setProduced(p, ledger.produced(p), window);
    for (const DumpEntry &e : po.segments.entries)
        persisted.check(e, res);
    // The daemon reads the same quiesced ring the snapshot did.
    uint64_t notPersisted = 0;
    for (const DumpEntry &e : dump.entries) {
        const unsigned p = StampCodec::producerOf(e.stamp);
        const uint64_t seq = StampCodec::seqOf(e.stamp);
        if (p <= kProducers && ledger.seen(p, seq) &&
            !persisted.seen(p, seq))
            ++notPersisted;
    }
    res.set("daemon.persist_missing_rec", double(notPersisted));

    std::vector<Producer *> ps;
    for (auto &p : prods)
        ps.push_back(&p);
    res.attempted = warm.seq;
    for (auto &p : prods)
        res.attempted += p.seq;
    res.failed = 0;
    res.set("throughput_mrec_s", throughput);
    res.set("setup_s", median(setups));
    res.set("latest_fragment_mb", latest / kMiB);
    res.set("core.model_latency_ns", modelLatency(ps));
    res.set("segment_bytes_per_rec",
            double(po.segments.fileBytes) /
                std::max<double>(1.0, double(po.segments.records)));
    res.set("analysis.continuity_ms", analysisNs / 1e6);
    res.set("analysis.fragments", fragments);
    res.set("analysis.loss_rate", loss);
    reportPersist(po, 1.0, res);
    if (ctx.traced) {
        std::vector<const SpanLog *> all;
        for (auto &l : logs)
            all.push_back(&l);
        reportSpans(all, ctx.workDir + "/spans-record-contended.jsonl",
                    res);
    }
    return res;
}

namespace {

/**
 * drain-pipeline round: records per producer (the round's segments fit
 * the daemon's default retention of 8 x 4 MB), and the credit window:
 * producers wait while the ring's head is more than this many block
 * positions past the head the consumer saw when its latest drain
 * began. A window counted in persisted records would leak credit with
 * every record the drain loses and stall the loop for good.
 */
constexpr uint64_t kRoundPerProducer = 1u << 19;
constexpr uint64_t kCreditPositions = 768;  // a quarter of the ring

/**
 * Fault F1 lost 0.2-16% of a daemon round's records on the reference
 * host, 1-5% over a run's rounds. A run whose daemon rounds miss more
 * than this share fails the oracle: the loss has grown past the known
 * fault.
 */
constexpr double kMissingCeiling = 0.10;

/** How one drain-pipeline round consumes the ring. */
enum class Consumer
{
    Daemon,      //!< ConsumerDaemon::drainOnce into segments (timed)
    DumpOnly,    //!< BTrace::dumpFrom alone, no persistence
};

struct RoundOutcome
{
    double setupS = 0.0;
    double seconds = 0.0;      //!< first write to stop() return
    uint64_t durable = 0;      //!< records the consumer delivered
    uint64_t missing = 0;      //!< produced records not delivered
    double consumeNs = 0.0;    //!< wall time in drainOnce / dumpFrom
    double consumeCpuNs = 0.0;  //!< consumer thread CPU, stop() included
    uint64_t consumes = 0;
    double stopNs = 0.0;
    double waitNs = 0.0;       //!< producers waiting for credit
    double produceNs = 0.0;    //!< producers' wall time
    uint64_t segmentsOpened = 0;
    uint64_t segmentBytes = 0;
    uint64_t countedLossBlocks = 0;  //!< loss the daemon reported
    uint64_t positions = 0;          //!< block positions the round used
    double latestBytes = 0.0;
    double fragments = 0.0;
    double lossRate = 0.0;
    double analysisNs = 0.0;
    double snapshotNs = 0.0;   //!< Tracer::dump of the quiesced ring
    double logCost = 0.0, costWeight = 0.0;
};

/**
 * One closed-loop round: two producers write kRoundPerProducer
 * records each through 32-entry leases, never more than
 * kCreditPositions block positions ahead of the consumer, so the ring
 * never laps; one consumer thread drains back-to-back; then stop().
 * A DumpOnly consumer, which has nothing to persist, first waits for
 * the head to move @p pace block positions, so that its walks are as
 * long as a daemon's drains.
 */
RoundOutcome
drainRound(RunContext &ctx, const PayloadTable &table, Consumer kind,
           double pace, std::vector<SpanLog> *logs, RunResult &res)
{
    RoundOutcome ro;
    const BTraceConfig cfg = defaultGeometry();
    const std::string dir = ctx.workDir + "/drain-pipeline";
    SpanLog *consumerLog = logs ? &(*logs)[kProducers] : nullptr;

    resetDir(dir);
    const int64_t s0 = nowNs();
    Session session = createSession(cfg);
    std::unique_ptr<ConsumerDaemon> daemon;
    if (kind != Consumer::DumpOnly) {
        DaemonOptions opts;
        opts.outDir = dir;
        auto made = ConsumerDaemon::make(std::move(session), opts);
        BTRACE_ASSERT(made.ok(), "perfbench: ConsumerDaemon::make failed");
        daemon = std::move(made.value());
    }
    BTrace &bt = daemon ? daemon->session().tracer() : session.tracer();
    ro.setupS = double(nowNs() - s0) / 1e9;

    PaddedCounter consumerView;  // head position at the latest drain
    std::atomic<bool> go{false};
    std::atomic<unsigned> finished{0};
    std::vector<Producer> prods;
    for (unsigned p = 0; p < kProducers; ++p)
        prods.emplace_back(p, table);
    std::vector<DumpEntry> consumed;  // DumpOnly: what dumpFrom returned

    std::vector<std::thread> threads;
    for (unsigned p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            Producer &me = prods[p];
            SpanLog *log = logs ? &(*logs)[p] : nullptr;
            while (!go.load(std::memory_order_acquire)) {
            }
            ScopedSpan span(log, "bench.producer");
            const int64_t t0 = nowNs();
            while (me.seq < kRoundPerProducer) {
                auto ahead = [&] {
                    return bt.headPosition() -
                           consumerView.value.load(
                               std::memory_order_acquire);
                };
                if (ahead() > kCreditPositions) {
                    const int64_t w0 = nowNs();
                    while (ahead() > kCreditPositions)
                        std::this_thread::yield();
                    me.waitNs += double(nowNs() - w0);
                }
                const int64_t c0 = log ? nowNs() : 0;
                me.leaseBatch(bt, uint32_t(std::min<uint64_t>(
                                      kLeaseEntries,
                                      kRoundPerProducer - me.seq)),
                              log != nullptr);
                if (log)
                    me.writeNs += double(nowNs() - c0);
            }
            me.busyNs = double(nowNs() - t0);
            if (log)
                log->chargeChild("core.write", me.writeNs);
            finished.fetch_add(1, std::memory_order_release);
        });
    }

    DumpCursor cursor;
    const uint64_t head0 = bt.headPosition();
    consumerView.value.store(head0);
    const int64_t start = nowNs();
    go.store(true, std::memory_order_release);
    uint64_t total = 0;
    int idle = 0;
    for (;;) {
        bool done = finished.load(std::memory_order_acquire) == kProducers;
        if (!daemon) {
            const uint64_t from = consumerView.value.load();
            while (!done && double(bt.headPosition() - from) < pace)
                done = finished.load(std::memory_order_acquire) ==
                       kProducers;
        }
        consumerView.value.store(bt.headPosition(),
                                 std::memory_order_release);
        const int64_t t0 = nowNs(), c0 = threadCpuNs();
        uint64_t n = 0;
        if (daemon) {
            ScopedSpan span(consumerLog, "daemon.drain_once");
            Expected<uint64_t> r = daemon->drainOnce();
            if (!r.ok()) {
                res.violation("drainOnce: " + r.status().toString());
                break;
            }
            n = r.value();
        } else {
            // The walk the daemon makes: its options, its closeActive.
            ScopedSpan span(consumerLog, "core.dump_from");
            Dump d = bt.dumpFrom(
                cursor, DumpOptions{DaemonOptions{}.closeActive, false});
            n = d.entries.size();
            consumed.insert(consumed.end(), d.entries.begin(),
                            d.entries.end());
        }
        ro.consumeNs += double(nowNs() - t0);
        ro.consumeCpuNs += double(threadCpuNs() - c0);
        ++ro.consumes;
        total += n;
        // Once producers are done, drain until two passes come back
        // empty; the open blocks' tails are left to the final pass.
        idle = (done && n == 0) ? idle + 1 : 0;
        if (idle >= 2)
            break;
    }
    for (auto &t : threads)
        t.join();
    const int64_t t0 = nowNs(), c0 = threadCpuNs();
    if (daemon) {
        ScopedSpan span(consumerLog, "daemon.stop");
        daemon->stop();
    } else {
        ScopedSpan span(consumerLog, "core.dump_from");
        Dump d = bt.dumpFrom(cursor, DumpOptions{true, false});
        consumed.insert(consumed.end(), d.entries.begin(),
                        d.entries.end());
    }
    const int64_t end = nowNs();
    ro.consumeCpuNs += double(threadCpuNs() - c0);
    ro.positions = bt.headPosition() - head0;
    ro.stopNs = double(end - t0);
    ro.seconds = double(end - start) / 1e9;

    for (const Producer &p : prods) {
        ro.waitNs += p.waitNs;
        ro.produceNs += p.busyNs;
        ro.logCost += p.logCost;
        ro.costWeight += p.costWeight;
    }

    // Oracle: every delivered record known, delivered once, intact;
    // segment headers agree with their scans; the quiesced ring
    // audits clean and its snapshot passes the same ledger.
    Ledger ledger(table, kProducers);
    for (unsigned p = 0; p < kProducers; ++p)
        ledger.setProduced(p, prods[p].seq, prods[p].seq);
    const std::vector<DumpEntry> *entries = &consumed;
    SegmentCheck sc;
    if (daemon) {
        ScopedSpan span(consumerLog, "trace.read_segments");
        sc = checkSegments(dir, res);
        entries = &sc.entries;
        const DaemonStats st = daemon->stats();
        if (sc.records != st.entries)
            res.violation("segments hold " + std::to_string(sc.records) +
                          " records, the daemon wrote " +
                          std::to_string(st.entries));
        ro.segmentsOpened = st.segmentsOpened;
        ro.segmentBytes = sc.fileBytes;
        ro.countedLossBlocks =
            st.overwrittenPositions + st.skippedBlocks + st.abandonedBlocks;
    }
    for (const DumpEntry &e : *entries)
        ledger.check(e, res);
    for (unsigned p = 0; p < kProducers; ++p)
        ro.missing += ledger.missing(p);
    ro.durable = entries->size();
    checkAudit(bt, res, "drain-pipeline");

    const uint64_t window = ringRecordBound(cfg);
    Ledger ring(table, kProducers);
    for (unsigned p = 0; p < kProducers; ++p)
        ring.setProduced(p, prods[p].seq, window);
    const int64_t d0 = nowNs();
    const Dump snap = bt.dump();
    ro.snapshotNs = double(nowNs() - d0);
    checkRecords(ring, table, window,
                 snap.entries, bt.capacityBytes(), kProducers, res,
                 consumerLog, ro.latestBytes, ro.fragments, ro.lossRate,
                 ro.analysisNs);
    return ro;
}

} // namespace

RunResult
runDrainPipeline(RunContext &ctx)
{
    RunResult res;
    const PayloadTable table(ctx.seed);
    std::vector<SpanLog> logs;
    for (unsigned p = 0; p <= kProducers; ++p)
        logs.emplace_back(p);

    // Whole rounds until the time is used. A traced run cycles
    // through an untraced daemon round (the overhead baseline), a
    // traced daemon round, and a dumpFrom-only round that times the
    // core's share of a drain.
    std::vector<double> setups, rates, wallRates, bytesPerRec, latest, lat,
        untraced;
    RoundOutcome sum, dumpOnly;
    uint64_t rounds = 0, lost = 0, countedBlocks = 0;
    double unaccounted = 0.0, daemonRounds = 0.0;
    const int64_t deadline = nowNs() + int64_t(ctx.seconds * 0.85e9);
    unsigned round = 0;
    double pace = 0.0;
    do {
        const bool traced = ctx.traced && round % 3 != 0;
        const Consumer kind = traced && round % 3 == 2 ? Consumer::DumpOnly
                                                       : Consumer::Daemon;
        RoundOutcome ro = drainRound(ctx, table, kind, pace,
                                     traced ? &logs : nullptr, res);
        // Records the drain loses are fault F1 (see README): how many
        // varies from run to run, so they are reported as a layer
        // metric and on stderr, not as failed operations; a run
        // losing more than kMissingCeiling fails the oracle.
        res.attempted += kProducers * kRoundPerProducer;
        setups.push_back(ro.setupS);
        ++round;
        if (kind == Consumer::DumpOnly) {
            dumpOnly.consumeNs += ro.consumeNs;
            dumpOnly.durable += ro.durable;
            dumpOnly.missing += ro.missing;
            continue;
        }
        // The next DumpOnly round walks as far per call as this one's
        // drains did.
        pace = double(ro.positions) /
               double(std::max<uint64_t>(1, ro.consumes));
        lost += ro.missing;
        countedBlocks += ro.countedLossBlocks;
        ++daemonRounds;
        // Missing records beyond what the reported lost blocks could
        // hold at this round's mean records per block position.
        const double perBlock = double(kProducers * kRoundPerProducer) /
                                double(std::max<uint64_t>(1, ro.positions));
        unaccounted += std::max(
            0.0, double(ro.missing) - double(ro.countedLossBlocks) * perBlock);
        // Durable records per second of the consumer thread's CPU
        // time: the daemon is the bottleneck, and its wall time also
        // holds the waits for the shared disk to flush segments, which
        // on the reference host moved round times by a third between
        // minutes. The wall-clock rate is reported per layer.
        const double rate = double(ro.durable) / ro.consumeCpuNs * 1e3;
        if (ctx.traced && !traced) {
            untraced.push_back(rate);
            continue;
        }
        rates.push_back(rate);
        wallRates.push_back(double(ro.durable) / ro.seconds / 1e6);
        bytesPerRec.push_back(double(ro.segmentBytes) /
                              std::max<double>(1.0, double(ro.durable)));
        latest.push_back(ro.latestBytes / kMiB);
        lat.push_back(ro.costWeight > 0
                          ? std::exp(ro.logCost / ro.costWeight)
                          : 0.0);
        sum.consumeNs += ro.consumeNs;
        sum.consumeCpuNs += ro.consumeCpuNs;
        sum.consumes += ro.consumes;
        sum.durable += ro.durable;
        sum.stopNs += ro.stopNs;
        sum.seconds += ro.seconds;
        sum.waitNs += ro.waitNs;
        sum.produceNs += ro.produceNs;
        sum.segmentsOpened += ro.segmentsOpened;
        sum.fragments += ro.fragments;
        sum.lossRate += ro.lossRate;
        sum.analysisNs += ro.analysisNs;
        sum.snapshotNs += ro.snapshotNs;
        ++rounds;
    } while (nowNs() < deadline || (ctx.traced && round < 6));
    const double produced = daemonRounds * kProducers * kRoundPerProducer;
    std::fprintf(stderr,
                 "drain-pipeline: %llu of %llu records missing from the "
                 "segments; the daemon reported %llu lost blocks\n",
                 (unsigned long long)lost, (unsigned long long)produced,
                 (unsigned long long)countedBlocks);
    if (double(lost) > kMissingCeiling * produced)
        res.violation("drain-pipeline: " + std::to_string(lost) + " of " +
                      std::to_string(uint64_t(produced)) +
                      " records not persisted, above the F1 ceiling of " +
                      std::to_string(int(kMissingCeiling * 100)) + "%");
    if (dumpOnly.durable > 0)
        std::fprintf(stderr,
                     "drain-pipeline: the dumpFrom-only rounds missed %llu "
                     "records and delivered %llu\n",
                     (unsigned long long)dumpOnly.missing,
                     (unsigned long long)dumpOnly.durable);

    res.set("throughput_mrec_s", median(rates));
    res.set("setup_s", median(setups));
    res.set("segment_bytes_per_rec", median(bytesPerRec));
    res.set("latest_fragment_mb", median(latest));
    if (ctx.traced) {
        res.set("core.model_latency_ns", median(lat));
        const double n = double(std::max<uint64_t>(1, rounds));
        const double recs = std::max<double>(1.0, double(sum.durable));
        const double drainNs = sum.consumeNs / recs;
        const double dumpNs =
            dumpOnly.consumeNs /
            std::max<double>(1.0, double(dumpOnly.durable));
        res.set("bench.untraced_mrec_s", median(untraced));
        res.set("bench.traced_mrec_s", median(rates));
        res.set("bench.trace_overhead_pct",
                100.0 * (median(untraced) - median(rates)) /
                    median(untraced));
        res.set("daemon.wall_mrec_s", median(wallRates));
        res.set("daemon.drain_ns_per_rec", drainNs);
        res.set("daemon.drain_cpu_ns_per_rec", sum.consumeCpuNs / recs);
        res.set("daemon.busy_share", sum.consumeNs / (sum.seconds * 1e9));
        res.set("daemon.rec_per_drain",
                recs / std::max<double>(1.0, double(sum.consumes)));
        res.set("daemon.stop_ms", sum.stopNs / n / 1e6);
        res.set("daemon.persist_ns_per_rec", drainNs - dumpNs);
        res.set("daemon.lost_rec", double(lost) / daemonRounds);
        res.set("daemon.unaccounted_rec", unaccounted / daemonRounds);
        res.set("core.dump_ns_per_rec", dumpNs);
        res.set("core.dump_ms", sum.snapshotNs / n / 1e6);
        res.set("trace.segments_opened", double(sum.segmentsOpened) / n);
        res.set("bench.credit_wait_share", sum.waitNs / sum.produceNs);
        res.set("analysis.continuity_ms", sum.analysisNs / n / 1e6);
        res.set("analysis.fragments", sum.fragments / n);
        res.set("analysis.loss_rate", sum.lossRate / n);
        std::vector<const SpanLog *> all;
        for (auto &l : logs)
            all.push_back(&l);
        reportSpans(all, ctx.workDir + "/spans-drain-pipeline.jsonl", res);
    }
    return res;
}

} // namespace perfbench
