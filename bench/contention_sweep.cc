/**
 * @file
 * Contention-sweep bench: real-thread 1→N producer sweep with
 * cycle-accurate phase attribution (DESIGN.md §14, EXPERIMENTS.md).
 *
 * For every (backend, mode, thread-count) point this binary builds a
 * fresh BTrace, arms a fresh CostProfiler, pins each producer to a
 * core, warms up unprofiled, then hammers the instance for a fixed
 * wall interval. The output is a per-point breakdown of where the
 * nanoseconds go — claim FAA, bump serve, confirm publish, retry
 * backoff, lease renewal, control poll — for both the single-entry
 * fast path and the leased batch path, so the knee of the contention
 * curve can be attributed to a specific protocol phase instead of
 * guessed at.
 *
 * ThreadPerfCounters adds per-op hardware counters (cycles, cache
 * misses, branch misses) when perf_event_open is permitted; anywhere
 * it is not (seccomp, perf_event_paranoid, VMs) the sweep degrades to
 * TSC-only timing with a one-line warning, never a failure.
 *
 * Results land in BENCH_contention.json (override with --json=PATH)
 * in the schema scripts/check_bench_schema.py validates. Exit status
 * is nonzero when any point records nothing or fails its audit.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "bench_util.h"
#include "common/cacheline.h"
#include "core/auditor.h"
#include "core/btrace.h"
#include "obs/profiler.h"

namespace btrace {
namespace {

struct Flags
{
    std::vector<unsigned> threadCounts = {1, 2, 4, 8, 16, 32, 64};
    double secs = 1.0;
    uint32_t leaseEntries = 32;
    uint32_t payload = 48;
    std::vector<std::string> backends = {"private"};
    std::string jsonPath = "BENCH_contention.json";
    bool quick = false;
    bool pin = true;
};

std::vector<std::string>
splitCsv(const char *s)
{
    std::vector<std::string> out;
    std::string cur;
    for (; *s != '\0'; ++s) {
        if (*s == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += *s;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

Flags
parseFlags(int argc, char **argv)
{
    Flags f;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto val = [&](const char *name) -> const char * {
            const std::size_t len = std::strlen(name);
            if (std::strncmp(a, name, len) == 0 && a[len] == '=')
                return a + len + 1;
            return nullptr;
        };
        if (const char *v = val("--threads")) {
            f.threadCounts.clear();
            for (const std::string &t : splitCsv(v))
                f.threadCounts.push_back(
                    std::max(1u, unsigned(std::atoi(t.c_str()))));
        } else if (const char *v2 = val("--secs")) {
            f.secs = std::atof(v2);
        } else if (const char *v3 = val("--lease")) {
            f.leaseEntries = uint32_t(std::atoi(v3));
        } else if (const char *v4 = val("--payload")) {
            f.payload = uint32_t(std::atoi(v4));
        } else if (const char *v5 = val("--backends")) {
            f.backends = splitCsv(v5);
        } else if (const char *v6 = val("--json")) {
            f.jsonPath = v6;
        } else if (std::strcmp(a, "--quick") == 0) {
            f.quick = true;
        } else if (std::strcmp(a, "--no-pin") == 0) {
            f.pin = false;
        } else if (std::strcmp(a, "--help") == 0) {
            std::printf("flags: --threads=CSV --secs=S --lease=N "
                        "--payload=B --backends=private,shm,file "
                        "--json=PATH --no-pin --quick\n");
            std::exit(0);
        }
    }
    if (f.quick) {
        f.threadCounts = {1, 2, 4};
        f.secs = std::min(f.secs, 0.3);
    }
    if (f.threadCounts.empty())
        f.threadCounts = {1};
    std::sort(f.threadCounts.begin(), f.threadCounts.end());
    f.threadCounts.erase(
        std::unique(f.threadCounts.begin(), f.threadCounts.end()),
        f.threadCounts.end());
    return f;
}

using Clock = std::chrono::steady_clock;

constexpr int sampleEvery = 64;
constexpr uint64_t warmupOps = 4096;

/** Pin the calling thread to @p cpu; best-effort, reports success. */
bool
pinSelf(unsigned cpu)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()),
            &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) ==
           0;
#else
    (void)cpu;
    return false;
#endif
}

/** One (mode, thread-count) measurement. */
struct PointResult
{
    unsigned threads = 0;
    unsigned cores = 0;
    uint64_t totalOps = 0;
    double elapsedSec = 0.0;
    double opsPerSec = 0.0;
    double meanNs = 0.0;  //!< sampled op latency, histogram mean
    uint64_t p50Ns = 0;
    uint64_t p99Ns = 0;
    uint64_t sharedRmws = 0;
    double rmwsPerOp = 0.0;
    bool pinned = false;  //!< every producer pinned successfully
    bool auditOk = false;
    std::string auditSummary;
    ProfileSnapshot profile;
    bool perfOk = false;  //!< every producer's counter group opened
    PerfSample perf;      //!< summed across producers when perfOk
};

std::atomic<bool> perfWarned{false};
std::string firstPerfError;

/**
 * Run @p perOp (returns true when one op completed) on @p threads
 * pinned producers against @p bt: unprofiled warmup, then a profiled
 * timed interval of @p secs.
 */
template <typename PerOp>
PointResult
runPoint(BTrace &bt, CostProfiler &prof, unsigned threads,
         unsigned cores, double secs, PerOp &&perOp)
{
    PointResult r;
    r.threads = threads;
    r.cores = cores;
    // One cache line per producer's op count: a shared line here
    // would make the sweep measure its own false sharing.
    std::vector<CacheAligned<uint64_t>> ops(threads);
    std::vector<PerfSample> perfSamples(threads);
    std::vector<char> perfGood(threads, 0);
    std::vector<char> pinGood(threads, 0);
    ConcurrentHistogram latNs(threads);
    std::atomic<bool> stop{false};
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};

    const uint64_t rmws0 = bt.countersSnapshot().sharedRmws;
    std::vector<std::thread> producers;
    producers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        producers.emplace_back([&, i]() {
            pinGood[i] = pinSelf(i) ? 1 : 0;
            // Warmup runs before the profiler is armed: block leases,
            // page faults, and branch predictors settle without
            // polluting the phase histograms.
            for (uint64_t w = 0;
                 w < warmupOps && !stop.load(std::memory_order_acquire);
                 ++w)
                perOp(i, *ops[i]);
            *ops[i] = 0;
            ThreadPerfCounters perf;
            if (perf.open()) {
                perfGood[i] = 1;
            } else if (!perfWarned.exchange(true)) {
                firstPerfError = perf.error();
                std::fprintf(stderr,
                             "note: hardware counters off — %s; "
                             "TSC-only timing\n",
                             perf.error().c_str());
            }
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            perf.reset();
            while (!stop.load(std::memory_order_acquire)) {
                const bool timed = (*ops[i] % sampleEvery) == 0;
                const auto s0 =
                    timed ? Clock::now() : Clock::time_point{};
                if (perOp(i, *ops[i]))
                    ++*ops[i];
                if (timed) {
                    const auto ns =
                        std::chrono::duration<double, std::nano>(
                            Clock::now() - s0)
                            .count();
                    latNs.addToShard(i, uint64_t(ns));
                }
            }
            perfSamples[i] = perf.read();
        });
    }
    while (ready.load() != threads)
        std::this_thread::yield();
    // Arm only for the timed interval; warmup stayed invisible.
    bt.attachProfiler(&prof);
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    stop.store(true, std::memory_order_release);
    for (std::thread &t : producers)
        t.join();
    r.elapsedSec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    bt.attachProfiler(nullptr);
    r.sharedRmws = bt.countersSnapshot().sharedRmws - rmws0;

    for (const CacheAligned<uint64_t> &o : ops)
        r.totalOps += *o;
    r.opsPerSec =
        r.elapsedSec > 0 ? double(r.totalOps) / r.elapsedSec : 0.0;
    r.rmwsPerOp = r.totalOps > 0
                      ? double(r.sharedRmws) / double(r.totalOps)
                      : 0.0;
    const HistogramSnapshot h = latNs.snapshot();
    r.meanNs = h.total > 0 ? double(h.sum) / double(h.total) : 0.0;
    r.p50Ns = h.quantile(0.50);
    r.p99Ns = h.quantile(0.99);
    r.pinned = std::all_of(pinGood.begin(), pinGood.end(),
                           [](char c) { return c != 0; });
    r.perfOk = std::all_of(perfGood.begin(), perfGood.end(),
                           [](char c) { return c != 0; });
    if (r.perfOk) {
        for (const PerfSample &s : perfSamples) {
            r.perf.cycles += s.cycles;
            r.perf.cacheMisses += s.cacheMisses;
            r.perf.branchMisses += s.branchMisses;
        }
    }
    r.profile = prof.snapshot();

    const AuditReport rep = BTraceAuditor(bt).audit();
    r.auditOk = rep.ok();
    r.auditSummary = rep.summary();
    return r;
}

PointResult
runSingle(const Flags &f, const BTraceConfig &cfg, unsigned threads)
{
    BTrace bt(cfg);
    CostProfiler prof(threads);
    const auto cores = unsigned(cfg.cores);
    // One stamp slot per producer index, cache-line padded so the
    // sweep never measures its own false sharing.
    struct alignas(64) Slot
    {
        uint64_t stamp = 0;
    };
    std::vector<Slot> stamps(threads);
    for (unsigned i = 0; i < threads; ++i)
        stamps[i].stamp = (uint64_t(i) + 1) << 40;
    return runPoint(
        bt, prof, threads, cores, f.secs,
        [&bt, &f, &stamps, cores](unsigned i, uint64_t ops) {
            (void)ops;
            return bt.record(uint16_t(i % cores), 1000 + i,
                             ++stamps[i].stamp, f.payload);
        });
}

PointResult
runLeased(const Flags &f, const BTraceConfig &cfg, unsigned threads)
{
    BTrace bt(cfg);
    CostProfiler prof(threads);
    const auto cores = unsigned(cfg.cores);
    struct alignas(64) Tls
    {
        Lease lease;
        uint64_t stamp = 0;
    };
    // One cache-line-padded slot per producer index; threads never
    // share a slot.
    std::vector<Tls> tls(threads);
    PointResult r = runPoint(
        bt, prof, threads, cores, f.secs,
        [&bt, &f, &tls, cores](unsigned i, uint64_t ops) {
            (void)ops;
            Tls &t = tls[i];
            const auto core = uint16_t(i % cores);
            const uint32_t tid = 2000 + i;
            if (t.stamp == 0)
                t.stamp = (uint64_t(i) + 1) << 40;
            WriteTicket w = t.lease.closed()
                                ? WriteTicket{}
                                : t.lease.allocate(f.payload);
            if (!w.ok()) {
                t.lease.close();
                t.lease =
                    bt.lease(core, tid, f.payload, f.leaseEntries);
                if (!t.lease.ok()) {
                    std::this_thread::yield();
                    return false;
                }
                w = t.lease.allocate(f.payload);
                if (!w.ok())
                    return false;
            }
            writeNormal(w.dst, ++t.stamp, core, tid, 0, f.payload);
            t.lease.confirm(w);
            return true;
        });
    for (Tls &t : tls)
        t.lease.close();
    return r;
}

void
printPoint(const char *mode, const PointResult &r)
{
    std::printf("%-7s %3u thr %12.0f ops/s  mean %7.0f ns  "
                "p99 %8llu ns  %.3f RMWs/op  %s%s\n",
                mode, r.threads, r.opsPerSec, r.meanNs,
                static_cast<unsigned long long>(r.p99Ns), r.rmwsPerOp,
                r.auditOk ? "audit ok" : "audit FAILED",
                r.pinned ? "" : "  (unpinned)");
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        const PhaseStats &p =
            r.profile.of(static_cast<ProfilePhase>(i));
        if (p.count == 0)
            continue;
        std::printf("          %-12s mean %7.1f ns  p99 %7llu ns  "
                    "(%llu probes)\n",
                    profilePhaseName(static_cast<ProfilePhase>(i)),
                    p.meanNs,
                    static_cast<unsigned long long>(p.p99Ns),
                    static_cast<unsigned long long>(p.count));
    }
    if (!r.auditOk)
        std::printf("%s\n", r.auditSummary.c_str());
}

void
jsonPoint(JsonWriter &jw, const PointResult &r)
{
    jw.beginObject();
    jw.field("threads", static_cast<unsigned long long>(r.threads));
    jw.field("cores", static_cast<unsigned long long>(r.cores));
    jw.field("total_ops", static_cast<unsigned long long>(r.totalOps));
    jw.field("elapsed_sec", r.elapsedSec);
    jw.field("ops_per_sec", r.opsPerSec);
    jw.beginObject("ns_per_op");
    jw.field("mean", r.meanNs);
    jw.field("p50", static_cast<unsigned long long>(r.p50Ns));
    jw.field("p99", static_cast<unsigned long long>(r.p99Ns));
    jw.endObject();
    jw.field("shared_rmws",
             static_cast<unsigned long long>(r.sharedRmws));
    jw.field("rmws_per_op", r.rmwsPerOp);
    jw.field("pinned", r.pinned);
    jw.field("audit_ok", r.auditOk);
    jw.beginObject("phases");
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        const PhaseStats &p =
            r.profile.of(static_cast<ProfilePhase>(i));
        jw.beginObject(
            profilePhaseName(static_cast<ProfilePhase>(i)));
        jw.field("count", static_cast<unsigned long long>(p.count));
        jw.field("total_ns",
                 static_cast<unsigned long long>(p.totalNs));
        jw.field("mean_ns", p.meanNs);
        jw.field("p50_ns", static_cast<unsigned long long>(p.p50Ns));
        jw.field("p99_ns", static_cast<unsigned long long>(p.p99Ns));
        jw.endObject();
    }
    jw.endObject();
    if (r.perfOk && r.totalOps > 0) {
        jw.beginObject("perf");
        jw.field("cycles_per_op",
                 double(r.perf.cycles) / double(r.totalOps));
        jw.field("cache_misses_per_op",
                 double(r.perf.cacheMisses) / double(r.totalOps));
        jw.field("branch_misses_per_op",
                 double(r.perf.branchMisses) / double(r.totalOps));
        jw.endObject();
    }
    jw.endObject();
}

int
run(int argc, char **argv)
{
    const Flags f = parseFlags(argc, argv);

    std::printf("contention_sweep — threads {");
    for (std::size_t i = 0; i < f.threadCounts.size(); ++i)
        std::printf("%s%u", i ? "," : "", f.threadCounts[i]);
    std::printf("}, payload %u B, lease %u entries, %.2f s/point\n",
                f.payload, f.leaseEntries, f.secs);

    auto makeCfg = [&](const std::string &backend, unsigned threads) {
        BTraceConfig cfg;
        cfg.blockSize = 1 << 16;
        cfg.cores = std::max(1u, (threads + 1) / 2);
        cfg.activeBlocks = 16 * cfg.cores;
        cfg.numBlocks = 8 * cfg.activeBlocks;
        if (!parseStorageKind(backend, cfg.storage)) {
            std::fprintf(stderr, "unknown backend '%s'\n",
                         backend.c_str());
            std::exit(2);
        }
        return cfg;
    };

    // One calibration readout for the header (points calibrate once
    // process-wide anyway; this surfaces the numbers in the JSON).
    const CostProfiler calib(1);

    JsonWriter jw(f.jsonPath);
    if (!jw.ok()) {
        std::fprintf(stderr, "cannot write %s\n", f.jsonPath.c_str());
        return 1;
    }
    jw.beginObject();
    jw.field("bench", std::string("contention_sweep"));
    jw.field("schema_version", 1ull);
    jw.field("payload_bytes",
             static_cast<unsigned long long>(f.payload));
    jw.field("lease_entries",
             static_cast<unsigned long long>(f.leaseEntries));
    jw.field("seconds_per_point", f.secs);
    jw.field("quick", f.quick);
    jw.field("tsc_ns_per_tick", calib.nsPerTick());
    jw.field("probe_overhead_ns", calib.probeOverheadNs());
    jw.beginArray("thread_counts");
    for (unsigned t : f.threadCounts)
        jw.element(static_cast<unsigned long long>(t));
    jw.endArray();

    bool fail = false;
    bool anyPerf = false;
    jw.beginArray("backends");
    for (const std::string &backend : f.backends) {
        jw.beginObject();
        jw.field("backend", backend);
        jw.beginObject("modes");
        for (const char *mode : {"single", "leased"}) {
            jw.beginArray(mode);
            for (unsigned threads : f.threadCounts) {
                const BTraceConfig cfg = makeCfg(backend, threads);
                const PointResult r =
                    std::strcmp(mode, "single") == 0
                        ? runSingle(f, cfg, threads)
                        : runLeased(f, cfg, threads);
                printPoint(mode, r);
                jsonPoint(jw, r);
                anyPerf = anyPerf || r.perfOk;
                if (r.totalOps == 0) {
                    std::fprintf(stderr,
                                 "FAIL: %s/%s/%u recorded zero ops\n",
                                 backend.c_str(), mode, threads);
                    fail = true;
                }
                if (!r.auditOk) {
                    std::fprintf(
                        stderr, "FAIL: %s/%s/%u failed its audit\n",
                        backend.c_str(), mode, threads);
                    fail = true;
                }
            }
            jw.endArray();
        }
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.field("perf_counters", anyPerf);
    if (!anyPerf && !firstPerfError.empty())
        jw.field("perf_error", firstPerfError);
    jw.endObject();
    jw.close();
    std::printf("wrote %s\n", f.jsonPath.c_str());
    return fail ? 1 : 0;
}

} // namespace
} // namespace btrace

int
main(int argc, char **argv)
{
    return btrace::run(argc, argv);
}
