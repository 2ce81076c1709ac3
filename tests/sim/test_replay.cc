/** @file Unit tests for the deterministic replay engine. */

#include <gtest/gtest.h>

#include <bit>

#include "analysis/continuity.h"
#include "core/auditor.h"
#include "core/btrace.h"
#include "sim/replay.h"
#include "workloads/catalog.h"

namespace btrace {
namespace {

ReplayOptions
quick(ReplayMode mode = ReplayMode::ThreadLevel)
{
    ReplayOptions opt;
    opt.mode = mode;
    opt.durationSec = 3.0;
    opt.rateScale = 0.3;
    return opt;
}

TracerFactoryOptions
smallFactory()
{
    TracerFactoryOptions fo;
    fo.capacityBytes = 2u << 20;
    return fo;
}

TEST(Replay, StampsAreContiguousFromOne)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("IM"), quick());
    ASSERT_FALSE(res.produced.empty());
    for (std::size_t i = 0; i < res.produced.size(); ++i)
        ASSERT_EQ(res.produced[i].stamp, i + 1);
}

TEST(Replay, ProducedVolumeTracksWorkloadRate)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions opt = quick();
    const Workload &wl = workloadByName("IM");
    const ReplayResult res = replay(*tracer, wl, opt);
    const double expected = wl.expectedBytes() * opt.rateScale *
                            (opt.durationSec / wl.durationSec);
    EXPECT_NEAR(res.producedBytes, expected, expected * 0.25);
}

TEST(Replay, DeterministicForSameSeed)
{
    const Workload &wl = workloadByName("Video-1");
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult a = replay(*t1, wl, quick());
    const ReplayResult b = replay(*t2, wl, quick());
    ASSERT_EQ(a.produced.size(), b.produced.size());
    EXPECT_EQ(a.dump.entries.size(), b.dump.entries.size());
    EXPECT_EQ(a.preemptedWrites, b.preemptedWrites);
    EXPECT_DOUBLE_EQ(a.latencyNs.mean(), b.latencyNs.mean());
}

TEST(Replay, DifferentSeedsProduceDifferentSchedules)
{
    const Workload &wl = workloadByName("Video-1");
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions o1 = quick(), o2 = quick();
    o2.seed = 99;
    const ReplayResult a = replay(*t1, wl, o1);
    const ReplayResult b = replay(*t2, wl, o2);
    EXPECT_NE(a.produced.size(), b.produced.size());
}

TEST(Replay, CoreLevelNeverPreemptsWrites)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res = replay(
        *tracer, workloadByName("eShop-2"), quick(ReplayMode::CoreLevel));
    EXPECT_EQ(res.preemptedWrites, 0u);
    EXPECT_EQ(res.unconfirmed, 0u);
}

TEST(Replay, ThreadLevelPreemptsSomeWrites)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("eShop-2"), quick());
    EXPECT_GT(res.preemptedWrites, 0u);
}

TEST(Replay, FtracePreemptionExemptByDesign)
{
    auto tracer = makeTracer(TracerKind::Ftrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("eShop-2"), quick());
    EXPECT_EQ(res.preemptedWrites, 0u);
}

TEST(Replay, EventsAttributedToScheduledThreads)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult res =
        replay(*tracer, workloadByName("Desktop"), quick());
    for (const ProducedEvent &e : res.produced) {
        ASSERT_LT(e.core, kCores);
        // Global thread ids encode the core.
        ASSERT_EQ(e.thread / 100000u, e.core);
    }
}

TEST(Replay, LatencySamplesPlausible)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayResult res = replay(*tracer, workloadByName("IM"), quick());
    ASSERT_GT(res.latencyNs.count(), 1000u);
    EXPECT_GT(res.latencyNs.geoMean(), 10.0);
    EXPECT_LT(res.latencyNs.geoMean(), 2000.0);
    EXPECT_GE(res.latencyNs.percentile(0.99),
              res.latencyNs.percentile(0.50));
}

TEST(Replay, DumpRetainsNewestForEveryTracer)
{
    for (const TracerKind kind : allTracerKinds()) {
        auto tracer = makeTracer(kind, smallFactory());
        const ReplayResult res =
            replay(*tracer, workloadByName("Desktop"), quick());
        const ContinuityReport rep = analyzeContinuity(res);
        EXPECT_EQ(rep.unknownStamps, 0u) << res.tracerName;
        EXPECT_EQ(rep.duplicateStamps, 0u) << res.tracerName;
        EXPECT_EQ(rep.corruptPayloads, 0u) << res.tracerName;
        EXPECT_EQ(rep.resurfacedDrops, 0u) << res.tracerName;
        EXPECT_GT(rep.retainedCount, 0u) << res.tracerName;
    }
}

TEST(Replay, RateScaleScalesVolume)
{
    const Workload &wl = workloadByName("IM");
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions lo = quick();
    lo.rateScale = 0.2;
    ReplayOptions hi = quick();
    hi.rateScale = 0.4;
    const auto a = replay(*t1, wl, lo);
    const auto b = replay(*t2, wl, hi);
    EXPECT_NEAR(double(b.produced.size()),
                2.0 * double(a.produced.size()),
                0.3 * double(b.produced.size()));
}

TEST(ReplayLeased, BTraceLeasingKeepsAccountingConsistent)
{
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions opt = quick();
    opt.leaseEntries = 16;
    const ReplayResult res =
        replay(*tracer, workloadByName("IM"), opt);
    ASSERT_FALSE(res.produced.empty());
    EXPECT_FALSE(res.dump.entries.empty());
    EXPECT_GT(res.leasesOpened, 0u);

    auto *bt = dynamic_cast<BTrace *>(tracer.get());
    ASSERT_NE(bt, nullptr);
    EXPECT_GT(bt->countersSnapshot().leases, 0u);
    EXPECT_GT(bt->countersSnapshot().leaseEntries, 0u);
    const AuditReport rep = BTraceAuditor(*bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(ReplayLeased, MidLeasePreemptionsHappenAtThreadLevel)
{
    // Thread-level scheduling hands cores between threads constantly;
    // with per-thread leases some of those handovers must catch an
    // open lease, and the revocation accounting must absorb every
    // single one (verified by the audit above and determinism below).
    auto tracer = makeTracer(TracerKind::BTrace, smallFactory());
    ReplayOptions opt = quick();
    opt.leaseEntries = 16;
    const ReplayResult res =
        replay(*tracer, workloadByName("Video-1"), opt);
    EXPECT_GT(res.leasesPreempted, 0u);
}

TEST(ReplayLeased, DeterministicForSameSeed)
{
    const Workload &wl = workloadByName("IM");
    ReplayOptions opt = quick();
    opt.leaseEntries = 8;
    auto t1 = makeTracer(TracerKind::BTrace, smallFactory());
    auto t2 = makeTracer(TracerKind::BTrace, smallFactory());
    const ReplayResult a = replay(*t1, wl, opt);
    const ReplayResult b = replay(*t2, wl, opt);
    ASSERT_EQ(a.produced.size(), b.produced.size());
    EXPECT_EQ(a.dump.entries.size(), b.dump.entries.size());
    EXPECT_EQ(a.leasesOpened, b.leasesOpened);
    EXPECT_EQ(a.leasesPreempted, b.leasesPreempted);
}

TEST(ReplayLeased, FallbackKeepsBaselinesComparable)
{
    // Baselines serve leases through their ordinary allocate/confirm
    // pair, so a leased replay exercises the same write path and
    // produces comparable volumes.
    ReplayOptions opt = quick();
    opt.leaseEntries = 16;
    for (const TracerKind kind : allTracerKinds()) {
        auto tracer = makeTracer(kind, smallFactory());
        const ReplayResult res =
            replay(*tracer, workloadByName("IM"), opt);
        EXPECT_FALSE(res.produced.empty()) << tracerKindName(kind);
        EXPECT_FALSE(res.dump.entries.empty()) << tracerKindName(kind);
    }
}

// Golden digests: one 64-bit fingerprint of everything a replay
// returns, pinned for a short run of every tracer. The determinism
// tests above compare two runs of the same code; these catch a change
// to the engine that alters any replayed bit.

class Digest
{
  public:
    void
    add(uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ull;
        h ^= h >> 29;
    }

    void add(double v) { add(std::bit_cast<uint64_t>(v)); }
    void add(float v) { add(uint64_t(std::bit_cast<uint32_t>(v))); }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

uint64_t
replayDigest(const ReplayResult &r)
{
    Digest d;
    d.add(uint64_t(r.produced.size()));
    for (const ProducedEvent &e : r.produced) {
        d.add(e.stamp);
        d.add(uint64_t(e.bytes));
        d.add(e.time);
        d.add(uint64_t(e.core));
        d.add(uint64_t(e.thread));
        d.add(uint64_t(e.dropped));
    }
    d.add(uint64_t(r.dump.entries.size()));
    for (const DumpEntry &e : r.dump.entries) {
        d.add(e.stamp);
        d.add(uint64_t(e.size));
        d.add(uint64_t(e.core));
        d.add(uint64_t(e.thread));
        d.add(uint64_t(e.category));
        d.add(uint64_t(e.payloadOk));
    }
    d.add(r.dump.skippedBlocks);
    d.add(r.dump.abandonedBlocks);
    d.add(r.dump.unreadableBlocks);
    d.add(r.drops);
    d.add(r.retries);
    d.add(r.preemptedWrites);
    d.add(r.unconfirmed);
    d.add(r.leasesOpened);
    d.add(r.leasesPreempted);
    d.add(uint64_t(r.maxBacklog));
    d.add(r.producedBytes);
    d.add(r.blockedSec);
    d.add(r.latencyNs.geoMean());
    return d.value();
}

struct GoldenRun
{
    TracerKind kind;
    const char *workload;
    uint32_t leaseEntries;
    uint64_t digest;  //!< captured before the replay loop was slimmed
};

TEST(ReplayGolden, DigestsPinned)
{
    const GoldenRun runs[] = {
        {TracerKind::BTrace, "Video-3", 0, 0xea469c052bf8834bull},
        {TracerKind::Bbq, "Video-3", 0, 0xe3d61266993587b8ull},
        {TracerKind::Ftrace, "Video-3", 0, 0x9fe971c87e2ca1ddull},
        {TracerKind::Lttng, "Video-3", 0, 0xecef4170ff73685full},
        {TracerKind::Vtrace, "Video-3", 0, 0x0f1506f5459a24e7ull},
        {TracerKind::BTrace, "IM", 32, 0x4ba1ff2274a1efd5ull},
    };
    for (const GoldenRun &g : runs) {
        TracerFactoryOptions fo;
        fo.capacityBytes = 1u << 20;
        auto tracer = makeTracer(g.kind, fo);
        ReplayOptions opt;
        opt.durationSec = 0.3;
        opt.seed = 7;
        opt.leaseEntries = g.leaseEntries;
        const ReplayResult res =
            replay(*tracer, workloadByName(g.workload), opt);
        EXPECT_EQ(replayDigest(res), g.digest)
            << tracerKindName(g.kind) << " lease " << g.leaseEntries
            << " got 0x" << std::hex << replayDigest(res);
    }
}

TEST(MakeTracer, NamesAndCapacities)
{
    for (const TracerKind kind : allTracerKinds()) {
        auto tracer = makeTracer(kind, smallFactory());
        EXPECT_EQ(tracer->name(), tracerKindName(kind));
        // All tracers get the same capacity within a block's rounding.
        EXPECT_NEAR(double(tracer->capacityBytes()), double(2u << 20),
                    double(2u << 20) * 0.15)
            << tracer->name();
    }
}

TEST(MakeTracer, BTraceActiveBlocksDefaultsTo16xCores)
{
    TracerFactoryOptions fo = smallFactory();
    auto tracer = makeTracer(TracerKind::BTrace, fo);
    auto *bt = dynamic_cast<BTrace *>(tracer.get());
    ASSERT_NE(bt, nullptr);
    EXPECT_EQ(bt->config().activeBlocks, 16u * fo.cores);
}

} // namespace
} // namespace btrace
