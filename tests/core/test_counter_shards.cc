/**
 * @file
 * Contract tests for BTrace's per-thread counter shards: concurrent
 * writers fold to exact totals, a lease's level counter folds to zero
 * when granted and closed on different threads, and two live threads
 * bump distinct 64-byte-aligned shards that share no cache line with
 * each other or with the protocol's shared words.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/auditor.h"
#include "core/btrace.h"
#include "inspector.h"

namespace btrace {
namespace {

constexpr unsigned kThreads = 4;

/**
 * One core per thread and blocks large enough for every thread's
 * writes: once each core holds a block, no advancement runs, so the
 * shared-RMW total is exact.
 */
BTraceConfig
roomyConfig()
{
    BTraceConfig cfg;
    cfg.blockSize = 1 << 20;
    cfg.numBlocks = 2 * kThreads;
    cfg.activeBlocks = kThreads;
    cfg.cores = kThreads;
    return cfg;
}

uintptr_t
lineOf(const void *p)
{
    return reinterpret_cast<uintptr_t>(p) / cacheLineSize;
}

/** True iff [a, a+na) and [b, b+nb) touch a common cache line. */
bool
shareLine(const void *a, std::size_t na, const void *b, std::size_t nb)
{
    const uintptr_t a0 = lineOf(a);
    const uintptr_t a1 = lineOf(static_cast<const uint8_t *>(a) + na - 1);
    const uintptr_t b0 = lineOf(b);
    const uintptr_t b1 = lineOf(static_cast<const uint8_t *>(b) + nb - 1);
    return a0 <= b1 && b0 <= a1;
}

TEST(CounterShards, ConcurrentWritersFoldToExactTotals)
{
    constexpr uint32_t perThread = 2048;  // a multiple of the lease size
    constexpr uint32_t leaseN = 32;
    constexpr uint32_t payload = 48;
    BTrace bt(roomyConfig());
    // Install every core's first block up front.
    for (unsigned c = 0; c < kThreads; ++c)
        ASSERT_TRUE(bt.record(uint16_t(c), 1, c + 1, payload));
    const BTraceCounters::Snapshot base = bt.countersSnapshot();

    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
        workers.emplace_back([&bt, w]() {
            const auto core = uint16_t(w);
            const uint32_t tid = 100 + w;
            uint64_t stamp = uint64_t(w + 1) << 32;
            for (uint32_t i = 0; i < perThread; ++i)
                ASSERT_TRUE(bt.record(core, tid, ++stamp, payload));
            Lease l;
            for (uint32_t i = 0; i < perThread; ++i) {
                WriteTicket t =
                    l.closed() ? WriteTicket{} : l.allocate(payload);
                if (!t.ok()) {
                    l.close();
                    l = bt.lease(core, tid, payload, leaseN);
                    ASSERT_TRUE(l.ok());
                    t = l.allocate(payload);
                    ASSERT_TRUE(t.ok());
                }
                writeNormal(t.dst, ++stamp, core, tid, 0, payload);
                l.confirm(t);
            }
            l.close();
        });
    }
    for (std::thread &t : workers)
        t.join();

    const BTraceCounters::Snapshot c = bt.countersSnapshot() - base;
    EXPECT_EQ(c.advances, 0u);
    EXPECT_EQ(c.fastAllocs, uint64_t(kThreads) * perThread);
    EXPECT_EQ(c.leases, uint64_t(kThreads) * (perThread / leaseN));
    EXPECT_EQ(c.leaseEntries, uint64_t(kThreads) * perThread);
    // Two FAAs per single-entry write, two per lease — and nothing
    // for the counters themselves.
    EXPECT_EQ(c.sharedRmws, uint64_t(kThreads) *
                                (2 * perThread + 2 * (perThread / leaseN)));
    EXPECT_EQ(c.leasedOutstanding, 0u);
    EXPECT_EQ(bt.dump().entries.size(),
              uint64_t(kThreads) * (2 * perThread + 1));
    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(CounterShards, LeaseClosedOnAnotherThreadFoldsToZero)
{
    // The grant bumps leasedOutstanding on this thread's shard, the
    // close drops it on another's; only the fold is meaningful, and
    // it is exact.
    BTrace bt(roomyConfig());
    Lease l = bt.lease(0, 1, 48, 8);
    ASSERT_TRUE(l.ok());
    EXPECT_GT(bt.countersSnapshot().leasedOutstanding, 0u);
    WriteTicket t = l.allocate(48);
    ASSERT_TRUE(t.ok());
    writeNormal(t.dst, 1, 0, 1, 0, 48);
    l.confirm(t);
    std::thread closer([&l]() { l.close(); });
    closer.join();

    const BTraceCounters::Snapshot c = bt.countersSnapshot();
    EXPECT_EQ(c.leasedOutstanding, 0u);
    EXPECT_EQ(c.leaseEntries, 1u);
    const AuditReport rep = BTraceAuditor(bt).audit();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(CounterShards, LiveThreadsGetDistinctAlignedShards)
{
    BTrace bt(roomyConfig());
    BTraceInspector insp(bt);
    constexpr std::size_t shardBytes = sizeof(BTraceCounters::Shard);
    EXPECT_EQ(alignof(BTraceCounters::Shard), cacheLineSize);
    EXPECT_EQ(shardBytes % cacheLineSize, 0u);

    // Both threads stay alive until each has resolved its shard, so
    // the two resolutions are concurrent.
    const void *shard[2] = {nullptr, nullptr};
    std::atomic<int> resolved{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
        threads.emplace_back([&, i]() {
            EXPECT_TRUE(bt.record(uint16_t(i), 1, uint64_t(i) + 1, 16));
            shard[i] = &insp.counterShard();
            resolved.fetch_add(1);
            while (resolved.load() < 2)
                std::this_thread::yield();
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_NE(shard[0], nullptr);
    ASSERT_NE(shard[1], nullptr);
    EXPECT_NE(shard[0], shard[1]);
    EXPECT_FALSE(shareLine(shard[0], shardBytes, shard[1], shardBytes));
    for (const void *s : shard) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(s) % cacheLineSize, 0u);
        for (std::size_t m = 0; m < insp.activeBlocks(); ++m)
            EXPECT_FALSE(shareLine(s, shardBytes, insp.metaAddr(m),
                                   sizeof(MetadataBlock)))
                << "shard shares a line with meta[" << m << "]";
        EXPECT_FALSE(shareLine(s, shardBytes, insp.globalAddr(),
                               sizeof(uint64_t)));
        for (unsigned c = 0; c < kThreads; ++c)
            EXPECT_FALSE(shareLine(s, shardBytes, insp.coreWordAddr(c),
                                   sizeof(uint64_t)))
                << "shard shares a line with coreLocal[" << c << "]";
    }
    // Each writer's record landed in its own shard; the fold sees both.
    EXPECT_EQ(bt.countersSnapshot().fastAllocs, 2u);
}

} // namespace
} // namespace btrace
