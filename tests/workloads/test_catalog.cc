/** @file Unit tests for the 21-workload catalog (§5 "Workloads"). */

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/prng.h"
#include "workloads/catalog.h"

namespace btrace {
namespace {

TEST(Catalog, PayloadSamplerValuesPinned)
{
    // Bit patterns of the first 64 payload sizes drawn from eShop-2's
    // payload parameters, captured with Prng::heavyTail before the
    // replay engine switched to the hoisted BoundedPareto sampler.
    const uint64_t want[64] = {
        0x40459d7afd303788ull, 0x403951fcaf5d6498ull, 0x403607d66b5de862ull,
        0x4031e71167341622ull, 0x404179ce480f0df9ull, 0x40339129eacca6b9ull,
        0x40643f7bae0ee946ull, 0x405a669e4d47d526ull, 0x403e4c0c4617dfb2ull,
        0x405848b4fabcb8e3ull, 0x40436e34011d7277ull, 0x403ca76877909496ull,
        0x4040762b1e6f974eull, 0x403737ba2135e3f8ull, 0x4061c1246a209e15ull,
        0x4037ded813da527cull, 0x4039a20d54c93d7cull, 0x4031c0b23ca8d4c6ull,
        0x4032bb630b431a6cull, 0x4034f5e69ab6bf70ull, 0x403ba4a43df77a02ull,
        0x4031b2f7ce99e016ull, 0x40308b6c066a5a74ull, 0x40561cfb2176491eull,
        0x40331ce289525331ull, 0x405636f2291b12ceull, 0x40346fa6c4f5e571ull,
        0x403355305932fa4eull, 0x4041dbb9c14dcc0bull, 0x40362a45eae57fb9ull,
        0x4035d4a1a97cb79dull, 0x4032d66b1962a477ull, 0x4037b36b4d5fa09aull,
        0x40556c895cddbd2bull, 0x405b612370392653ull, 0x40375d55158b500eull,
        0x40534b3419245e56ull, 0x403efc4f67e69420ull, 0x40517abc47780a00ull,
        0x40631f90ea4f6ff7ull, 0x403bdbebd5500fe0ull, 0x4033f24f68916672ull,
        0x40361d9f29222586ull, 0x4079a0de3e2d2f62ull, 0x4032ff925bfc8a83ull,
        0x407ba0db6380bd2full, 0x404749898b8fe5c1ull, 0x40308299ea72a5a7ull,
        0x4033c9557af0a4a1ull, 0x40331242cf088dbaull, 0x4032b1f733cf4851ull,
        0x404274ec4a2d5222ull, 0x4035da9845452607ull, 0x40325b82435e840full,
        0x407a75d47ebddf07ull, 0x40624177bb6d738bull, 0x4070c0ee276e4526ull,
        0x40458d02eb047404ull, 0x40325ad2bc47e90eull, 0x4050b9c474eb1cbaull,
        0x4034200344ab7aa7ull, 0x4050c52f5f1c8553ull, 0x403656806dcf2c7bull,
        0x4037c6d4001d3a3bull,
    };
    const Workload &w = workloadByName("eShop-2");
    const BoundedPareto payload(w.payloadLo, w.payloadHi, w.payloadShape);
    Prng rng(w.seed);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(payload.sample(rng)), want[i])
            << "sample " << i;
    }
}

TEST(Catalog, Has21Workloads)
{
    EXPECT_EQ(workloadCatalog().size(), 21u);
}

TEST(Catalog, NamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (const Workload &w : workloadCatalog()) {
        EXPECT_FALSE(w.name.empty());
        EXPECT_TRUE(names.insert(w.name).second);
    }
}

TEST(Catalog, LookupByNameRoundTrips)
{
    for (const Workload &w : workloadCatalog())
        EXPECT_EQ(workloadByName(w.name).name, w.name);
}

TEST(CatalogDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH(workloadByName("NoSuchWorkload"), "unknown workload");
}

TEST(Catalog, RatesWithinFig4Envelope)
{
    // Fig 4's y-axis tops out at 18k entries/s per core.
    for (const Workload &w : workloadCatalog()) {
        for (unsigned c = 0; c < kCores; ++c) {
            EXPECT_GE(w.ratePerSec[c], 0.0);
            EXPECT_LE(w.ratePerSec[c], 19000.0) << w.name;
        }
    }
}

TEST(Catalog, LockScreenIdlesBigAndMiddleCores)
{
    // Fig 1a / Fig 4: at lock screen, big and middle cores are idle.
    const Workload &w = workloadByName("LockScr");
    double little = 0, mid = 0, big = 0;
    for (unsigned c = 0; c < kCores; ++c) {
        switch (coreClassOf(c)) {
          case CoreClass::Little: little += w.ratePerSec[c]; break;
          case CoreClass::Middle: mid += w.ratePerSec[c]; break;
          case CoreClass::Big: big += w.ratePerSec[c]; break;
        }
    }
    EXPECT_GT(little / 4, 10 * (mid / 6));
    EXPECT_GT(little / 4, 10 * (big / 2));
}

TEST(Catalog, Video1IsHighlySkewedTowardsLittleCores)
{
    const Workload &w = workloadByName("Video-1");
    const double little = w.ratePerSec[0];
    const double big = w.ratePerSec[10];
    EXPECT_GT(little, 5 * big);
}

TEST(Catalog, ImIsRoughlyUniform)
{
    const Workload &w = workloadByName("IM");
    double lo = 1e18, hi = 0;
    for (unsigned c = 0; c < kCores; ++c) {
        lo = std::min(lo, w.ratePerSec[c]);
        hi = std::max(hi, w.ratePerSec[c]);
    }
    EXPECT_LT(hi / lo, 2.0);
}

TEST(Catalog, ThreadCountsMatchFig6Scale)
{
    // Fig 6: up to ~400 distinct threads per core over 30 s, ~30
    // active per second under load.
    for (const Workload &w : workloadCatalog()) {
        for (unsigned c = 0; c < kCores; ++c) {
            EXPECT_GE(w.totalThreads[c], 1u);
            EXPECT_LE(w.totalThreads[c], 800u) << w.name;
            EXPECT_LE(w.activeThreads[c], w.totalThreads[c]) << w.name;
        }
    }
    const Workload &heavy = workloadByName("eShop-2");
    EXPECT_GT(heavy.totalThreads[0], 300u);
    EXPECT_GT(heavy.activeThreads[0], 25u);
}

TEST(Catalog, EShop2HeaviestOversubscription)
{
    // The paper singles out eShop-2 for BBQ's latency blow-up.
    uint32_t eshop2 = workloadByName("eShop-2").activeThreads[0];
    for (const Workload &w : workloadCatalog())
        EXPECT_LE(w.activeThreads[0], eshop2) << w.name;
}

TEST(Catalog, Fig4SelectionPresent)
{
    const auto ws = fig4Workloads();
    EXPECT_EQ(ws.size(), 6u);
    EXPECT_EQ(ws[0].name, "Desktop");
    EXPECT_EQ(ws[4].name, "LockScr");
}

TEST(Catalog, ProducedVolumeExceedsTable2Buffer)
{
    // Heavy workloads must overflow the 12 MB buffer over 30 s several
    // times, otherwise retention metrics are trivial. LockScr is the
    // intentional exception (mostly-idle phone, Fig 1a): it must still
    // overflow the *per-core* 1/C slices so per-core tracers wrap.
    for (const Workload &w : workloadCatalog()) {
        if (w.name == "LockScr") {
            const double little_bytes =
                w.ratePerSec[0] *
                ((1.0 - w.burstiness) + w.burstiness * w.burstLowFactor) *
                w.durationSec * (24.0 + w.meanPayloadBytes());
            EXPECT_GT(little_bytes, 2.0 * (12u << 20) / kCores);
            continue;
        }
        EXPECT_GT(w.expectedBytes(), 2.0 * (12u << 20)) << w.name;
    }
}

TEST(Catalog, DeterministicConstruction)
{
    const Workload &a = workloadByName("Browser");
    const Workload &b = workloadByName("Browser");
    for (unsigned c = 0; c < kCores; ++c)
        EXPECT_DOUBLE_EQ(a.ratePerSec[c], b.ratePerSec[c]);
}

} // namespace
} // namespace btrace
