/** @file Unit tests for the deterministic PRNG and its distributions. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "common/prng.h"

namespace btrace {
namespace {

TEST(Prng, DeterministicAcrossInstances)
{
    Prng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge)
{
    Prng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Prng, ReseedRestartsSequence)
{
    Prng a(7);
    const uint64_t first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Prng, BoundedStaysInRange)
{
    Prng rng(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.nextBounded(17), 17u);
}

TEST(Prng, BoundedCoversRange)
{
    Prng rng(4);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, DoubleInUnitInterval)
{
    Prng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Prng, UniformInclusiveBounds)
{
    Prng rng(6);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = rng.uniform(10, 13);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 13u);
        saw_lo |= v == 10;
        saw_hi |= v == 13;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Prng, ExponentialMeanConverges)
{
    Prng rng(7);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Prng, ExponentialIsPositive)
{
    Prng rng(8);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(rng.exponential(1.0), 0.0);
}

TEST(Prng, ChanceExtremes)
{
    Prng rng(9);
    for (int i = 0; i < 100; ++i) {
        ASSERT_FALSE(rng.chance(0.0));
        ASSERT_TRUE(rng.chance(1.0));
    }
}

TEST(Prng, ChanceFrequency)
{
    Prng rng(10);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Prng, HeavyTailStaysInBounds)
{
    Prng rng(11);
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.heavyTail(16.0, 512.0, 1.1);
        ASSERT_GE(v, 16.0 * 0.999);
        ASSERT_LE(v, 512.0 * 1.001);
    }
}

TEST(Prng, HeavyTailIsSkewedTowardsLow)
{
    Prng rng(12);
    int low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        low += rng.heavyTail(16.0, 512.0, 1.1) < 64.0;
    // A bounded Pareto with shape 1.1 puts the bulk of the mass near
    // the lower bound.
    EXPECT_GT(double(low) / n, 0.6);
}

TEST(Prng, HeavyTailValuesPinned)
{
    // Bit patterns of the first 64 samples, captured before the
    // sampler's constants were hoisted: the formula must not move by
    // one ulp (replays and perfbench's payload table are built on it).
    const uint64_t want[64] = {
        0x4034758480288983ull, 0x404de6cec49e68b7ull, 0x406a775f8efb6b3dull,
        0x4031afb129eecf18ull, 0x40443370979d1494ull, 0x403aaf9ebc84c8cfull,
        0x40321cd10e2bcb8dull, 0x404099eb4cb7c21full, 0x40418afd16b79173ull,
        0x403ac6c63299f400ull, 0x4040793b0047a30aull, 0x403ce4d9691cb1d1ull,
        0x4050fbc980d509b6ull, 0x4033ab8111355088ull, 0x40355ab8c0051611ull,
        0x40445436f9757d4eull, 0x404cc9632489ea60ull, 0x40521ba12ca20d5full,
        0x40347689dd3bbf14ull, 0x4032332d274a3e54ull, 0x40402de10118b42eull,
        0x4045b94c8ff82238ull, 0x4049cccca45032f6ull, 0x4066db03d8ebf0feull,
        0x4041041abd29d061ull, 0x4035d6c93138d107ull, 0x4060112efd6d05a0ull,
        0x4041b9c03aa3ce23ull, 0x403a777c4299b5dbull, 0x4030c946b25a6405ull,
        0x40334ef690094423ull, 0x4054b1158cb41ef6ull, 0x4037fae33c7fc531ull,
        0x403f07c2ba7c4b7cull, 0x40533200b6a88dc5ull, 0x404fc89b8864cc21ull,
        0x4038577d9e13e789ull, 0x40300617de4101f4ull, 0x403f6dddbbd5fac4ull,
        0x403980d0fb6c873cull, 0x40551eb5d201bfe8ull, 0x4049ce9f166cc1b5ull,
        0x40328d21715f92aeull, 0x40309832a54da154ull, 0x40351ff2f3739e53ull,
        0x4039261000a4c586ull, 0x4036b7183b681a80ull, 0x4031211ad995af8eull,
        0x403300a792264f25ull, 0x405a25883edb2f37ull, 0x403550146830ba6aull,
        0x40364ae9c192c591ull, 0x403145245a0f54f5ull, 0x405c8d2681623ea6ull,
        0x404124866f81780full, 0x4071a5ff4b6fe3feull, 0x405c157e8adf1125ull,
        0x403d0bff90615207ull, 0x403165bb9a41736eull, 0x4037b3a55725c978ull,
        0x40305b377c54567cull, 0x40320c2dbbf162beull, 0x40436648cafef1f5ull,
        0x405b64b46a16b7b2ull,
    };
    Prng rng(13);
    for (int i = 0; i < 64; ++i) {
        const double v = rng.heavyTail(16.0, 512.0, 1.1);
        EXPECT_EQ(std::bit_cast<uint64_t>(v), want[i]) << "sample " << i;
    }
}

} // namespace
} // namespace btrace
