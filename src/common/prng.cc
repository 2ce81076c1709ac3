#include "common/prng.h"

#include <cmath>

#include "common/panic.h"

namespace btrace {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
Prng::reseed(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

uint64_t
Prng::next()
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

uint64_t
Prng::nextBounded(uint64_t bound)
{
    BTRACE_DASSERT(bound != 0, "nextBounded(0)");
    // Lemire-style rejection-free multiply-shift; bias is < 2^-64 * bound
    // and irrelevant for simulation purposes.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(next()) * bound) >> 64);
}

double
Prng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Prng::uniform(uint64_t lo, uint64_t hi)
{
    BTRACE_DASSERT(lo <= hi, "uniform: lo > hi");
    return lo + nextBounded(hi - lo + 1);
}

double
Prng::exponential(double mean)
{
    BTRACE_DASSERT(mean > 0, "exponential: non-positive mean");
    double u = nextDouble();
    if (u >= 1.0)
        u = 0.9999999999999999;
    return -mean * std::log1p(-u);
}

bool
Prng::chance(double p)
{
    return nextDouble() < p;
}

double
Prng::heavyTail(double lo, double hi, double shape)
{
    return BoundedPareto(lo, hi, shape).sample(*this);
}

BoundedPareto::BoundedPareto(double lo, double hi, double shape)
    : la(std::pow(lo, shape)), ha(std::pow(hi, shape)), haLa(ha * la),
      negInvShape(-1.0 / shape)
{
    BTRACE_DASSERT(lo > 0 && hi > lo && shape > 0,
                   "BoundedPareto: bad args");
}

double
BoundedPareto::sample(Prng &rng) const
{
    // Inverse CDF: F^-1(u) = (-(u*H - u*L - H) / (H*L))^(-1/shape).
    const double u = rng.nextDouble();
    return std::pow(-(u * ha - u * la - ha) / haLa, negInvShape);
}

} // namespace btrace
