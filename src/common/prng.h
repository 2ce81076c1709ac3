/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The replay engine and workload generator must be bit-for-bit
 * reproducible across runs and platforms, so we avoid std::mt19937
 * distribution objects (whose outputs are implementation-defined for
 * some distributions) and implement xoshiro256** plus the handful of
 * distributions we need.
 */

#ifndef BTRACE_COMMON_PRNG_H
#define BTRACE_COMMON_PRNG_H

#include <cstdint>

namespace btrace {

/** xoshiro256** 1.0 generator, seeded via splitmix64. */
class Prng
{
  public:
    explicit Prng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform in [0, bound); bound must be non-zero. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t uniform(uint64_t lo, uint64_t hi);

    /** Exponentially distributed double with the given mean (> 0). */
    double exponential(double mean);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /**
     * Bounded Pareto-ish heavy-tail sample in [lo, hi]: most samples
     * near @p lo, occasional large ones. @p shape > 0 controls the
     * tail (smaller = heavier). One-off form of BoundedPareto.
     */
    double heavyTail(double lo, double hi, double shape);

  private:
    uint64_t s[4];
};

/**
 * Bounded Pareto distribution over [lo, hi] (inverse-CDF sampling)
 * with its constants computed once: a draw costs one nextDouble() and
 * one pow(). Samples are bit-identical to Prng::heavyTail, which
 * delegates here.
 */
class BoundedPareto
{
  public:
    BoundedPareto(double lo, double hi, double shape);

    double sample(Prng &rng) const;

  private:
    double la;        //!< lo^shape
    double ha;        //!< hi^shape
    double haLa;      //!< ha * la
    double negInvShape;
};

} // namespace btrace

#endif // BTRACE_COMMON_PRNG_H
