/**
 * @file
 * Shared plumbing of the perfbench workloads: the run context handed
 * in from the command line, the result every run prints, wall and
 * thread-CPU clocks, padded per-thread slots, and the in-memory span
 * log of the traced run.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time consumed by the calling thread, in nanoseconds. */
inline int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Median of @p xs (0 for an empty set). */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank quantile @p q in [0, 1] of @p xs (0 when empty). */
inline double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto i = static_cast<std::size_t>(q * double(xs.size() - 1));
    return xs[std::min(i, xs.size() - 1)];
}

/**
 * One 64-byte slot per thread. Per-thread progress counters live in
 * these (or in thread locals), never in a plain vector whose elements
 * share a cache line with the other writers.
 */
struct alignas(64) PaddedCounter
{
    std::atomic<uint64_t> value{0};
};

/** What the command line hands a workload. */
struct RunContext
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string workDir;    //!< scratch directory for segments
    std::atomic<bool> pinned{false};  //!< threads pinned, every pin held
};

/** Pin the calling thread to @p cpu (modulo the CPU count). */
bool pinToCpu(unsigned cpu);

/** The JSON line a run ends with, plus the oracle's findings. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> violations;  //!< oracle failures
    std::map<std::string, double> values;  //!< metric name -> value

    void set(const std::string &name, double v) { values[name] = v; }

    void violation(const std::string &what) { violations.push_back(what); }

    bool correct() const { return violations.empty(); }
};

/**
 * In-memory span log of one thread (name, start, end, parent). Spans
 * are recorded around the benchmark's calls into each layer; the
 * layer is the name's prefix before the first '.'. Self time is summed
 * per name for every span; the individual spans are kept only up to a
 * cap so a long run with many short drains stays bounded in memory.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        int64_t start;
        int64_t end;
        int32_t parent;  //!< index in this log, -1 for a root
    };

    explicit SpanLog(uint32_t thread_id, std::size_t cap = 100000)
        : tid(thread_id), limit(cap)
    {
    }

    /** Open a span as a child of the innermost open one. */
    void open(const char *name);

    /** Close the innermost open span. */
    void close();

    /**
     * Charge @p ns of layer @p name time measured without a span
     * (hot calls too frequent for a span each) inside the innermost
     * open span: it counts as a child of that span and as @p name's
     * own self time.
     */
    void chargeChild(const char *name, double ns);

    /** Self time per span name, ns. */
    const std::map<std::string, double> &selfNs() const { return self; }
    const std::vector<Span> &spans() const { return kept; }
    uint32_t thread() const { return tid; }

  private:
    struct Open
    {
        const char *name;
        int64_t start;
        double childNs;     //!< time covered by children so far
        int32_t keptIndex = -1;
    };

    uint32_t tid;
    std::size_t limit;
    std::vector<Open> stack;
    std::vector<Span> kept;
    std::map<std::string, double> self;
};

/** RAII span on a possibly-null log (null = tracing off). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name) : l(log)
    {
        if (l)
            l->open(name);
    }
    ~ScopedSpan()
    {
        if (l)
            l->close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *l;
};

/**
 * Fold the span logs of all threads into per-layer self time (ms) on
 * @p out and write every kept span as JSON lines to @p path.
 */
void reportSpans(const std::vector<const SpanLog *> &logs,
                 const std::string &path, RunResult &out);

/** Median cost of two back-to-back nowNs() calls (calibrated once). */
double timerOverheadNs();

/**
 * Sampled latency of a hot call: every @c period-th call is timed.
 * Owned by one thread.
 */
class CallSampler
{
  public:
    explicit CallSampler(uint32_t period = 16) : every(period) {}

    bool
    due()
    {
        return ++tick % every == 0;
    }

    /** Record one timed call; the clock pair's own cost is removed. */
    void
    add(int64_t ns)
    {
        const double v = std::max(0.0, double(ns) - timerOverheadNs());
        samples.push_back(v);
        sumNs += v;
    }

    const std::vector<double> &values() const { return samples; }

    /** Estimated total time over all calls, sampled or not. */
    double
    estimatedTotalNs() const
    {
        return samples.empty()
                   ? 0.0
                   : sumNs / double(samples.size()) * double(tick);
    }

    void
    merge(const CallSampler &o)
    {
        tick += o.tick;
        sumNs += o.sumNs;
        samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    }

  private:
    uint32_t every;
    uint64_t tick = 0;
    double sumNs = 0.0;
    std::vector<double> samples;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

constexpr double kMiB = 1024.0 * 1024.0;

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
