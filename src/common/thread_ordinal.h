/**
 * @file
 * Stable per-thread ordinal for sharding per-thread state.
 */

#ifndef BTRACE_COMMON_THREAD_ORDINAL_H
#define BTRACE_COMMON_THREAD_ORDINAL_H

#include <atomic>
#include <cstdint>

namespace btrace {

/**
 * Stable small integer id per thread: assigned once on first use, so
 * a thread keeps hitting the same shard (and the same cache lines)
 * for its whole lifetime instead of hashing a recycled native id.
 * One sequence for the whole process: the latency histograms, the
 * lifecycle journal and BTrace's counter shards all index by it, so
 * threads started back to back land on distinct shards of each.
 */
inline uint32_t
threadOrdinal()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal;
}

} // namespace btrace

#endif // BTRACE_COMMON_THREAD_ORDINAL_H
