#include "obs/journal.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/thread_ordinal.h"

namespace btrace {

namespace {

/**
 * Steady-clock nanoseconds. The journal calls this "tsc": a monotonic
 * per-process tick, cheap enough for lifecycle-frequency events (block
 * transitions, not per-entry writes).
 */
uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
packMeta(JournalEventKind kind, uint16_t core, uint32_t tid)
{
    return (uint64_t(static_cast<uint16_t>(kind)) << 48) |
           (uint64_t(core) << 32) | uint64_t(tid);
}

std::size_t
roundUpPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
}

} // namespace

const char *
journalEventKindName(JournalEventKind kind)
{
    switch (kind) {
      case JournalEventKind::BlockOpen: return "block_open";
      case JournalEventKind::BlockClose: return "block_close";
      case JournalEventKind::BlockSkip: return "block_skip";
      case JournalEventKind::LeaseGrant: return "lease_grant";
      case JournalEventKind::LeaseRevoke: return "lease_revoke";
      case JournalEventKind::LeaseAbandon: return "lease_abandon";
      case JournalEventKind::ReclaimStart: return "reclaim_start";
      case JournalEventKind::ReclaimEnd: return "reclaim_end";
      case JournalEventKind::ResizeBegin: return "resize_begin";
      case JournalEventKind::ResizeFreeze: return "resize_freeze";
      case JournalEventKind::ResizeEnd: return "resize_end";
      case JournalEventKind::ConsumerPass: return "consumer_pass";
      case JournalEventKind::WatchdogTrip: return "watchdog_trip";
      case JournalEventKind::GovernorDecision:
          return "governor_decision";
      case JournalEventKind::Count: break;
    }
    return "unknown";
}

const char *
blockCloseReasonName(BlockCloseReason reason)
{
    switch (reason) {
      case BlockCloseReason::Full: return "full";
      case BlockCloseReason::Straggler: return "straggler";
      case BlockCloseReason::Graveyard: return "graveyard";
      case BlockCloseReason::Consumer: return "consumer";
      case BlockCloseReason::Resize: return "resize";
      case BlockCloseReason::Count: break;
    }
    return "unknown";
}

uint32_t
EventJournal::currentTid()
{
    return threadOrdinal();
}

EventJournal::EventJournal(const JournalOptions &options)
{
    std::size_t want = options.shards;
    if (want == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        want = std::clamp<std::size_t>(hw, 2, 16);
    }
    nShards = want;
    ringSize = roundUpPow2(std::max<std::size_t>(options.recordsPerShard, 2));
    shards = std::make_unique<Shard[]>(nShards);
    for (std::size_t s = 0; s < nShards; ++s)
        shards[s].ring = std::make_unique<Slot[]>(ringSize);
}

void
EventJournal::emit(JournalEventKind kind, uint16_t core, uint64_t block,
                   uint64_t arg) noexcept
{
    const uint32_t tid = threadOrdinal();
    Shard &sh = shards[tid % nShards];
    // Claim a slot index. Threads sharing a shard contend only on this
    // word — never on anything the tracer's write path touches.
    const uint64_t idx = sh.head.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = sh.ring[idx & (ringSize - 1)];

    // Seqlock stamp: 0 marks the slot busy, so a concurrent snapshot
    // skips it instead of reading half-old, half-new fields.
    slot.seq.store(0, std::memory_order_release);
    slot.tsc.store(nowNs(), std::memory_order_relaxed);
    slot.block.store(block, std::memory_order_relaxed);
    slot.arg.store(arg, std::memory_order_relaxed);
    slot.meta.store(packMeta(kind, core, tid), std::memory_order_relaxed);
    slot.seq.store(idx + 1, std::memory_order_release);
}

std::vector<JournalRecord>
EventJournal::snapshot() const
{
    std::vector<JournalRecord> out(capacity());
    out.resize(snapshotInto(out.data(), out.size()));
    return out;
}

std::size_t
EventJournal::snapshotInto(JournalRecord *out, std::size_t max) const
    noexcept
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < nShards && n < max; ++s) {
        const Shard &sh = shards[s];
        for (std::size_t i = 0; i < ringSize && n < max; ++i) {
            const Slot &slot = sh.ring[i];
            const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
            if (s1 == 0)
                continue;  // empty, or a writer is mid-store
            JournalRecord r;
            r.tsc = slot.tsc.load(std::memory_order_relaxed);
            r.block = slot.block.load(std::memory_order_relaxed);
            r.arg = slot.arg.load(std::memory_order_relaxed);
            const uint64_t meta =
                slot.meta.load(std::memory_order_relaxed);
            const uint64_t s2 = slot.seq.load(std::memory_order_acquire);
            if (s2 != s1)
                continue;  // lapped mid-read; drop, never return torn
            r.seq = s1;
            r.kind = static_cast<JournalEventKind>(
                static_cast<uint16_t>(meta >> 48));
            r.core = static_cast<uint16_t>(meta >> 32);
            r.tid = static_cast<uint32_t>(meta);
            r.shard = static_cast<uint16_t>(s);
            out[n++] = r;
        }
    }
    // In-place introsort: no heap traffic, so the async capture path
    // stays allocation-free.
    std::sort(out, out + n,
              [](const JournalRecord &a, const JournalRecord &b) {
                  if (a.tsc != b.tsc) return a.tsc < b.tsc;
                  if (a.shard != b.shard) return a.shard < b.shard;
                  return a.seq < b.seq;
              });
    return n;
}

std::vector<JournalRecord>
EventJournal::lastN(std::size_t n) const
{
    std::vector<JournalRecord> all = snapshot();
    if (all.size() > n)
        all.erase(all.begin(),
                  all.begin() + static_cast<long>(all.size() - n));
    return all;
}

uint64_t
EventJournal::emitted() const
{
    uint64_t total = 0;
    for (std::size_t s = 0; s < nShards; ++s)
        total += shards[s].head.load(std::memory_order_relaxed);
    return total;
}

} // namespace btrace
