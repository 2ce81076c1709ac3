/**
 * @file
 * The output oracle shared by all four workloads. It checks what the
 * program hands back against properties BTrace must have and against
 * computations made here, apart from the program:
 *
 *  - a per-producer stamp ledger: no duplicate, no unknown stamp,
 *    payload pattern and size intact, and (where the workload
 *    promises it) every record present or counted failed;
 *  - strict readSegment decoding of every segment, each v2 header's
 *    declared counts equal to the scanned ones;
 *  - BTraceAuditor passing on the quiesced tracer;
 *  - the latest fragment and retained bytes recomputed here from the
 *    produced log and the dump, compared with analyzeContinuity.
 */

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/continuity.h"
#include "core/btrace.h"
#include "harness.h"
#include "sim/replay.h"
#include "trace/tracer.h"

namespace perfbench {

/**
 * Stamp layout of the real-thread workloads: producer id in the high
 * bits, the producer's sequence number below. Stamps stay far below
 * the wall-clock floor, so the daemon treats them as logical.
 */
struct StampCodec
{
    static constexpr unsigned kSeqBits = 40;
    static constexpr uint32_t kThreadBase = 1000;

    static uint64_t
    stamp(unsigned producer, uint64_t seq)
    {
        return (uint64_t(producer) << kSeqBits) | seq;
    }
    static unsigned producerOf(uint64_t stamp)
    {
        return unsigned(stamp >> kSeqBits);
    }
    static uint64_t seqOf(uint64_t stamp)
    {
        return stamp & ((uint64_t(1) << kSeqBits) - 1);
    }
};

/**
 * Payload sizes of the real-thread workloads, drawn from --seed with
 * the catalog's bounded-Pareto shape (16..512 B, alpha 1.1).
 */
class PayloadTable
{
  public:
    explicit PayloadTable(uint64_t seed);

    uint32_t
    payload(unsigned producer, uint64_t seq) const
    {
        return sizes[(seq + producer * 977u) & (kSize - 1)];
    }

    /** Total entry bytes of record (producer, seq). */
    uint32_t entryBytes(unsigned producer, uint64_t seq) const;

    /** Mean payload bytes over the table. */
    uint32_t meanPayload() const { return mean; }

  private:
    static constexpr std::size_t kSize = 4096;
    std::vector<uint32_t> sizes;
    uint32_t mean = 0;
};

/** Per-producer ledger of produced and seen records. */
class Ledger
{
  public:
    Ledger(const PayloadTable &table, unsigned producers);

    /**
     * Producer @p p wrote sequence numbers [0, count), of which only
     * the newest @p window can still be returned; an older one is a
     * violation.
     */
    void setProduced(unsigned p, uint64_t count, uint64_t window);

    uint64_t produced(unsigned p) const { return prod[p]; }

    /**
     * Check one returned record: known producer and sequence, not seen
     * before, payload pattern verified, size as produced. Violations
     * land on @p out.
     */
    void check(const btrace::DumpEntry &e, RunResult &out);

    /** Records of @p p inside its window not returned by check(). */
    uint64_t missing(unsigned p) const;

    /** True when record (p, seq) was returned. */
    bool
    seen(unsigned p, uint64_t seq) const
    {
        if (seq < base[p] || seq >= prod[p])
            return false;
        const uint64_t i = seq - base[p];
        return (bits[p][i >> 6] >> (i & 63)) & 1u;
    }

  private:
    const PayloadTable &tbl;
    std::vector<uint64_t> prod;
    std::vector<uint64_t> base;  //!< oldest sequence still returnable
    std::vector<uint64_t> hits;
    std::vector<std::vector<uint64_t>> bits;
};

/** Totals of one checked segment directory. */
struct SegmentCheck
{
    uint64_t files = 0;
    uint64_t records = 0;
    uint64_t fileBytes = 0;
    std::vector<btrace::DumpEntry> entries;
};

/**
 * Decode every segment in @p dir strictly and reconcile each v2
 * header against its scan; returns the records in rotation order.
 */
SegmentCheck checkSegments(const std::string &dir, RunResult &out);

/** Run BTraceAuditor on the quiesced @p bt; a failure is a violation. */
void checkAudit(btrace::BTrace &bt, RunResult &out, const char *what);

/**
 * analyzeContinuity (timed as analysis.continuity on @p log) plus the
 * recomputation here of the latest fragment, retained bytes and
 * integrity counts, compared exactly.
 */
btrace::ContinuityReport
checkContinuity(const std::vector<btrace::ProducedEvent> &produced,
                const btrace::Dump &dump, std::size_t capacity,
                RunResult &out, SpanLog *log, double *analysis_ns);

/**
 * Produced log and remapped dump of one real-thread producer over its
 * newest @p window records, so analyzeContinuity can read them
 * (stamps 1..window in production order). Records older than the
 * window are left out; Ledger::check reports them.
 */
void producerView(const Ledger &ledger, const PayloadTable &table,
                  unsigned producer, uint64_t window,
                  const std::vector<btrace::DumpEntry> &entries,
                  std::vector<btrace::ProducedEvent> &produced,
                  btrace::Dump &dump);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
