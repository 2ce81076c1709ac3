#include "oracle.h"

#include <filesystem>

#include "common/prng.h"
#include "core/auditor.h"
#include "trace/event.h"
#include "trace/segment_stats.h"
#include "trace/trace_file.h"

namespace perfbench {

using namespace btrace;

PayloadTable::PayloadTable(uint64_t seed) : sizes(kSize)
{
    // One fixed multiset of sizes, put in a --seed dependent order:
    // every seed writes the same bytes per record on average, so a
    // seed changes which record gets which size, not the load.
    Prng draw(0x5eed);
    uint64_t sum = 0;
    for (uint32_t &s : sizes) {
        s = static_cast<uint32_t>(draw.heavyTail(16.0, 512.0, 1.1));
        sum += s;
    }
    mean = static_cast<uint32_t>(sum / kSize);
    Prng order(seed * 0x9e3779b97f4a7c15ull + 1);
    for (std::size_t i = kSize - 1; i > 0; --i)
        std::swap(sizes[i], sizes[order.next() % (i + 1)]);
}

uint32_t
PayloadTable::entryBytes(unsigned producer, uint64_t seq) const
{
    return static_cast<uint32_t>(
        EntryLayout::normalSize(payload(producer, seq)));
}

Ledger::Ledger(const PayloadTable &table, unsigned producers)
    : tbl(table), prod(producers, 0), base(producers, 0),
      hits(producers, 0), bits(producers)
{
}

void
Ledger::setProduced(unsigned p, uint64_t count, uint64_t window)
{
    prod[p] = count;
    base[p] = count - std::min(count, window);
    bits[p].assign((count - base[p] + 63) / 64, 0);
    hits[p] = 0;
}

void
Ledger::check(const DumpEntry &e, RunResult &out)
{
    const unsigned p = StampCodec::producerOf(e.stamp);
    const uint64_t seq = StampCodec::seqOf(e.stamp);
    if (p >= prod.size() || seq >= prod[p] ||
        e.thread != StampCodec::kThreadBase + p) {
        out.violation("unknown stamp " + std::to_string(e.stamp));
        return;
    }
    if (seq < base[p]) {
        out.violation("record " + std::to_string(e.stamp) +
                      " is older than the ring can hold");
        return;
    }
    const uint64_t i = seq - base[p];
    uint64_t &word = bits[p][i >> 6];
    const uint64_t bit = uint64_t(1) << (i & 63);
    if (word & bit) {
        out.violation("duplicate stamp " + std::to_string(e.stamp));
        return;
    }
    word |= bit;
    ++hits[p];
    if (!e.payloadOk)
        out.violation("corrupt payload at stamp " +
                      std::to_string(e.stamp));
    if (e.size != tbl.entryBytes(p, seq))
        out.violation("entry size " + std::to_string(e.size) +
                      " differs from produced size at stamp " +
                      std::to_string(e.stamp));
}

uint64_t
Ledger::missing(unsigned p) const
{
    return prod[p] - base[p] - hits[p];
}

SegmentCheck
checkSegments(const std::string &dir, RunResult &out)
{
    SegmentCheck sc;
    auto files = listSegmentFiles(dir);
    if (!files.ok()) {
        out.violation("no segments in " + dir + ": " +
                      files.status().toString());
        return sc;
    }
    for (const SegmentFile &f : files.value()) {
        auto seg = readSegment(f.path, /*strict=*/true);
        if (!seg.ok()) {
            out.violation("strict decode failed for " + f.path + ": " +
                          seg.status().toString());
            continue;
        }
        const SegmentInfo &info = seg.value();
        ++sc.files;
        sc.fileBytes += std::filesystem::file_size(f.path);
        const SegmentHeaderV2 &h = info.header;
        uint64_t bytes = 0, lo = UINT64_MAX, hi = 0, cats = 0;
        for (const DumpEntry &e : info.entries) {
            bytes += e.size;
            lo = std::min(lo, e.stamp);
            hi = std::max(hi, e.stamp);
        }
        for (uint64_t c : h.categoryRecords)
            cats += c;
        cats += h.otherCategoryRecords;
        const uint64_t n = info.entries.size();
        if (info.version != 2 || h.recordCount != n ||
            h.payloadBytes != bytes || cats != n ||
            (n > 0 && (h.minStamp != lo || h.maxStamp != hi)) ||
            !(h.flags & SegmentHeaderV2::kCleanClose))
            out.violation("segment header of " + f.path +
                          " disagrees with its scan (declared " +
                          std::to_string(h.recordCount) + " records, " +
                          std::to_string(n) + " scanned)");
        sc.records += n;
        sc.entries.insert(sc.entries.end(), info.entries.begin(),
                          info.entries.end());
    }
    return sc;
}

void
checkAudit(BTrace &bt, RunResult &out, const char *what)
{
    const AuditReport rep = BTraceAuditor(bt).audit();
    if (!rep.ok())
        out.violation(std::string("audit failed after ") + what + ": " +
                      rep.summary());
}

ContinuityReport
checkContinuity(const std::vector<ProducedEvent> &produced,
                const Dump &dump, std::size_t capacity, RunResult &out,
                SpanLog *log, double *analysis_ns)
{
    const int64_t t0 = nowNs();
    ContinuityReport rep;
    {
        ScopedSpan span(log, "analysis.continuity");
        rep = analyzeContinuity(produced, dump, capacity);
    }
    if (analysis_ns)
        *analysis_ns += double(nowNs() - t0);

    // Recompute from the produced log and the dump alone: stamps are
    // 1..M in production order; the latest fragment is the run of
    // consecutive retained stamps ending at the newest one.
    const uint64_t m = produced.size();
    std::vector<uint64_t> kept;
    kept.reserve(dump.entries.size());
    uint64_t unknown = 0, corrupt = 0;
    for (const DumpEntry &e : dump.entries) {
        if (e.stamp < 1 || e.stamp > m ||
            produced[e.stamp - 1].stamp != e.stamp ||
            produced[e.stamp - 1].dropped) {
            ++unknown;
            continue;
        }
        if (!e.payloadOk)
            ++corrupt;
        if (e.size != produced[e.stamp - 1].bytes)
            ++corrupt;
        kept.push_back(e.stamp);
    }
    std::sort(kept.begin(), kept.end());
    const std::size_t before = kept.size();
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    const uint64_t dups = before - kept.size();

    double retained = 0.0, latest = 0.0;
    uint64_t fragments = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
        retained += produced[kept[i] - 1].bytes;
        if (i == 0 || kept[i] != kept[i - 1] + 1)
            ++fragments;
    }
    for (std::size_t i = kept.size(); i-- > 0;) {
        latest += produced[kept[i] - 1].bytes;
        if (i == 0 || kept[i - 1] + 1 != kept[i])
            break;
    }

    if (unknown || corrupt || dups)
        out.violation("dump integrity: " + std::to_string(unknown) +
                      " unknown, " + std::to_string(corrupt) +
                      " corrupt, " + std::to_string(dups) +
                      " duplicate stamps");
    if (rep.latestFragmentBytes != latest ||
        rep.retainedBytes != retained ||
        rep.retainedCount != kept.size() || rep.fragments != fragments ||
        rep.duplicateStamps != dups || rep.unknownStamps != unknown)
        out.violation("analyzeContinuity disagrees with the "
                      "recomputation: latest " +
                      std::to_string(rep.latestFragmentBytes) + " vs " +
                      std::to_string(latest) + ", retained " +
                      std::to_string(rep.retainedBytes) + " vs " +
                      std::to_string(retained) + ", fragments " +
                      std::to_string(rep.fragments) + " vs " +
                      std::to_string(fragments));
    return rep;
}

void
producerView(const Ledger &ledger, const PayloadTable &table,
             unsigned producer, uint64_t window,
             const std::vector<DumpEntry> &entries,
             std::vector<ProducedEvent> &produced, Dump &dump)
{
    const uint64_t total = ledger.produced(producer);
    window = std::min(window, total);
    const uint64_t base = total - window;
    produced.clear();
    produced.reserve(window);
    for (uint64_t i = 0; i < window; ++i)
        produced.push_back(ProducedEvent{
            i + 1, table.entryBytes(producer, base + i), 0.0f,
            uint16_t(producer), StampCodec::kThreadBase + producer,
            false});
    dump.entries.clear();
    for (const DumpEntry &e : entries) {
        if (StampCodec::producerOf(e.stamp) != producer)
            continue;
        const uint64_t seq = StampCodec::seqOf(e.stamp);
        if (seq < base || seq >= total)
            continue;
        DumpEntry r = e;
        r.stamp = seq - base + 1;
        dump.entries.push_back(r);
    }
}

} // namespace perfbench
