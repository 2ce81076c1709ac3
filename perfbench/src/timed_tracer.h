/**
 * @file
 * Forwarding Tracer used by the traced run: every call goes to the
 * wrapped BTrace, and a sample of them is timed from this side of the
 * public interface. Tracer::record() on the wrapper reaches the
 * wrapper's allocate()/confirm(), so record-path callers get the
 * split for free. One wrapper per calling thread: the samplers are
 * not shared.
 */

#ifndef PERFBENCH_TIMED_TRACER_H
#define PERFBENCH_TIMED_TRACER_H

#include "core/btrace.h"
#include "harness.h"

namespace perfbench {

class TimedTracer final : public btrace::Tracer
{
  public:
    TimedTracer(btrace::BTrace &inner, SpanLog *log)
        : Tracer(inner.model()), bt(inner), spans(log)
    {
    }

    std::string name() const override { return bt.name(); }
    bool disablesPreemption() const override
    {
        return bt.disablesPreemption();
    }
    std::size_t capacityBytes() const override
    {
        return bt.capacityBytes();
    }

    btrace::WriteTicket
    allocate(uint16_t core, uint32_t thread, uint32_t len) override
    {
        if (!allocNs.due())
            return bt.allocate(core, thread, len);
        const int64_t t0 = nowNs();
        btrace::WriteTicket t = bt.allocate(core, thread, len);
        allocNs.add(nowNs() - t0);
        return t;
    }

    void
    confirm(btrace::WriteTicket &ticket) override
    {
        if (!confirmNs.due())
            return bt.confirm(ticket);
        const int64_t t0 = nowNs();
        bt.confirm(ticket);
        confirmNs.add(nowNs() - t0);
    }

    void
    abandonWrite(btrace::WriteTicket &ticket) override
    {
        bt.abandonWrite(ticket);
    }

    btrace::Lease
    lease(uint16_t core, uint32_t thread, uint32_t hint,
          uint32_t n) override
    {
        if (!claimNs.due())
            return bt.lease(core, thread, hint, n);
        const int64_t t0 = nowNs();
        btrace::Lease l = bt.lease(core, thread, hint, n);
        claimNs.add(nowNs() - t0);
        return l;
    }

    btrace::Dump
    dump() override
    {
        const int64_t t0 = nowNs();
        btrace::Dump d;
        {
            ScopedSpan s(spans, "core.dump");
            d = bt.dump();
        }
        dumpNs += double(nowNs() - t0);
        dumpEntries += d.entries.size();
        return d;
    }

    btrace::Dump
    dumpFrom(btrace::DumpCursor &cursor,
             const btrace::DumpOptions &opts) override
    {
        ScopedSpan s(spans, "core.dump_from");
        return bt.dumpFrom(cursor, opts);
    }

    /**
     * Charge the sampled hot-call time to the innermost open span of
     * the log, as core-layer children.
     */
    void
    chargeSpans() const
    {
        if (spans == nullptr)
            return;
        spans->chargeChild("core.allocate", allocNs.estimatedTotalNs());
        spans->chargeChild("core.confirm", confirmNs.estimatedTotalNs());
        spans->chargeChild("core.lease_claim", claimNs.estimatedTotalNs());
    }

    CallSampler allocNs{16};
    CallSampler confirmNs{16};
    CallSampler claimNs{4};
    double dumpNs = 0.0;
    uint64_t dumpEntries = 0;

  private:
    btrace::BTrace &bt;
    SpanLog *spans;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_TRACER_H
