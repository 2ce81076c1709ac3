#include "sim/replay.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "baselines/bbq.h"
#include "baselines/ftrace_like.h"
#include "baselines/lttng_like.h"
#include "baselines/vtrace_like.h"
#include "common/prng.h"
#include "core/btrace.h"

namespace btrace {

namespace {

/** Per-core piecewise-constant burst modulation of the arrival rate. */
class BurstProfile
{
  public:
    BurstProfile(const Workload &wl, double duration, uint64_t seed)
        : bucketSec(0.5)
    {
        Prng rng(seed * 6364136223846793005ull + wl.seed + 99);
        const auto buckets =
            static_cast<std::size_t>(duration / bucketSec) + 2;
        factors.resize(kCores);
        for (unsigned c = 0; c < kCores; ++c) {
            factors[c].resize(buckets);
            for (auto &f : factors[c]) {
                f = rng.chance(wl.burstiness) ? wl.burstLowFactor : 1.0;
            }
        }
    }

    double
    factorAt(uint16_t core, double t) const
    {
        const auto b = static_cast<std::size_t>(t / bucketSec);
        const auto &f = factors[core];
        return f[std::min(b, f.size() - 1)];
    }

  private:
    double bucketSec;
    std::vector<std::vector<double>> factors;
};

/** One producer's write request: an arrival, retried from the backlog. */
struct SimEv
{
    double t = 0.0;
    uint16_t core = 0;
    uint32_t thread = 0;
    uint64_t stamp = 0;
    uint32_t payload = 0;
    double cost = 0.0;      //!< ns accumulated across attempts
    double arrivalT = 0.0;  //!< when the producer asked to record
    int attempts = 0;
};

/**
 * Event-heap entry. Payloads live outside the heap (a Confirm's ticket
 * in the confirm slab, a LeaseClose's lease in the graveyard), so a
 * sift moves 24 bytes.
 */
struct SimKey
{
    enum Kind : uint8_t { Arrival, Poke, Confirm, LeaseClose };

    double t;
    uint64_t seq;   //!< deterministic tie-break
    uint32_t idx;   //!< Confirm: slab slot; LeaseClose: graveyard index
    uint16_t core;  //!< Arrival only
    Kind kind;
};
static_assert(sizeof(SimKey) == 24);

struct KeyLater
{
    bool
    operator()(const SimKey &a, const SimKey &b) const
    {
        return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
};

/** A mid-write-preempted write waiting for its owner to resume. */
struct DeferredConfirm
{
    WriteTicket ticket;
    double cost;  //!< ns accumulated up to the preemption
};

} // namespace

ReplayResult
replay(Tracer &tracer, const Workload &wl, const ReplayOptions &opt)
{
    ReplayResult res;
    res.tracerName = tracer.name();
    res.workloadName = wl.name;
    res.capacityBytes = tracer.capacityBytes();

    const double duration =
        opt.durationSec > 0 ? opt.durationSec : wl.durationSec;
    // The paper's replay joins every producer thread before dumping,
    // so in-flight writes get to finish: allow stalled confirms a
    // generous flush window past the end of event generation.
    const double grace = duration + 2.0;

    Prng rng(opt.seed * 0x9e3779b97f4a7c15ull ^ (wl.seed << 17));
    const SliceSchedule schedule = SliceSchedule::build(
        wl, opt.mode, duration, opt.seed, opt.sliceMeanSec);
    const BurstProfile bursts(wl, duration, opt.seed);
    const CostModel &model = tracer.model();

    std::priority_queue<SimKey, std::vector<SimKey>, KeyLater> heap;
    uint64_t seq = 0;
    uint64_t stamp_counter = 0;
    auto push_key = [&](double t, SimKey::Kind kind, uint32_t idx,
                        uint16_t core) {
        heap.push(SimKey{t, ++seq, idx, core, kind});
    };

    const double expected = wl.expectedBytes() * opt.rateScale /
                            (double(EntryLayout::normalHeaderBytes) +
                             wl.meanPayloadBytes());
    if (opt.keepProducedLog)
        res.produced.reserve(static_cast<std::size_t>(expected * 1.1) + 64);

    const BoundedPareto payload_dist(wl.payloadLo, wl.payloadHi,
                                     wl.payloadShape);

    auto push_arrival = [&](uint16_t core, double after) {
        const double rate = wl.ratePerSec[core] * opt.rateScale *
                            bursts.factorAt(core, after);
        if (rate <= 0.0)
            return;
        const double t = after + rng.exponential(1.0 / rate);
        if (t >= duration)
            return;
        push_key(t, SimKey::Arrival, 0, core);
    };

    // The ground-truth log gains one entry per *arrival* (stamps stay
    // contiguous even for events still in flight at dump time); the
    // dropped flag is set later if the tracer sheds the event.
    auto log_produced = [&](uint64_t stamp, uint32_t bytes, double t,
                            uint16_t core, uint32_t thread) {
        res.producedBytes += double(bytes);
        if (opt.keepProducedLog) {
            res.produced.push_back(ProducedEvent{
                stamp, bytes, float(t), core, thread, false});
        }
    };

    auto mark_dropped = [&](uint64_t stamp) {
        ++res.drops;
        if (opt.keepProducedLog)
            res.produced[stamp - 1].dropped = true;
    };

    // Self-observation: replay drives allocate/confirm directly, so
    // feed the tracer-level observer (if attached) the same modeled
    // latencies that land in latencyNs — one hook for live and
    // replayed runs alike.
    auto observe_latency = [&](double cost_ns) {
        if (TracerObserver *o = tracer.attachedObserver())
            o->maybeRecordSample(cost_ns);
    };

    // Tickets of writes preempted mid-write, confirmed when the owner
    // resumes. Slots are reused once their Confirm has run.
    std::vector<DeferredConfirm> confirm_slab;
    std::vector<uint32_t> free_slots;
    auto defer_confirm = [&](double resume, const WriteTicket &ticket,
                             double cost) {
        uint32_t idx;
        if (free_slots.empty()) {
            idx = uint32_t(confirm_slab.size());
            confirm_slab.push_back(DeferredConfirm{ticket, cost});
        } else {
            idx = free_slots.back();
            free_slots.pop_back();
            confirm_slab[idx] = DeferredConfirm{ticket, cost};
        }
        push_key(resume, SimKey::Confirm, idx, 0);
    };

    // Global FIFO of events waiting behind a Retry. Both tracers that
    // can return Retry (BBQ behind an unfinished block, BTrace with
    // every metadata block held) block *globally*, and the paper's
    // replay is closed-loop: stalled producers resume in arrival
    // order. An open-loop retry heap (or per-core queues) would
    // reorder or core-segregate the thundering herd and shred the
    // stamp space at overwrite boundaries.
    std::deque<SimEv> backlog;

    enum class WriteStatus { Done, Blocked };

    // Leased mode: one open lease per core, owned by the thread that
    // opened it. A thread handover with the lease still open is a
    // mid-lease preemption: the old owner keeps the close obligation
    // until its next slice, so the lease moves to a graveyard (stable
    // addresses — LeaseClose events index into it) and closes when
    // the owner resumes, or never, for a straggler past the grace
    // window (the destructor then closes it after the final dump,
    // exactly like a writer that never returned).
    struct CoreLeaseSlot
    {
        uint32_t owner = 0;
        Lease lease;
    };
    std::vector<CoreLeaseSlot> coreLeases(kCores);
    std::deque<Lease> graveyard;
    const auto payload_hint = static_cast<uint32_t>(
        wl.meanPayloadBytes());

    // Preemption check shared by both write paths: does the write
    // window survive the thread's scheduling slice? Backlog-delayed
    // events are exempt (see below). Returns the owner's resume time,
    // or a negative value when the write completes undisturbed.
    auto preempted_until = [&](const SimEv &ev, double window_ns) {
        if (opt.mode != ReplayMode::ThreadLevel ||
            ev.t != ev.arrivalT || tracer.disablesPreemption())
            return -1.0;
        const SliceSchedule::Running run =
            schedule.runningAt(ev.core, ev.t);
        const double window =
            window_ns * 1e-9 * opt.preemptionWindowBoost;
        if (run.thread != ev.thread || ev.t + window <= run.sliceEnd)
            return -1.0;
        double resume =
            schedule.nextRunAfter(ev.core, ev.thread, run.sliceEnd);
        resume = std::min(resume, run.sliceEnd + opt.stragglerResumeSec);
        if (rng.chance(opt.longStallProb))
            resume += rng.exponential(opt.longStallMeanSec);
        return resume;
    };

    // One leased write attempt: renew the core's lease as needed and
    // serve the entry from it.
    auto attempt_lease_write = [&](SimEv &ev) {
        auto &slot = coreLeases[ev.core];
        if (!slot.lease.closed() && slot.owner != ev.thread) {
            // The previous owner was descheduled holding the lease.
            ++res.leasesPreempted;
            graveyard.push_back(std::move(slot.lease));
            double resume =
                schedule.nextRunAfter(ev.core, slot.owner, ev.t);
            resume = std::min(resume, ev.t + opt.stragglerResumeSec);
            if (rng.chance(opt.longStallProb))
                resume += rng.exponential(opt.longStallMeanSec);
            // The straggler cutoff is relative to when the handover is
            // noticed, not the absolute grace deadline: a backlog-
            // dilated clock would otherwise declare *every* preempted
            // owner a straggler, and each unclosed lease wedges one
            // metadata block until the tracer deadlocks behind A
            // incomplete blocks. Only the long-stall tail (page
            // faults, compaction) may genuinely never return.
            if (resume <= std::max(grace, ev.t + (grace - duration))) {
                push_key(resume, SimKey::LeaseClose,
                         uint32_t(graveyard.size() - 1), 0);
            }
        }
        for (int renewal = 0; renewal < 2; ++renewal) {
            if (slot.lease.closed() || slot.owner != ev.thread) {
                Lease l = tracer.lease(ev.core, ev.thread, payload_hint,
                                       opt.leaseEntries);
                if (!l.ok()) {
                    ++res.retries;
                    ev.cost += l.cost() + model.retryBackoff;
                    ev.attempts += 1;
                    return WriteStatus::Blocked;
                }
                ++res.leasesOpened;
                slot.owner = ev.thread;
                // The opening event pays the claim; followers pay
                // only the bump (their ticket cost).
                ev.cost += l.cost();
                slot.lease = std::move(l);
            }
            WriteTicket ticket = slot.lease.allocate(ev.payload);
            if (ticket.status == AllocStatus::Drop) {
                mark_dropped(ev.stamp);
                return WriteStatus::Done;
            }
            if (ticket.status == AllocStatus::Retry) {
                // Span (or fallback budget) exhausted: close, renew
                // once; a second failure means the tracer itself is
                // blocked.
                slot.lease.close();
                if (renewal == 1)
                    break;
                continue;
            }
            writeNormal(ticket.dst, ev.stamp, ev.core, ev.thread,
                        opt.category, ev.payload);
            const double copy_cost = model.copy(ticket.entrySize);
            double cost = ev.cost + ticket.cost + copy_cost;
            cost += (ev.t - ev.arrivalT) * 1e9;
            const double resume =
                preempted_until(ev, ticket.cost + copy_cost);
            if (resume >= 0.0) {
                ++res.preemptedWrites;
                if (resume > grace) {
                    // A straggler that never runs again: its slot stays
                    // a hole in the leased span (or an unconfirmed
                    // ticket on the fallback path), the block never
                    // completes and is sacrificed like one held by a
                    // preempted writer (§3.4). The auditor reconciles
                    // the leased deficit against leasedOutstanding.
                    ++res.unconfirmed;
                    return WriteStatus::Done;
                }
                if (ticket.leased) {
                    // The owner finishes the interrupted write on its
                    // next slice, and program order in the owner puts
                    // that before any close it issues — so the confirm
                    // always lands inside the lease. Counting it here
                    // keeps the span hole-free without a deferred
                    // event racing the graveyard close.
                    ticket.cost = 0.0;
                    slot.lease.confirm(ticket);
                    if (opt.keepLatencySamples)
                        res.latencyNs.add(cost);
                    observe_latency(cost);
                    return WriteStatus::Done;
                }
                defer_confirm(resume, ticket, cost);
                return WriteStatus::Done;
            }
            ticket.cost = 0.0;
            slot.lease.confirm(ticket);
            cost += ticket.leased ? 0.0 : ticket.cost;
            if (opt.keepLatencySamples)
                res.latencyNs.add(cost);
            observe_latency(cost);
            return WriteStatus::Done;
        }
        ++res.retries;
        ev.cost += model.retryBackoff;
        ev.attempts += 1;
        return WriteStatus::Blocked;
    };

    // One write attempt: allocate, and on success write + (possibly
    // deferred) confirm.
    auto attempt_write = [&](SimEv &ev) {
        if (opt.leaseEntries > 0)
            return attempt_lease_write(ev);
        WriteTicket ticket =
            tracer.allocate(ev.core, ev.thread, ev.payload);
        double cost = ev.cost + ticket.cost;

        if (ticket.status == AllocStatus::Drop) {
            mark_dropped(ev.stamp);
            return WriteStatus::Done;
        }
        if (ticket.status == AllocStatus::Retry) {
            ++res.retries;
            ev.cost = cost + model.retryBackoff;
            ev.attempts += 1;
            return WriteStatus::Blocked;
        }

        writeNormal(ticket.dst, ev.stamp, ev.core, ev.thread,
                    opt.category, ev.payload);
        const double copy_cost = model.copy(ticket.entrySize);
        cost += copy_cost;
        // A producer stalled behind a blocked tracer experiences the
        // wait as recording latency (the paper measures wall time and
        // tames the outliers with the geometric mean).
        cost += (ev.t - ev.arrivalT) * 1e9;

        // Mid-write preemption: does the write window survive the
        // thread's scheduling slice? Backlog-delayed events are
        // exempt: a whole drained burst shares one service instant,
        // and flagging every burst write that lands near a slice end
        // would manufacture preemption cascades out of the time
        // collapse. A thread preempted mid-write stays *runnable*;
        // the scheduler gets back to it within tens of ms even if
        // the sampled working set would not pick it for a while, so
        // the resume delay is capped — except for the heavy tail of
        // genuine stalls (page faults, compaction, throttling).
        const double resume =
            preempted_until(ev, ticket.cost + copy_cost);
        if (resume >= 0.0) {
            ++res.preemptedWrites;
            if (resume > grace) {
                ++res.unconfirmed;  // run ends before it resumes
                return WriteStatus::Done;
            }
            defer_confirm(resume, ticket, cost);
            return WriteStatus::Done;
        }

        ticket.cost = 0.0;
        tracer.confirm(ticket);
        cost += ticket.cost;
        if (opt.keepLatencySamples)
            res.latencyNs.add(cost);
        observe_latency(cost);
        return WriteStatus::Done;
    };

    // The backlog head is blocked: schedule a poke (exponential-ish
    // backoff bounds the poke rate while the queue stays blocked) and
    // start the blocked clock.
    double blocked_since = -1.0;
    auto stall = [&](double now, int attempts) {
        const double backoff =
            std::min(opt.retryDelaySec * double(1 + attempts / 4), 1e-3);
        push_key(now + backoff, SimKey::Poke, 0, 0);
        if (blocked_since < 0)
            blocked_since = now;
    };

    // Drain the backlog in FIFO order until it blocks again (then
    // stall) or empties.
    auto service = [&](double now) {
        res.maxBacklog = std::max(res.maxBacklog, backlog.size());
        while (!backlog.empty()) {
            SimEv &head = backlog.front();
            head.t = now;
            if (head.attempts > 20000) {
                // Livelock guard: the tracer never unblocked; shed the
                // event so the run terminates.
                mark_dropped(head.stamp);
                backlog.pop_front();
                continue;
            }
            if (attempt_write(head) == WriteStatus::Blocked) {
                stall(now, head.attempts);
                return;
            }
            backlog.pop_front();
        }
        if (blocked_since >= 0) {
            res.blockedSec += now - blocked_since;
            blocked_since = -1.0;
        }
    };

    for (unsigned c = 0; c < kCores; ++c)
        push_arrival(uint16_t(c), 0.0);

    while (!heap.empty()) {
        const SimKey key = heap.top();
        heap.pop();

        switch (key.kind) {
          case SimKey::Arrival: {
            push_arrival(key.core, key.t);
            SimEv ev;
            ev.t = key.t;
            ev.core = key.core;
            ev.thread = schedule.runningAt(ev.core, ev.t).thread;
            ev.stamp = ++stamp_counter;
            ev.arrivalT = ev.t;
            ev.payload = static_cast<uint32_t>(payload_dist.sample(rng));
            log_produced(ev.stamp,
                         uint32_t(EntryLayout::normalSize(ev.payload)),
                         ev.t, ev.core, ev.thread);
            if (!backlog.empty()) {
                // A poke for the blocked head is already pending;
                // this event waits its turn in FIFO order.
                backlog.push_back(ev);
                break;
            }
            // Nothing queued ahead: service() would make exactly this
            // one attempt, so make it in place and queue the event
            // only if it blocks.
            res.maxBacklog = std::max<std::size_t>(res.maxBacklog, 1);
            if (attempt_write(ev) == WriteStatus::Blocked) {
                backlog.push_back(ev);
                stall(ev.t, ev.attempts);
            }
            break;
          }
          case SimKey::Poke: {
            service(key.t);
            break;
          }
          case SimKey::Confirm: {
            DeferredConfirm &dc = confirm_slab[key.idx];
            dc.ticket.cost = 0.0;
            tracer.confirm(dc.ticket);
            if (opt.keepLatencySamples)
                res.latencyNs.add(dc.cost + dc.ticket.cost);
            observe_latency(dc.cost + dc.ticket.cost);
            free_slots.push_back(key.idx);
            break;
          }
          case SimKey::LeaseClose: {
            // The preempted owner got its slice back and returned the
            // lease it was descheduled with.
            graveyard[key.idx].close();
            break;
          }
        }
    }

    // The replay joins every producer before dumping, so threads
    // still owning their core's lease return it now. Graveyard leases
    // whose owner never resumed within the grace window stay open
    // across the dump — their blocks read as in-flight — and are
    // closed by destruction afterwards.
    for (CoreLeaseSlot &slot : coreLeases)
        slot.lease.close();

    res.dump = tracer.dump();
    return res;
}

std::unique_ptr<Tracer>
makeTracer(TracerKind kind, const TracerFactoryOptions &opt)
{
    const CostModel &model = opt.cost ? *opt.cost : CostModel::def();
    switch (kind) {
      case TracerKind::BTrace: {
        BTraceConfig cfg;
        cfg.blockSize = opt.blockSize;
        cfg.cores = opt.cores;
        cfg.activeBlocks =
            opt.activeBlocks ? opt.activeBlocks : 16 * opt.cores;
        // Round to the nearest multiple of A so small capacities do
        // not silently lose a large fraction of the request.
        const std::size_t raw = opt.capacityBytes / opt.blockSize;
        const std::size_t a = cfg.activeBlocks;
        cfg.numBlocks = std::max(a, (raw + a / 2) / a * a);
        if (opt.maxBlocks) {
            cfg.maxBlocks = std::max(cfg.numBlocks,
                                     opt.maxBlocks - opt.maxBlocks % a);
        }
        if (opt.storage != nullptr)
            cfg.storage = *opt.storage;
        cfg.arenaPath = opt.arenaPath;
        return std::make_unique<BTrace>(cfg, model);
      }
      case TracerKind::Bbq: {
        BbqConfig cfg;
        cfg.blockSize = opt.blockSize;
        cfg.numBlocks = opt.capacityBytes / opt.blockSize;
        cfg.cores = opt.cores;
        return std::make_unique<Bbq>(cfg, model);
      }
      case TracerKind::Ftrace: {
        FtraceConfig cfg;
        cfg.capacityBytes = opt.capacityBytes;
        cfg.cores = opt.cores;
        return std::make_unique<FtraceLike>(cfg, model);
      }
      case TracerKind::Lttng: {
        LttngConfig cfg;
        cfg.capacityBytes = opt.capacityBytes;
        cfg.cores = opt.cores;
        cfg.subBuffers = opt.subBuffers;
        return std::make_unique<LttngLike>(cfg, model);
      }
      case TracerKind::Vtrace: {
        VtraceConfig cfg;
        cfg.capacityBytes = opt.capacityBytes;
        cfg.expectedThreads = opt.expectedThreads;
        return std::make_unique<VtraceLike>(cfg, model);
      }
    }
    BTRACE_PANIC("unknown tracer kind");
}

const std::vector<TracerKind> &
allTracerKinds()
{
    static const std::vector<TracerKind> kinds = {
        TracerKind::BTrace, TracerKind::Bbq, TracerKind::Ftrace,
        TracerKind::Lttng, TracerKind::Vtrace};
    return kinds;
}

std::string
tracerKindName(TracerKind kind)
{
    switch (kind) {
      case TracerKind::BTrace: return "BTrace";
      case TracerKind::Bbq: return "BBQ";
      case TracerKind::Ftrace: return "ftrace";
      case TracerKind::Lttng: return "LTTng";
      case TracerKind::Vtrace: return "VTrace";
    }
    return "?";
}

} // namespace btrace
