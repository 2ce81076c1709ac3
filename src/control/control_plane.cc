#include "control/control_plane.h"

#include "common/test_hooks.h"

namespace btrace {

namespace {

/** Seqlock read of one page entry; false on a torn/mid-write slot. */
bool
readEntry(const ControlPageEntry &e, uint64_t want_version,
          ControlConfig &out, uint64_t &applied_ns)
{
    for (int attempt = 0; attempt < 3; ++attempt) {
        const uint64_t s0 = e.seq.load(std::memory_order_acquire);
        if (s0 == 0 || (s0 & 1))
            continue;  // never written, or writer mid-flight
        ControlConfig c;
        uint64_t version = e.version.load(std::memory_order_relaxed);
        uint64_t applied = e.appliedNs.load(std::memory_order_relaxed);
        c.sampleRate = controlFxToRate(
            e.sampleRateFx.load(std::memory_order_relaxed));
        for (std::size_t i = 0; i < kControlCategorySlots; ++i) {
            const uint64_t fx =
                e.categoryRateFx[i].load(std::memory_order_relaxed);
            c.categoryRate[i] = fx == ControlPageEntry::kInheritRate
                                    ? -1.0
                                    : controlFxToRate(fx);
        }
        c.firstK = static_cast<uint32_t>(
            e.firstK.load(std::memory_order_relaxed));
        c.intervalSec =
            double(e.intervalNs.load(std::memory_order_relaxed)) / 1e9;
        c.recordBudget = e.recordBudget.load(std::memory_order_relaxed);
        c.ringMinBlocks = static_cast<std::size_t>(
            e.ringMinBlocks.load(std::memory_order_relaxed));
        c.ringMaxBlocks = static_cast<std::size_t>(
            e.ringMaxBlocks.load(std::memory_order_relaxed));
        const uint64_t flags = e.flags.load(std::memory_order_relaxed);
        c.journalEnabled = (flags & ControlPageEntry::kJournalFlag) != 0;
        c.watchdogEnabled =
            (flags & ControlPageEntry::kWatchdogFlag) != 0;
        std::atomic_thread_fence(std::memory_order_acquire);
        if (e.seq.load(std::memory_order_relaxed) != s0)
            continue;  // overwritten while reading
        if (version != want_version)
            return false;  // the slot was lapped by a newer publish
        out = c;
        applied_ns = applied;
        return true;
    }
    return false;
}

} // namespace

ControlPlane::ControlPlane(Tracer &tracer_,
                           const ControlGeometry &geometry,
                           ControlPage *page_, bool owner_init,
                           const ControlConfig &initial)
    : tracer(tracer_), geo(geometry), page(page_)
{
    if (page != nullptr && owner_init) {
        // Fresh arena: wipe a previous life's page before anyone can
        // attach (the owner publishes ready only after this ctor).
        page->publishCount.store(0, std::memory_order_relaxed);
        for (ControlPageEntry &e : page->entries)
            e.seq.store(0, std::memory_order_relaxed);
    }
    if (page != nullptr && !owner_init) {
        // Attachment: adopt whatever the arena currently publishes;
        // fall back to @p initial when nothing was ever published or
        // the newest entry is torn right now (poll() converges later).
        const uint64_t v =
            page->publishCount.load(std::memory_order_acquire);
        ControlConfig c;
        uint64_t applied = 0;
        if (v > 0 &&
            readEntry(page->entries[(v - 1) % kControlHistory], v, c,
                      applied)) {
            publish(c, v, /*write_page=*/false);
            lastSeenPageVersion = v;
            return;
        }
        lastSeenPageVersion = v;
    }
    uint64_t version = 1;
    if (page != nullptr && owner_init) {
        version = page->publishCount.fetch_add(
                      1, std::memory_order_acq_rel) + 1;
        lastSeenPageVersion = version;
    }
    publish(initial, version, /*write_page=*/page != nullptr);
}

ControlPlane::~ControlPlane()
{
    tracer.setControlSnapshot(nullptr);
}

Status
ControlPlane::validateBounds(const ControlConfig &c,
                             const ControlGeometry &g)
{
    const std::size_t a = g.activeBlocks;
    if (c.ringMinBlocks != 0 &&
        (c.ringMinBlocks < a || c.ringMinBlocks % a != 0))
        return errInvalidArgument(
            "control: ringMinBlocks must be a multiple of A >= A");
    if (c.ringMaxBlocks != 0 && c.ringMaxBlocks % a != 0)
        return errInvalidArgument(
            "control: ringMaxBlocks must be a multiple of A");
    if (c.ringMaxBlocks != 0 && c.ringMaxBlocks > g.maxBlocks)
        return errInvalidArgument(
            "control: ringMaxBlocks exceeds the storage ceiling "
            "(maxBlocks)");
    return Status();
}

Status
ControlPlane::apply(const ControlConfig &next)
{
    if (Status st = next.validate(); !st.ok())
        return st;
    if (Status st = validateBounds(next, geo); !st.ok())
        return st;
    std::scoped_lock lock(mu);
    uint64_t version;
    if (page != nullptr) {
        version = page->publishCount.fetch_add(
                      1, std::memory_order_acq_rel) + 1;
        lastSeenPageVersion = version;
    } else {
        version = snaps.empty() ? 1 : snaps.back()->version + 1;
    }
    publish(next, version, /*write_page=*/page != nullptr);
    return Status();
}

bool
ControlPlane::poll()
{
    if (page == nullptr)
        return false;
    // Control-poll-phase probe (DESIGN.md §14): how much of the
    // renewal cadence goes to watching the control page.
    PhaseProbe probe(tracer.activeProfiler(),
                     ProfilePhase::ControlPoll);
    // The whole no-change path: one relaxed load and a compare.
    const uint64_t v =
        page->publishCount.load(std::memory_order_relaxed);
    std::scoped_lock lock(mu);
    if (v <= lastSeenPageVersion)
        return false;
    ControlConfig c;
    uint64_t applied = 0;
    if (!readEntry(page->entries[(v - 1) % kControlHistory], v, c,
                   applied))
        return false;  // mid-write or lapped; converge on a later poll
    lastSeenPageVersion = v;
    publish(c, v, /*write_page=*/false);
    return true;
}

ControlConfig
ControlPlane::current() const
{
    std::scoped_lock lock(mu);
    return snaps.empty() ? ControlConfig{} : snaps.back()->cfg;
}

uint64_t
ControlPlane::version() const
{
    std::scoped_lock lock(mu);
    return snaps.empty() ? 0 : snaps.back()->version;
}

std::vector<const ControlSnapshot *>
ControlPlane::history() const
{
    std::scoped_lock lock(mu);
    std::vector<const ControlSnapshot *> out;
    out.reserve(snaps.size());
    for (const auto &s : snaps)
        out.push_back(s.get());
    return out;
}

void
ControlPlane::publish(const ControlConfig &c, uint64_t version,
                      bool write_page)
{
    auto snap = std::make_unique<ControlSnapshot>(
        ControlSnapshot::build(version, c, &state));
    const ControlSnapshot *next =
        snap->isDefault() ? nullptr : snap.get();
    snaps.push_back(std::move(snap));
    if (write_page)
        writePage(*snaps.back());
    // Critical window: the snapshot exists (and, on shared arenas, is
    // already on the page) but this tracer still serves the previous
    // version. Tests park here to pin the swap ordering.
    BTRACE_TEST_YIELD(ControlPreSwap);
    // Single publication point: one release store; readers pay one
    // acquire load. Old snapshots stay alive in `snaps`, so a reader
    // holding the previous pointer never races reclamation.
    tracer.setControlSnapshot(next);
}

void
ControlPlane::writePage(const ControlSnapshot &s)
{
    ControlPageEntry &e =
        page->entries[(s.version - 1) % kControlHistory];
    // Seqlock write: odd while mutating, then publish 2 * version.
    e.seq.store(2 * s.version - 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    e.version.store(s.version, std::memory_order_relaxed);
    e.appliedNs.store(s.appliedNs, std::memory_order_relaxed);
    e.sampleRateFx.store(controlRateToFx(s.cfg.sampleRate),
                         std::memory_order_relaxed);
    for (std::size_t i = 0; i < kControlCategorySlots; ++i)
        e.categoryRateFx[i].store(
            s.cfg.categoryRate[i] < 0.0
                ? ControlPageEntry::kInheritRate
                : controlRateToFx(s.cfg.categoryRate[i]),
            std::memory_order_relaxed);
    e.firstK.store(s.cfg.firstK, std::memory_order_relaxed);
    e.intervalNs.store(s.intervalNs, std::memory_order_relaxed);
    e.recordBudget.store(s.cfg.recordBudget, std::memory_order_relaxed);
    e.ringMinBlocks.store(s.cfg.ringMinBlocks,
                          std::memory_order_relaxed);
    e.ringMaxBlocks.store(s.cfg.ringMaxBlocks,
                          std::memory_order_relaxed);
    e.flags.store(
        (s.cfg.journalEnabled ? ControlPageEntry::kJournalFlag : 0) |
            (s.cfg.watchdogEnabled ? ControlPageEntry::kWatchdogFlag
                                   : 0),
        std::memory_order_relaxed);
    e.seq.store(2 * s.version, std::memory_order_release);
}

} // namespace btrace
