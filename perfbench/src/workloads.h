/**
 * @file
 * The four workloads and the persistence step they share.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "core/session.h"
#include "daemon/daemon.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {

RunResult runRecordContended(RunContext &ctx);
RunResult runDrainPipeline(RunContext &ctx);
RunResult runReplayRetention(RunContext &ctx);
RunResult runReplayLeased(RunContext &ctx);

/** Session::create(@p cfg), which must succeed. */
btrace::Session createSession(const btrace::BTraceConfig &cfg);

/**
 * Time the set-up: create a session of @p cfg in kSetupBatches batches
 * of kSetupRepeats, the batches kSetupGapMs apart, append each
 * creation's seconds to @p setups, and return the last session. A
 * creation takes microseconds, and at that scale the host's speed
 * varies from one tenth of a second to the next: a batch's median
 * moved by up to 40% between batches, while the median of batches
 * spread over a second held within 10% from run to run.
 */
constexpr int kSetupBatches = 10;
constexpr int kSetupRepeats = 25;
constexpr int kSetupGapMs = 100;
btrace::Session timedSetup(const btrace::BTraceConfig &cfg,
                           std::vector<double> &setups);

/** What persisting a quiesced ring through a ConsumerDaemon gave. */
struct PersistOutcome
{
    btrace::DaemonStats stats;
    SegmentCheck segments;
    double drainNs = 0.0;     //!< wall time inside drainOnce
    double drainCpuNs = 0.0;  //!< thread CPU time inside drainOnce
    double stopNs = 0.0;      //!< wall time of stop()
};

/**
 * Hand @p session to a ConsumerDaemon with default options writing
 * into @p dir (emptied first), drain until nothing is left, stop it,
 * and decode every segment strictly. This is how a flight-recorder
 * ring reaches disk once a trigger fires.
 */
PersistOutcome persistThroughDaemon(btrace::Session session,
                                    const std::string &dir, SpanLog *log,
                                    RunResult &out);

/**
 * Record the daemon-side per-layer metrics of @p p, the sum of
 * @p persists persistence steps, on @p out.
 */
void reportPersist(const PersistOutcome &p, double persists,
                   RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
