/**
 * @file
 * perfbench — one run of one BTrace benchmark workload.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR
 *
 * Prints a host fingerprint line, then one line
 *   perfbench-result {"correct":..,"attempted":..,"failed":..,
 *                     "values":{..},"violations":[..]}
 * which run.py turns into the benchmark's result line. Exit code 0
 * whenever the run completed, whatever the oracle found.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <sys/personality.h>
#include <unistd.h>

#include "workloads.h"

using namespace perfbench;

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (c == '\n') {
            o += "\\n";
            continue;
        }
        o += c;
    }
    return o;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload record-contended|"
                 "drain-pipeline|replay-retention|replay-leased\n"
                 "                 --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    RunContext ctx;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            ctx.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            ctx.seconds = std::atof(v);
        else if (k == "--trace")
            ctx.traced = std::atoi(v) != 0;
        else if (k == "--work-dir")
            ctx.workDir = v;
        else
            return usage();
    }
    if (ctx.workDir.empty() || ctx.seconds <= 0)
        return usage();
    std::filesystem::create_directories(ctx.workDir);

    RunResult res;
    if (workload == "record-contended")
        res = runRecordContended(ctx);
    else if (workload == "drain-pipeline")
        res = runDrainPipeline(ctx);
    else if (workload == "replay-retention")
        res = runReplayRetention(ctx);
    else if (workload == "replay-leased")
        res = runReplayLeased(ctx);
    else
        return usage();
    res.set("peak_rss_mb", peakRssMb());

#if defined(BTRACE_ENABLE_TEST_HOOKS) && BTRACE_ENABLE_TEST_HOOKS
    const bool hooks = true;
#else
    const bool hooks = false;
#endif
    const bool aslr = !(personality(0xffffffff) & ADDR_NO_RANDOMIZE);
    std::printf("host {\"nproc\":%ld,\"build_type\":\"%s\","
                "\"test_hooks\":%s,\"pinned\":%s,\"aslr\":%s}\n",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
                hooks ? "true" : "false", ctx.pinned ? "true" : "false",
                aslr ? "true" : "false");

    for (const auto &[name, v] : res.values)
        if (!std::isfinite(v))
            res.violation("metric " + name + " is not a finite number");
    std::string values, violations;
    for (const auto &[name, v] : res.values) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g",
                      values.empty() ? "" : ",", name.c_str(),
                      std::isfinite(v) ? v : 0.0);
        values += buf;
    }
    for (const std::string &v : res.violations) {
        std::fprintf(stderr, "violation: %s\n", v.c_str());
        violations += (violations.empty() ? "\"" : ",\"") +
                      jsonEscape(v) + "\"";
    }
    std::printf("perfbench-result {\"correct\":%s,\"attempted\":%llu,"
                "\"failed\":%llu,\"values\":{%s},\"violations\":[%s]}\n",
                res.correct() ? "true" : "false",
                (unsigned long long)res.attempted,
                (unsigned long long)res.failed, values.c_str(),
                violations.c_str());
    return 0;
}
