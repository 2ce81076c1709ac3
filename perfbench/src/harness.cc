#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

bool
pinToCpu(unsigned cpu)
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    if (n <= 0)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu % unsigned(n), &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

double
timerOverheadNs()
{
    static const double overhead = [] {
        std::vector<double> xs;
        for (int i = 0; i < 2001; ++i) {
            const int64_t a = nowNs();
            xs.push_back(double(nowNs() - a));
        }
        return median(xs);
    }();
    return overhead;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) * 1024.0 / kMiB;  // ru_maxrss is KiB
}

void
SpanLog::close()
{
    if (stack.empty())
        return;
    const Open o = stack.back();
    stack.pop_back();
    const int64_t end = nowNs();
    const double dur = double(end - o.start);
    self[o.name] += std::max(0.0, dur - o.childNs);
    if (!stack.empty())
        stack.back().childNs += dur;
    if (o.keptIndex >= 0)
        kept[std::size_t(o.keptIndex)].end = end;
}

void
SpanLog::open(const char *name)
{
    Open o{name, nowNs(), 0.0, -1};
    if (kept.size() < limit) {
        o.keptIndex = int32_t(kept.size());
        const int32_t parent =
            stack.empty() ? -1 : stack.back().keptIndex;
        kept.push_back(Span{name, o.start, 0, parent});
    }
    stack.push_back(o);
}

void
SpanLog::chargeChild(const char *name, double ns)
{
    self[name] += ns;
    if (!stack.empty())
        stack.back().childNs += ns;
}

void
reportSpans(const std::vector<const SpanLog *> &logs,
            const std::string &path, RunResult &out)
{
    static const char *const kLayers[] = {"core", "daemon", "trace",
                                          "sim",  "analysis", "bench"};
    std::map<std::string, double> self;
    for (const SpanLog *l : logs) {
        for (const auto &[name, ns] : l->selfNs())
            self[name.substr(0, name.find('.'))] += ns;
    }
    for (const char *layer : kLayers)
        out.set(std::string(layer) + ".self_ms", self[layer] / 1e6);

    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        out.violation("cannot write span log " + path);
        return;
    }
    for (const SpanLog *l : logs) {
        const auto &spans = l->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanLog::Span &s = spans[i];
            std::fprintf(f,
                         "{\"thread\":%u,\"id\":%zu,\"name\":\"%s\","
                         "\"start_ns\":%lld,\"end_ns\":%lld,"
                         "\"parent\":%d}\n",
                         l->thread(), i, s.name, (long long)s.start,
                         (long long)s.end, s.parent);
        }
    }
    std::fclose(f);
}

} // namespace perfbench
