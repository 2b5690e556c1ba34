#include "metrics/generators.h"

#include <algorithm>

#include "base/logging.h"
#include "base/string_util.h"
#include "metrics/counter_utils.h"
#include "trace/state.h"

namespace aftermath {
namespace metrics {

DerivedCounter
stateOccupancy(const trace::Trace &trace, std::uint32_t state,
               std::uint32_t num_intervals)
{
    AFTERMATH_ASSERT(num_intervals > 0, "need at least one interval");
    DerivedCounter out;
    out.name = strFormat("workers in %s", trace.stateName(state).c_str());
    TimeInterval span = trace.span();
    if (span.empty())
        return out;

    out.samples.reserve(num_intervals);
    for (std::uint32_t i = 0; i < num_intervals; i++) {
        TimeInterval iv = subInterval(span, i, num_intervals);
        if (iv.empty())
            continue;
        TimeStamp total = 0;
        for (CpuId c = 0; c < trace.numCpus(); c++)
            total += trace.cpu(c).timeInState(state, iv);
        double value = static_cast<double>(total) /
                       static_cast<double>(iv.duration());
        out.samples.push_back({iv.start + iv.duration() / 2, value});
    }
    return out;
}

DerivedCounter
averageTaskDuration(const trace::Trace &trace, std::uint32_t num_intervals)
{
    AFTERMATH_ASSERT(num_intervals > 0, "need at least one interval");
    DerivedCounter out;
    out.name = "average task duration";
    TimeInterval span = trace.span();
    if (span.empty())
        return out;

    // Bucket tasks once: a task contributes its duration to every
    // interval its execution overlaps.
    std::vector<double> sums(num_intervals, 0.0);
    std::vector<std::uint64_t> counts(num_intervals, 0);
    TimeStamp width = span.duration() / num_intervals;
    if (width == 0)
        width = 1;
    for (const trace::TaskInstance &task : trace.taskInstances()) {
        if (task.interval.empty())
            continue;
        std::uint64_t first = (task.interval.start - span.start) / width;
        std::uint64_t last = (task.interval.end - 1 - span.start) / width;
        first = std::min<std::uint64_t>(first, num_intervals - 1);
        last = std::min<std::uint64_t>(last, num_intervals - 1);
        for (std::uint64_t i = first; i <= last; i++) {
            sums[i] += static_cast<double>(task.duration());
            counts[i]++;
        }
    }

    out.samples.reserve(num_intervals);
    for (std::uint32_t i = 0; i < num_intervals; i++) {
        TimeInterval iv = subInterval(span, i, num_intervals);
        double value = counts[i] ? sums[i] / static_cast<double>(counts[i])
                                 : 0.0;
        out.samples.push_back({iv.start + iv.duration() / 2, value});
    }
    return out;
}

DerivedCounter
differenceQuotient(const DerivedCounter &series)
{
    DerivedCounter out;
    out.name = "d/dt " + series.name;
    if (series.samples.size() < 2)
        return out;
    out.samples.reserve(series.samples.size() - 1);
    for (std::size_t i = 1; i < series.samples.size(); i++) {
        const DerivedSample &prev = series.samples[i - 1];
        const DerivedSample &cur = series.samples[i];
        if (cur.time == prev.time)
            continue;
        double dv = cur.value - prev.value;
        double dt = static_cast<double>(cur.time - prev.time);
        out.samples.push_back({cur.time, dv / dt});
    }
    return out;
}

DerivedCounter
aggregateCounter(const trace::Trace &trace, CounterId counter,
                 std::uint32_t num_intervals)
{
    AFTERMATH_ASSERT(num_intervals > 0, "need at least one interval");
    DerivedCounter out;
    out.name = strFormat("sum of %s", trace.counterName(counter).c_str());
    TimeInterval span = trace.span();
    if (span.empty())
        return out;

    out.samples.reserve(num_intervals);
    for (std::uint32_t i = 0; i < num_intervals; i++) {
        TimeInterval iv = subInterval(span, i, num_intervals);
        double total = 0.0;
        bool any = false;
        for (CpuId c = 0; c < trace.numCpus(); c++) {
            auto v = counterValueAt(trace.cpu(c), counter, iv.end - 1);
            if (v) {
                total += static_cast<double>(*v);
                any = true;
            }
        }
        if (any)
            out.samples.push_back({iv.end - 1, total});
    }
    return out;
}

DerivedCounter
counterRatio(const DerivedCounter &a, const DerivedCounter &b)
{
    DerivedCounter out;
    out.name = a.name + " / " + b.name;
    out.samples.reserve(a.samples.size());
    for (const DerivedSample &sa : a.samples) {
        // Step-interpolate b at sa.time.
        auto it = std::upper_bound(
            b.samples.begin(), b.samples.end(), sa.time,
            [](TimeStamp t, const DerivedSample &s) { return t < s.time; });
        if (it == b.samples.begin())
            continue;
        double denom = (it - 1)->value;
        if (denom == 0.0)
            continue;
        out.samples.push_back({sa.time, sa.value / denom});
    }
    return out;
}

} // namespace metrics
} // namespace aftermath
