#include "metrics/counter_utils.h"

#include <algorithm>

namespace aftermath {
namespace metrics {

namespace {

/** Iterator to the last sample with time <= t, or end() if none. */
std::vector<trace::CounterSample>::const_iterator
lastSampleAtOrBefore(const std::vector<trace::CounterSample> &samples,
                     TimeStamp t)
{
    auto it = std::upper_bound(
        samples.begin(), samples.end(), t,
        [](TimeStamp time, const trace::CounterSample &s) {
            return time < s.time;
        });
    if (it == samples.begin())
        return samples.end();
    return it - 1;
}

} // namespace

std::optional<std::int64_t>
counterValueAt(const trace::CpuTimeline &timeline, CounterId counter,
               TimeStamp t)
{
    const auto &samples = timeline.counterSamples(counter);
    auto it = lastSampleAtOrBefore(samples, t);
    if (it == samples.end())
        return std::nullopt;
    return it->value;
}

std::optional<double>
counterValueInterpolated(const trace::CpuTimeline &timeline,
                         CounterId counter, TimeStamp t)
{
    const auto &samples = timeline.counterSamples(counter);
    if (samples.empty())
        return std::nullopt;
    auto after = std::lower_bound(
        samples.begin(), samples.end(), t,
        [](const trace::CounterSample &s, TimeStamp time) {
            return s.time < time;
        });
    if (after == samples.begin())
        return static_cast<double>(samples.front().value);
    if (after == samples.end())
        return static_cast<double>(samples.back().value);
    auto before = after - 1;
    if (after->time == before->time)
        return static_cast<double>(after->value);
    double frac = static_cast<double>(t - before->time) /
                  static_cast<double>(after->time - before->time);
    // The step in 128 bits: two 64-bit values can differ by more than
    // a 64-bit integer holds.
    return static_cast<double>(before->value) +
           frac * static_cast<double>(
                      static_cast<__int128>(after->value) - before->value);
}

} // namespace metrics
} // namespace aftermath
