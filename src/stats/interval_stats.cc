#include "stats/interval_stats.h"

#include <algorithm>

namespace aftermath {
namespace stats {

TimeStamp
IntervalStats::totalTime() const
{
    TimeStamp total = 0;
    for (const auto &[state, time] : timeInState)
        total += time;
    return total;
}

double
IntervalStats::stateFraction(std::uint32_t state) const
{
    TimeStamp total = totalTime();
    if (total == 0)
        return 0.0;
    auto it = timeInState.find(state);
    TimeStamp t = it == timeInState.end() ? 0 : it->second;
    return static_cast<double>(t) / static_cast<double>(total);
}

double
IntervalStats::averageParallelism(std::uint32_t task_exec_state) const
{
    if (interval.empty())
        return 0.0;
    auto it = timeInState.find(task_exec_state);
    TimeStamp t = it == timeInState.end() ? 0 : it->second;
    return static_cast<double>(t) / static_cast<double>(interval.duration());
}

void
IntervalStats::mergeFrom(const IntervalStats &other)
{
    // operator[] creates zero entries for states other saw but never
    // accumulated time for, matching the serial scan's map shape.
    for (const auto &[state, time] : other.timeInState)
        timeInState[state] += time;
    tasksOverlapping += other.tasksOverlapping;
    tasksStarted += other.tasksStarted;
}

namespace {

/** Add each state event's overlap with @p interval to @p into. */
void
scanStateTime(const trace::CpuTimeline &cpu, const TimeInterval &interval,
              std::map<std::uint32_t, TimeStamp> &into)
{
    const auto &states = cpu.states();
    trace::SliceRange slice = cpu.stateSlice(interval);
    for (std::size_t i = slice.first; i < slice.last; i++) {
        const trace::StateEvent &ev = states[i];
        into[ev.state] += ev.interval.overlapDuration(interval);
    }
}

} // namespace

IntervalStats
intervalStateChunk(const trace::CpuTimeline &cpu,
                   const TimeInterval &interval,
                   const index::SummaryPyramid *pyramid)
{
    IntervalStats partial;
    partial.interval = interval;
    // Whole leaves [first, last) inside the interval: none without a
    // usable pyramid, or for an interval shorter than a leaf.
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    TimeStamp g0 = 1;
    if (pyramid && !pyramid->hasZeroDurationStates()) {
        g0 = pyramid->leafGranularity();
        first = interval.start / g0 + (interval.start % g0 != 0 ? 1 : 0);
        last = std::min(interval.end / g0, pyramid->leafCount());
    }
    if (first >= last) {
        scanStateTime(cpu, interval, partial.timeInState);
        return partial;
    }
    // The whole leaves hold exact sums of positive overlaps, and the
    // edge scans add the rest. Without zero-duration events, every key
    // the full scan would record has positive time, in the leaves or
    // in an edge, so the keys agree too.
    std::uint64_t cells = 0;
    pyramid->occupancy(first, last, partial.timeInState, cells);
    scanStateTime(cpu, {interval.start, first * g0}, partial.timeInState);
    scanStateTime(cpu, {last * g0, interval.end}, partial.timeInState);
    return partial;
}

} // namespace stats
} // namespace aftermath
