/**
 * @file
 * Half-open time intervals [start, end) and the interval algebra used by
 * the timeline, the filters and the derived-metric generators.
 */

#ifndef AFTERMATH_BASE_TIME_INTERVAL_H
#define AFTERMATH_BASE_TIME_INTERVAL_H

#include <algorithm>
#include <cstdint>

#include "base/types.h"

namespace aftermath {

/**
 * A half-open interval of trace time, [start, end).
 *
 * Events in a trace (states, task executions) occupy intervals; the visible
 * portion of the timeline is an interval; each horizontal pixel of the
 * timeline represents an interval (paper section VI-B).
 */
struct TimeInterval
{
    TimeStamp start = 0;
    TimeStamp end = 0;

    constexpr TimeInterval() = default;
    constexpr TimeInterval(TimeStamp s, TimeStamp e) : start(s), end(e) {}

    /** Length of the interval; zero for empty or inverted intervals. */
    constexpr TimeStamp
    duration() const
    {
        return end > start ? end - start : 0;
    }

    /** True if the interval contains no time. */
    constexpr bool empty() const { return end <= start; }

    /** True if @p t lies within [start, end). */
    constexpr bool
    contains(TimeStamp t) const
    {
        return t >= start && t < end;
    }

    /** True if the two intervals share at least one instant. */
    constexpr bool
    overlaps(const TimeInterval &other) const
    {
        return start < other.end && other.start < end;
    }

    /** The intersection of the two intervals (empty if disjoint). */
    constexpr TimeInterval
    intersect(const TimeInterval &other) const
    {
        TimeStamp s = std::max(start, other.start);
        TimeStamp e = std::min(end, other.end);
        return e > s ? TimeInterval(s, e) : TimeInterval(s, s);
    }

    /** Length of time shared with @p other. */
    constexpr TimeStamp
    overlapDuration(const TimeInterval &other) const
    {
        return intersect(other).duration();
    }

    constexpr bool
    operator==(const TimeInterval &other) const = default;
};

/**
 * The @p i-th of @p n equal subdivisions of @p span; the last one
 * absorbs the remainder. The derived-metric generators and the anomaly
 * scanner subdivide with this one rule, so their sub-intervals agree.
 */
constexpr TimeInterval
subInterval(const TimeInterval &span, std::uint32_t i, std::uint32_t n)
{
    TimeStamp width = span.duration() / n;
    TimeStamp start = span.start + static_cast<TimeStamp>(i) * width;
    TimeStamp end = (i + 1 == n) ? span.end : start + width;
    return {start, end};
}

} // namespace aftermath

#endif // AFTERMATH_BASE_TIME_INTERVAL_H
