/**
 * @file
 * Aggregate statistics for a user-selected interval.
 *
 * The statistical views present aggregate quantitative information for a
 * user-selected interval from the timeline (paper section II-A group 2):
 * per-state time breakdown, average parallelism and task counts.
 *
 * The state times of one interval decompose into independent partial
 * sums, one per CPU, merged with mergeFrom(). Every quantity is an
 * exact integer sum, so any partition and merge order reproduces the
 * serial scan bit for bit. The session's interval-statistics executor
 * runs intervalStateChunk() once per CPU and takes the task counts
 * from the trace-global task index (index/summary_pyramid.h).
 */

#ifndef AFTERMATH_STATS_INTERVAL_STATS_H
#define AFTERMATH_STATS_INTERVAL_STATS_H

#include <cstdint>
#include <map>

#include "base/resolution.h"
#include "base/time_interval.h"
#include "base/types.h"
#include "index/summary_pyramid.h"
#include "trace/trace.h"

namespace aftermath {
namespace stats {

/** Per-state and task statistics of one timeline interval. */
struct IntervalStats
{
    TimeInterval interval;
    /** Total worker time per state id within the interval. */
    std::map<std::uint32_t, TimeStamp> timeInState;
    /** Tasks whose execution overlaps the interval. */
    std::uint64_t tasksOverlapping = 0;
    /** Tasks whose start lies within the interval, whatever their end. */
    std::uint64_t tasksStarted = 0;

    /**
     * How the result was answered (base/resolution.h): exact scan, or
     * pyramid cells over a snapped interval — in which case
     * this->interval reports the snapped interval actually computed.
     */
    ResolutionInfo resolution;

    /** Total worker time across all states. */
    TimeStamp totalTime() const;

    /** Fraction of worker time spent in @p state (0 if no time at all). */
    double stateFraction(std::uint32_t state) const;

    /**
     * Average parallelism: mean number of workers executing tasks
     * simultaneously (task-exec time / interval duration).
     */
    double averageParallelism(std::uint32_t task_exec_state) const;

    /**
     * Accumulate the partial sums of @p other (computed over disjoint
     * slices of the same interval) into this object. The interval
     * itself is untouched; state entries present in @p other with a
     * zero sum are created here too, so a chunked scan reproduces the
     * serial scan's map exactly.
     */
    void mergeFrom(const IntervalStats &other);
};

/**
 * Partial interval statistics of one CPU: the exact per-state time
 * overlap of @p cpu's state events with @p interval, recording a state
 * key (possibly zero-valued) for every event the interval's slice
 * holds; task counts untouched. When @p pyramid (the CPU's pyramid if
 * built, else null) is non-null and the CPU has no zero-duration state
 * event, the whole leaves inside the interval answer from its
 * cumulative cells and only the two partial edge sub-intervals are
 * scanned; otherwise the whole interval is.
 */
IntervalStats intervalStateChunk(const trace::CpuTimeline &cpu,
                                 const TimeInterval &interval,
                                 const index::SummaryPyramid *pyramid);

} // namespace stats
} // namespace aftermath

#endif // AFTERMATH_STATS_INTERVAL_STATS_H
