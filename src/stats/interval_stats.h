/**
 * @file
 * Aggregate statistics for a user-selected interval.
 *
 * The statistical views present aggregate quantitative information for a
 * user-selected interval from the timeline (paper section II-A group 2):
 * per-state time breakdown, average parallelism and task counts.
 *
 * The stats of one interval decompose into independent partial sums —
 * one per CPU's state array plus disjoint chunks of the task-instance
 * array — merged with mergeFrom(). Every quantity is an exact integer
 * sum, so any partition and merge order reproduces the serial scan
 * bit for bit; the session's parallel interval-statistics executor is
 * built on intervalStateChunk()/intervalTaskChunk().
 */

#ifndef AFTERMATH_STATS_INTERVAL_STATS_H
#define AFTERMATH_STATS_INTERVAL_STATS_H

#include <cstdint>
#include <map>

#include "base/resolution.h"
#include "base/time_interval.h"
#include "base/types.h"
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
    /** Tasks that started within the interval. */
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
 * Partial interval statistics of one CPU: the per-state time overlap of
 * @p cpu's state events with @p interval (task counts untouched).
 */
IntervalStats intervalStateChunk(const trace::CpuTimeline &cpu,
                                 const TimeInterval &interval);

/**
 * Partial interval statistics of the task instances in [@p first,
 * @p last): overlap and start counts within @p interval (state times
 * untouched).
 */
IntervalStats intervalTaskChunk(const trace::TaskInstance *first,
                                const trace::TaskInstance *last,
                                const TimeInterval &interval);

} // namespace stats
} // namespace aftermath

#endif // AFTERMATH_STATS_INTERVAL_STATS_H
