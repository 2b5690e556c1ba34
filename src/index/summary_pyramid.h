/**
 * @file
 * Multi-resolution summary pyramids: O(pixels) answers at any zoom.
 *
 * Interactive queries must answer at UI latency regardless of trace
 * size, but an exact scan touches every event in the view interval —
 * at billion-event scale that is the wall (the ROADMAP's "O(pixels),
 * not O(events)" item; Traveler's aggregated task-trace navigation is
 * the exemplar). The pyramid partitions the trace span into leaves of
 * one fixed granularity g0 (the smallest power of two putting the leaf
 * count near a few thousand) and precomputes, per CPU, the state
 * occupancy of every leaf as flat cumulative columns: for each state
 * with nonzero time on the CPU, one cell (leaf, time in the state
 * through the end of that leaf) per leaf where the state occurs. The
 * time of a state over a leaf range [a, b) is prefix(b) - prefix(a),
 * two searches of its column with no tree walk, and is exact for
 * that *leaf-aligned* interval, not an approximation of it. A column
 * has cells only where its state occurs, so memory stays O(state
 * events + leaves) per CPU whatever the state ids are (they are not
 * validated, so a dense state x leaf table would let one hostile file
 * pay a table row per distinct id).
 *
 * The query plane (session/query_engine.cc) uses this as follows: a
 * query carrying Resolution::Budget or Resolution::Pixels has its
 * interval snapped outward to the coarsest power-of-two multiple of g0
 * within the error budget, and the snapped interval is answered
 * exactly — state occupancy from these columns, task counts from the
 * trace-global task index of TracePyramids, counter extrema from the
 * per-(cpu, counter) index::CounterIndex. The result reports the
 * snapped interval and a ResolutionInfo provenance.
 *
 * Resolution::Exact reads this structure but never builds it: exact
 * interval stats take the whole leaves inside the requested interval
 * from an already-built pyramid (stats::intervalStateChunk) and scan
 * only the two partial edges, and take their task counts from the
 * task index. The answer is the scan's, bit for bit.
 *
 * The task index is a counting sort over the same leaves: every task
 * bucketed by start leaf, the ends of the tasks that cross into a
 * later leaf bucketed by end leaf, and per leaf the number of task
 * starts and of task ends in the leaves before it. The number of task
 * starts before any instant t, or of task ends at or before it, is
 * then one prefix lookup plus a scan of the buckets of t's leaf, so the
 * task counts of any interval cost O(tasks in two leaves). The build
 * is two linear passes with no comparison sort.
 *
 * One caveat for bit-identity: the exact scan records a zero-valued
 * occupancy entry for a zero-duration state event inside the interval
 * (its slice includes the event, its overlap is zero); the pyramid
 * only records states with nonzero occupancy. Pyramid (Budget/Pixels)
 * answers therefore omit such keys, and an exact query answers a CPU
 * that has zero-duration state events by the scan alone. Traces
 * without zero-duration state events — every writer in this repo —
 * are unaffected.
 *
 * TracePyramids is the lazily-built, per-CPU-sharded store shared
 * across every session viewing one trace (Session::SharedCaches), the
 * same idiom as CounterIndexCache: one lock per CPU shard, builds for
 * different CPUs never contend, references stay valid for the
 * pyramids' lifetime, which is the trace's.
 */

#ifndef AFTERMATH_INDEX_SUMMARY_PYRAMID_H
#define AFTERMATH_INDEX_SUMMARY_PYRAMID_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/resolution.h"
#include "base/thread_annotations.h"
#include "base/time_interval.h"
#include "base/types.h"
#include "trace/trace.h"

namespace aftermath {
namespace index {

/** The per-CPU pyramid: cumulative state-occupancy columns over leaves. */
class SummaryPyramid
{
  public:
    /**
     * Build the pyramid of @p cpu over @p trace with leaves of
     * @p leaf_granularity covering @p leaf_count slots from time 0.
     */
    SummaryPyramid(const trace::Trace &trace, CpuId cpu,
                   TimeStamp leaf_granularity, std::uint64_t leaf_count);

    TimeStamp leafGranularity() const { return g0_; }
    std::uint64_t leafCount() const { return leafCount_; }

    /**
     * True when the CPU has a zero-duration state event, whose
     * zero-valued key the exact scan records and occupancy() omits.
     */
    bool hasZeroDurationStates() const { return zeroDurationStates_; }

    /**
     * Exact state occupancy over the aligned leaf range
     * [@p first_leaf, @p last_leaf): adds time-per-state into @p into
     * (states with zero occupancy are absent) and counts the summary
     * cells read into @p cells_read.
     */
    void occupancy(std::uint64_t first_leaf, std::uint64_t last_leaf,
                   std::map<std::uint32_t, TimeStamp> &into,
                   std::uint64_t &cells_read) const;

    /**
     * Caller-owned state of occupancyOver(), reused across calls: the
     * answer, plus one cell cursor per state column. A left-to-right
     * sweep of adjacent intervals (a lane's pixel columns) then seeks
     * each column from where the previous call stopped. Any cursor
     * value is safe: one past the interval's start is ignored and the
     * column searched from its first cell.
     */
    struct Sweep
    {
        /** (state, time) of positive time, in state order. */
        std::vector<std::pair<std::uint32_t, double>> occupancy;
        std::vector<std::size_t> cursors;
    };

    /**
     * Approximate state occupancy over an *arbitrary* interval, for
     * sub-pixel render bands: whole leaves inside the interval are
     * exact; a partially covered boundary leaf contributes its
     * occupancy scaled by the covered fraction. Replaces
     * @p sweep.occupancy with the answer.
     */
    void occupancyOver(const TimeInterval &interval, Sweep &sweep,
                       std::uint64_t &cells_read) const;

  private:
    struct Cell
    {
        std::uint64_t leaf;
        TimeStamp cumulative; ///< Time in the state through this leaf.
    };

    /**
     * Index of the first cell of @p column at or after @p leaf, given
     * that every cell before @p from precedes it: a galloping search
     * forward from @p from, O(log distance).
     */
    static std::size_t seek(const std::vector<Cell> &column,
                            std::size_t from, std::uint64_t leaf);

    /** Time of @p column in the cells before index @p pos. */
    static TimeStamp
    before(const std::vector<Cell> &column, std::size_t pos)
    {
        return pos == 0 ? 0 : column[pos - 1].cumulative;
    }

    TimeStamp g0_;
    std::uint64_t leafCount_;
    bool zeroDurationStates_ = false;
    std::vector<std::uint32_t> stateIds_; ///< Sorted; slot order of columns_.
    /** One column per state, cells in increasing leaf order. */
    std::vector<std::vector<Cell>> columns_;
};

/**
 * The shared, per-CPU-sharded pyramid store of one trace. One leaf
 * granularity g0 for every CPU (chosen from the trace span), per-CPU
 * pyramids built lazily under per-shard locks (rank kPyramidShard),
 * plus the trace-global task index by leaf, built eagerly: the tasks
 * bucketed by start leaf and the leaf-crossing task ends bucketed by
 * end leaf, with per-leaf prefix counts. They answer the interval task counts
 * (tasksStarted / tasksOverlapping) of any interval exactly, as the
 * scan defines them, at the cost of the tasks in two leaves, and
 * select the histogram's candidate tasks by start leaf.
 */
class TracePyramids
{
  public:
    /** Target leaf count the granularity is chosen against. */
    static constexpr std::uint64_t kTargetLeaves = 4096;

    /** Pyramids over @p trace, which must stay alive and unchanged. */
    explicit TracePyramids(const trace::Trace &trace);

    /** Leaf granularity shared by every CPU's pyramid. */
    TimeStamp leafGranularity() const { return g0_; }

    /** Leaves per pyramid; the domain is [0, leafCount * g0). */
    std::uint64_t leafCount() const { return leafCount_; }

    /**
     * End of the pyramid domain: past the trace span's end, except for
     * a span ending within g0 of 2^64, whose top leaf is dropped so
     * the domain end stays representable.
     */
    TimeStamp domainEnd() const { return g0_ * leafCount_; }

    /**
     * The pyramid of @p cpu, built on first use; panics on
     * out-of-range ids. Thread-safe; the reference stays valid for
     * this object's lifetime. When @p built is non-null it is set to
     * whether *this* call constructed the pyramid (decided under the
     * shard lock), which lets PyramidBuildQuery attribute its builds.
     */
    const SummaryPyramid &get(CpuId cpu, bool *built = nullptr);

    /** Like get(), but returns nullptr for out-of-range CPU ids. */
    const SummaryPyramid *getOrNull(CpuId cpu, bool *built = nullptr);

    /**
     * The pyramid of @p cpu if one is already built, else nullptr
     * (also for out-of-range ids). Never builds: the exact path uses
     * what is there. Thread-safe; a non-null result stays valid for
     * this object's lifetime.
     */
    const SummaryPyramid *getIfBuilt(CpuId cpu) const;

    /** Number of pyramids currently built. */
    std::size_t size() const;

    /**
     * The granularity (a power-of-two multiple of g0) the engine
     * snaps @p interval to under @p resolution, or 0 when the request
     * must fall back to the exact scan (Exact kind, a budget finer
     * than one leaf, or a zero-width Pixels request).
     */
    TimeStamp granularityFor(const Resolution &resolution,
                             const TimeInterval &interval) const;

    /**
     * @p interval with both edges snapped outward to multiples of
     * @p granularity and clamped to the pyramid domain. Each edge
     * moves by less than @p granularity; the result is leaf-aligned.
     */
    TimeInterval snap(const TimeInterval &interval,
                      TimeStamp granularity) const;

    /** Leaf range [first, last) of a leaf-aligned @p interval. */
    std::pair<std::uint64_t, std::uint64_t>
    leafRange(const TimeInterval &interval) const;

    // The task-index queries below take any interval: unaligned,
    // empty, inverted or reaching past domainEnd().

    /** Tasks (trace-wide) whose start lies inside @p interval. */
    std::uint64_t tasksStartedIn(const TimeInterval &interval) const;

    /**
     * Tasks (trace-wide) whose interval overlaps @p interval, by
     * TimeInterval::overlaps(): the tasks starting before its end less
     * those ending at or before its start. Tasks whose end wrapped
     * below their start, and the tasks an empty or inverted interval
     * separates, are counted by the predicate itself.
     */
    std::uint64_t tasksOverlapping(const TimeInterval &interval) const;

    /**
     * All task instances bucketed by start leaf, in leaf order and in
     * trace order within a leaf; tasks starting at or past domainEnd()
     * come last.
     */
    const std::vector<const trace::TaskInstance *> &tasksByStart() const
    {
        return tasksByStart_;
    }

    /**
     * Index range [first, last) into tasksByStart() of the tasks whose
     * start leaf meets @p interval (empty for an empty interval): every
     * task starting inside it, plus, unless the interval is
     * leaf-aligned, tasks of its edge leaves starting outside it, which
     * callers drop by TimeInterval::contains().
     */
    std::pair<std::size_t, std::size_t>
    taskStartRange(const TimeInterval &interval) const;

  private:
    /** Bucket of time @p t: its leaf, or leafCount_ past the domain. */
    std::uint64_t bucketOf(TimeStamp t) const
    {
        return std::min<std::uint64_t>(t >> shift_, leafCount_);
    }

    /** Tasks starting before @p t (wrapped ones included). */
    std::uint64_t startsBefore(TimeStamp t) const;

    /** Tasks with start <= end ending at or before @p t. */
    std::uint64_t endsBy(TimeStamp t) const;

    /**
     * One CPU's slot, guarded by its own lock. Shards share one rank
     * (kPyramidShard) because no code path holds two at once.
     */
    struct Shard
    {
        mutable base::Mutex mutex{base::lockrank::kPyramidShard,
                                  "pyramid-shard"};
        std::unique_ptr<SummaryPyramid> pyramid AM_GUARDED_BY(mutex);
    };

    const trace::Trace &trace_;
    TimeStamp g0_ = 1;
    int shift_ = 0; ///< log2(g0_): g0 is a power of two.
    std::uint64_t leafCount_ = 1;
    std::vector<Shard> shards_; ///< One per CPU; never resized.

    // Immutable after construction: the trace-global task index. Its
    // buckets are the leaves plus one trailing bucket, leafCount_, for
    // times at or past the domain end; [k] of a prefix array counts
    // the entries in the buckets before k, k <= leafCount_ + 1.
    std::vector<std::uint64_t> startsBucketBefore_;
    std::vector<const trace::TaskInstance *> tasksByStart_;
    /** Ends of the tasks with start <= end, counted by end bucket. */
    std::vector<std::uint64_t> endsBucketBefore_;
    /** The ends of those whose end bucket follows their start bucket,
     *  bucketed by end bucket (the others are in tasksByStart_). */
    std::vector<std::uint64_t> crossingBucketBefore_;
    std::vector<TimeStamp> crossingEnds_;
    /** Tasks whose end wrapped below their start (hostile input). */
    std::vector<const trace::TaskInstance *> wrapped_;
};

} // namespace index
} // namespace aftermath

#endif // AFTERMATH_INDEX_SUMMARY_PYRAMID_H
