/**
 * @file
 * The per-trace index store: summary pyramids, counter indexes and the
 * task index.
 *
 * The task index is a counting sort over the summary pyramids' leaves
 * (index/summary_pyramid.h): every task
 * bucketed by start leaf, the ends of the tasks that cross into a
 * later leaf bucketed by end leaf, and per leaf the number of task
 * starts and of task ends in the leaves before it. The number of task
 * starts before any instant t, or of task ends at or before it, is
 * then one prefix lookup plus a scan of the buckets of t's leaf, so the
 * task counts of any interval cost O(tasks in two leaves). The build
 * is two linear passes with no comparison sort.
 *
 * The paper keeps one min/max search tree per counter and per core
 * (section VI-B.c), so any interval's extrema cost O(arity * log n)
 * instead of a rescan. Those trees (index::CounterIndex) and the
 * per-CPU summary pyramids are the same kind of structure: per trace,
 * per CPU, built on first use and kept for the trace's lifetime. So
 * they share one store. Each CPU has one shard, guarded by one lock,
 * holding that CPU's pyramid and its counter indexes.
 *
 * TraceIndex is shared across every session viewing one trace
 * (Session::traceIndex(); the daemon holds one per opened trace), so
 * no consumer ever rebuilds an index another already paid for. Every
 * structure is filter- and view-independent. Builds run under the
 * shard lock: builds for different CPUs never contend, but a pyramid
 * and a counter index of the same CPU build one after the other, and
 * a lookup on that CPU waits for a build in progress. References stay
 * valid for the store's lifetime.
 */

#ifndef AFTERMATH_INDEX_TRACE_INDEX_H
#define AFTERMATH_INDEX_TRACE_INDEX_H

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
#include "index/counter_index.h"
#include "index/summary_pyramid.h"
#include "trace/trace.h"

namespace aftermath {
namespace index {

/** Cumulative hit/build counters of one cache. */
struct CacheCounters
{
    /** Queries answered from the cache. */
    std::uint64_t hits = 0;

    /** Queries that had to construct the value. */
    std::uint64_t builds = 0;

    /** Total queries observed. */
    std::uint64_t total() const { return hits + builds; }
};

/**
 * The shared, per-CPU-sharded index store of one trace. One leaf
 * granularity g0 for every CPU (chosen from the trace span); per-CPU
 * pyramids and per-(CPU, counter) min/max indexes, built lazily under
 * per-shard locks (rank kTraceIndexShard); plus the trace-global task
 * index by leaf, built eagerly: the tasks bucketed by start leaf and
 * the leaf-crossing task ends bucketed by end leaf, with per-leaf
 * prefix counts. They answer the interval task counts (tasksStarted /
 * tasksOverlapping) of any interval exactly, as the scan defines them,
 * at the cost of the tasks in two leaves, and select the histogram's
 * candidate tasks by start leaf.
 */
class TraceIndex
{
  public:
    /** Target leaf count the granularity is chosen against. */
    static constexpr std::uint64_t kTargetLeaves = 4096;

    /** The store of @p trace, which must stay alive and unchanged. */
    explicit TraceIndex(const trace::Trace &trace);

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

    /**
     * The pyramid of @p cpu if one is already built, else nullptr
     * (also for out-of-range ids). Never builds: the exact path uses
     * what is there. Thread-safe; a non-null result stays valid for
     * this object's lifetime.
     */
    const SummaryPyramid *getIfBuilt(CpuId cpu) const;

    /**
     * The min/max index of @p counter on @p cpu, built on first use;
     * panics on out-of-range ids, and a counter never sampled on the
     * CPU yields an index over an empty array (every query invalid).
     * Thread-safe; the reference stays valid for this object's
     * lifetime. @p built is set as by get(), which lets a warm-up
     * attribute its own builds while other queries build.
     */
    const CounterIndex &counterIndex(CpuId cpu, CounterId counter,
                                     bool *built = nullptr);

    /**
     * Extrema of @p counter on @p cpu within @p interval through its
     * index; invalid for unknown CPUs or unsampled counters, which
     * neither build nor insert an index.
     */
    MinMax counterExtrema(CpuId cpu, CounterId counter,
                          const TimeInterval &interval);

    /**
     * Whether the index of @p counter on @p cpu is already built.
     * Builds nothing and counts nothing; false for unknown CPUs.
     */
    bool hasCounterIndex(CpuId cpu, CounterId counter) const;

    /** What the store holds, summed over its shards. */
    struct Counts
    {
        std::size_t pyramids = 0;       ///< Pyramids built.
        std::size_t counterIndexes = 0; ///< Counter indexes built.
        /** counterIndex() and counterExtrema() lookups. */
        CacheCounters counterIndexLookups;
    };

    /** The store's counts; visits the shards one at a time. */
    Counts counts() const;

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

    /** The longest duration of a task whose end did not wrap. */
    TimeStamp maxTaskDuration() const { return maxTaskDuration_; }

    /**
     * Index range [first, last) into tasksByStart() holding every task
     * that overlaps() @p interval: the taskStartRange() of
     * [interval.start - maxTaskDuration(), interval.end), its start
     * held at 0 rather than wrapping. A task that overlaps the interval
     * starts less than its duration before the interval's start, or,
     * if its end wrapped, inside the interval. Callers drop the other
     * tasks of the range by TimeInterval::overlaps().
     */
    std::pair<std::size_t, std::size_t>
    taskOverlapRange(const TimeInterval &interval) const;

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
     * One CPU's slice of the store, guarded by its own lock. Shards
     * share one rank (kTraceIndexShard) because no code path holds two
     * at once.
     */
    struct Shard
    {
        mutable base::Mutex mutex{base::lockrank::kTraceIndexShard,
                                  "trace-index-shard"};
        std::unique_ptr<SummaryPyramid> pyramid AM_GUARDED_BY(mutex);
        // unique_ptr because CounterIndex pins a reference to its
        // sample array and is neither copyable nor movable.
        std::map<CounterId, std::unique_ptr<CounterIndex>> counterIndexes
            AM_GUARDED_BY(mutex);
        CacheCounters counterIndexLookups AM_GUARDED_BY(mutex);
    };

    /** The shard of @p cpu; panics on out-of-range ids. */
    Shard &shardOf(CpuId cpu);

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
    TimeStamp maxTaskDuration_ = 0;
};

} // namespace index
} // namespace aftermath

#endif // AFTERMATH_INDEX_TRACE_INDEX_H
