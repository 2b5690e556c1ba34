#include "index/trace_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "base/logging.h"

namespace aftermath {
namespace index {

namespace {

/**
 * *@p slot, built by @p build when it is empty: the one build path of
 * every per-CPU structure, run under the shard lock. Sets *@p built,
 * when non-null, to whether this call built it, which is exact even
 * while other threads build (a warm-up or a pyramid build counts only
 * its own).
 */
template <typename T, typename Build>
const T &
buildOnce(std::unique_ptr<T> &slot, bool *built, Build build)
{
    const bool missing = slot == nullptr;
    if (missing)
        slot = build();
    if (built)
        *built = missing;
    return *slot;
}

} // namespace

TraceIndex::TraceIndex(const trace::Trace &trace)
    : trace_(trace), shards_(trace.numCpus())
{
    const TimeStamp span_end = trace.span().end;
    // Smallest power-of-two leaf strictly covering the span with at
    // most kTargetLeaves leaves; the extra leaf keeps the last event
    // strictly inside the domain even when the span divides evenly.
    // The loop tests span_end / g0 itself: adding the extra leaf
    // first wraps to 0 when g0 = 1 and span_end = 2^64 - 1.
    g0_ = 1;
    while (span_end / g0_ >= kTargetLeaves)
        g0_ <<= 1;
    leafCount_ = span_end / g0_ + 1;
    // A span ending in the top leaf below 2^64 (hostile input) would
    // put domainEnd() at 2^64: drop that leaf so the domain end stays
    // representable and leaf-aligned. Events past it are ignored like
    // any past the domain.
    if (leafCount_ > std::numeric_limits<TimeStamp>::max() / g0_)
        leafCount_--;

    // The task index, a counting sort over leaves: a task's start leaf
    // and its end leaf are all the order that a count or a range
    // needs. Starts at or past the domain end (a task whose start +
    // duration wrapped, on hostile input) go into the trailing bucket.
    // Such a wrapped task's end lies below its start, so "ended by t"
    // does not imply "started before t" for it: its end stays out of
    // the end counts, and the queries test it directly. A task ending
    // in its start bucket is found through tasksByStart_, so only the
    // ends of tasks crossing into a later bucket are stored.
    shift_ = std::countr_zero(g0_);
    const std::vector<trace::TaskInstance> &instances =
        trace.taskInstances();
    startsBucketBefore_.assign(leafCount_ + 2, 0);
    endsBucketBefore_.assign(leafCount_ + 2, 0);
    crossingBucketBefore_.assign(leafCount_ + 2, 0);
    for (const trace::TaskInstance &task : instances) {
        const std::uint64_t start_bucket = bucketOf(task.interval.start);
        startsBucketBefore_[start_bucket + 1]++;
        if (task.interval.end < task.interval.start) {
            wrapped_.push_back(&task);
            continue;
        }
        maxTaskDuration_ = std::max(maxTaskDuration_, task.duration());
        const std::uint64_t end_bucket = bucketOf(task.interval.end);
        endsBucketBefore_[end_bucket + 1]++;
        if (end_bucket != start_bucket)
            crossingBucketBefore_[end_bucket + 1]++;
    }
    for (std::vector<std::uint64_t> *counts :
         {&startsBucketBefore_, &endsBucketBefore_, &crossingBucketBefore_})
        std::partial_sum(counts->begin(), counts->end(), counts->begin());

    // Scatter in trace order, so each start bucket keeps trace order.
    std::vector<std::uint64_t> next_start(startsBucketBefore_.begin(),
                                          startsBucketBefore_.end() - 1);
    std::vector<std::uint64_t> next_crossing(
        crossingBucketBefore_.begin(), crossingBucketBefore_.end() - 1);
    tasksByStart_.resize(instances.size());
    crossingEnds_.resize(crossingBucketBefore_.back());
    for (const trace::TaskInstance &task : instances) {
        const std::uint64_t start_bucket = bucketOf(task.interval.start);
        tasksByStart_[next_start[start_bucket]++] = &task;
        const std::uint64_t end_bucket = bucketOf(task.interval.end);
        if (task.interval.end >= task.interval.start &&
            end_bucket != start_bucket)
            crossingEnds_[next_crossing[end_bucket]++] = task.interval.end;
    }
}

TraceIndex::Shard &
TraceIndex::shardOf(CpuId cpu)
{
    AFTERMATH_ASSERT(cpu < shards_.size(),
                     "index of cpu %u outside topology (%zu cpus)", cpu,
                     shards_.size());
    return shards_[cpu];
}

const SummaryPyramid &
TraceIndex::get(CpuId cpu, bool *built)
{
    Shard &shard = shardOf(cpu);
    base::MutexLock lock(shard.mutex);
    return buildOnce(shard.pyramid, built, [&] {
        return std::make_unique<SummaryPyramid>(trace_, cpu, g0_,
                                                leafCount_);
    });
}

const SummaryPyramid *
TraceIndex::getIfBuilt(CpuId cpu) const
{
    if (cpu >= shards_.size())
        return nullptr;
    const Shard &shard = shards_[cpu];
    base::MutexLock lock(shard.mutex);
    return shard.pyramid.get();
}

const CounterIndex &
TraceIndex::counterIndex(CpuId cpu, CounterId counter, bool *built)
{
    Shard &shard = shardOf(cpu);
    base::MutexLock lock(shard.mutex);
    bool constructed = false;
    const CounterIndex &entry =
        buildOnce(shard.counterIndexes[counter], &constructed, [&] {
            return std::make_unique<CounterIndex>(
                trace_.cpu(cpu).counterSamples(counter));
        });
    (constructed ? shard.counterIndexLookups.builds
                 : shard.counterIndexLookups.hits)++;
    if (built)
        *built = constructed;
    return entry;
}

MinMax
TraceIndex::counterExtrema(CpuId cpu, CounterId counter,
                           const TimeInterval &interval)
{
    // An unsampled counter has no extrema: answer it without building
    // or inserting an index, so queries over arbitrary counter ids
    // (a daemon client's, say) cannot grow the store.
    if (!trace_.hasCpu(cpu) || trace_.cpu(cpu).counterSamples(counter).empty())
        return MinMax{};
    return counterIndex(cpu, counter).query(interval);
}

bool
TraceIndex::hasCounterIndex(CpuId cpu, CounterId counter) const
{
    if (cpu >= shards_.size())
        return false;
    const Shard &shard = shards_[cpu];
    base::MutexLock lock(shard.mutex);
    return shard.counterIndexes.count(counter) != 0;
}

TraceIndex::Counts
TraceIndex::counts() const
{
    Counts total;
    for (const Shard &shard : shards_) {
        base::MutexLock lock(shard.mutex);
        total.pyramids += shard.pyramid ? 1 : 0;
        total.counterIndexes += shard.counterIndexes.size();
        total.counterIndexLookups.hits += shard.counterIndexLookups.hits;
        total.counterIndexLookups.builds += shard.counterIndexLookups.builds;
    }
    return total;
}

TimeStamp
TraceIndex::granularityFor(const Resolution &resolution,
                              const TimeInterval &interval) const
{
    std::uint64_t budget = 0;
    switch (resolution.kind) {
    case Resolution::Kind::Exact:
        return 0;
    case Resolution::Kind::Budget:
        budget = resolution.maxErrorNs;
        break;
    case Resolution::Kind::Pixels:
        if (resolution.width == 0)
            return 0;
        budget = interval.duration() / resolution.width;
        break;
    }
    if (budget < g0_)
        return 0;
    // Largest power-of-two multiple of g0 within the budget, capped at
    // the domain (a coarser snap could not move an edge any further).
    TimeStamp g = g0_;
    while (g <= budget / 2 && g < domainEnd())
        g *= 2;
    return g;
}

TimeInterval
TraceIndex::snap(const TimeInterval &interval,
                    TimeStamp granularity) const
{
    const TimeStamp dom = domainEnd();
    TimeStamp start = interval.start >= dom
                          ? dom
                          : interval.start / granularity * granularity;
    // Round the end up without forming end + granularity, which can
    // wrap near 2^64; a round-up at or past the domain clamps to it.
    TimeStamp end = dom;
    if (interval.end < dom) {
        const TimeStamp floor = interval.end / granularity * granularity;
        if (floor == interval.end)
            end = floor;
        else if (dom - floor > granularity)
            end = floor + granularity;
    }
    if (end < start)
        end = start;
    return {start, end};
}

std::pair<std::uint64_t, std::uint64_t>
TraceIndex::leafRange(const TimeInterval &interval) const
{
    return {interval.start / g0_,
            std::min(interval.end / g0_, leafCount_)};
}

std::uint64_t
TraceIndex::startsBefore(TimeStamp t) const
{
    const std::uint64_t bucket = bucketOf(t);
    std::uint64_t count = startsBucketBefore_[bucket];
    // Every task of t's bucket starts at or past the bucket's first
    // instant, bucket * g0 (the domain end for the trailing bucket).
    if (t > bucket << shift_)
        for (std::uint64_t i = startsBucketBefore_[bucket];
             i < startsBucketBefore_[bucket + 1]; i++)
            count += tasksByStart_[i]->interval.start < t ? 1 : 0;
    return count;
}

std::uint64_t
TraceIndex::endsBy(TimeStamp t) const
{
    if (t == std::numeric_limits<TimeStamp>::max())
        return endsBucketBefore_.back();
    // #{end <= t} = #{end < below}.
    const TimeStamp below = t + 1;
    const std::uint64_t bucket = bucketOf(below);
    std::uint64_t count = endsBucketBefore_[bucket];
    if (below > bucket << shift_) {
        // The ends in below's bucket: of tasks that also start in it,
        for (std::uint64_t i = startsBucketBefore_[bucket];
             i < startsBucketBefore_[bucket + 1]; i++) {
            const TimeInterval &task = tasksByStart_[i]->interval;
            count += task.start <= task.end && task.end < below ? 1 : 0;
        }
        // and of tasks that start in an earlier one.
        for (std::uint64_t i = crossingBucketBefore_[bucket];
             i < crossingBucketBefore_[bucket + 1]; i++)
            count += crossingEnds_[i] < below ? 1 : 0;
    }
    return count;
}

std::uint64_t
TraceIndex::tasksStartedIn(const TimeInterval &interval) const
{
    return interval.empty() ? 0
                            : startsBefore(interval.end) -
                                  startsBefore(interval.start);
}

std::uint64_t
TraceIndex::tasksOverlapping(const TimeInterval &interval) const
{
    const TimeStamp a = interval.start;
    const TimeStamp b = interval.end;
    // A task with start <= end overlaps [a, b) iff start < b and
    // end > a. For a < b, a task ending by a also starts before b, so
    // #{start < b} - #{end <= a} counts exactly those (unsigned
    // arithmetic: the difference of the two counts stays exact).
    std::uint64_t count = startsBefore(b) - endsBy(a);
    if (b <= a) {
        // Empty or inverted: add back the tasks ending by a that do
        // not start before b, which all start in [b, a].
        const std::uint64_t last = startsBucketBefore_[bucketOf(a) + 1];
        for (std::uint64_t i = startsBucketBefore_[bucketOf(b)]; i < last;
             i++) {
            const TimeInterval &task = tasksByStart_[i]->interval;
            if (task.start >= b && task.start <= task.end && task.end <= a)
                count++;
        }
    }
    // Wrapped tasks: take back their starts counted above and count
    // them by the predicate.
    for (const trace::TaskInstance *task : wrapped_) {
        if (task->interval.start < b)
            count--;
        if (task->interval.overlaps(interval))
            count++;
    }
    return count;
}

std::pair<std::size_t, std::size_t>
TraceIndex::taskStartRange(const TimeInterval &interval) const
{
    if (interval.empty())
        return {0, 0};
    return {static_cast<std::size_t>(
                startsBucketBefore_[bucketOf(interval.start)]),
            static_cast<std::size_t>(
                startsBucketBefore_[bucketOf(interval.end - 1) + 1])};
}

std::pair<std::size_t, std::size_t>
TraceIndex::taskOverlapRange(const TimeInterval &interval) const
{
    const TimeStamp start = interval.start >= maxTaskDuration_
                                ? interval.start - maxTaskDuration_
                                : 0;
    return taskStartRange({start, interval.end});
}

} // namespace index
} // namespace aftermath
