#include "index/summary_pyramid.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "base/logging.h"

namespace aftermath {
namespace index {

SummaryPyramid::SummaryPyramid(const trace::Trace &trace, CpuId cpu,
                               TimeStamp leaf_granularity,
                               std::uint64_t leaf_count)
    : g0_(leaf_granularity), leafCount_(leaf_count)
{
    AFTERMATH_ASSERT(g0_ > 0 && leafCount_ > 0,
                     "pyramid with a degenerate leaf layout");
    const std::vector<trace::StateEvent> &states = trace.cpu(cpu).states();
    const TimeStamp domain_end = g0_ * leafCount_;
    // Zero-duration events and events past the domain have no
    // occupancy.
    auto occupies = [domain_end](const trace::StateEvent &ev) {
        return ev.interval.end > ev.interval.start &&
               ev.interval.start < domain_end;
    };
    for (const trace::StateEvent &ev : states) {
        if (occupies(ev))
            stateIds_.push_back(ev.state);
        zeroDurationStates_ |= ev.interval.end == ev.interval.start;
    }
    std::sort(stateIds_.begin(), stateIds_.end());
    stateIds_.erase(std::unique(stateIds_.begin(), stateIds_.end()),
                    stateIds_.end());
    columns_.resize(stateIds_.size());

    // Distribute each event's overlap across the leaves it spans. The
    // events are start-sorted and non-overlapping (CpuTimeline::
    // finalize), so every column receives its leaves in increasing
    // order and only its back cell can share an event's first leaf.
    for (const trace::StateEvent &ev : states) {
        if (!occupies(ev))
            continue;
        std::vector<Cell> &column = columns_[static_cast<std::size_t>(
            std::lower_bound(stateIds_.begin(), stateIds_.end(),
                             ev.state) -
            stateIds_.begin())];
        std::uint64_t first = ev.interval.start / g0_;
        std::uint64_t last =
            std::min((ev.interval.end - 1) / g0_ + 1, leafCount_);
        for (std::uint64_t leaf = first; leaf < last; leaf++) {
            TimeStamp overlap = ev.interval.overlapDuration(
                {leaf * g0_, (leaf + 1) * g0_});
            if (!column.empty() && column.back().leaf == leaf)
                column.back().cumulative += overlap;
            else
                column.push_back({leaf, overlap});
        }
    }
    for (std::vector<Cell> &column : columns_)
        for (std::size_t i = 1; i < column.size(); i++)
            column[i].cumulative += column[i - 1].cumulative;
}

std::size_t
SummaryPyramid::seek(const std::vector<Cell> &column, std::size_t from,
                     std::uint64_t leaf)
{
    // Gallop: probe from + 1, + 2, + 4, ... until a probe reaches leaf,
    // then binary-search the last doubling.
    std::size_t bound = 1;
    while (from + bound <= column.size() &&
           column[from + bound - 1].leaf < leaf)
        bound *= 2;
    auto it = std::lower_bound(
        column.begin() + static_cast<std::ptrdiff_t>(from + bound / 2),
        column.begin() + static_cast<std::ptrdiff_t>(
                             std::min(from + bound, column.size())),
        leaf,
        [](const Cell &cell, std::uint64_t l) { return cell.leaf < l; });
    return static_cast<std::size_t>(it - column.begin());
}

void
SummaryPyramid::occupancy(std::uint64_t first_leaf, std::uint64_t last_leaf,
                          std::map<std::uint32_t, TimeStamp> &into,
                          std::uint64_t &cells_read) const
{
    last_leaf = std::min(last_leaf, leafCount_);
    if (first_leaf >= last_leaf)
        return;
    for (std::size_t slot = 0; slot < columns_.size(); slot++) {
        const std::vector<Cell> &column = columns_[slot];
        const std::size_t first = seek(column, 0, first_leaf);
        const std::size_t last = seek(column, first, last_leaf);
        cells_read += 2;
        TimeStamp time = before(column, last) - before(column, first);
        if (time > 0)
            into[stateIds_[slot]] += time;
    }
}

void
SummaryPyramid::occupancyOver(const TimeInterval &interval, Sweep &sweep,
                              std::uint64_t &cells_read) const
{
    sweep.occupancy.clear();
    sweep.cursors.resize(columns_.size());
    const TimeStamp domain_end = g0_ * leafCount_;
    const TimeStamp start = std::min(interval.start, domain_end);
    const TimeStamp end = std::min(interval.end, domain_end);
    if (start >= end)
        return;

    // Leaves [lo, hi) meet the interval. A partly covered leaf at
    // either edge adds its occupancy scaled by the covered fraction;
    // the whole leaves between, [mid_lo, mid_hi), add theirs exactly.
    const std::uint64_t lo = start / g0_;
    const std::uint64_t hi = (end - 1) / g0_ + 1;
    TimeStamp lead = 0; // Covered time of a leading partial leaf.
    TimeStamp trail = 0; // Covered time of a distinct trailing one.
    if (start % g0_ != 0)
        lead = std::min(end, (lo + 1) * g0_) - start;
    if (end % g0_ != 0 && (lead == 0 || hi - lo > 1))
        trail = end - (hi - 1) * g0_;
    const std::uint64_t mid_lo = lead > 0 ? lo + 1 : lo;
    const std::uint64_t mid_hi = trail > 0 ? hi - 1 : hi;
    const double lead_fraction =
        static_cast<double>(lead) / static_cast<double>(g0_);
    const double trail_fraction =
        static_cast<double>(trail) / static_cast<double>(g0_);

    for (std::size_t slot = 0; slot < columns_.size(); slot++) {
        const std::vector<Cell> &column = columns_[slot];
        std::size_t from = std::min(sweep.cursors[slot], column.size());
        if (from > 0 && column[from - 1].leaf >= lo)
            from = 0;
        const std::size_t at_lo = seek(column, from, lo);
        const std::size_t at_mid_lo =
            lead > 0 ? seek(column, at_lo, mid_lo) : at_lo;
        const std::size_t at_mid_hi = seek(column, at_mid_lo, mid_hi);
        const std::size_t at_hi =
            trail > 0 ? seek(column, at_mid_hi, hi) : at_mid_hi;
        cells_read += 2 + (lead > 0) + (trail > 0);
        // Summed leading, trailing, whole: frames are bit-identical
        // only while this order of the double additions holds.
        double time = 0.0;
        time += static_cast<double>(before(column, at_mid_lo) -
                                    before(column, at_lo)) *
                lead_fraction;
        time += static_cast<double>(before(column, at_hi) -
                                    before(column, at_mid_hi)) *
                trail_fraction;
        time += static_cast<double>(before(column, at_mid_hi) -
                                    before(column, at_mid_lo));
        if (time > 0)
            sweep.occupancy.emplace_back(stateIds_[slot], time);
        // An adjacent next interval starts in leaf mid_hi.
        sweep.cursors[slot] = at_mid_hi;
    }
}

TracePyramids::TracePyramids(const trace::Trace &trace)
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

const SummaryPyramid &
TracePyramids::get(CpuId cpu, bool *built)
{
    const SummaryPyramid *pyramid = getOrNull(cpu, built);
    AFTERMATH_ASSERT(pyramid != nullptr,
                     "pyramid of an out-of-range cpu");
    return *pyramid;
}

const SummaryPyramid *
TracePyramids::getOrNull(CpuId cpu, bool *built)
{
    if (built)
        *built = false;
    if (cpu >= shards_.size())
        return nullptr;
    Shard &shard = shards_[cpu];
    base::MutexLock lock(shard.mutex);
    if (!shard.pyramid) {
        shard.pyramid = std::make_unique<SummaryPyramid>(
            trace_, cpu, g0_, leafCount_);
        if (built)
            *built = true;
    }
    return shard.pyramid.get();
}

const SummaryPyramid *
TracePyramids::getIfBuilt(CpuId cpu) const
{
    if (cpu >= shards_.size())
        return nullptr;
    const Shard &shard = shards_[cpu];
    base::MutexLock lock(shard.mutex);
    return shard.pyramid.get();
}

std::size_t
TracePyramids::size() const
{
    std::size_t count = 0;
    for (const Shard &shard : shards_) {
        base::MutexLock lock(shard.mutex);
        if (shard.pyramid)
            count++;
    }
    return count;
}

TimeStamp
TracePyramids::granularityFor(const Resolution &resolution,
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
TracePyramids::snap(const TimeInterval &interval,
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
TracePyramids::leafRange(const TimeInterval &interval) const
{
    return {interval.start / g0_,
            std::min(interval.end / g0_, leafCount_)};
}

std::uint64_t
TracePyramids::startsBefore(TimeStamp t) const
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
TracePyramids::endsBy(TimeStamp t) const
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
TracePyramids::tasksStartedIn(const TimeInterval &interval) const
{
    return interval.empty() ? 0
                            : startsBefore(interval.end) -
                                  startsBefore(interval.start);
}

std::uint64_t
TracePyramids::tasksOverlapping(const TimeInterval &interval) const
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
TracePyramids::taskStartRange(const TimeInterval &interval) const
{
    if (interval.empty())
        return {0, 0};
    return {static_cast<std::size_t>(
                startsBucketBefore_[bucketOf(interval.start)]),
            static_cast<std::size_t>(
                startsBucketBefore_[bucketOf(interval.end - 1) + 1])};
}

} // namespace index
} // namespace aftermath
