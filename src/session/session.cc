#include "session/session.h"

#include <algorithm>

#include "base/logging.h"
#include "metrics/counter_utils.h"
#include "metrics/generators.h"

namespace aftermath {
namespace session {

namespace {

/** Counter attribution over an explicit task list (paper section V). */
std::vector<metrics::TaskCounterIncrease>
collectIncreases(const trace::Trace &trace, CounterId counter,
                 const std::vector<const trace::TaskInstance *> &tasks)
{
    std::vector<metrics::TaskCounterIncrease> out;
    for (const trace::TaskInstance *task : tasks) {
        const trace::CpuTimeline *tl = trace.cpuOrNull(task->cpu);
        if (!tl)
            continue;
        auto before =
            metrics::counterValueAt(*tl, counter, task->interval.start);
        auto after =
            metrics::counterValueAt(*tl, counter, task->interval.end);
        if (!before || !after)
            continue;
        metrics::TaskCounterIncrease row;
        row.task = task->id;
        row.type = task->type;
        row.cpu = task->cpu;
        row.duration = task->duration();
        row.increase = *after - *before;
        out.push_back(row);
    }
    return out;
}

/** Task durations as doubles, the histogram observation vector. */
std::vector<double>
durationsOf(const std::vector<const trace::TaskInstance *> &tasks)
{
    std::vector<double> out;
    out.reserve(tasks.size());
    for (const trace::TaskInstance *task : tasks)
        out.push_back(static_cast<double>(task->duration()));
    return out;
}

} // namespace

namespace {

void
accumulate(CacheCounters &into, const CacheCounters &from)
{
    into.hits += from.hits;
    into.builds += from.builds;
    into.evictions += from.evictions;
}

} // namespace

Session::Session(trace::Trace trace)
    : trace_(std::make_shared<const trace::Trace>(std::move(trace))),
      engine_(std::make_shared<QueryEngine>(1)),
      domain_(engine_->defaultDomain())
{
    rebindTrace();
}

Session::Session(std::shared_ptr<const trace::Trace> trace)
    : trace_(std::move(trace)),
      engine_(std::make_shared<QueryEngine>(1)),
      domain_(engine_->defaultDomain())
{
    AFTERMATH_ASSERT(trace_ != nullptr, "session over a null trace");
    rebindTrace();
}

Session
Session::view(const trace::Trace &trace)
{
    // Aliasing empty-owner shared_ptr: no ownership, pointer only.
    return Session(std::shared_ptr<const trace::Trace>(
        std::shared_ptr<const trace::Trace>(), &trace));
}

void
Session::rebindTrace()
{
    counterIndexes_ = std::make_shared<CounterIndexCache>(*trace_);
    // The pyramid store is trace-keyed, so a swap replaces it
    // wholesale — in-flight queries keep the old store and trace alive
    // through their shared_ptrs. Its per-CPU pyramids build lazily, but
    // the constructor eagerly sorts the trace-global task arrays (every
    // task instance by start, every task end), which is not cheap on a
    // large trace.
    pyramids_ = std::make_shared<index::TracePyramids>(*trace_);
    // Replace — never clear in place — the shared memos: executors
    // still in flight over the old trace keep publishing into the old
    // objects, which nobody queries anymore and which die with their
    // last reference, so stale results (or, worse, task pointers into
    // the old trace) can never poison the new trace's caches.
    auto freshStats = std::make_shared<StatsMemo>();
    if (statsMemo_) {
        // Sequential, never nested: both rank kStatsMemo, so copy out
        // under the old lock, then write under the fresh one.
        std::size_t stats_capacity;
        {
            base::MutexLock lock(statsMemo_->mutex);
            accumulate(statsBase_, statsMemo_->stats.counters());
            stats_capacity = statsMemo_->stats.capacity();
        }
        base::MutexLock lock(freshStats->mutex);
        freshStats->stats.setCapacity(stats_capacity);
    }
    statsMemo_ = std::move(freshStats);
    auto fresh = std::make_shared<SessionMemo>();
    if (memo_) {
        std::uint64_t filter_generation;
        {
            base::MutexLock lock(memo_->mutex);
            accumulate(taskListBase_, memo_->taskList.counters());
            filter_generation = memo_->filterGeneration;
        }
        base::MutexLock lock(fresh->mutex);
        fresh->filterGeneration = filter_generation;
    }
    memo_ = std::move(fresh);
}

void
Session::setTrace(trace::Trace trace)
{
    setTrace(std::make_shared<const trace::Trace>(std::move(trace)));
}

void
Session::setTrace(std::shared_ptr<const trace::Trace> trace)
{
    AFTERMATH_ASSERT(trace != nullptr, "session over a null trace");
    // Keep the index accounting cumulative across the swap: the cache
    // object dies with the old trace, its counters roll into the base.
    // In-flight queries keep the old cache and trace alive through
    // their captured shared_ptrs, but the generation bump cancels them
    // before they can serve stale data.
    counterIndexBase_.hits += counterIndexes_->counters().hits;
    counterIndexBase_.builds += counterIndexes_->counters().builds;
    trace_ = std::move(trace);
    rebindTrace();
    domain_->bumpFilterGeneration();
}

void
Session::setFilters(filter::FilterSet filters)
{
    filters_ = std::move(filters);
    {
        base::MutexLock lock(memo_->mutex);
        // Only filter-dependent caches go; indexes and interval
        // statistics are filter-independent and survive.
        memo_->filterGeneration++;
        memo_->taskList.clear();
    }
    domain_->bumpFilterGeneration();
}

void
Session::clearFilters()
{
    setFilters(filter::FilterSet());
}

std::uint64_t
Session::filterGeneration() const
{
    base::MutexLock lock(memo_->mutex);
    return memo_->filterGeneration;
}

void
Session::setView(const TimeInterval &view)
{
    view_ = view;
    domain_->bumpGeneration();
}

TimeInterval
Session::view() const
{
    return view_.empty() ? trace_->span() : view_;
}

void
Session::setConcurrency(const Concurrency &concurrency)
{
    engine_->setWorkers(concurrency.workers);
}

void
Session::setQueryEngine(std::shared_ptr<QueryEngine> engine)
{
    AFTERMATH_ASSERT(engine != nullptr, "null query engine");
    engine_ = std::move(engine);
    // Re-align the cancellation scope with the new engine: a group's
    // sessions sharing one engine share one domain (the historical
    // semantics). Isolated contexts re-point with setGenerationDomain().
    domain_ = engine_->defaultDomain();
}

void
Session::setGenerationDomain(std::shared_ptr<GenerationDomain> domain)
{
    AFTERMATH_ASSERT(domain != nullptr, "null generation domain");
    domain_ = std::move(domain);
}

Session::SharedCaches
Session::sharedCaches() const
{
    SharedCaches out;
    out.counterIndexes = counterIndexes_;
    out.statsMemo = statsMemo_;
    out.pyramids = pyramids_;
    return out;
}

void
Session::adoptSharedCaches(const SharedCaches &caches)
{
    AFTERMATH_ASSERT(caches.counterIndexes != nullptr &&
                         caches.statsMemo != nullptr &&
                         caches.pyramids != nullptr,
                     "adopting incomplete shared caches");
    // Roll the replaced caches' counters into the bases, exactly like a
    // trace swap, so cacheStats() stays cumulative across the adoption.
    counterIndexBase_.hits += counterIndexes_->counters().hits;
    counterIndexBase_.builds += counterIndexes_->counters().builds;
    {
        base::MutexLock lock(statsMemo_->mutex);
        accumulate(statsBase_, statsMemo_->stats.counters());
    }
    counterIndexes_ = caches.counterIndexes;
    statsMemo_ = caches.statsMemo;
    pyramids_ = caches.pyramids;
}

Session::WarmupStats
Session::warmup(const WarmupPolicy &policy)
{
    // The caller blocks on the result, so the synchronous form runs at
    // Interactive priority instead of the spec's Background default.
    return submit(WarmupQuery{{std::nullopt, QueryPriority::Interactive},
                              policy})
        .take();
}

Session::WarmupStats
Session::warmup()
{
    return warmup(WarmupPolicy());
}

std::vector<stats::Anomaly>
Session::scanForAnomalies(const stats::AnomalyScanOptions &options)
{
    // The caller blocks on the result, so the synchronous form runs at
    // Interactive priority instead of the spec's Background default.
    AnomalyScanQuery query;
    query.options = options;
    query.context.priority = QueryPriority::Interactive;
    return submit(query).take();
}

void
Session::setStatsCacheCapacity(std::size_t capacity)
{
    base::MutexLock lock(statsMemo_->mutex);
    statsMemo_->stats.setCapacity(capacity);
}

const stats::IntervalStats &
Session::intervalStats(const TimeInterval &interval)
{
    auto key = std::make_pair(interval.start, interval.end);
    {
        base::MutexLock lock(statsMemo_->mutex);
        if (const stats::IntervalStats *hit = statsMemo_->stats.tryGet(key))
            return *hit;
    }
    // Cold: submit-and-wait. The executor publishes under the same key
    // on completion, so insertOrGet almost always finds the entry and
    // merely returns the cached reference.
    stats::IntervalStats result =
        submit(IntervalStatsQuery{{interval}}).take();
    base::MutexLock lock(statsMemo_->mutex);
    return statsMemo_->stats.insertOrGet(key, std::move(result));
}

const stats::IntervalStats &
Session::intervalStats()
{
    return intervalStats(view());
}

stats::Histogram
Session::histogram(std::uint32_t num_bins)
{
    return submit(HistogramQuery{.context = {}, .numBins = num_bins})
        .take();
}

stats::Histogram
Session::histogramMatching(const filter::TaskFilter &filter,
                           std::uint32_t num_bins) const
{
    return stats::Histogram::fromValues(durationsOf(tasksMatching(filter)),
                                        num_bins);
}

index::MinMax
Session::counterExtrema(CpuId cpu, CounterId counter,
                        const TimeInterval &interval)
{
    return counterIndexes_->query(cpu, counter, interval);
}

index::MinMax
Session::counterExtrema(CpuId cpu, CounterId counter)
{
    return counterExtrema(cpu, counter, view());
}

const index::CounterIndex &
Session::counterIndex(CpuId cpu, CounterId counter)
{
    return counterIndexes_->get(cpu, counter);
}

std::vector<metrics::TaskCounterIncrease>
Session::taskCounterIncreases(CounterId counter)
{
    return collectIncreases(*trace_, counter, tasks());
}

std::vector<metrics::TaskCounterIncrease>
Session::taskCounterIncreasesMatching(CounterId counter,
                                      const filter::TaskFilter &filter) const
{
    return collectIncreases(*trace_, counter, tasksMatching(filter));
}

const std::vector<const trace::TaskInstance *> &
Session::tasks()
{
    std::uint64_t generation;
    {
        base::MutexLock lock(memo_->mutex);
        generation = memo_->filterGeneration;
        if (const auto *hit = memo_->taskList.tryGet(generation))
            return *hit;
    }
    std::vector<const trace::TaskInstance *> result =
        submit(TaskListQuery{}).take();
    base::MutexLock lock(memo_->mutex);
    return memo_->taskList.insertOrGet(generation, std::move(result));
}

std::vector<const trace::TaskInstance *>
Session::tasks(const TaskPredicate &pred)
{
    std::vector<const trace::TaskInstance *> out;
    for (const trace::TaskInstance *task : tasks()) {
        if (pred(*task))
            out.push_back(task);
    }
    return out;
}

std::vector<const trace::TaskInstance *>
Session::tasksMatching(const filter::TaskFilter &filter) const
{
    std::vector<const trace::TaskInstance *> out;
    for (const trace::TaskInstance &task : trace_->taskInstances()) {
        if (filter.matches(*trace_, task))
            out.push_back(&task);
    }
    return out;
}

metrics::DerivedCounter
Session::stateOccupancy(std::uint32_t state,
                        std::uint32_t num_intervals) const
{
    return metrics::stateOccupancy(*trace_, state, num_intervals);
}

metrics::DerivedCounter
Session::averageTaskDuration(std::uint32_t num_intervals) const
{
    return metrics::averageTaskDuration(*trace_, num_intervals);
}

metrics::DerivedCounter
Session::aggregateCounter(CounterId counter,
                          std::uint32_t num_intervals) const
{
    return metrics::aggregateCounter(*trace_, counter, num_intervals);
}

SessionCacheStats
Session::cacheStats() const
{
    SessionCacheStats out;
    out.counterIndex.hits =
        counterIndexBase_.hits + counterIndexes_->counters().hits;
    out.counterIndex.builds =
        counterIndexBase_.builds + counterIndexes_->counters().builds;
    out.intervalStats = statsBase_;
    out.taskList = taskListBase_;
    {
        base::MutexLock lock(statsMemo_->mutex);
        accumulate(out.intervalStats, statsMemo_->stats.counters());
    }
    base::MutexLock lock(memo_->mutex);
    accumulate(out.taskList, memo_->taskList.counters());
    return out;
}

} // namespace session
} // namespace aftermath
