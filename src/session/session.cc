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

} // namespace

Session::SharedCaches
Session::freshCaches(const std::shared_ptr<const trace::Trace> &trace)
{
    AFTERMATH_ASSERT(trace != nullptr, "session over a null trace");
    // Every cache but one starts cold. The pyramid store builds its
    // per-CPU pyramids lazily; its constructor eagerly builds the
    // trace-global task index, two linear passes over the task
    // instances.
    SharedCaches caches;
    caches.counterIndexes = std::make_shared<CounterIndexCache>(*trace);
    caches.pyramids = std::make_shared<index::TracePyramids>(*trace);
    return caches;
}

Session::Session(trace::Trace trace)
    : Session(std::make_shared<const trace::Trace>(std::move(trace)))
{}

Session::Session(std::shared_ptr<const trace::Trace> trace)
    : Session(trace, freshCaches(trace))
{}

Session::Session(std::shared_ptr<const trace::Trace> trace,
                 const SharedCaches &caches)
    : trace_(std::move(trace)),
      counterIndexes_(caches.counterIndexes),
      pyramids_(caches.pyramids),
      engine_(std::make_shared<QueryEngine>(1)),
      domain_(engine_->defaultDomain())
{
    AFTERMATH_ASSERT(trace_ != nullptr, "session over a null trace");
    AFTERMATH_ASSERT(counterIndexes_ != nullptr && pyramids_ != nullptr,
                     "session over incomplete shared caches");
}

Session
Session::view(const trace::Trace &trace)
{
    // Aliasing empty-owner shared_ptr: no ownership, pointer only.
    return Session(std::shared_ptr<const trace::Trace>(
        std::shared_ptr<const trace::Trace>(), &trace));
}

void
Session::setFilters(filter::FilterSet filters)
{
    filters_ = std::move(filters);
    domain_->bumpFilterGeneration();
}

void
Session::clearFilters()
{
    setFilters(filter::FilterSet());
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
    out.pyramids = pyramids_;
    return out;
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

stats::IntervalStats
Session::intervalStats(const TimeInterval &interval)
{
    return submit(IntervalStatsQuery{{interval}}).take();
}

stats::IntervalStats
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

std::vector<const trace::TaskInstance *>
Session::tasks()
{
    return submit(TaskListQuery{}).take();
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
    out.counterIndex = counterIndexes_->counters();
    return out;
}

} // namespace session
} // namespace aftermath
