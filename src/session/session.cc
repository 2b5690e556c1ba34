#include "session/session.h"

#include <algorithm>

#include "base/logging.h"
#include "metrics/counter_utils.h"

namespace aftermath {
namespace session {

Session::Session(trace::Trace trace)
    : Session(std::make_shared<const trace::Trace>(std::move(trace)))
{}

Session::Session(std::shared_ptr<const trace::Trace> trace)
    : Session(trace,
              trace ? std::make_shared<index::TraceIndex>(*trace) : nullptr)
{}

Session::Session(std::shared_ptr<const trace::Trace> trace,
                 std::shared_ptr<index::TraceIndex> index)
    : trace_(std::move(trace)),
      traceIndex_(std::move(index)),
      engine_(std::make_shared<QueryEngine>(1)),
      generation_(std::make_shared<std::atomic<std::uint64_t>>(0)),
      filterGeneration_(std::make_shared<std::atomic<std::uint64_t>>(0))
{
    AFTERMATH_ASSERT(trace_ != nullptr, "session over a null trace");
    AFTERMATH_ASSERT(traceIndex_ != nullptr, "session over a null index");
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
    generation_->fetch_add(1, std::memory_order_acq_rel);
    filterGeneration_->fetch_add(1, std::memory_order_acq_rel);
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
    generation_->fetch_add(1, std::memory_order_acq_rel);
}

TimeInterval
Session::view() const
{
    return view_.empty() ? trace_->span() : view_;
}

void
Session::setConcurrency(unsigned workers)
{
    engine_->setWorkers(workers);
}

void
Session::setQueryEngine(std::shared_ptr<QueryEngine> engine)
{
    AFTERMATH_ASSERT(engine != nullptr, "null query engine");
    engine_ = std::move(engine);
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
    return traceIndex_->counterExtrema(cpu, counter, interval);
}

index::MinMax
Session::counterExtrema(CpuId cpu, CounterId counter)
{
    return counterExtrema(cpu, counter, view());
}

const index::CounterIndex &
Session::counterIndex(CpuId cpu, CounterId counter)
{
    return traceIndex_->counterIndex(cpu, counter);
}

std::vector<metrics::TaskCounterIncrease>
Session::taskCounterIncreases(CounterId counter)
{
    std::vector<metrics::TaskCounterIncrease> out;
    for (const trace::TaskInstance *task : tasks()) {
        const trace::CpuTimeline *tl = trace_->cpuOrNull(task->cpu);
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

std::vector<const trace::TaskInstance *>
Session::tasks()
{
    return submit(TaskListQuery{}).take();
}

SessionCacheStats
Session::cacheStats() const
{
    SessionCacheStats out;
    out.counterIndex = traceIndex_->counts().counterIndexLookups;
    return out;
}

} // namespace session
} // namespace aftermath
