/**
 * @file
 * The executors of the asynchronous query plane: Session::submit()
 * overloads and the worker-side code they fan out.
 *
 * Executors capture shared ownership of everything they read — the
 * trace, the sharded index cache, the pyramid store, filter snapshots —
 * and never the Session itself, so sessions stay movable and
 * destruction is safe with queries in flight. No executor ever blocks
 * on the pool, so a 1-worker pool cannot deadlock. No executor
 * memoizes its result: every query computes its answer from the trace
 * and its indexes.
 *
 * Every query that reaches the pool runs as one FanOutJob, started by
 * launchFanOut(); a query with nothing to split is a one-chunk job
 * (launchOneChunk()). A job splits into independent chunks under one
 * contract:
 *
 *  - claim: up to one drainer task per worker claims chunk indices
 *    through an atomic cursor, and chunk i writes only partial i;
 *  - stale: before each claim a drainer polls the ticket, and a
 *    cancelled or stale ticket (or a chunk that saw staleness
 *    mid-way) abandons the job;
 *  - yield: a Background drainer that finds Interactive work queued
 *    re-submits its continuation at Background and frees its worker;
 *    the cursor makes the hand-off invisible, so results stay
 *    bit-identical to an uninterrupted run;
 *  - last-drainer merge: the last drainer out cancels an abandoned or
 *    stale ticket, or else merges the partials in chunk order and
 *    completes it. Merges are exact, so the result is bit-identical to
 *    the serial computation at any worker count.
 */

#include "session/query_engine.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "filter/task_filter.h"
#include "index/summary_pyramid.h"
#include "session/session.h"
#include "stats/anomaly.h"
#include "stats/histogram.h"

namespace aftermath {
namespace session {

// -- QueryEngine lifecycle -----------------------------------------------

QueryEngine::QueryEngine(unsigned workers)
    : defaultDomain_(std::make_shared<GenerationDomain>())
{
    setWorkers(workers);
}

void
QueryEngine::setWorkers(unsigned workers)
{
    unsigned effective =
        workers == 0 ? base::ThreadPool::defaultWorkers() : workers;
    base::MutexLock lock(poolMutex_);
    if (pool_ && effective != workers_)
        pool_.reset();
    workers_ = effective;
}

base::ThreadPool &
QueryEngine::ensurePoolLocked()
{
    if (!pool_)
        pool_ = std::make_shared<base::ThreadPool>(workers_);
    return *pool_;
}

void
QueryEngine::withPool(const std::function<void(base::ThreadPool &)> &body)
{
    base::MutexLock lock(poolMutex_);
    body(ensurePoolLocked());
}

void
QueryEngine::drain()
{
    // Copy the handle and wait outside poolMutex_: holding the lock
    // across a full quiescence wait would turn drain() into a barrier
    // every concurrent submitter queues behind (and would deadlock
    // outright if a drained task ever needed the lock to finish).
    std::shared_ptr<base::ThreadPool> pool;
    {
        base::MutexLock lock(poolMutex_);
        pool = pool_;
    }
    // A pool not yet started has nothing queued or running.
    if (pool)
        pool->wait();
}

unsigned
QueryEngine::liveWorkers() const
{
    base::MutexLock lock(poolMutex_);
    return pool_ ? pool_->numWorkers() : 0;
}

namespace {

/** The pool scheduling class of one query priority. */
base::TaskPriority
toTaskPriority(QueryPriority priority)
{
    return priority == QueryPriority::Interactive
        ? base::TaskPriority::High
        : base::TaskPriority::Normal;
}

/** Fresh ticket state snapshotting the driving domain's generation. */
template <typename Result>
std::shared_ptr<detail::TicketState<Result>>
newTicketState(const GenerationDomain &domain)
{
    auto state = std::make_shared<detail::TicketState<Result>>();
    state->generation = domain.generation();
    state->live = domain.generationCell();
    return state;
}

/** An already-Done ticket (an empty query; never touches the pool). */
template <typename Result>
QueryTicket<Result>
completedTicket(const GenerationDomain &domain, Result value)
{
    auto state = newTicketState<Result>(domain);
    state->status = QueryStatus::Done;
    state->result.emplace(std::move(value));
    return QueryTicket<Result>(std::move(state));
}

// -- Fan-out queries -----------------------------------------------------

/**
 * One fan-out query; the file comment states the contract. @c chunk
 * computes chunk i into partials[i] and returns false when it saw the
 * query go stale mid-chunk; @c finish turns the partials, in chunk
 * order, into the result.
 */
template <typename Partial, typename Result>
struct FanOutJob
{
    std::shared_ptr<detail::TicketState<Result>> ticket;
    std::function<bool(std::size_t, Partial &)> chunk;
    std::function<Result(std::vector<Partial> &&)> finish;
    std::vector<Partial> partials;
    std::atomic<std::size_t> next{0};   ///< The claim cursor.
    std::atomic<std::size_t> active{0}; ///< Drainers not yet out.
    std::atomic<bool> abandoned{false};

    /** The executing pool; valid for every drainer run (a drainer only
     *  runs on this pool, and the pool drains before it dies). */
    base::ThreadPool *pool = nullptr;

    /** Background jobs yield at chunk boundaries; interactive never. */
    bool background = false;

    static void
    drain(const std::shared_ptr<FanOutJob> &job)
    {
        job->ticket->markRunning();
        for (;;) {
            if (job->ticket->stale()) {
                job->abandoned.store(true, std::memory_order_relaxed);
                break;
            }
            if (job->background && job->pool->hasHighPriorityWork()) {
                // Yield: the continuation keeps this drainer's active
                // slot and resumes at the cursor.
                job->pool->submit([job] { drain(job); },
                                  base::TaskPriority::Normal);
                return;
            }
            std::size_t i =
                job->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job->partials.size())
                break;
            if (!job->chunk(i, job->partials[i])) {
                job->abandoned.store(true, std::memory_order_relaxed);
                break;
            }
        }
        if (job->active.fetch_sub(1, std::memory_order_acq_rel) != 1)
            return;
        // Last drainer out. A cancelled job publishes nothing; products
        // its finished chunks left in shared caches stay there.
        if (job->abandoned.load(std::memory_order_relaxed) ||
            job->ticket->stale())
            job->ticket->completeCancelled();
        else
            job->ticket->complete(job->finish(std::move(job->partials)));
    }
};

/**
 * Run @p total chunks as one FanOutJob at @p priority that completes
 * @p state: one drainer per engine worker, at most one per chunk. A job
 * without chunks finishes inline.
 */
template <typename Partial, typename Result, typename Chunk,
          typename Finish>
QueryTicket<Result>
launchFanOut(QueryEngine &engine,
             std::shared_ptr<detail::TicketState<Result>> state,
             QueryPriority priority, std::size_t total, Chunk chunk,
             Finish finish)
{
    if (total == 0) {
        state->complete(finish(std::vector<Partial>()));
        return QueryTicket<Result>(std::move(state));
    }
    auto job = std::make_shared<FanOutJob<Partial, Result>>();
    job->ticket = state;
    job->chunk = std::move(chunk);
    job->finish = std::move(finish);
    job->partials.resize(total);
    job->background = priority == QueryPriority::Background;
    const std::size_t drainers =
        std::min<std::size_t>(engine.workers(), total);
    job->active.store(drainers, std::memory_order_relaxed);
    engine.withPool([&](base::ThreadPool &pool) {
        job->pool = &pool;
        for (std::size_t d = 0; d < drainers; d++)
            pool.submit([job] { FanOutJob<Partial, Result>::drain(job); },
                        toTaskPriority(priority));
    });
    return QueryTicket<Result>(std::move(state));
}

/**
 * Run @p body as a one-chunk FanOutJob whose partial is the result:
 * @p body fills it and returns false when it saw the query go stale.
 */
template <typename Result, typename Body>
QueryTicket<Result>
launchOneChunk(QueryEngine &engine,
               std::shared_ptr<detail::TicketState<Result>> state,
               QueryPriority priority, Body body)
{
    return launchFanOut<Result>(
        engine, std::move(state), priority, 1,
        [body = std::move(body)](std::size_t, Result &out) {
            return body(out);
        },
        [](std::vector<Result> &&partials) {
            return std::move(partials.front());
        });
}

// -- Shared query pieces -------------------------------------------------

/** Per-chunk build flags (1 = this job constructed it), summed. */
std::size_t
countBuilt(const std::vector<std::size_t> &built)
{
    return std::accumulate(built.begin(), built.end(), std::size_t{0});
}

} // namespace

// -- Session::submit overloads -------------------------------------------

QueryTicket<stats::IntervalStats>
Session::submit(const IntervalStatsQuery &query)
{
    TimeInterval interval = query.context.interval.value_or(view());
    const TimeStamp granularity =
        pyramids_->granularityFor(query.context.resolution, interval);
    if (granularity > 0) {
        // Pyramid path: snap the interval outward to the granularity
        // and answer the *snapped* interval exactly from two cells of
        // each state column per CPU, in one chunk.
        TimeInterval snapped = pyramids_->snap(interval, granularity);
        const bool exact = snapped.start == interval.start &&
                           snapped.end == interval.end;
        return launchOneChunk(
            *engine_, newTicketState<stats::IntervalStats>(*domain_),
            query.context.priority,
            [trace = trace_, pyramids = pyramids_, snapped, granularity,
             exact](stats::IntervalStats &out) {
                out.interval = snapped;
                std::uint64_t cells = 0;
                auto range = pyramids->leafRange(snapped);
                for (CpuId c = 0; c < trace->numCpus(); c++)
                    pyramids->get(c).occupancy(range.first, range.second,
                                               out.timeInState, cells);
                out.tasksStarted = pyramids->tasksStartedIn(snapped);
                out.tasksOverlapping = pyramids->tasksOverlapping(snapped);
                out.resolution.exact = exact;
                out.resolution.nodesTouched = cells;
                out.resolution.granularityNs = granularity;
                return true;
            });
    }
    // One chunk per CPU: its state times, from its pyramid's whole
    // leaves when that pyramid is already built (this never builds one)
    // and by scan otherwise. The merge sums the partials (exact integer
    // sums, so in any order) and takes the task counts from the task
    // index, two leaves' worth of work. Whichever way each CPU was
    // answered, the provenance is the exact scan's.
    return launchFanOut<stats::IntervalStats>(
        *engine_, newTicketState<stats::IntervalStats>(*domain_),
        query.context.priority, trace_->numCpus(),
        [trace = trace_, pyramids = pyramids_,
         interval](std::size_t i, stats::IntervalStats &out) {
            const auto cpu = static_cast<CpuId>(i);
            out = stats::intervalStateChunk(trace->cpu(cpu), interval,
                                            pyramids->getIfBuilt(cpu));
            return true;
        },
        [pyramids = pyramids_,
         interval](std::vector<stats::IntervalStats> &&partials) {
            stats::IntervalStats merged;
            merged.interval = interval;
            for (const stats::IntervalStats &partial : partials)
                merged.mergeFrom(partial);
            merged.tasksStarted = pyramids->tasksStartedIn(interval);
            merged.tasksOverlapping = pyramids->tasksOverlapping(interval);
            return merged;
        });
}

QueryTicket<std::vector<const trace::TaskInstance *>>
Session::submit(const TaskListQuery &query)
{
    using List = std::vector<const trace::TaskInstance *>;
    auto state = newTicketState<List>(*domain_);
    // The task list is view-independent: staleness tracks the filter
    // generation, so panning the view never cancels it.
    state->generation = domain_->filterGeneration();
    state->live = domain_->filterGenerationCell();
    return launchOneChunk(
        *engine_, state, query.context.priority,
        [state, trace = trace_,
         filters = std::make_shared<const filter::FilterSet>(filters_)](
            List &out) {
            const std::vector<trace::TaskInstance> &instances =
                trace->taskInstances();
            for (std::size_t i = 0; i < instances.size(); i++) {
                if ((i & 0xfff) == 0 && state->stale())
                    return false;
                if (filters->matches(*trace, instances[i]))
                    out.push_back(&instances[i]);
            }
            return true;
        });
}

QueryTicket<stats::Histogram>
Session::submit(const HistogramQuery &query)
{
    auto state = newTicketState<stats::Histogram>(*domain_);
    // Like the task list, the histogram is view-independent: staleness
    // tracks the filter generation only.
    state->generation = domain_->filterGeneration();
    state->live = domain_->filterGenerationCell();
    // The candidates are the task index's start-ordered instances: all
    // of them without an interval; with one, the tasks starting inside
    // it (under Budget/Pixels, the snapped one), selected from the
    // start-leaf buckets that meet it, so the cost follows the interval,
    // not the trace. Bin edges (min/max) and counts are
    // order-independent, so the histogram equals the one of a filtered
    // scan in insertion order bit for bit.
    std::optional<TimeInterval> selected = query.context.interval;
    ResolutionInfo provenance;
    if (selected) {
        if (const TimeStamp granularity = pyramids_->granularityFor(
                query.context.resolution, *selected)) {
            selected = pyramids_->snap(*selected, granularity);
            provenance.exact = selected == query.context.interval;
            provenance.granularityNs = granularity;
        }
    }
    return launchOneChunk(
        *engine_, state, query.context.priority,
        [state, trace = trace_, pyramids = pyramids_,
         filters = std::make_shared<const filter::FilterSet>(filters_),
         selected, provenance,
         num_bins = query.numBins](stats::Histogram &out) {
            const std::vector<const trace::TaskInstance *> &by_start =
                pyramids->tasksByStart();
            auto [first, last] =
                selected ? pyramids->taskStartRange(*selected)
                         : std::pair<std::size_t, std::size_t>(
                               0, by_start.size());
            std::vector<double> durations;
            durations.reserve(last - first);
            for (std::size_t i = first; i < last; i++) {
                if (((i - first) & 0xfff) == 0 && state->stale())
                    return false;
                const trace::TaskInstance *task = by_start[i];
                if ((!selected || selected->contains(task->interval.start)) &&
                    filters->matches(*trace, *task))
                    durations.push_back(
                        static_cast<double>(task->duration()));
            }
            out = stats::Histogram::fromValues(durations, num_bins);
            out.resolution = provenance;
            return true;
        });
}

QueryTicket<index::MinMax>
Session::submit(const CounterExtremaQuery &query)
{
    TimeInterval interval = query.context.interval.value_or(view());
    // Budget/Pixels: the extrema of the snapped interval. The index
    // selects samples in [start, end), exactly the leaves of the
    // leaf-aligned snapped interval. Unknown CPUs and unsampled
    // counters yield an invalid MinMax.
    if (const TimeStamp granularity =
            pyramids_->granularityFor(query.context.resolution, interval))
        interval = pyramids_->snap(interval, granularity);
    return launchOneChunk(*engine_, newTicketState<index::MinMax>(*domain_),
                          query.context.priority,
                          [cache = counterIndexes_, cpu = query.cpu,
                           counter = query.counter,
                           interval](index::MinMax &out) {
                              out = cache->query(cpu, counter, interval);
                              return true;
                          });
}

QueryTicket<Session::WarmupStats>
Session::submit(const WarmupQuery &query)
{
    auto state = newTicketState<WarmupStats>(*domain_);
    // Warm-up products (indexes) are view- and filter-independent, so
    // generation bumps don't invalidate them: warm-up cancels only
    // explicitly.
    state->live = nullptr;
    WarmupStats summary;
    summary.workers = engine_->workers();
    auto pairs =
        std::make_shared<std::vector<std::pair<CpuId, CounterId>>>();

    // The index cache is the one record of what is built: a pair it
    // already holds (built by an earlier warm-up, even a cancelled one,
    // or by a query) is skipped without a counted lookup.
    const WarmupPolicy &policy = query.policy;
    if (policy.counterIndexes) {
        // The counter restriction comes off the wire at up to one id per
        // byte, so it is read once, marking the sampled ids it names;
        // each pair then costs one search of the few sampled ids.
        std::vector<CounterId> sampled;
        for (CpuId c = 0; c < trace_->numCpus(); c++)
            for (CounterId id : trace_->cpu(c).counterIds())
                sampled.push_back(id);
        std::sort(sampled.begin(), sampled.end());
        sampled.erase(std::unique(sampled.begin(), sampled.end()),
                      sampled.end());
        auto slot = [&](CounterId id) {
            return std::lower_bound(sampled.begin(), sampled.end(), id) -
                   sampled.begin();
        };
        std::vector<bool> named(sampled.size(), policy.counters.empty());
        for (CounterId id : policy.counters) {
            const auto i = slot(id);
            if (i < std::ssize(sampled) && sampled[i] == id)
                named[i] = true;
        }
        for (CpuId c = 0; c < trace_->numCpus(); c++) {
            for (CounterId id : trace_->cpu(c).counterIds()) {
                if (!named[slot(id)])
                    continue;
                if (counterIndexes_->contains(c, id)) {
                    summary.indexesSkipped++;
                    continue;
                }
                pairs->emplace_back(c, id);
            }
        }
    }
    summary.indexesVisited = pairs->size();

    // One unit per (cpu, counter) pair.
    return launchFanOut<std::size_t>(
        *engine_, state, query.context.priority, pairs->size(),
        [cache = counterIndexes_, pairs](std::size_t i, std::size_t &built) {
            bool constructed = false;
            cache->get((*pairs)[i].first, (*pairs)[i].second, &constructed);
            // Per-call attribution: concurrent non-warm-up queries
            // building indexes never inflate this job's count.
            built = constructed ? 1 : 0;
            return true;
        },
        [summary](std::vector<std::size_t> &&built) {
            WarmupStats out = summary;
            out.indexesBuilt = countBuilt(built);
            return out;
        });
}

QueryTicket<PyramidBuildStats>
Session::submit(const PyramidBuildQuery &query)
{
    auto state = newTicketState<PyramidBuildStats>(*domain_);
    // Pyramids are trace-keyed, never view- or filter-keyed, so
    // generation bumps don't invalidate a build: explicit cancel only.
    state->live = nullptr;
    PyramidBuildStats summary;
    summary.cpusVisited = trace_->numCpus();
    summary.workers = engine_->workers();
    // Every CPU is one unit. TracePyramids::get() builds under the CPU's
    // shard lock, so builds for different CPUs never contend, and a CPU
    // a concurrent resolution-bearing query already built is attributed
    // to that query, not this job. Pyramids built before a cancel stay
    // cached; the next build revisits the remaining CPUs cheaply.
    return launchFanOut<std::size_t>(
        *engine_, std::move(state), query.context.priority,
        trace_->numCpus(),
        // The trace capture keeps the pyramids' source alive.
        [trace = trace_, pyramids = pyramids_](std::size_t i,
                                               std::size_t &built) {
            bool constructed = false;
            pyramids->get(static_cast<CpuId>(i), &constructed);
            built = constructed ? 1 : 0;
            return true;
        },
        [summary](std::vector<std::size_t> &&built) {
            PyramidBuildStats out = summary;
            out.cpusBuilt = countBuilt(built);
            return out;
        });
}

QueryTicket<TimelineRenderResult>
Session::submit(const TimelineRenderQuery &query)
{
    return submitRender(query, nullptr);
}

QueryTicket<TimelineRenderResult>
Session::submitRender(const TimelineRenderQuery &query,
                      render::Framebuffer *into)
{
    AFTERMATH_ASSERT(query.width > 0 && query.height > 0,
                     "render query needs positive dimensions");
    // Snapshot the session's filters on the heap: the async render must
    // not point into the (mutable) session object.
    auto filters = std::make_shared<const filter::FilterSet>(filters_);
    render::TimelineConfig config = effectiveConfig(query.config, *filters);
    // A non-Exact context.resolution overrides the config's own knob,
    // so async and remote callers can request pyramid-backed rendering
    // without touching the render config.
    if (query.context.resolution.kind != Resolution::Kind::Exact)
        config.resolution = query.context.resolution;
    // One chunk per lane. The first chunk to run plans the frame (an
    // adaptive heatmap's task scan included) and readies its target:
    // the rows of the framebuffer that no lane covers, or the slots of
    // the lane images. Every chunk then renders its lane with its own
    // renderer and rasterizes it into the lane's own rows, or stores
    // it, and returns the lane's counts.
    struct Frame
    {
        std::once_flag planned;
        std::optional<render::FramePlan> plan;
        bool asLanes = false;
        render::Framebuffer *target = nullptr; ///< Pixels go here.
        std::optional<render::Framebuffer> owned;
        render::FrameImage image;

        void
        prepare(const trace::Trace &trace,
                const render::TimelineConfig &config, std::uint32_t width,
                std::uint32_t height)
        {
            std::call_once(planned, [&] {
                plan = render::TimelineRenderer(trace).planFrame(
                    config, width, height);
                if (asLanes) {
                    image.width = width;
                    image.height = height;
                    if (plan)
                        image.lanes.resize(trace.numCpus());
                    return;
                }
                // The lanes cover their rows; only the rest is filled.
                if (!target)
                    target = &owned.emplace(
                        width, height, render::Framebuffer::Unfilled{});
                if (plan)
                    render::fillUncoveredRows(plan->layout, *target);
                else
                    target->clear(render::kBackground);
            });
        }
    };
    auto frame = std::make_shared<Frame>();
    frame->asLanes = query.asLanes;
    frame->target = into;
    // The trace, filters and pyramids captures keep config's pointers
    // valid even if the session dies mid-render.
    return launchFanOut<render::RenderStats>(
        *engine_, newTicketState<TimelineRenderResult>(*domain_),
        query.context.priority, trace_->numCpus(),
        [trace = trace_, filters, pyramids = pyramids_, config, frame,
         width = query.width, height = query.height](
            std::size_t i, render::RenderStats &out) {
            frame->prepare(*trace, config, width, height);
            if (!frame->plan)
                return true;
            // Lanes share rows only when the frame has fewer rows than
            // lanes; the first lane on a row then draws every lane on
            // it, in lane order, as the serial loop would.
            const render::TimelineLayout &layout = frame->plan->layout;
            const auto lane = static_cast<CpuId>(i);
            const std::uint32_t top = layout.laneTop(lane);
            if (lane > 0 && layout.laneTop(lane - 1) == top)
                return true;
            render::TimelineRenderer renderer(*trace);
            for (CpuId c = lane;
                 c < trace->numCpus() && layout.laneTop(c) == top; c++) {
                render::LaneImage image =
                    renderer.renderLane(*frame->plan, c);
                if (frame->asLanes)
                    frame->image.lanes[c] = std::move(image);
                else
                    render::rasterizeLane(image, layout, c, *frame->target);
            }
            out = renderer.stats();
            return true;
        },
        [trace = trace_, config, frame, width = query.width,
         height = query.height](std::vector<render::RenderStats> &&lanes) {
            // A trace without lanes runs no chunk; its frame is all
            // background.
            frame->prepare(*trace, config, width, height);
            TimelineRenderResult result;
            if (frame->owned)
                result.fb = std::move(*frame->owned);
            result.image = std::move(frame->image);
            if (frame->plan)
                result.stats.resolution = frame->plan->resolution();
            for (const render::RenderStats &lane : lanes)
                result.stats.addCounts(lane);
            return result;
        });
}

QueryTicket<std::vector<stats::Anomaly>>
Session::submit(const AnomalyScanQuery &query)
{
    TimeInterval interval = query.context.interval.value_or(view());
    auto chunks =
        std::make_shared<const std::vector<stats::AnomalyScanChunk>>(
            stats::anomalyScanChunks(*trace_));
    if (interval.empty() || query.options.numIntervals == 0 ||
        chunks->empty())
        return completedTicket(*domain_, std::vector<stats::Anomaly>());
    // View-dependent by default generation: a view, filter or trace
    // mutation makes a queued or running scan stale (polled at chunk
    // boundaries) — the findings describe a window the user just left.
    // Chunks are the detector units of stats::anomalyScanChunks(), and
    // stats::mergeAnomalyChunks() combines them in chunk order, so the
    // ranked list is bit-identical to the serial scanner.
    return launchFanOut<stats::AnomalyChunkResult>(
        *engine_, newTicketState<std::vector<stats::Anomaly>>(*domain_),
        query.context.priority, chunks->size(),
        [trace = trace_, chunks,
         filters = std::make_shared<const filter::FilterSet>(filters_),
         options = query.options,
         interval](std::size_t i, stats::AnomalyChunkResult &out) {
            out = stats::runAnomalyChunk(*trace, (*chunks)[i], options,
                                         interval, filters.get());
            return true;
        },
        [trace = trace_, chunks, options = query.options,
         interval](std::vector<stats::AnomalyChunkResult> &&partials) {
            return stats::mergeAnomalyChunks(*trace, *chunks,
                                             std::move(partials), options,
                                             interval);
        });
}

} // namespace session
} // namespace aftermath
