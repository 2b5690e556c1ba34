/**
 * @file
 * The executors of the asynchronous query plane: Session::submit()
 * overloads and the worker-side code they fan out.
 *
 * Executors capture shared ownership of everything they read — the
 * trace, the sharded index cache, filter snapshots, the SessionMemo —
 * and never the Session itself, so sessions stay movable and
 * destruction is safe with queries in flight. No executor ever blocks
 * on the pool, so a 1-worker pool cannot deadlock.
 *
 * Every query runs in one of two shapes. A single-task query is one
 * tracked pool task (submitTask()); while queued it is
 * dequeue-cancellable through its handle. A fan-out query (FanOutJob,
 * started by launchFanOut()) splits into independent chunks under one
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
#include <numeric>

#include "filter/task_filter.h"
#include "index/summary_pyramid.h"
#include "session/session.h"
#include "stats/anomaly.h"
#include "stats/histogram.h"
#include "trace/reader.h"

namespace aftermath {
namespace session {

// -- QueryEngine lifecycle -----------------------------------------------

QueryEngine::QueryEngine(unsigned workers)
    : defaultDomain_(std::make_shared<GenerationDomain>())
{
    setWorkers(workers);
}

QueryEngine::~QueryEngine()
{
    if (reaper_.joinable()) {
        {
            base::MutexLock lock(poolMutex_);
            stopReaper_ = true;
        }
        reaperCv_.notifyAll();
        reaper_.join();
    }
    // pool_ drains both queues and joins in its destructor; executors
    // never call back into the engine, so no lock is needed here.
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
    if (!pool_) {
        pool_ = std::make_shared<base::ThreadPool>(workers_);
        // A parked reaper waits for the pool to exist again.
        reaperCv_.notifyAll();
    }
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
    // A parked pool has nothing queued or running: already drained.
    if (pool)
        pool->wait();
}

void
QueryEngine::setIdleTimeout(std::chrono::milliseconds timeout)
{
    {
        base::MutexLock lock(poolMutex_);
        idleTimeout_ = timeout;
        if (timeout.count() > 0 && !reaper_.joinable())
            reaper_ = std::thread([this] { reaperLoop(); });
    }
    reaperCv_.notifyAll();
}

void
QueryEngine::shutdown()
{
    base::MutexLock lock(poolMutex_);
    // Drains both queues (queued background work completes) and joins.
    pool_.reset();
}

unsigned
QueryEngine::liveWorkers() const
{
    base::MutexLock lock(poolMutex_);
    return pool_ ? pool_->numWorkers() : 0;
}

bool
QueryEngine::hasInteractiveWork() const
{
    base::MutexLock lock(poolMutex_);
    return pool_ && pool_->hasHighPriorityWork();
}

void
QueryEngine::reaperLoop()
{
    base::MutexLock lock(poolMutex_);
    for (;;) {
        if (stopReaper_)
            return;
        if (idleTimeout_.count() <= 0 || !pool_) {
            // Nothing to reap until a timeout is set and a pool lives.
            reaperCv_.wait(lock);
            continue;
        }
        std::chrono::steady_clock::duration idle = pool_->idleFor();
        if (idle >= idleTimeout_) {
            // Quiescent past the timeout: park-then-join. No task is
            // queued or running (that is what idle means), and every
            // submission path holds poolMutex_, so nothing races the
            // teardown. The next submission restarts the pool.
            pool_.reset();
            continue;
        }
        reaperCv_.waitFor(lock, idleTimeout_ - idle +
                                    std::chrono::milliseconds(1));
    }
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

/** An already-Done ticket (memo fast path; never touches the pool). */
template <typename Result>
QueryTicket<Result>
completedTicket(const GenerationDomain &domain, Result value)
{
    auto state = newTicketState<Result>(domain);
    state->status = QueryStatus::Done;
    state->result.emplace(std::move(value));
    return QueryTicket<Result>(std::move(state));
}

// -- Single-task queries -------------------------------------------------

/**
 * Run @p body as one tracked pool task at @p priority that completes
 * @p state. The task marks the ticket running and cancels it if it went
 * stale while queued; otherwise @p body gets the ticket and the pool it
 * runs on and returns the result, or nullopt to cancel. The stored
 * handle makes a still-queued task dequeue-cancellable.
 */
template <typename Result, typename Body>
QueryTicket<Result>
submitTask(QueryEngine &engine,
           std::shared_ptr<detail::TicketState<Result>> state,
           QueryPriority priority, Body body)
{
    base::TaskHandle handle;
    engine.withPool([&](base::ThreadPool &pool) {
        // The pool outlives the task (it runs on that pool, and the
        // pool drains before destruction), so the raw pointer is safe.
        handle = pool.submitTracked(
            [state, body = std::move(body), pool_ptr = &pool] {
                state->markRunning();
                std::optional<Result> result;
                if (!state->stale())
                    result = body(*state, *pool_ptr);
                if (result)
                    state->complete(std::move(*result));
                else
                    state->completeCancelled();
            },
            toTaskPriority(priority));
    });
    {
        base::MutexLock lock(state->mutex);
        state->handle = handle;
    }
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

// -- Shared query pieces -------------------------------------------------

/**
 * Chunk @p i of the interval-statistics scan of @p interval: chunks
 * below numCpus() scan one CPU's states, the rest one run of
 * @p task_chunk_size task instances each. All sums are exact integers,
 * so merging the chunks is bit-identical to the serial scan however
 * they are grouped.
 */
stats::IntervalStats
statsChunk(const trace::Trace &trace, const TimeInterval &interval,
           std::size_t task_chunk_size, std::size_t i)
{
    if (i < trace.numCpus())
        return stats::intervalStateChunk(trace.cpu(static_cast<CpuId>(i)),
                                         interval);
    const auto &instances = trace.taskInstances();
    std::size_t begin = (i - trace.numCpus()) * task_chunk_size;
    std::size_t end = std::min(instances.size(), begin + task_chunk_size);
    return stats::intervalTaskChunk(instances.data() + begin,
                                    instances.data() + end, interval);
}

/** How many statsChunk() chunks cover @p trace. */
std::size_t
statsChunkCount(const trace::Trace &trace, std::size_t task_chunk_size)
{
    return trace.numCpus() +
           (trace.taskInstances().size() + task_chunk_size - 1) /
               task_chunk_size;
}

/** Memoize @p computed under its interval. */
void
publishStats(StatsMemo &memo, const stats::IntervalStats &computed)
{
    base::MutexLock lock(memo.mutex);
    memo.stats.insertOrGet(
        std::make_pair(computed.interval.start, computed.interval.end),
        stats::IntervalStats(computed));
}

/**
 * Scan the trace's task instances against @p filters in insertion
 * order, polling @p state for staleness every few thousand instances.
 * Returns nullopt when the query went stale mid-scan.
 */
template <typename Result>
std::optional<std::vector<const trace::TaskInstance *>>
scanTaskList(const trace::Trace &trace, const filter::FilterSet &filters,
             const detail::TicketState<Result> &state)
{
    std::vector<const trace::TaskInstance *> out;
    const std::vector<trace::TaskInstance> &instances =
        trace.taskInstances();
    for (std::size_t i = 0; i < instances.size(); i++) {
        if ((i & 0xfff) == 0 && state.stale())
            return std::nullopt;
        if (filters.matches(trace, instances[i]))
            out.push_back(&instances[i]);
    }
    return out;
}

/**
 * Publish a freshly computed task list into the memo, unless the
 * filter generation moved on (a stale-keyed entry would outlive the
 * one-live-generation invariant of the cache).
 */
void
publishTaskList(SessionMemo &memo, std::uint64_t filter_generation,
                const std::vector<const trace::TaskInstance *> &list)
{
    base::MutexLock lock(memo.mutex);
    if (memo.filterGeneration != filter_generation)
        return;
    memo.taskList.insertOrGet(
        filter_generation,
        std::vector<const trace::TaskInstance *>(list));
}

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
        // each state column per CPU — one tracked task, no fan-out,
        // and no memo (the memo holds exact answers for requested
        // intervals only).
        TimeInterval snapped = pyramids_->snap(interval, granularity);
        const bool exact = snapped.start == interval.start &&
                           snapped.end == interval.end;
        return submitTask(
            *engine_, newTicketState<stats::IntervalStats>(*domain_),
            query.context.priority,
            [trace = trace_, pyramids = pyramids_, snapped, granularity,
             exact](auto &, base::ThreadPool &) {
                stats::IntervalStats out;
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
                return out;
            });
    }
    {
        base::MutexLock lock(statsMemo_->mutex);
        if (const stats::IntervalStats *hit = statsMemo_->stats.tryGet(
                std::make_pair(interval.start, interval.end)))
            return completedTicket(*domain_, stats::IntervalStats(*hit));
    }
    // Enough task chunks to load every worker a few times over, but no
    // micro-chunks: the claim cursor should stay noise.
    const std::size_t task_chunk_size = std::max<std::size_t>(
        4096, trace_->taskInstances().size() /
                  (static_cast<std::size_t>(engine_->workers()) * 4));
    return launchFanOut<stats::IntervalStats>(
        *engine_, newTicketState<stats::IntervalStats>(*domain_),
        query.context.priority, statsChunkCount(*trace_, task_chunk_size),
        [trace = trace_, interval, task_chunk_size](
            std::size_t i, stats::IntervalStats &out) {
            out = statsChunk(*trace, interval, task_chunk_size, i);
            return true;
        },
        [memo = statsMemo_,
         interval](std::vector<stats::IntervalStats> &&partials) {
            stats::IntervalStats merged;
            merged.interval = interval;
            for (const stats::IntervalStats &partial : partials)
                merged.mergeFrom(partial);
            publishStats(*memo, merged);
            return merged;
        });
}

QueryTicket<std::vector<const trace::TaskInstance *>>
Session::submit(const TaskListQuery &query)
{
    using List = std::vector<const trace::TaskInstance *>;
    std::uint64_t generation;
    {
        base::MutexLock lock(memo_->mutex);
        generation = memo_->filterGeneration;
        if (const List *hit = memo_->taskList.tryGet(generation))
            return completedTicket(*domain_, List(*hit));
    }
    auto state = newTicketState<List>(*domain_);
    // The task list is view-independent: staleness tracks the filter
    // generation, so panning the view never cancels it.
    state->generation = domain_->filterGeneration();
    state->live = domain_->filterGenerationCell();
    return submitTask(
        *engine_, std::move(state), query.context.priority,
        [trace = trace_, memo = memo_,
         filters = std::make_shared<const filter::FilterSet>(filters_),
         generation](auto &state, base::ThreadPool &) {
            auto list = scanTaskList(*trace, *filters, state);
            if (list)
                publishTaskList(*memo, generation, *list);
            return list;
        });
}

QueryTicket<stats::Histogram>
Session::submit(const HistogramQuery &query)
{
    using List = std::vector<const trace::TaskInstance *>;
    auto state = newTicketState<stats::Histogram>(*domain_);
    // Like the task list it is built from, the histogram is
    // view-independent: staleness tracks the filter generation only.
    state->generation = domain_->filterGeneration();
    state->live = domain_->filterGenerationCell();
    auto filters = std::make_shared<const filter::FilterSet>(filters_);
    const std::uint32_t num_bins = query.numBins;
    const std::optional<TimeInterval> &restrict_to = query.context.interval;
    const TimeStamp granularity =
        restrict_to ? pyramids_->granularityFor(query.context.resolution,
                                                *restrict_to)
                    : 0;
    if (granularity > 0) {
        // Pyramid path: snap the interval and select the tasks starting
        // inside it by binary search on the start-sorted task array —
        // O(log n + matches) instead of a full list scan. Bin counts
        // are order-independent, so the result equals the exact path's
        // histogram of the snapped interval bit for bit.
        TimeInterval snapped = pyramids_->snap(*restrict_to, granularity);
        const bool exact = snapped.start == restrict_to->start &&
                           snapped.end == restrict_to->end;
        return submitTask(
            *engine_, std::move(state), query.context.priority,
            [trace = trace_, pyramids = pyramids_, filters, snapped,
             granularity, exact, num_bins](
                auto &state,
                base::ThreadPool &) -> std::optional<stats::Histogram> {
                auto range = pyramids->taskStartRange(snapped);
                const List &by_start = pyramids->tasksByStart();
                std::vector<double> durations;
                durations.reserve(range.second - range.first);
                for (std::size_t i = range.first; i < range.second; i++) {
                    const trace::TaskInstance *task = by_start[i];
                    if (filters->matches(*trace, *task))
                        durations.push_back(
                            static_cast<double>(task->duration()));
                }
                if (state.stale())
                    return std::nullopt;
                stats::Histogram h =
                    stats::Histogram::fromValues(durations, num_bins);
                h.resolution.exact = exact;
                h.resolution.granularityNs = granularity;
                return h;
            });
    }
    std::uint64_t generation;
    std::shared_ptr<const List> cached;
    {
        base::MutexLock lock(memo_->mutex);
        generation = memo_->filterGeneration;
        if (const List *hit = memo_->taskList.tryGet(generation))
            cached = std::make_shared<const List>(*hit);
    }
    return submitTask(
        *engine_, std::move(state), query.context.priority,
        [trace = trace_, memo = memo_, filters, cached, generation,
         num_bins, restrict_to](
            auto &state,
            base::ThreadPool &) -> std::optional<stats::Histogram> {
            const List *tasks = cached.get();
            List computed;
            if (!tasks) {
                auto list = scanTaskList(*trace, *filters, state);
                if (!list)
                    return std::nullopt;
                computed = std::move(*list);
                // The scan is the expensive half; share it with later
                // tasks()/histogram() calls of the same generation (the
                // published list is unrestricted; the interval only
                // narrows the binned values).
                publishTaskList(*memo, generation, computed);
                tasks = &computed;
            }
            std::vector<double> durations;
            durations.reserve(tasks->size());
            for (const trace::TaskInstance *task : *tasks) {
                if (restrict_to &&
                    !restrict_to->contains(task->interval.start))
                    continue;
                durations.push_back(static_cast<double>(task->duration()));
            }
            if (state.stale())
                return std::nullopt;
            return stats::Histogram::fromValues(durations, num_bins);
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
    return submitTask(*engine_, newTicketState<index::MinMax>(*domain_),
                      query.context.priority,
                      [cache = counterIndexes_, cpu = query.cpu,
                       counter = query.counter,
                       interval](auto &, base::ThreadPool &) {
                          return cache->query(cpu, counter, interval);
                      });
}

QueryTicket<Session::WarmupStats>
Session::submit(const WarmupQuery &query)
{
    auto state = newTicketState<WarmupStats>(*domain_);
    // Warm-up products are view-independent (indexes) or keyed by
    // interval / filter generation, so generation bumps don't invalidate
    // them: warm-up cancels only explicitly.
    state->live = nullptr;
    const TimeInterval stats_interval = view();
    WarmupStats summary;
    summary.workers = engine_->workers();
    auto pairs =
        std::make_shared<std::vector<std::pair<CpuId, CounterId>>>();
    bool do_stats = false;
    bool do_task_list = false;
    std::uint64_t filter_generation;

    const WarmupPolicy &policy = query.policy;
    // The two memos lock sequentially (never nested): warmed pairs and
    // the stats memo live in the shared StatsMemo, the filter
    // generation and task list in the per-context SessionMemo.
    {
        base::MutexLock lock(statsMemo_->mutex);
        if (policy.counterIndexes) {
            for (CpuId c = 0; c < trace_->numCpus(); c++) {
                for (CounterId id : trace_->cpu(c).counterIds()) {
                    if (!policy.counters.empty() &&
                        std::find(policy.counters.begin(),
                                  policy.counters.end(),
                                  id) == policy.counters.end())
                        continue;
                    if (statsMemo_->warmedPairs.count({c, id})) {
                        summary.indexesSkipped++;
                        continue;
                    }
                    pairs->emplace_back(c, id);
                }
            }
        }
        // Already-memoized stats / task-list entries need no unit; the
        // lookups count hits, keeping warm-up observable like the old
        // eager revisit did.
        if (policy.intervalStats)
            do_stats = statsMemo_->stats.tryGet(std::make_pair(
                           stats_interval.start, stats_interval.end)) ==
                       nullptr;
    }
    {
        base::MutexLock lock(memo_->mutex);
        filter_generation = memo_->filterGeneration;
        if (policy.taskList)
            do_task_list =
                memo_->taskList.tryGet(filter_generation) == nullptr;
    }
    summary.indexesVisited = pairs->size();

    // Units: one per (cpu, counter) pair, then the optional interval-
    // statistics unit, then the optional task-list unit.
    const std::size_t stats_unit = pairs->size();
    const std::size_t list_unit = stats_unit + (do_stats ? 1 : 0);
    return launchFanOut<std::size_t>(
        *engine_, state, query.context.priority,
        list_unit + (do_task_list ? 1 : 0),
        [state, trace = trace_, cache = counterIndexes_,
         stats_memo = statsMemo_, memo = memo_,
         filters = std::make_shared<const filter::FilterSet>(filters_),
         pairs, stats_unit, list_unit, stats_interval,
         filter_generation](std::size_t i, std::size_t &built) {
            if (i < stats_unit) {
                bool constructed = false;
                cache->get((*pairs)[i].first, (*pairs)[i].second,
                           &constructed);
                // Per-call attribution: concurrent non-warm-up queries
                // building indexes never inflate this job's count.
                built = constructed ? 1 : 0;
                return true;
            }
            if (i < list_unit) {
                // One serial scan (warm-up is already off the
                // interactive path; the pairs dominate the work).
                const std::size_t all = std::max<std::size_t>(
                    1, trace->taskInstances().size());
                const std::size_t chunks = statsChunkCount(*trace, all);
                stats::IntervalStats merged;
                merged.interval = stats_interval;
                for (std::size_t c = 0; c < chunks; c++)
                    merged.mergeFrom(
                        statsChunk(*trace, stats_interval, all, c));
                publishStats(*stats_memo, merged);
                return true;
            }
            auto list = scanTaskList(*trace, *filters, *state);
            if (list)
                publishTaskList(*memo, filter_generation, *list);
            return list.has_value();
        },
        // Only a completed warm-up records its pairs as warmed: after a
        // cancel, indexes already built stay cached (they answer
        // lazily), and the next warm-up revisits them cheaply.
        [summary, stats_memo = statsMemo_,
         pairs](std::vector<std::size_t> &&built) {
            WarmupStats out = summary;
            out.indexesBuilt = countBuilt(built);
            base::MutexLock lock(stats_memo->mutex);
            stats_memo->warmedPairs.insert(pairs->begin(), pairs->end());
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

QueryTicket<TraceLoadResult>
Session::submit(const TraceLoadQuery &query)
{
    AFTERMATH_ASSERT(query.bytes != nullptr || !query.path.empty(),
                     "trace load query needs a source");
    auto state = newTicketState<TraceLoadResult>(*domain_);
    // A load's product is handed back to the driving thread, never
    // published into shared caches, so view/filter/trace mutations
    // cannot make it stale: generation-immune, explicit cancel only.
    state->live = nullptr;
    trace::ReadOptions options;
    options.workers =
        query.workers == 0 ? engine_->workers() : query.workers;
    // Bridge ticket.cancel() into the reader's cooperative poll (the
    // token copies share one flag).
    options.cancel = state->cancel;
    return submitTask(
        *engine_, std::move(state), query.context.priority,
        [options, bytes = query.bytes, path = query.path](
            auto &,
            base::ThreadPool &pool) -> std::optional<TraceLoadResult> {
            // The load's serial frame scan can occupy a worker for the
            // whole file; drain queued interactive tasks at the
            // reader's poll boundaries so even a 1-worker engine stays
            // responsive.
            trace::ReadOptions run_options = options;
            run_options.yield = [&pool] {
                while (pool.hasHighPriorityWork() &&
                       pool.runOneHighPriorityTask()) {
                }
            };
            // The reader spins up its own decode pool: a pool task must
            // not parallelFor() on its own pool, and a 1-worker engine
            // would serialize the decode otherwise.
            trace::ReadResult read =
                bytes ? trace::readTrace(*bytes, run_options)
                      : trace::readTraceFile(path, run_options);
            if (read.cancelled)
                return std::nullopt;
            TraceLoadResult result;
            result.ok = read.ok;
            result.error = std::move(read.error);
            result.encoding = read.encoding;
            result.bytesRead = read.bytesRead;
            if (read.ok)
                result.trace = std::make_shared<const trace::Trace>(
                    std::move(read.trace));
            return result;
        });
}

QueryTicket<TimelineRenderResult>
Session::submit(const TimelineRenderQuery &query)
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
    // The trace, filters and pyramids captures keep config's pointers
    // valid across a trace swap mid-render.
    return submitTask(
        *engine_, newTicketState<TimelineRenderResult>(*domain_),
        query.context.priority,
        [trace = trace_, filters, pyramids = pyramids_, config,
         width = query.width,
         height = query.height](auto &, base::ThreadPool &) {
            TimelineRenderResult result;
            result.fb = render::Framebuffer(width, height);
            render::TimelineRenderer renderer(*trace);
            renderer.render(config, result.fb);
            result.stats = renderer.stats();
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
