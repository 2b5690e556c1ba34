/**
 * @file
 * The unified query facade over one trace: session::Session.
 *
 * The paper's interactivity rests on every view — timeline modes,
 * statistical views, filters, selections — operating on shared state and
 * on precomputed search structures so a query costs far less than a
 * rescan (sections II-A, VI-B). Session is that shared state as an API:
 * it owns one finalized trace, the active filter set and the current
 * view interval, and answers the whole analysis surface through one
 * coherent object.
 *
 * Threading contract (the submit/ticket model): the session has a
 * *driving side* and an *execution side*.
 *
 *  - Driving side: setters (setFilters, setView, setConcurrency),
 *    submit() and the synchronous query methods require external
 *    synchronization — one driving thread at a time per session.
 *  - Execution side: submit(spec) returns a QueryTicket immediately
 *    and runs the query on the engine's worker pool. Tickets are safe
 *    from any thread (status/wait/result/cancel), so a UI thread can
 *    submit, keep painting, and collect the result when it lands.
 *
 * Every session is its own cancellation scope: a mutation of its
 * state (view, filters) bumps the session's own generation counters;
 * its in-flight stale queries observe the bump at their next chunk
 * boundary and complete as Cancelled instead of wasting cores on a
 * view the user already left. Sessions sharing an engine share its
 * pool, never each other's cancellations. Staleness is
 * per-query: view-dependent queries (interval stats, extrema, render)
 * cancel on any mutation, view-independent but filter-keyed ones (task
 * list, histogram) only on filter mutations — panning never cancels
 * them — and warm-up tickets cancel only explicitly (their
 * products, the counter indexes, are view- and filter-independent).
 *
 * The synchronous query methods are thin wrappers that submit and
 * wait — results are bit-identical to the tickets'. No answer is
 * remembered; every query computes from the trace and its search
 * structures. An exact interval-statistics query runs one chunk per CPU
 * (exact integer partial sums merged in order), answering whole leaves
 * from built pyramids and scanning only the edges, and takes its task
 * counts from the task index. A task list scans the instances in
 * insertion order; a histogram reads the task index's start-ordered
 * instances, only the start buckets an interval meets when it has one.
 */

#ifndef AFTERMATH_SESSION_SESSION_H
#define AFTERMATH_SESSION_SESSION_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "base/time_interval.h"
#include "base/types.h"
#include "filter/task_filter.h"
#include "index/counter_index.h"
#include "index/trace_index.h"
#include "metrics/derived_counter.h"
#include "metrics/task_attribution.h"
#include "render/counter_overlay.h"
#include "render/framebuffer.h"
#include "render/layout.h"
#include "render/render_stats.h"
#include "render/timeline_renderer.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "trace/trace.h"

namespace aftermath {
namespace session {

using index::CacheCounters;

/** Snapshot of the hit/build accounting of every session cache. */
struct SessionCacheStats
{
    /** Lookups of the per-(cpu, counter) min/max indexes. */
    CacheCounters counterIndex;

    /** Always zero: interval statistics are computed on every query,
     *  so there is no stats cache to count. Kept because the
     *  scripted-session benchmark (e2ebench/) still reads it. */
    CacheCounters intervalStats;

    /** Always zero: every render constructs its own renderer, so there
     *  is no renderer cache to count. Kept because the scripted-session
     *  benchmark (e2ebench/) still reads it. */
    CacheCounters renderer;
};

/**
 * One interactive analysis session over one finalized trace, bound to
 * it for life: to analyse another trace, construct another session.
 *
 * Construction modes. Every one delegates to the constructor taking
 * an index store; all others pass it a fresh one:
 *  - Session(trace::Trace) takes ownership of the trace;
 *  - Session(std::shared_ptr<const trace::Trace>) shares it;
 *  - Session(std::shared_ptr<const trace::Trace>,
 *    std::shared_ptr<index::TraceIndex>) shares it and the index store
 *    of another session over it;
 *  - Session::view(trace) borrows a trace owned elsewhere (the caller
 *    guarantees it outlives the session).
 *
 * The session's search structures live in one per-trace store,
 * index::TraceIndex (index/trace_index.h): per CPU, the summary
 * pyramid and the per-counter min/max indexes. They are lazy: nothing
 * is indexed until the first query needs it — unless warmup() or a
 * PyramidBuildQuery prefetches it off the query path. The exception is
 * the store's trace-global task index, built with the store in two
 * linear passes over the task instances. The store is
 * filter-independent, so setFilters() invalidates nothing in it. Its
 * counters are cumulative so cache behaviour stays observable.
 */
class Session
{
  public:
    /** What warmup() prefetches (see session/query.h). */
    using WarmupPolicy = session::WarmupPolicy;

    /** What one warmup() call actually did (see session/query.h). */
    using WarmupStats = session::WarmupStats;

    /** A session owning @p trace (moved in; must be finalized). */
    explicit Session(trace::Trace trace);

    /** A session sharing ownership of @p trace. */
    explicit Session(std::shared_ptr<const trace::Trace> trace);

    /** A non-owning session over a trace that outlives it. */
    static Session view(const trace::Trace &trace);

    /**
     * A session sharing ownership of @p trace and answering from
     * @p index, a store over the same trace object (never null): a new
     * one, or another session's traceIndex(). Builds no per-trace
     * structure of its own. The daemon's shared index plane: every
     * client viewing one trace binds one store, so a build any client
     * paid for serves them all, whatever their filters.
     */
    Session(std::shared_ptr<const trace::Trace> trace,
            std::shared_ptr<index::TraceIndex> index);

    // -- Shared state ------------------------------------------------------

    /** The trace under analysis. */
    const trace::Trace &trace() const { return *trace_; }

    /**
     * Replace the active filter set; the index store (counter
     * indexes, pyramids) is filter-independent and survives. Bumps the
     * query and filter generations: stale in-flight queries cancel.
     */
    void setFilters(filter::FilterSet filters);

    /** Drop every active filter (equivalent to an empty FilterSet). */
    void clearFilters();

    /** The active filter set (empty set accepts every task). */
    const filter::FilterSet &filters() const { return filters_; }

    /**
     * Set the current view interval (the zoom window). Bumps the query
     * generation: in-flight queries for the old view cancel.
     */
    void setView(const TimeInterval &view);

    /** The current view interval; empty means the whole trace span. */
    TimeInterval view() const;

    // -- Asynchronous queries ----------------------------------------------

    /**
     * Submit a query for execution on the engine's worker pool and
     * return its ticket immediately. Results are bit-identical to the
     * matching synchronous method. Every query computes its result; a
     * filter-keyed one (task list, histogram) reads the filters in
     * force when it was submitted.
     */
    QueryTicket<stats::IntervalStats> submit(const IntervalStatsQuery &query);
    QueryTicket<stats::Histogram> submit(const HistogramQuery &query);
    QueryTicket<std::vector<const trace::TaskInstance *>>
    submit(const TaskListQuery &query);
    QueryTicket<index::MinMax> submit(const CounterExtremaQuery &query);
    QueryTicket<WarmupStats> submit(const WarmupQuery &query);
    QueryTicket<TimelineRenderResult>
    submit(const TimelineRenderQuery &query);

    /**
     * Build the summary pyramids of every CPU off the interactive path
     * (see PyramidBuildQuery): per-CPU build units on the engine's
     * pool, cooperative yield to interactive work, generation-immune.
     * Idempotent — already-built CPUs are visited, not rebuilt.
     */
    QueryTicket<PyramidBuildStats> submit(const PyramidBuildQuery &query);

    /**
     * Scan for anomalies asynchronously (see AnomalyScanQuery): the
     * detector chunks fan out on the engine's pool, respect the active
     * filters and the query interval (nullopt = current view), and the
     * merged ranked list is bit-identical to the synchronous
     * scanForAnomalies() at any worker count. View-generation-aware:
     * view and filter mutations cancel a queued or running scan at its
     * next chunk boundary.
     */
    QueryTicket<std::vector<stats::Anomaly>>
    submit(const AnomalyScanQuery &query);

    /**
     * The session's query engine (its worker pool). Exposed for pool
     * introspection and for tests that need to control worker
     * scheduling; replace it with setQueryEngine().
     */
    const std::shared_ptr<QueryEngine> &queryEngine() const
    {
        return engine_;
    }

    /**
     * Run this session's queries on @p engine (a shared pool).
     * SessionGroup aligns every variant on one engine so group warm-up
     * overlaps on one pool; the daemon runs every client on its one
     * engine. The cancellation scope stays the session's own. The
     * engine's current worker count stays in effect until the next
     * setConcurrency().
     */
    void setQueryEngine(std::shared_ptr<QueryEngine> engine);

    /**
     * The session's index store (index/trace_index.h): counter
     * queries read its min/max indexes, resolution-aware queries
     * (Resolution::Budget / Pixels) its summary pyramids, each built on
     * first use; warmup() and a PyramidBuildQuery prefetch them off the
     * interactive path. Never null. A second session over the *same*
     * trace can be constructed over it; the handle stays valid across
     * this session's moves.
     */
    const std::shared_ptr<index::TraceIndex> &traceIndex() const
    {
        return traceIndex_;
    }

    // -- Warm-up and concurrency -------------------------------------------

    /**
     * Set the worker count of the query engine (0 = one per hardware
     * thread; one by default). More workers parallelize exact
     * interval-stats queries, renders and warm-up index construction.
     * Affects every subsequent query and warm-up (and, with a shared
     * engine, every session on it).
     */
    void setConcurrency(unsigned workers);

    /**
     * Prefetch the search structures @p policy names so later queries
     * never pay a build on the interactive path: the per-(CPU, counter)
     * min/max indexes, constructed concurrently across CPUs when
     * setConcurrency() allows. Incremental: pairs whose index the store
     * already holds are skipped, so a re-warm-up builds only what is
     * missing. submit(WarmupQuery) is the asynchronous form — a UI
     * thread warms up without blocking.
     */
    WarmupStats warmup(const WarmupPolicy &policy);

    /** warmup() under the default policy (everything). */
    WarmupStats warmup();

    // -- Statistics --------------------------------------------------------

    /**
     * Exact aggregate statistics of @p interval across all CPUs:
     * submit(IntervalStatsQuery) at Interactive priority, waited on.
     * Computed on every call; nothing is remembered per interval.
     */
    stats::IntervalStats intervalStats(const TimeInterval &interval);

    /** Interval statistics of the current view. */
    stats::IntervalStats intervalStats();

    /** Duration histogram of the tasks passing the active filters. */
    stats::Histogram histogram(std::uint32_t num_bins);

    /**
     * Ranked anomaly scan of the current view, restricted to tasks the
     * active filters accept (stats/anomaly.h). Blocking wrapper around
     * submit(AnomalyScanQuery) at Interactive priority; the parallel
     * chunk fan-out and deterministic merge make the result identical
     * at any worker count.
     */
    std::vector<stats::Anomaly>
    scanForAnomalies(const stats::AnomalyScanOptions &options = {});

    // -- Counter queries ---------------------------------------------------

    /**
     * Extrema of @p counter on @p cpu within @p interval via the cached
     * min/max index (built on first use). Invalid result for unknown
     * CPUs or counters never sampled on the CPU. Answered directly from
     * the thread-safe index store — the per-pixel-column hot path pays
     * no submit round-trip; submit(CounterExtremaQuery) reads the same
     * structure, so both forms are identical by construction.
     */
    index::MinMax counterExtrema(CpuId cpu, CounterId counter,
                                 const TimeInterval &interval);

    /** Extrema of @p counter on @p cpu within the current view. */
    index::MinMax counterExtrema(CpuId cpu, CounterId counter);

    /** The cached min/max index of (@p cpu, @p counter). */
    const index::CounterIndex &counterIndex(CpuId cpu, CounterId counter);

    /**
     * Counter increase of @p counter across every task passing the
     * active filters (monotonic-counter attribution, paper section V).
     */
    std::vector<metrics::TaskCounterIncrease>
    taskCounterIncreases(CounterId counter);

    // -- Task iteration ----------------------------------------------------

    /**
     * The task instances passing the active filters: submit(TaskListQuery)
     * at Interactive priority, waited on. Pointers into the trace's
     * instance array, in insertion order.
     */
    std::vector<const trace::TaskInstance *> tasks();

    // -- Rendering ---------------------------------------------------------

    /**
     * Render the timeline into @p fb: submit(TimelineRenderQuery) at
     * @p fb's dimensions, waited on, with every lane rasterized
     * straight into @p fb (rows no lane covers are filled with the
     * background; nothing else is allocated or cleared). The lanes fan
     * out over the engine's workers, each rendered by its own renderer
     * into its own rows, so the frame and its counts are
     * those of one serial TimelineRenderer::render at any worker count.
     * When @p config names no task filter the session's active filters
     * apply; when it names no view the session's view applies; the
     * session's summary pyramids always back non-Exact resolutions.
     *
     * Blocks until the frame is drawn, so never call it from a task
     * running on the session's own engine: on a busy or 1-worker pool
     * the lanes would wait for the worker the caller holds.
     */
    const render::RenderStats &render(const render::TimelineConfig &config,
                                      render::Framebuffer &fb);

    /** Naive (per-event) rendering baseline with the same semantics,
     *  drawn serially on the calling thread (the Fig 20 baseline). */
    const render::RenderStats &
    renderNaive(const render::TimelineConfig &config,
                render::Framebuffer &fb);

    /**
     * Overlay @p counter of @p cpu onto its lane of @p layout using the
     * cached min/max index (one query per pixel column, Fig 21).
     */
    const render::RenderStats &
    renderCounterLane(CpuId cpu, CounterId counter,
                      const render::TimelineLayout &layout,
                      const render::CounterOverlayConfig &overlay_config,
                      render::Framebuffer &fb);

    /**
     * Overlay a derived series across the full drawing area of @p fb
     * (per-column min/max reduction, like any raw counter).
     */
    const render::RenderStats &
    renderGlobalOverlay(const metrics::DerivedCounter &series,
                        const render::TimelineLayout &layout,
                        const render::CounterOverlayConfig &overlay_config,
                        render::Framebuffer &fb);

    /** The layout mapping the current view onto @p fb's pixel grid. */
    render::TimelineLayout layoutFor(const render::Framebuffer &fb) const;

    // -- Cache introspection -----------------------------------------------

    /** Hit/build counters of every cache (cumulative). */
    SessionCacheStats cacheStats() const;

  private:
    /**
     * submit(TimelineRenderQuery), rasterizing into @p into when it is
     * set (it must outlive the ticket), into a query-owned frame when
     * it is not, and not at all when the query asks for lanes.
     */
    QueryTicket<TimelineRenderResult>
    submitRender(const TimelineRenderQuery &query, render::Framebuffer *into);

    /**
     * The config every render runs with: @p filters when @p config
     * names no task filter (and the set is nonempty), the session's
     * view when it names none, and the session's pyramid store. The
     * async path passes its heap snapshot of the filters.
     */
    render::TimelineConfig
    effectiveConfig(const render::TimelineConfig &config,
                    const filter::FilterSet &filters) const;

    std::shared_ptr<const trace::Trace> trace_;
    filter::FilterSet filters_;
    TimeInterval view_; ///< Empty means the whole trace span.

    // Shared with in-flight executors (shared_ptr so sessions stay
    // movable and destruction-safe with queries in flight).
    std::shared_ptr<index::TraceIndex> traceIndex_;
    std::shared_ptr<QueryEngine> engine_;
    // The session's cancellation scope: setView() bumps the first,
    // setFilters() both; tickets snapshot and poll the one their
    // query's staleness tracks.
    std::shared_ptr<std::atomic<std::uint64_t>> generation_;
    std::shared_ptr<std::atomic<std::uint64_t>> filterGeneration_;
    render::RenderStats renderStats_; ///< Last timeline render's counts.
    render::RenderStats overlayStats_;
};

} // namespace session

// Session is the front door of the library; export it at top level.
using session::Session;

} // namespace aftermath

#endif // AFTERMATH_SESSION_SESSION_H
