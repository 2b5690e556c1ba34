/**
 * @file
 * Value-type query specifications for the asynchronous query plane.
 *
 * The paper's interactivity promise is that no user interaction stalls
 * the UI: every view answers from precomputed structures while heavy
 * work runs off the interaction path (sections II-A, VI-B). These specs
 * make that promise expressible in the API — a query is a small value
 * describing *what* to compute, handed to Session::submit(), which
 * returns a QueryTicket immediately and executes the work on the shared
 * worker pool as one fan-out job (see session/query_engine.h). Every
 * spec mirrors one synchronous Session method and produces a
 * bit-identical result. Every spec cancels alike: ticket.cancel()
 * completes a query still queued as Cancelled at once, and stops a
 * running one at its next chunk boundary.
 *
 * ## The QueryContext contract
 *
 * Every spec embeds one QueryContext as its first member, carrying the
 * three knobs common to the whole query plane:
 *
 *  - interval: std::optional — std::nullopt means "the session's
 *    current view at submit time", while an explicit interval (even an
 *    empty one) is used exactly as given, matching the synchronous
 *    overload pairs. Specs without an interval notion ignore it unless
 *    documented otherwise (HistogramQuery restricts to tasks starting
 *    inside it).
 *  - priority: the scheduling class; each spec's QueryContext default
 *    matches its role (render/stats/histogram/task-list/extrema are
 *    Interactive; warm-up, anomaly scans and pyramid builds are
 *    Background).
 *  - resolution: how much error the caller tolerates
 *    (base/resolution.h). Resolution::Exact — the default — keeps
 *    every result bit-identical to the historical scan. Under
 *    Budget/Pixels, interval stats, histograms, counter extrema and
 *    timeline renders snap the interval outward to a pyramid
 *    granularity within the budget (index/summary_pyramid.h) and
 *    answer the *snapped* interval exactly, at a cost that does not
 *    grow with the events inside it; results carry a ResolutionInfo
 *    provenance
 *    telling approximate answers from exact ones.
 *
 * Construct specs with nested braces or designated initializers —
 * `IntervalStatsQuery{{interval}}`,
 * `HistogramQuery{.context = {}, .numBins = 16}` — or default-construct
 * and assign through `spec.context`.
 */

#ifndef AFTERMATH_SESSION_QUERY_H
#define AFTERMATH_SESSION_QUERY_H

#include <cstdint>
#include <optional>
#include <vector>

#include "base/resolution.h"
#include "base/time_interval.h"
#include "base/types.h"
#include "render/framebuffer.h"
#include "render/render_stats.h"
#include "render/timeline_renderer.h"
#include "stats/anomaly.h"
#include "trace/trace.h"

namespace aftermath {
namespace session {

/**
 * Scheduling class of one submitted query on the engine's two-level
 * queue. Interactive queries jump ahead of every queued Background
 * task, and running Background fan-out jobs (interval statistics,
 * warm-up) yield their workers cooperatively at chunk boundaries when
 * Interactive work arrives. Every spec's QueryContext carries a
 * default matching its role, and callers can override it per
 * submission (e.g. a speculative prefetch of the next view's stats
 * submits an IntervalStatsQuery at Background).
 */
enum class QueryPriority
{
    /** Latency-critical: a user is waiting on the result. */
    Interactive,

    /** Prefetch/bulk work: runs when no interactive work is queued. */
    Background,
};

/**
 * The knobs shared by every query spec: the target interval, the
 * scheduling class, and the resolution request. See the file comment
 * for the contract.
 */
struct QueryContext
{
    QueryContext() = default;

    /**
     * Trailing knobs default so call sites spell only what they
     * override: `{interval}`, `{interval, priority}`,
     * `{std::nullopt, QueryPriority::Background}`, ...
     */
    QueryContext(std::optional<TimeInterval> interval_,
                 QueryPriority priority_ = QueryPriority::Interactive,
                 Resolution resolution_ = {})
        : interval(std::move(interval_)), priority(priority_),
          resolution(resolution_)
    {}

    /** Lets `SomeQuery{interval}` convert in one step. */
    QueryContext(TimeInterval interval_,
                 QueryPriority priority_ = QueryPriority::Interactive,
                 Resolution resolution_ = {})
        : interval(interval_), priority(priority_), resolution(resolution_)
    {}

    /** Interval to operate on; nullopt = the current view. */
    std::optional<TimeInterval> interval;

    /** Scheduling class on the engine's two-level queue. */
    QueryPriority priority = QueryPriority::Interactive;

    /** Error tolerance; Exact = the historical bit-identical path. */
    Resolution resolution;
};

/**
 * What a warm-up prefetches: the counter indexes. Warm-up is
 * incremental: (cpu, counter) pairs whose index the session's index
 * cache already holds are skipped, whoever built them, so a re-warm-up
 * builds only what is missing.
 */
struct WarmupPolicy
{
    /** Build the min/max index of every sampled (cpu, counter). */
    bool counterIndexes = true;

    /**
     * Restrict index warm-up to these counter ids; empty means every
     * counter sampled on each CPU. Duplicates and ids no CPU samples
     * are ignored.
     */
    std::vector<CounterId> counters;

    /** No effect: interval statistics are computed per query, so
     *  there is nothing to prefetch. Kept because the wire format and
     *  the scripted-session benchmark (e2ebench/) still carry it. */
    bool intervalStats = true;

    /** No effect: task lists are computed per query, so there is
     *  nothing to prefetch. Kept because the wire format and the
     *  scripted-session benchmark (e2ebench/) still carry it. */
    bool taskList = true;
};

/** What one warm-up actually did. */
struct WarmupStats
{
    /** (cpu, counter) pairs scheduled by this call. */
    std::size_t indexesVisited = 0;

    /** Indexes newly built by this call. */
    std::size_t indexesBuilt = 0;

    /** Pairs skipped because their index was already built. */
    std::size_t indexesSkipped = 0;

    /** Worker threads available to the executing pool. */
    unsigned workers = 1;
};

/**
 * Aggregate statistics of one interval (Session::intervalStats). An
 * exact query runs one chunk per CPU, whose state times come from
 * the whole leaves of the CPU's pyramid when it is already built (the
 * query never builds one) plus a scan of the two partial edge leaves,
 * or from a scan of the whole interval otherwise; the task counts come
 * from the trace-global task index. All are exact integer sums, so the
 * result is bit-identical to the serial scan at any worker count and
 * whichever pyramids are built, provenance included. Nothing is
 * memoized: every query computes. Under Resolution::Budget/Pixels
 * the interval snaps to the pyramid granularity and the snapped
 * interval is answered exactly from two cells of each state column per
 * CPU and the trace-global task index; the result's interval and
 * resolution fields report what was actually computed.
 */
struct IntervalStatsQuery
{
    QueryContext context;
};

/**
 * Duration histogram of the tasks passing the active filters, read
 * from the task index's start-ordered instances. When context.interval
 * is set, only tasks *starting* inside it are binned (the
 * interval-stats tasksStarted notion), selected from the start-leaf
 * buckets that meet the interval; under Budget/Pixels the interval
 * first snaps to the pyramid granularity. Without an interval every
 * filtered task is binned (not only the current view's).
 */
struct HistogramQuery
{
    QueryContext context;

    /** Number of equal-width bins. */
    std::uint32_t numBins = 20;
};

/**
 * The task instances passing the active filters (Session::tasks), in
 * insertion order: one scan of the instances per query.
 */
struct TaskListQuery
{
    QueryContext context;
};

/**
 * Extrema of one counter on one CPU (Session::counterExtrema) through
 * the cached min/max index: over the requested interval at
 * Resolution::Exact, over the snapped interval under Budget/Pixels.
 */
struct CounterExtremaQuery
{
    QueryContext context;

    CpuId cpu = 0;
    CounterId counter = 0;
};

/**
 * Prefetch the structures @p policy names (Session::warmup).
 *
 * Background by default: a warm-up storm must never delay a
 * just-submitted interactive query (its drainers yield at every
 * index-build boundary). The synchronous Session::warmup() wrapper
 * submits at Interactive, since its caller blocks on the result.
 */
struct WarmupQuery
{
    QueryContext context{std::nullopt, QueryPriority::Background,
                         Resolution{}};

    WarmupPolicy policy;
};

/**
 * Build the summary pyramids (index/summary_pyramid.h) of every CPU
 * off the interactive path, chunked per CPU on the engine's pool like
 * WarmupQuery: Background by default, cooperative yield at every
 * pyramid-build boundary, generation-immune (view/filter mutations
 * never cancel it — the pyramids are trace-keyed, not view-keyed;
 * only ticket.cancel() stops it). Idempotent: CPUs whose pyramid an
 * earlier build (or a resolution-bearing query) already constructed
 * are visited but not rebuilt.
 */
struct PyramidBuildQuery
{
    QueryContext context{std::nullopt, QueryPriority::Background,
                         Resolution{}};
};

/** What one pyramid build actually did. */
struct PyramidBuildStats
{
    /** CPUs scheduled by this call. */
    std::size_t cpusVisited = 0;

    /** Pyramids newly built by this call. */
    std::size_t cpusBuilt = 0;

    /** Worker threads available to the executing pool. */
    unsigned workers = 1;
};

/**
 * Render the timeline into a query-owned framebuffer of the given
 * dimensions. Session filters and view are injected at submit time when
 * the config names none; Session::render() is this query, waited on,
 * drawing into the caller's buffer. A config that names a taskFilter
 * must keep it alive until the ticket completes. The executor is a
 * fan-out with one chunk per CPU lane, each rendering its lane image
 * and rasterizing it into its own rows, so a view or filter change
 * cancels the render at the next lane boundary and no partly drawn
 * frame is ever published.
 * A non-Exact context.resolution overrides the config's resolution
 * field, letting remote and async callers request pyramid-backed
 * rendering without touching the render config.
 */
struct TimelineRenderQuery
{
    QueryContext context;

    render::TimelineConfig config;
    std::uint32_t width = 640;
    std::uint32_t height = 360;

    /**
     * Deliver the lane images (TimelineRenderResult::image) instead of
     * pixels: nothing is rasterized and no framebuffer is allocated.
     * The daemon encodes these for its clients to draw.
     */
    bool asLanes = false;
};

/** The finished frame and operation counts of a TimelineRenderQuery. */
struct TimelineRenderResult
{
    // 1x1 placeholder (Framebuffer has no empty state); the executor
    // replaces it with the width x height frame before completion,
    // unless the query asked for lanes or drew into a caller's buffer.
    render::Framebuffer fb{1, 1};
    render::FrameImage image; ///< The lane images, when asLanes.
    render::RenderStats stats;
};

/**
 * Ranked anomaly scan of the current view (Session::scanForAnomalies):
 * idle phases, duration outliers and counter bursts in one list, see
 * stats/anomaly.h. The executor fans the scan out as independent chunks
 * — one per CPU, one per task type, one per sampled (cpu, counter) pair
 * — on the shared pool and merges partials deterministically, so the
 * result is bit-identical to the serial scanner at any worker count.
 * The scan respects the session's active FilterSet (outlier detection
 * is restricted to tasks it accepts) and is view-generation-aware: a
 * view or filter change while the scan is queued or running cancels it.
 * Cancellation — explicit or by generation bump — is cooperative at
 * chunk boundaries. The detectors need exact event positions, so
 * context.resolution is accepted but treated as Exact.
 *
 * Background by default: a whole-trace scan is a "find me something
 * interesting" sweep, not a blocking interaction. The synchronous
 * Session::scanForAnomalies() wrapper submits at Interactive.
 */
struct AnomalyScanQuery
{
    QueryContext context{std::nullopt, QueryPriority::Background,
                         Resolution{}};

    /** Detector thresholds and the per-kind cap. */
    stats::AnomalyScanOptions options;
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_QUERY_H
