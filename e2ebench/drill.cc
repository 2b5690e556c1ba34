/**
 * @file
 * drill-exact: an analyst drills into the synthetic trace at
 * Resolution::Exact on a zoom ladder from the whole span to deep zoom.
 * Each step renders the view and takes its interval statistics; about
 * one step in four returns to an earlier view (a stats-memo hit) and
 * one in eight changes the task-type filter (task list, filtered
 * render, histogram). At fixed step indices the analyst sweeps the
 * trace, scanning each eighth of the span in turn with an Interactive
 * anomaly scan, outside the step percentiles.
 * Loads the exact render / stats / filter paths, the session caches
 * and the engine fan-out; the pyramids and the daemon are bypassed.
 */

#include <filesystem>
#include <map>
#include <unordered_set>

#include "bench.h"
#include "filter/task_filter.h"
#include "stats/export.h"

namespace e2e {

namespace {

/**
 * Later opens timed for reopen_s: some before the session starts and
 * some after its steps, so they sample the whole run as the steps do.
 */
constexpr int kReopensBefore = 2;
constexpr int kReopensAfter = 2;

/** A scan sweep runs before every step index i % kScanEvery == 5. */
constexpr std::size_t kScanEvery = 32;

/**
 * A sweep scans each eighth of the span in turn (zoom level 3, one
 * view per strip), so every sweep scans the same eight views.
 */
constexpr unsigned kScanLevel = 3;

/** The task-type filters a filter step moves between ({} = none). */
const std::vector<std::unordered_set<TaskTypeId>> kFilterChoices = {
    {}, {0x1000}, {0x2000, 0x3000}, {0x4000}, {0x1000, 0x4000}};

filter::FilterSet
filterSet(unsigned index)
{
    filter::FilterSet set;
    if (!kFilterChoices[index].empty())
        set.add(std::make_shared<filter::TaskTypeFilter>(
            kFilterChoices[index]));
    return set;
}

std::uint64_t
hashStats(const stats::IntervalStats &s)
{
    return hashBytes(
        encoded<stats::IntervalStats, stats::encodeIntervalStats>(s));
}

std::uint64_t
hashHistogram(const stats::Histogram &h)
{
    return hashBytes(encoded<stats::Histogram, stats::encodeHistogram>(h));
}

/** One step's answers, kept for the correctness gate. */
struct Sample
{
    TimeInterval view;
    unsigned filter = 0;
    std::uint64_t frame = 0;
    std::uint64_t stats = 0;
    std::uint64_t histogram = 0; ///< 0 when the step took none.
};

} // namespace

void
runDrillExact(const RunArgs &args, Report &report, Measured &m,
              Tracer &tracer)
{
    tracer.enabled = args.trace;
    const double file_mib =
        static_cast<double>(std::filesystem::file_size(args.input)) /
        1048576.0;
    double events = 0;
    LocalOpen open;
    // Opens the trace again, releasing the previous one first; false on
    // a failed read.
    auto open_again = [&](bool first) {
        open = LocalOpen{};
        std::string error;
        bool ok = openLocal(args.input, tracer, open, error);
        report.attempt(ok);
        if (!ok) {
            report.mismatch(error);
            return false;
        }
        if (first) {
            // The process's first open is setup, not a reopen.
            events = static_cast<double>(countEvents(*open.trace));
            report.setFrameHash(hashFrame(open.frame, open.frameStats));
        } else {
            m.reopened(open, file_mib, events);
        }
        return true;
    };
    if (!open_again(true))
        return;
    for (int i = 0; i < kReopensBefore; i++)
        if (!open_again(false))
            return;

    Session &session = *open.session;
    const TimeInterval span = open.trace->span();
    Rng rng(args.seed * 31 + 11);
    Rng gate_rng(args.seed * 17 + 3);
    Deck levels(kZoomLevels, args.seed);
    Deck strips(cardsUpTo(kPositions), args.seed + 3);
    Deck slots(cardsUpTo(8), args.seed + 1);
    // Views visited so far, by zoom level: a back step returns to one.
    std::map<unsigned, std::vector<TimeInterval>> visited;
    TimeInterval current = span;
    std::vector<Sample> samples;
    unsigned filter = 0;
    render::Framebuffer fb(kFrameWidth, kFrameHeight);
    render::TimelineConfig config; // Exact; view and filters from session.
    double measured_seconds = 0; // Steps and scans.

    for (std::size_t i = 0;
         i < kWarmupSteps + kMinSteps || measured_seconds < args.seconds;
         i++) {
        const bool warmup = i < kWarmupSteps;
        bool traced = args.trace && !warmup && i % 2 == 1;
        tracer.enabled = traced;
        tracer.step = static_cast<std::int32_t>(i);

        if (!warmup && i % kScanEvery == 5) {
            // The analyst sweeps the trace for anomalies: each eighth
            // of the span in turn becomes the view and is scanned.
            session::AnomalyScanQuery scan;
            scan.context.priority = session::QueryPriority::Interactive;
            for (unsigned strip = 0; strip < kPositions; strip++) {
                current = viewAt(span, kScanLevel,
                                 (strip + 0.5) / kPositions);
                session.setView(current);
                std::vector<stats::Anomaly> anomalies;
                double t0 = now();
                bool ok;
                {
                    auto s = tracer.span("stats.anomaly_scan");
                    ok = finish(session.submit(scan), anomalies);
                }
                double scan_s = now() - t0;
                measured_seconds += scan_s;
                m.scanMs.add(scan_s * 1000);
                report.attempt(ok);
            }
        }

        // The step mix: slots 0-1 of every 8 go back to an earlier view,
        // slot 2 changes the filter, the rest jump to a new view. Back
        // and jump steps both draw their zoom level from one deck, so
        // the levels of a run's steps are fixed.
        unsigned slot = slots.draw();
        bool filter_step = slot == 2;
        if (filter_step) {
            // The next filter in turn, so every run spends about the
            // same share of its steps under each filter.
            filter = static_cast<unsigned>((filter + 1) %
                                           kFilterChoices.size());
        } else {
            unsigned level = levels.draw();
            std::vector<TimeInterval> &earlier = visited[level];
            if (slot < 2 && !earlier.empty()) {
                current = earlier[rng.nextBounded(earlier.size())];
            } else {
                current =
                    viewAt(span, level, stripCentre(strips.draw(), rng));
                earlier.push_back(current);
            }
        }
        const TimeInterval view = current;

        Sample sample{view, filter, 0, 0, 0};
        render::RenderStats frame_stats;
        stats::IntervalStats interval_stats;
        stats::Histogram histogram;
        bool ok = true;
        double t0 = now();
        double frame_s = 0, stats_s = 0, hist_s = 0, filter_s = 0;
        {
            auto s = tracer.span("bench.step");
            if (filter_step) {
                double f0 = now();
                auto f = tracer.span("filter.apply");
                session.setFilters(filterSet(filter));
                std::vector<const trace::TaskInstance *> tasks;
                ok &= finish(session.submit(session::TaskListQuery{}),
                             tasks);
                filter_s = now() - f0;
            } else {
                auto v = tracer.span("session.set_view");
                session.setView(view);
            }
            double r0 = now();
            {
                auto r = tracer.span("render.frame");
                frame_stats = session.render(config, fb);
            }
            double r1 = now();
            {
                auto q = tracer.span("stats.interval");
                ok &= finish(
                    session.submit(session::IntervalStatsQuery{{view}}),
                    interval_stats);
            }
            double r2 = now();
            if (filter_step) {
                auto h = tracer.span("stats.histogram");
                session::HistogramQuery query{{view}, 20};
                ok &= finish(session.submit(query), histogram);
            }
            frame_s = r1 - r0;
            stats_s = r2 - r1;
            hist_s = now() - r2;
        }
        double step_s = now() - t0;
        report.attempt(ok);
        if (warmup)
            continue;
        measured_seconds += step_s;
        (traced ? m.tracedStepMs : m.stepMs).add(step_s * 1000);
        if (traced || !args.trace) {
            m.frameMs.add(frame_s * 1000);
            m.eventsVisited.add(
                static_cast<double>(frame_stats.eventsVisited));
            m.rectOps.add(static_cast<double>(frame_stats.rectOps));
            m.intervalMs.add(stats_s * 1000);
            m.provenance(frame_stats.resolution);
            m.provenance(interval_stats.resolution);
            if (filter_step) {
                m.histogramMs.add(hist_s * 1000);
                m.filterMs.add(filter_s * 1000);
                m.provenance(histogram.resolution);
            }
        }

        // A seeded sample of steps feeds the gate (outside the timing).
        if (gate_rng.nextBounded(32) == 0) {
            sample.frame = hashFrame(fb, frame_stats);
            sample.stats = hashStats(interval_stats);
            if (filter_step)
                sample.histogram = hashHistogram(histogram);
            samples.push_back(sample);
        }
    }
    tracer.enabled = args.trace;
    tracer.step = -1;
    m.statsMemo = session.cacheStats().intervalStats;
    m.renderer = session.cacheStats().renderer;
    // The session goes with these opens; the gate needs only the trace.
    for (int i = 0; i < kReopensAfter; i++)
        if (!open_again(false))
            return;

    // Gate: each sampled step again on a fresh 1-worker session.
    for (const Sample &sample : samples) {
        Session fresh(open.trace);
        fresh.setFilters(filterSet(sample.filter));
        fresh.setView(sample.view);
        render::Framebuffer check(kFrameWidth, kFrameHeight);
        render::RenderStats check_stats = fresh.render(config, check);
        stats::IntervalStats check_interval;
        bool ok = finish(
            fresh.submit(session::IntervalStatsQuery{{sample.view}}),
            check_interval);
        if (!ok || hashFrame(check, check_stats) != sample.frame)
            report.mismatch("exact frame differs from a fresh session");
        if (!ok || hashStats(check_interval) != sample.stats)
            report.mismatch("interval stats differ from a fresh session");
        if (sample.histogram != 0) {
            stats::Histogram check_histogram;
            session::HistogramQuery query{{sample.view}, 20};
            if (!finish(fresh.submit(query), check_histogram) ||
                hashHistogram(check_histogram) != sample.histogram)
                report.mismatch("histogram differs from a fresh session");
        }
    }
    std::printf("gate: %zu sampled steps checked against a fresh session\n",
                samples.size());
}

} // namespace e2e
