/**
 * @file
 * ingest-seidel: repeated cold opens of the simulated seidel trace,
 * each through its first frame and several anomaly scans; every open
 * after the process's first is then navigated for a few dozen
 * Pixels(1920) steps, each a render plus the view's interval stats.
 * Loads the trace reader and the index builds; the daemon is bypassed.
 */

#include <filesystem>

#include "bench.h"
#include "stats/export.h"
#include "trace/writer.h"

namespace e2e {

namespace {

/** Opens per run: at least this many, beyond the process's first. */
constexpr int kMinReopens = 5;

/**
 * Interactive whole-span scans after each open. Only later opens'
 * scans are timed; every scan feeds the gate.
 */
constexpr int kScansPerOpen = 8;

/**
 * Steps navigated on each later open, the first kWarmupPerOpen of
 * them untimed. Spreading the steps over every open makes them sample
 * the same stretch of the run as the opens do.
 */
constexpr std::size_t kStepsPerOpen = 32;
constexpr std::size_t kWarmupPerOpen = 2;

} // namespace

void
runIngestSeidel(const RunArgs &args, Report &report, Measured &m,
                Tracer &tracer)
{
    tracer.enabled = args.trace;
    const double file_mib =
        static_cast<double>(std::filesystem::file_size(args.input)) /
        1048576.0;
    std::uint64_t events = 0;
    std::uint64_t trace_hash = 0, frame_hash = 0, scan_hash = 0;

    // The step script: zoom levels and positions dealt from seeded decks
    // across all opens, so a run's step mix is fixed by the seed.
    const Resolution pixels = Resolution::pixels(kFrameWidth);
    Rng rng(args.seed * 31 + 7);
    Deck levels(kZoomLevels, args.seed);
    Deck strips(cardsUpTo(kPositions), args.seed + 3);
    render::Framebuffer fb(kFrameWidth, kFrameHeight);
    render::TimelineConfig config;
    config.resolution = pixels;
    std::size_t step = 0;

    LocalOpen open;
    double measured_seconds = 0; // Opens, scans and steps.
    for (int i = 0; i <= kMinReopens || measured_seconds < args.seconds ||
                    m.stepMs.size() + m.tracedStepMs.size() < kMinSteps;
         i++) {
        open = LocalOpen{}; // Release the previous trace first.
        tracer.enabled = args.trace;
        tracer.step = -1;
        std::string error;
        bool ok = openLocal(args.input, tracer, open, error);
        report.attempt(ok);
        if (!ok) {
            report.mismatch(error);
            return;
        }

        session::AnomalyScanQuery scan;
        scan.context.priority = session::QueryPriority::Interactive;
        std::vector<stats::Anomaly> anomalies;
        std::uint64_t sh = 0;
        double scans_s = 0;
        for (int k = 0; k < kScansPerOpen; k++) {
            double t0 = now();
            {
                auto s = tracer.span("stats.anomaly_scan");
                ok = finish(open.session->submit(scan), anomalies);
            }
            double scan_s = now() - t0;
            report.attempt(ok);
            scans_s += scan_s;
            // The first open's scans run beside its first-touch memory.
            if (i > 0)
                m.scanMs.add(scan_s * 1000);
            std::uint64_t h = hashBytes(
                encoded<std::vector<stats::Anomaly>,
                        stats::encodeAnomalies>(anomalies));
            if (k > 0 && h != sh)
                report.mismatch("anomaly scan differs between repeats");
            sh = h;
        }
        measured_seconds += open.total + scans_s;

        // The process's first open pays first-touch memory; only later
        // opens feed the reopen and per-layer open metrics.
        if (i > 0)
            m.reopened(open, file_mib, static_cast<double>(events));

        // Gate: every open yields the same trace, frame and scan.
        std::uint64_t th = hashBytes(
            trace::writeTrace(*open.trace, trace::Encoding::Compact));
        std::uint64_t fh = hashFrame(open.frame, open.frameStats);
        if (i == 0) {
            events = countEvents(*open.trace);
            trace_hash = th;
            frame_hash = fh;
            scan_hash = sh;
            report.setFrameHash(fh);
            continue; // Its session would mix first-touch into steps.
        }
        if (th != trace_hash)
            report.mismatch("re-serialized trace differs between opens");
        if (fh != frame_hash)
            report.mismatch("first frame differs between opens");
        if (sh != scan_hash)
            report.mismatch("anomaly scan differs between opens");

        // Navigate this open at Pixels(1920): each step renders the view
        // and takes its interval stats at the same resolution.
        Session &session = *open.session;
        const TimeInterval span = open.trace->span();
        for (std::size_t k = 0; k < kStepsPerOpen; k++, step++) {
            const bool warmup = k < kWarmupPerOpen;
            unsigned level = levels.draw();
            TimeInterval view =
                viewAt(span, level, stripCentre(strips.draw(), rng));

            // Traced runs alternate traced and untraced steps, so the
            // difference between the two is the tracing overhead.
            bool traced = args.trace && !warmup && step % 2 == 1;
            tracer.enabled = traced;
            tracer.step = static_cast<std::int32_t>(step);
            double t0 = now();
            double frame_s, stats_s;
            render::RenderStats stats;
            stats::IntervalStats interval_stats;
            {
                auto s = tracer.span("bench.step");
                {
                    auto v = tracer.span("session.set_view");
                    session.setView(view);
                }
                double f0 = now();
                {
                    auto r = tracer.span("render.frame");
                    stats = session.render(config, fb);
                }
                double f1 = now();
                {
                    auto q = tracer.span("stats.interval");
                    session::IntervalStatsQuery query{
                        {view, session::QueryPriority::Interactive, pixels}};
                    ok = finish(session.submit(query), interval_stats);
                }
                frame_s = f1 - f0;
                stats_s = now() - f1;
            }
            double step_s = now() - t0;
            report.attempt(ok);
            if (warmup)
                continue;
            measured_seconds += step_s;
            (traced ? m.tracedStepMs : m.stepMs).add(step_s * 1000);
            if (traced || !args.trace) {
                m.frameMs.add(frame_s * 1000);
                m.intervalMs.add(stats_s * 1000);
                m.eventsVisited.add(
                    static_cast<double>(stats.eventsVisited));
                m.rectOps.add(static_cast<double>(stats.rectOps));
                m.provenance(stats.resolution);
                m.provenance(interval_stats.resolution);
            }
        }
    }
    tracer.enabled = args.trace;
    tracer.step = -1;
    m.statsMemo = open.session->cacheStats().intervalStats;
    m.renderer = open.session->cacheStats().renderer;
}

} // namespace e2e
