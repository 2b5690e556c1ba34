/**
 * @file
 * serve-overview: the synthetic trace served by an in-process
 * daemon::Server. Connection A navigates at Pixels(1920) with every
 * view at least half the span, so the pyramids answer; each step is
 * one TimelineRender plus an IntervalStats and a CounterExtrema query.
 * Connection B keeps one Background anomaly scan in flight beside it
 * on the shared engine. Loads the pyramid queries, wire encode and
 * socket transfer; the exact scan is bypassed.
 *
 * daemon::Future has no readiness probe, so B's closed loop (submit,
 * wait, resubmit) runs on its own thread, which only blocks on
 * replies; all of A's requests come from the driving thread.
 */

#include <filesystem>
#include <stop_token>
#include <thread>

#include "bench.h"
#include "stats/export.h"

namespace e2e {

namespace {

/**
 * Later opens timed for reopen_s: some before the steps and some after
 * them, so they sample the whole run as the steps do.
 */
constexpr int kReopensBefore = 2;
constexpr int kReopensAfter = 2;

/** One step's requests, replayed on the local twin session. */
struct Step
{
    TimeInterval view;
    CpuId cpu = 0;
    CounterId counter = 0;
};

/** Hashes of one step's remote replies, for the gate. */
struct Sample
{
    Step step;
    std::uint64_t frame = 0;
    std::uint64_t stats = 0;
    std::uint64_t extrema = 0;
    bool approximate = false;
};

/** The answers of a local session to one step's requests. */
struct LocalAnswers
{
    session::TimelineRenderResult frame;
    stats::IntervalStats stats;
    index::MinMax extrema;
    double frameSeconds = 0;
    double querySeconds = 0; ///< Stats and extrema together.
};

bool
answerLocally(Session &twin, const Step &step, LocalAnswers &out)
{
    const Resolution pixels = Resolution::pixels(kFrameWidth);
    session::TimelineRenderQuery render;
    render.config.view = step.view;
    render.width = kFrameWidth;
    render.height = kFrameHeight;
    render.context.resolution = pixels;
    double t0 = now();
    if (!finish(twin.submit(render), out.frame))
        return false;
    double t1 = now();
    session::CounterExtremaQuery extrema{
        {step.view, session::QueryPriority::Interactive, pixels}, step.cpu,
        step.counter};
    session::IntervalStatsQuery stats{
        {step.view, session::QueryPriority::Interactive, pixels}};
    if (!finish(twin.submit(stats), out.stats) ||
        !finish(twin.submit(extrema), out.extrema))
        return false;
    out.frameSeconds = t1 - t0;
    out.querySeconds = now() - t1;
    return true;
}

/** Connection B: one Background scan in flight until stopped. */
struct Scanner
{
    Scanner(daemon::Client &client_, std::uint64_t trace_id)
        : client(client_), traceId(trace_id)
    {}

    daemon::Client &client;
    std::uint64_t traceId;

    // Written by the scanner thread; read after it is joined.
    Samples scanMs;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::uint8_t> firstResult;
    Tracer tracer;

    void
    loop(const std::stop_token &stop)
    {
        while (!stop.stop_requested()) {
            daemon::AnomalyScanRequest request;
            request.head.traceId = traceId;
            request.head.priority = daemon::WirePriority::Background;
            double t0 = now();
            daemon::Reply<std::vector<stats::Anomaly>> reply;
            {
                auto s = tracer.span("daemon.scan");
                reply = client.anomalyScan(request);
            }
            double t1 = now();
            // A scan that ends after the stop ran alone: not a sample.
            if (stop.stop_requested())
                break;
            attempted++;
            if (!reply.ok()) {
                failed++;
                continue;
            }
            scanMs.add((t1 - t0) * 1000);
            if (firstResult.empty())
                firstResult =
                    encoded<std::vector<stats::Anomaly>,
                            stats::encodeAnomalies>(reply.value);
        }
    }
};

} // namespace

void
runServeOverview(const RunArgs &args, Report &report, Measured &m,
                 Tracer &tracer)
{
    tracer.enabled = args.trace;
    daemon::Server server(daemon::Server::Options{kWorkers, 16});
    daemon::Client a, b;
    std::string error;
    if (!a.adopt(server.connectInProcess(), error) ||
        !b.adopt(server.connectInProcess(), error)) {
        report.attempt(false);
        report.mismatch("connect failed: " + error);
        return;
    }

    // The first open is the process's; later ones close the trace so
    // the server's registry reloads it.
    RemoteOpen open;
    auto open_again = [&](bool first) {
        if (!first)
            report.attempt(a.closeTrace(open.traceId).ok());
        open = RemoteOpen{};
        bool ok = openRemote(a, args.input, tracer, open, error);
        report.attempt(ok);
        if (!ok) {
            report.mismatch(error);
            return false;
        }
        if (first) {
            report.setFrameHash(hashFrame(open.frame.fb, open.frame.stats));
            return true;
        }
        m.reopenS.add(open.total);
        m.daemonOpenMs.add(open.open * 1000);
        m.warmupMs.add(open.warmup * 1000);
        m.firstFrameMs.add(open.firstFrame * 1000);
        return true;
    };
    if (!open_again(true))
        return;
    for (int i = 0; i < kReopensBefore; i++)
        if (!open_again(false))
            return;

    // The identical in-process session: the gate's reference, and in
    // the traced run the local half of daemon.wire_ms. Untraced runs
    // open it after the steps, so it does not compete with them.
    Tracer off;
    LocalOpen twin;
    auto open_twin = [&] {
        if (!openLocal(args.input, off, twin, error)) {
            report.mismatch(error);
            return false;
        }
        if (hashFrame(twin.frame, twin.frameStats) !=
            hashFrame(open.frame.fb, open.frame.stats))
            report.mismatch("first frame differs from the local session");
        m.counterIndexBuilds = twin.counterIndexBuilds;
        m.readMs.add(twin.read * 1000);
        m.readMibS.add(static_cast<double>(
                           std::filesystem::file_size(args.input)) /
                       1048576.0 / twin.read);
        m.eventsPerS.add(static_cast<double>(countEvents(*twin.trace)) /
                         twin.read);
        m.pyramidMs.add(twin.pyramids * 1000);
        return true;
    };
    if (args.trace && !open_twin())
        return;

    auto opened_b =
        b.openTrace(daemon::OpenTraceRequest{args.input, nullptr});
    report.attempt(opened_b.ok());
    if (!opened_b.ok()) {
        report.mismatch("OpenTrace on B failed: " + opened_b.message);
        return;
    }
    Scanner scanner(b, opened_b.value.traceId);
    scanner.tracer.enabled = args.trace;
    // Joined on every path out of this function.
    std::jthread scan_thread(
        [&scanner](std::stop_token stop) { scanner.loop(stop); });

    const TimeInterval span = open.span;
    const Resolution pixels = Resolution::pixels(kFrameWidth);
    Rng rng(args.seed * 31 + 13);
    Rng gate_rng(args.seed * 17 + 5);
    Deck widths(cardsUpTo(kPositions), args.seed);
    Deck starts(cardsUpTo(kPositions), args.seed + 3);
    std::vector<Sample> samples;
    double step_seconds = 0;
    for (std::size_t i = 0;
         i < kWarmupSteps + kMinSteps || step_seconds < args.seconds; i++) {
        const bool warmup = i < kWarmupSteps;
        // Widths from half the span to all of it and start positions,
        // each in one of eight strips dealt from a deck.
        Step step;
        auto length = static_cast<double>(span.duration());
        auto width = static_cast<TimeStamp>(
            length * (0.5 + 0.5 * stripCentre(widths.draw(), rng)));
        auto start = static_cast<TimeStamp>(
            static_cast<double>(span.duration() - width) *
            stripCentre(starts.draw(), rng));
        step.view = {span.start + start, span.start + start + width};
        step.cpu = static_cast<CpuId>(rng.nextBounded(open.numCpus));
        step.counter = static_cast<CounterId>(rng.nextBounded(2));

        bool traced = args.trace && !warmup && i % 2 == 1;
        tracer.enabled = traced;
        tracer.step = static_cast<std::int32_t>(i);
        daemon::Reply<daemon::RenderReply> frame;
        daemon::Reply<stats::IntervalStats> stats;
        daemon::Reply<index::MinMax> extrema;
        double t0 = now();
        double t1, t2;
        {
            auto s = tracer.span("bench.step");
            {
                auto r = tracer.span("daemon.render");
                frame = a.timelineRender(overviewRenderRequest(
                    open.traceId, step.view));
            }
            t1 = now();
            {
                auto q = tracer.span("daemon.query");
                daemon::IntervalStatsRequest request;
                request.head.traceId = open.traceId;
                request.interval = step.view;
                request.resolution = pixels;
                stats = a.intervalStats(request);
            }
            {
                auto q = tracer.span("daemon.query");
                daemon::CounterExtremaRequest request;
                request.head.traceId = open.traceId;
                request.cpu = step.cpu;
                request.counter = step.counter;
                request.interval = step.view;
                request.resolution = pixels;
                extrema = a.counterExtrema(request);
            }
        }
        t2 = now();
        double step_s = t2 - t0;
        bool ok = frame.ok() && stats.ok() && extrema.ok();
        report.attempt(ok);
        if (warmup)
            continue;
        step_seconds += step_s; // Failed steps count, so the run ends.
        if (!ok)
            continue;
        (traced ? m.tracedStepMs : m.stepMs).add(step_s * 1000);
        if (traced || !args.trace) {
            m.renderRttMs.add((t1 - t0) * 1000);
            m.queryRttMs.add((t2 - t1) * 1000 / 2);
            m.eventsVisited.add(
                static_cast<double>(frame.value.stats.eventsVisited));
            m.rectOps.add(static_cast<double>(frame.value.stats.rectOps));
            m.provenance(frame.value.stats.resolution);
            m.provenance(stats.value.resolution);
        }
        if (traced) {
            // The same requests on the local twin: the remainder of the
            // round trip is the daemon's wire encode and transfer.
            m.replyBytes += static_cast<double>(
                frameBytes(frame.value.fb, frame.value.stats).size());
            m.replySeconds += t1 - t0;
            LocalAnswers local;
            if (answerLocally(*twin.session, step, local)) {
                m.frameMs.add(local.frameSeconds * 1000);
                m.intervalMs.add(local.querySeconds * 1000 / 2);
                double local_s = local.frameSeconds + local.querySeconds;
                m.wireMs.add((step_s - local_s) * 1000);
            }
        }

        // A seeded sample of steps feeds the gate (outside the timing).
        if (gate_rng.nextBounded(8) == 0) {
            Sample sample;
            sample.step = step;
            sample.frame = hashBytes(
                frameBytes(frame.value.fb, frame.value.stats));
            sample.stats = hashBytes(
                encoded<stats::IntervalStats, stats::encodeIntervalStats>(
                    stats.value));
            sample.extrema = hashBytes(
                encoded<index::MinMax, stats::encodeMinMax>(extrema.value));
            const ResolutionInfo &provenance = frame.value.stats.resolution;
            sample.approximate =
                !provenance.exact && provenance.granularityNs > 0;
            samples.push_back(sample);
        }
    }
    tracer.enabled = args.trace;
    tracer.step = -1;
    scan_thread.request_stop();
    scan_thread.join();
    // B lets go of the trace too, so the reopens after the steps reload
    // it like the ones before them.
    report.attempt(b.closeTrace(opened_b.value.traceId).ok());
    for (int i = 0; i < kReopensAfter; i++)
        if (!open_again(false))
            return;
    if (!args.trace && !open_twin())
        return;
    tracer.absorb(scanner.tracer);
    m.scanMs = scanner.scanMs;
    for (std::uint64_t i = 0; i < scanner.attempted; i++)
        report.attempt(i >= scanner.failed);

    daemon::Server::Stats server_stats = server.stats();
    m.rejected = server_stats.rejected;
    m.protocolErrors = server_stats.protocolErrors;
    m.statsMemo = twin.session->cacheStats().intervalStats;
    m.renderer = twin.session->cacheStats().renderer;

    // Gate: remote replies are byte-identical to the local twin's, and
    // the pyramid answers carry non-exact provenance.
    for (const Sample &sample : samples) {
        LocalAnswers local;
        if (!answerLocally(*twin.session, sample.step, local)) {
            report.mismatch("local twin query did not complete");
            continue;
        }
        if (hashBytes(frameBytes(local.frame.fb, local.frame.stats)) !=
            sample.frame)
            report.mismatch("remote frame differs from the local session");
        if (hashBytes(encoded<stats::IntervalStats,
                              stats::encodeIntervalStats>(local.stats)) !=
            sample.stats)
            report.mismatch("remote interval stats differ from local");
        if (hashBytes(encoded<index::MinMax, stats::encodeMinMax>(
                local.extrema)) != sample.extrema)
            report.mismatch("remote counter extrema differ from local");
        if (!sample.approximate)
            report.mismatch("overview frame was not answered by pyramids");
    }
    if (!scanner.firstResult.empty()) {
        session::AnomalyScanQuery scan;
        scan.context.interval = span;
        std::vector<stats::Anomaly> local;
        if (!finish(twin.session->submit(scan), local) ||
            encoded<std::vector<stats::Anomaly>, stats::encodeAnomalies>(
                local) != scanner.firstResult)
            report.mismatch("remote anomaly scan differs from local");
    }
    std::printf("gate: %zu sampled steps and one scan checked against a "
                "local session\n",
                samples.size());
}

} // namespace e2e
