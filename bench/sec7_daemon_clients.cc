/**
 * @file
 * Trace-serving daemon: interactive query latency under client fan-in.
 *
 * The daemon's promise is that one engine can serve many viewers of one
 * trace without the viewers feeling each other: clients that open the
 * same trace file share its pyramids and counter indexes
 * (daemon/server.h), and every request computes its answer from them,
 * so a request costs the wire round trip, dispatch and a query that
 * scales with the interval's edges — not with other clients. This bench
 * measures exactly that contract: it serves one seidel trace from an
 * in-process daemon::Server, queries a fixed set of probe intervals
 * through one client, verifies the served results are bit-identical to
 * a local Session (same encoder, byte-for-byte), and then drives 1, 8
 * and 64 concurrent clients issuing Interactive interval-statistics
 * requests over those intervals, recording the p50 and p95
 * per-request latency at each fan-in. Last, one client repeats a
 * whole-span 1920x1080 Pixels(1920) timeline render, and the bench
 * reports the render round trip's absolute throughput: frames/s and
 * reply MiB/s (ungated).
 *
 * The committed baseline (bench/baselines/sec7_daemon_clients.json)
 * gates the 64-client p95: a regression that turns queries back into
 * full scans, or serializes the connection planes behind one lock,
 * shows up as a p95 collapse long before it hits the generous ceiling.
 * Results land in bench-out/BENCH_sec7_daemon_clients.json for the CI
 * gate (tools/check_bench.py) and the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

using namespace aftermath;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kProbeIntervals = 16;
constexpr int kRequestsPerClient = 200;
constexpr int kRenderRoundTrips = 40;

/** The probe intervals: @p kProbeIntervals slices of the trace span. */
std::vector<TimeInterval>
probeIntervals(const TimeInterval &span)
{
    std::vector<TimeInterval> intervals;
    const TimeStamp width = std::max<TimeStamp>(
        1, (span.end - span.start) / kProbeIntervals);
    for (int i = 0; i < kProbeIntervals; i++) {
        TimeStamp start = span.start + i * width;
        intervals.push_back(TimeInterval{
            start, std::min<TimeStamp>(span.end, start + width)});
    }
    return intervals;
}

/** Connect a fresh client to the in-process server or die. */
void
connect(daemon::Server &server, daemon::Client &client)
{
    std::string error;
    if (!client.adopt(server.connectInProcess(), error))
        fatal("connect failed: %s", error.c_str());
}

/** Open the shared trace (path-keyed, so clients share caches) or die. */
daemon::OpenTraceReply
openShared(daemon::Client &client, const std::string &path)
{
    daemon::OpenTraceRequest open;
    open.path = path;
    daemon::Reply<daemon::OpenTraceReply> reply = client.openTrace(open);
    if (!reply.ok())
        fatal("open failed: %s", reply.message.c_str());
    return reply.value;
}

std::vector<std::uint8_t>
bytesOf(const stats::IntervalStats &stats)
{
    ByteWriter writer;
    stats::encodeIntervalStats(stats, writer);
    return writer.take();
}

/** Inclusive-rank percentile of @p samples; sorts in place. */
double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t rank = static_cast<std::size_t>(p * (samples.size() - 1));
    return samples[rank];
}

struct FanInResult
{
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double qps = 0.0;
};

/**
 * Drive @p clients concurrent clients, each issuing
 * kRequestsPerClient Interactive interval-stats requests over the
 * warm probe set (staggered per client so neighbours are always on
 * different intervals), and aggregate latency across every request.
 */
FanInResult
measureFanIn(daemon::Server &server, const std::string &trace_path,
             const std::vector<TimeInterval> &intervals, int clients)
{
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    auto wall_start = Clock::now();
    for (int c = 0; c < clients; c++) {
        threads.emplace_back([&, c] {
            daemon::Client client;
            connect(server, client);
            std::uint64_t trace_id =
                openShared(client, trace_path).traceId;
            latencies[c].reserve(kRequestsPerClient);
            for (int r = 0; r < kRequestsPerClient; r++) {
                daemon::IntervalStatsRequest request;
                request.head.traceId = trace_id;
                request.head.priority =
                    daemon::WirePriority::Interactive;
                request.interval =
                    intervals[(c + r) % intervals.size()];
                auto start = Clock::now();
                daemon::Reply<stats::IntervalStats> reply =
                    client.intervalStats(request);
                auto elapsed = Clock::now() - start;
                if (!reply.ok())
                    fatal("interval stats failed: %s",
                          reply.message.c_str());
                latencies[c].push_back(
                    std::chrono::duration<double, std::milli>(elapsed)
                        .count());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    double wall_s =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    std::vector<double> all;
    all.reserve(static_cast<std::size_t>(clients) * kRequestsPerClient);
    for (const std::vector<double> &per_client : latencies)
        all.insert(all.end(), per_client.begin(), per_client.end());

    FanInResult result;
    result.p50_ms = percentile(all, 0.50);
    result.p95_ms = percentile(all, 0.95);
    result.qps = all.size() / std::max(wall_s, 1e-9);
    return result;
}

struct RenderThroughput
{
    double framesPerS = 0.0;
    double replyBytes = 0.0; ///< One reply body, status byte excluded.
    bool identical = false;  ///< Decoded frame equals the local one.
};

/**
 * Time kRenderRoundTrips whole-span 1920x1080 Pixels(1920) renders
 * through one client, back to back. The reply size is the encoding of
 * the same frame's lane images from @p local, which the daemon's reply
 * equals byte for byte.
 */
RenderThroughput
measureRender(daemon::Server &server, const std::string &trace_path,
              Session &local)
{
    daemon::Client client;
    connect(server, client);
    const daemon::OpenTraceReply opened = openShared(client, trace_path);
    daemon::TimelineRenderRequest request;
    request.head.traceId = opened.traceId;
    request.view = opened.span;
    request.width = 1920;
    request.height = 1080;
    request.resolution = Resolution::pixels(1920);

    session::TimelineRenderQuery query;
    query.config.view = opened.span;
    query.width = request.width;
    query.height = request.height;
    query.context.resolution = request.resolution;
    const session::TimelineRenderResult frame = local.submit(query).take();
    query.asLanes = true;
    const session::TimelineRenderResult lanes = local.submit(query).take();
    ByteWriter reply;
    daemon::encodeRenderReply(lanes.image, lanes.stats, reply);

    RenderThroughput out;
    daemon::Reply<daemon::RenderReply> served = client.timelineRender(request);
    if (!served.ok())
        fatal("render failed: %s", served.message.c_str());
    const std::size_t pixels = std::size_t{1920} * 1080;
    out.identical = std::equal(served.value.fb.data(),
                               served.value.fb.data() + pixels,
                               frame.fb.data());
    auto start = Clock::now();
    for (int i = 0; i < kRenderRoundTrips; i++)
        if (!client.timelineRender(request).ok())
            fatal("render failed");
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    out.framesPerS = kRenderRoundTrips / std::max(wall_s, 1e-9);
    out.replyBytes = static_cast<double>(reply.size());
    return out;
}

} // namespace

int
main()
{
    bench::banner("Section VII (this repo)",
                  "trace-serving daemon: interactive query latency "
                  "at 1/8/64 concurrent clients");
    bench::JsonLines json("sec7_daemon_clients");
    json.add("hardware_threads",
             std::thread::hardware_concurrency());

    runtime::RunResult result = bench::runSeidel(false);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;

    // Serve the trace from disk: path-keyed opens are what share one
    // registry entry (and its caches) across every client below.
    const std::string trace_path =
        bench::benchOutDir() + "/sec7_daemon_clients.trace";
    std::string error;
    if (!trace::writeTraceFile(tr, trace_path, trace::Encoding::Compact,
                               error))
        fatal("trace write failed: %s", error.c_str());

    daemon::Server server(daemon::Server::Options{0, 16});
    bench::row("trace",
               strFormat("%u cpus, %zu task instances (served from %s)",
                         tr.numCpus(), tr.taskInstances().size(),
                         trace_path.c_str()));

    // Warm the probe set through one client and check the daemon's
    // core correctness claim while at it: every served result must be
    // byte-identical to the local Session's, through the same encoder.
    daemon::Client warmer;
    connect(server, warmer);
    daemon::OpenTraceReply opened = openShared(warmer, trace_path);
    std::vector<TimeInterval> intervals = probeIntervals(opened.span);
    Session local = Session::view(tr);
    bool identical = true;
    auto warm_start = Clock::now();
    for (const TimeInterval &interval : intervals) {
        daemon::IntervalStatsRequest request;
        request.head.traceId = opened.traceId;
        request.head.priority = daemon::WirePriority::Interactive;
        request.interval = interval;
        daemon::Reply<stats::IntervalStats> reply =
            warmer.intervalStats(request);
        if (!reply.ok())
            fatal("warm query failed: %s", reply.message.c_str());
        if (bytesOf(reply.value) != bytesOf(local.intervalStats(interval)))
            identical = false;
    }
    double warm_s = std::chrono::duration<double>(Clock::now() -
                                                  warm_start)
                        .count();
    json.add("identical", identical ? 1 : 0);
    bench::row("cold warm-up",
               strFormat("%d intervals in %.3f s, bit-identical to "
                         "local session: %s",
                         kProbeIntervals, warm_s,
                         identical ? "yes" : "NO"));

    for (int clients : {1, 8, 64}) {
        FanInResult fan =
            measureFanIn(server, trace_path, intervals, clients);
        json.add(strFormat("p50_ms_c%d", clients), fan.p50_ms, "ms",
                 clients);
        json.add(strFormat("p95_ms_c%d", clients), fan.p95_ms, "ms",
                 clients);
        json.add(strFormat("qps_c%d", clients), fan.qps, "1/s",
                 clients);
        bench::row(strFormat("%d client%s", clients,
                             clients == 1 ? "" : "s"),
                   strFormat("p50 %.3f ms, p95 %.3f ms, %.0f req/s",
                             fan.p50_ms, fan.p95_ms, fan.qps));
    }

    RenderThroughput render = measureRender(server, trace_path, local);
    const double reply_mib_s =
        render.framesPerS * render.replyBytes / (1024.0 * 1024.0);
    json.add("render_identical", render.identical ? 1 : 0);
    json.add("render_frames_s", render.framesPerS, "1/s");
    json.add("render_reply_bytes", render.replyBytes, "B");
    json.add("render_reply_mib_s", reply_mib_s, "MiB/s");
    bench::row("1920x1080 render",
               strFormat("%.1f frames/s, %.0f-byte replies, %.1f MiB/s, "
                         "identical to local: %s",
                         render.framesPerS, render.replyBytes, reply_mib_s,
                         render.identical ? "yes" : "NO"));

    server.stop();
    daemon::Server::Stats stats = server.stats();
    bench::row("served", strFormat("%llu requests over %llu connections"
                                   " (%llu rejected, %llu protocol "
                                   "errors)",
                                   static_cast<unsigned long long>(
                                       stats.requests),
                                   static_cast<unsigned long long>(
                                       stats.connectionsAccepted),
                                   static_cast<unsigned long long>(
                                       stats.rejected),
                                   static_cast<unsigned long long>(
                                       stats.protocolErrors)));
    std::remove(trace_path.c_str());
    if (!json.ok())
        std::fprintf(stderr, "warning: could not write %s\n",
                     json.path().c_str());
    return 0;
}
