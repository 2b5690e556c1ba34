/**
 * @file
 * Pyramid query plane: latency flatness across trace size.
 *
 * The summary pyramids (index/summary_pyramid.h) promise O(pixels)
 * answers at any zoom: at a fixed viewport the cost of a render or an
 * interval-stats query depends on the output resolution, not on the
 * event count underneath it. This bench sweeps a synthetic trace from
 * 1x to 10x the event count, keeps the viewport fixed at 1920 pixels
 * (Resolution::pixels(1920)), and measures the p95 latency of both the
 * timeline render and the interval-stats query at each size, plus the
 * exact interval-stats query over a near-whole-span unaligned interval
 * with the pyramids built. The gate: each p95 latency varies by less
 * than 2x across the 10x sweep. It also re-verifies the
 * Resolution::Exact contract end to end — bit-identical interval stats
 * at every worker count, locally and over the daemon wire protocol.
 * Results land in bench-out/BENCH_sec9_pyramid_scaling.json for the CI
 * gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "render/framebuffer.h"
#include "render/timeline_renderer.h"
#include "stats/export.h"
#include "trace/writer.h"

using namespace aftermath;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * A synthetic state/task/counter trace with @p states_per_cpu events
 * per CPU — the trace_builder generator is test-only (gtest), so the
 * bench rolls the same shape by hand. Size scales linearly with
 * @p states_per_cpu; the time span does too, which is exactly the
 * regime where a fixed viewport must not cost more on a bigger trace.
 */
trace::Trace
makeTrace(std::uint64_t seed, std::uint32_t cpus, int states_per_cpu)
{
    Rng rng(seed);
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, cpus / 2));
    tr.setCpuFreqHz(2'400'000'000);
    for (const auto &desc : trace::coreStateDescriptions())
        tr.addStateDescription(desc);
    tr.addCounterDescription({0, "cycles"});
    tr.addTaskType({0x1000, "work"});

    TaskInstanceId next_task = 0;
    for (CpuId c = 0; c < cpus; c++) {
        TimeStamp t = rng.nextBounded(50);
        std::int64_t ctr = 0;
        for (int i = 0; i < states_per_cpu; i++) {
            TimeStamp end = t + 1 + rng.nextBounded(100);
            bool is_task = rng.nextBool(0.5);
            TaskInstanceId task = kInvalidTaskInstance;
            if (is_task) {
                task = next_task++;
                tr.addTaskInstance({task, 0x1000, c, {t, end}});
            }
            tr.cpu(c).addState(
                {{t, end},
                 is_task ? 0u
                         : static_cast<std::uint32_t>(
                               1 + rng.nextBounded(4)),
                 task});
            ctr += static_cast<std::int64_t>(rng.nextBounded(1000)) - 200;
            tr.cpu(c).addCounterSample(0, {t, ctr});
            t = end + rng.nextBounded(10);
        }
    }
    std::string err;
    if (!tr.finalize(err)) {
        std::fprintf(stderr, "trace finalize failed: %s\n", err.c_str());
        std::exit(1);
    }
    return tr;
}

/** p95 of @p reps timed runs of @p body, in seconds. */
template <typename Body>
double
p95(int reps, Body &&body)
{
    std::vector<double> samples;
    samples.reserve(reps);
    for (int r = 0; r < reps; r++) {
        auto start = Clock::now();
        body();
        samples.push_back(secondsSince(start));
    }
    std::sort(samples.begin(), samples.end());
    return samples[static_cast<std::size_t>(samples.size() * 95 / 100)];
}

struct Latencies
{
    double render_s = 0.0;
    double stats_s = 0.0;
    double exact_stats_s = 0.0;
};

/** p95 latencies at a fixed 1920-px viewport over the whole span. */
Latencies
measure(const trace::Trace &tr, int reps)
{
    constexpr std::uint32_t kWidth = 1920;
    Session session = Session::view(tr);
    // The pyramids are a one-time index; build them outside the timed
    // region, like every interactive client does on load.
    session.submit(session::PyramidBuildQuery{}).take();

    const TimeInterval span = tr.span();
    Resolution pixels = Resolution::pixels(kWidth);

    Latencies out;
    render::TimelineConfig config;
    config.view = span;
    config.resolution = pixels;
    render::Framebuffer fb(kWidth, 240);
    out.render_s = p95(reps, [&] { session.render(config, fb); });

    // One stats query runs in tens of microseconds (30-70 us on a
    // 4-thread host, most of it the hand-off to a worker and back), so
    // a single preemption can swamp a sample of a few. Batches of 128
    // make every sample last well over 1 ms on the 1x trace.
    constexpr int kStatsBatch = 128;
    out.stats_s = p95(reps, [&] {
                      for (int i = 0; i < kStatsBatch; i++)
                          session
                              .submit(session::IntervalStatsQuery{
                                  {span,
                                   session::QueryPriority::Interactive,
                                   pixels}})
                              .take();
                  }) /
                  kStatsBatch;

    // The exact path, near-whole-span and unaligned: whole leaves come
    // from the built pyramids and only the two edge leaves are scanned,
    // so it must stay flat too. Every query probes a distinct,
    // unaligned subinterval, so the timing covers both edge scans.
    TimeStamp probe = 0;
    out.exact_stats_s = p95(reps, [&] {
                            for (int i = 0; i < kStatsBatch; i++, probe++)
                                session
                                    .submit(session::IntervalStatsQuery{
                                        TimeInterval{span.start + 1 + probe,
                                                     span.end - probe % 97}})
                                    .take();
                        }) /
                        kStatsBatch;
    return out;
}

std::vector<std::uint8_t>
bytesOf(const stats::IntervalStats &s)
{
    ByteWriter w;
    stats::encodeIntervalStats(s, w);
    return w.take();
}

/**
 * Resolution::Exact is bit-identical at every worker count and over
 * the daemon wire. Returns true when every variant matches.
 */
bool
exactIsBitIdentical(const trace::Trace &tr)
{
    const TimeInterval span = tr.span();
    TimeInterval interval{span.start + 13, span.end - 7};

    std::vector<std::uint8_t> reference;
    for (unsigned workers : {1u, 2u, 4u}) {
        Session session = Session::view(tr);
        session.setConcurrency(workers);
        std::vector<std::uint8_t> got = bytesOf(
            session.submit(session::IntervalStatsQuery{interval}).take());
        if (workers == 1u)
            reference = got;
        else if (got != reference)
            return false;
    }

    daemon::Server server(daemon::Server::Options{2, 16});
    daemon::Client client;
    std::string error;
    if (!client.adopt(server.connectInProcess(), error)) {
        std::fprintf(stderr, "daemon connect failed: %s\n", error.c_str());
        return false;
    }
    daemon::OpenTraceRequest open;
    open.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        trace::writeTrace(tr, trace::Encoding::Compact));
    auto opened = client.openTrace(open);
    if (!opened.ok()) {
        std::fprintf(stderr, "daemon open failed: %s\n",
                     opened.message.c_str());
        return false;
    }
    daemon::IntervalStatsRequest request;
    request.head.traceId = opened.value.traceId;
    request.interval = interval;
    auto remote = client.intervalStats(request);
    client.closeTrace(opened.value.traceId);
    return remote.ok() && bytesOf(remote.value) == reference;
}

} // namespace

int
main()
{
    bench::banner("Section IX (this repo)",
                  "summary pyramids: latency flatness at a fixed "
                  "viewport across a 10x trace-size sweep");
    bench::JsonLines json("sec9_pyramid_scaling");

    const std::uint32_t cpus = 16;
    const int base_states = bench::fullScale() ? 20'000 : 4'000;
    const int reps = bench::fullScale() ? 100 : 40;

    trace::Trace small = makeTrace(1, cpus, base_states);
    trace::Trace big = makeTrace(1, cpus, base_states * 10);
    bench::row("sweep",
               strFormat("%u cpus, %d -> %d states/cpu (10x)", cpus,
                         base_states, base_states * 10));

    Latencies at_1x = measure(small, reps);
    Latencies at_10x = measure(big, reps);

    json.add("render_p95_1x", at_1x.render_s, "s");
    json.add("render_p95_10x", at_10x.render_s, "s");
    json.add("stats_p95_1x", at_1x.stats_s, "s");
    json.add("stats_p95_10x", at_10x.stats_s, "s");
    json.add("exact_stats_p95_1x", at_1x.exact_stats_s, "s");
    json.add("exact_stats_p95_10x", at_10x.exact_stats_s, "s");

    double ratio_render = at_10x.render_s / std::max(at_1x.render_s, 1e-9);
    double ratio_stats = at_10x.stats_s / std::max(at_1x.stats_s, 1e-9);
    double ratio_exact_stats =
        at_10x.exact_stats_s / std::max(at_1x.exact_stats_s, 1e-9);
    json.add("ratio_render", ratio_render);
    json.add("ratio_stats", ratio_stats);
    json.add("ratio_exact_stats", ratio_exact_stats);
    bench::row("render p95",
               strFormat("%.6f s -> %.6f s (ratio %.2fx)", at_1x.render_s,
                         at_10x.render_s, ratio_render));
    bench::row("stats p95",
               strFormat("%.6f s -> %.6f s (ratio %.2fx)", at_1x.stats_s,
                         at_10x.stats_s, ratio_stats));
    bench::row("exact stats p95",
               strFormat("%.6f s -> %.6f s (ratio %.2fx)",
                         at_1x.exact_stats_s, at_10x.exact_stats_s,
                         ratio_exact_stats));

    bool identical = exactIsBitIdentical(big);
    json.add("identical", identical ? 1 : 0);
    bench::row("exact bit-identity (workers 1/2/4 + daemon wire)",
               identical ? "ok" : "MISMATCH");

    unsigned hw = std::thread::hardware_concurrency();
    json.add("hardware_threads", hw);
    bench::row("hardware threads", strFormat("%u", hw));

    if (!json.ok()) {
        std::fprintf(stderr, "failed to write %s\n", json.path().c_str());
        return 1;
    }
    bench::row("json", json.path());
    return identical ? 0 : 1;
}
