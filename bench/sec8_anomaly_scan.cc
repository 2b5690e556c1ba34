/**
 * @file
 * Anomaly-scan query plane: parallel scan scaling and interactive
 * latency under a Background scan.
 *
 * The "find me something interesting" sweep (idle phases, duration
 * outliers, counter bursts) is the heaviest whole-trace query the
 * session plane runs; PR 9 lifted it onto the shared QueryEngine as a
 * chunked fan-out. This bench scans the 192-CPU seidel trace at
 * 1/2/4/8 workers through Session::submit(AnomalyScanQuery), verifies
 * the parallel ranked list is bit-identical (via the wire encoding) to
 * the serial stats::scanForAnomalies(), requires — on >= 4 hardware
 * threads — a >= 1.5x speedup at >= 4 workers, and measures the p95
 * latency of an interactive interval-stats probe submitted while
 * Background anomaly scans saturate the pool, against a FIFO baseline
 * (the same scans at Interactive priority). Background drainers yield
 * at chunk boundaries, so the probe must come back >= 2x faster than
 * under FIFO. It also pins that a scan costs what its window holds: at
 * 1 worker, the median scan of an eighth of the span must take at most
 * half the median whole-span scan. Results land in
 * bench-out/BENCH_sec8_anomaly_scan.json for the CI bench-regression
 * gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "common.h"
#include "stats/anomaly.h"
#include "stats/export.h"

using namespace aftermath;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::uint8_t>
bytesOf(const std::vector<stats::Anomaly> &findings)
{
    ByteWriter w;
    stats::encodeAnomalies(findings, w);
    return w.take();
}

/** Wall time of one full-span scan at @p workers, seconds. */
double
timeScan(const trace::Trace &tr, unsigned workers,
         std::vector<stats::Anomaly> *out = nullptr)
{
    Session session = Session::view(tr);
    session.setConcurrency(workers);
    // Spin workers up outside the timing.
    session.queryEngine()->withPool([](base::ThreadPool &) {});
    auto start = Clock::now();
    std::vector<stats::Anomaly> findings =
        session.submit(session::AnomalyScanQuery{}).take();
    double seconds = secondsSince(start);
    if (out)
        *out = std::move(findings);
    return seconds;
}

double
averageScan(const trace::Trace &tr, unsigned workers, int reps)
{
    double total = 0.0;
    for (int r = 0; r < reps; r++)
        total += timeScan(tr, workers);
    return total / reps;
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

} // namespace

int
main()
{
    bench::banner("Section VIII (this repo)",
                  "anomaly scan: parallel scaling + interactive latency "
                  "under a Background scan");
    bench::JsonLines json("sec8_anomaly_scan");

    runtime::RunResult result = bench::runSeidel(false);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;
    std::size_t chunks =
        stats::anomalyScanChunks(tr, tr.taskInstances().size()).size();
    bench::row("trace",
               strFormat("%u cpus, %zu task instances, %zu scan chunks",
                         tr.numCpus(), tr.taskInstances().size(), chunks));

    // Calibrate repetitions so each timing covers >= ~50 ms of work.
    double probe = timeScan(tr, 1);
    int reps = static_cast<int>(
        std::clamp(0.05 / std::max(probe, 1e-6), 3.0, 50.0));

    double serial_s = averageScan(tr, 1, reps);
    json.add("scan_w1", serial_s, "s", 1);
    bench::row("serial anomaly scan",
               strFormat("%.5f s (avg of %d)", serial_s, reps));

    // Worker counts above the hardware concurrency only timeslice the
    // same cores; skip them (with a machine-readable marker) instead
    // of emitting misleading ~1.0x speedups. hw == 0 = unknown.
    unsigned hw = std::thread::hardware_concurrency();
    double speedup_at_4plus = 0.0;
    for (unsigned workers : {2u, 4u, 8u}) {
        if (hw > 0 && workers > hw) {
            json.add(strFormat("skipped_w%u", workers), 1, "",
                     static_cast<int>(workers));
            bench::row(strFormat("%u workers", workers),
                       strFormat("skipped (only %u hardware thread%s)",
                                 hw, hw == 1 ? "" : "s"));
            continue;
        }
        double parallel_s = averageScan(tr, workers, reps);
        double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
        json.add(strFormat("scan_w%u", workers), parallel_s, "s",
                 static_cast<int>(workers));
        json.add(strFormat("speedup_w%u", workers), speedup, "x",
                 static_cast<int>(workers));
        bench::row(strFormat("%u workers", workers),
                   strFormat("%.5f s (%.2fx)", parallel_s, speedup));
        if (workers >= 4)
            speedup_at_4plus = std::max(speedup_at_4plus, speedup);
    }

    // Cost follows the view: at 1 worker, a scan of an eighth of the
    // span against one of the whole span, alternating, medians of 11
    // each. The outlier and burst detectors read only what the window
    // holds, so the eighth should cost well under half.
    double eighth_s = 0.0, whole_s = 0.0;
    {
        const TimeInterval span = tr.span();
        const TimeStamp eighth = span.duration() / 8;
        Session session = Session::view(tr);
        session.queryEngine()->withPool([](base::ThreadPool &) {});
        auto timeWindow = [&](const TimeInterval &window) {
            session::AnomalyScanQuery scan;
            scan.context.interval = window;
            scan.context.priority = session::QueryPriority::Interactive;
            auto start = Clock::now();
            session.submit(scan).take();
            return secondsSince(start);
        };
        std::vector<double> eighths, wholes;
        for (int r = 0; r < 11; r++) {
            const TimeStamp from = span.start + (r % 8) * eighth;
            eighths.push_back(timeWindow({from, from + eighth}));
            wholes.push_back(timeWindow(span));
        }
        eighth_s = median(eighths);
        whole_s = median(wholes);
    }
    const double view_cost_ratio = whole_s > 0 ? eighth_s / whole_s : 0;
    json.add("scan_eighth_w1", eighth_s, "s", 1);
    json.add("scan_whole_w1", whole_s, "s", 1);
    json.add("view_cost_ratio", view_cost_ratio, "x", 1);
    bench::row("1/8-span vs whole-span scan (1 worker, medians of 11)",
               strFormat("%.5f s / %.5f s = %.3f", eighth_s, whole_s,
                         view_cost_ratio));

    // Correctness: every worker count must reproduce the serial ranked
    // list byte-for-byte through the wire encoding.
    std::vector<std::uint8_t> serial_bytes =
        bytesOf(stats::scanForAnomalies(tr));
    bool identical = true;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        std::vector<stats::Anomaly> findings;
        timeScan(tr, workers, &findings);
        identical = identical && bytesOf(findings) == serial_bytes;
    }
    std::size_t findings_count = stats::scanForAnomalies(tr).size();
    json.add("findings", static_cast<double>(findings_count));

    // Generation semantics: a view change cancels the stale scan.
    bool generation_cancels = true;
    {
        TimeInterval span = tr.span();
        Session session = Session::view(tr);
        session.setConcurrency(2);
        session.queryEngine()->withPool([](base::ThreadPool &) {});
        auto stale = session.submit(session::AnomalyScanQuery{});
        session.setView({span.start, span.start + span.duration() / 4});
        session::QueryStatus status = stale.wait();
        // Fast machines may finish before the bump lands; only a stale
        // completion under the old view would be wrong.
        generation_cancels = status == session::QueryStatus::Cancelled ||
                             status == session::QueryStatus::Done;
        auto fresh = session.submit(session::AnomalyScanQuery{});
        generation_cancels = generation_cancels &&
                             fresh.wait() == session::QueryStatus::Done;
    }

    // Interactive latency: an interval-stats probe submitted while
    // Background anomaly scans saturate the shared pool, against the
    // same scans at Interactive priority (FIFO baseline). Fresh
    // sessions per trial; the ceil-rank p95 tolerates one outlier.
    const unsigned storm_workers = std::clamp(hw, 2u, 4u);
    const int storm_sessions = 4;
    const int trials = 20;
    TimeInterval span = tr.span();
    auto interactiveLatency = [&](session::QueryPriority storm_priority) {
        std::vector<double> samples;
        for (int t = 0; t < trials; t++) {
            auto engine =
                std::make_shared<session::QueryEngine>(storm_workers);
            std::vector<Session> storm;
            for (int s = 0; s < storm_sessions; s++) {
                Session sess = Session::view(tr);
                sess.setQueryEngine(engine);
                storm.push_back(std::move(sess));
            }
            Session probe_session = Session::view(tr);
            probe_session.setQueryEngine(engine);
            engine->withPool([](base::ThreadPool &) {});

            std::vector<session::QueryTicket<std::vector<stats::Anomaly>>>
                storm_tickets;
            for (Session &sess : storm) {
                session::AnomalyScanQuery scan;
                scan.context.priority = storm_priority;
                storm_tickets.push_back(sess.submit(scan));
            }
            auto start = Clock::now();
            auto ticket = probe_session.submit(session::IntervalStatsQuery{
                TimeInterval{span.start, span.end - 1 - t}});
            ticket.wait();
            samples.push_back(secondsSince(start));
            for (auto &storm_ticket : storm_tickets)
                storm_ticket.wait();
        }
        std::sort(samples.begin(), samples.end());
        std::size_t rank = (samples.size() * 95 + 99) / 100; // Ceil.
        return samples[rank - 1];
    };
    double fifo_p95 =
        interactiveLatency(session::QueryPriority::Interactive);
    double background_p95 =
        interactiveLatency(session::QueryPriority::Background);
    double yield_speedup = background_p95 > 0 ? fifo_p95 / background_p95 : 0;
    json.add("interactive_p95_fifo", fifo_p95, "s",
             static_cast<int>(storm_workers));
    json.add("interactive_p95_background", background_p95, "s",
             static_cast<int>(storm_workers));
    json.add("background_yield_speedup", yield_speedup, "x",
             static_cast<int>(storm_workers));

    json.add("identical", identical ? 1 : 0);
    json.add("generation_cancels", generation_cancels ? 1 : 0);
    json.add("hardware_threads", hw);

    std::printf("\n");
    bench::row("findings (serial scan)", strFormat("%zu", findings_count));
    bench::row("parallel == serial (byte-identical)",
               identical ? "yes" : "NO");
    bench::row("generation bump cancels stale scans",
               generation_cancels ? "yes" : "NO");
    bench::row("interactive p95 behind FIFO scans",
               strFormat("%.5f s", fifo_p95));
    bench::row("interactive p95 behind Background scans",
               strFormat("%.5f s", background_p95));
    bool enough_hw = hw >= 4;
    if (enough_hw) {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (required: >= 1.5x)",
                             speedup_at_4plus));
        bench::row("background-yield improvement",
                   strFormat("%.1fx (required: >= 2x)", yield_speedup));
    } else {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (not required: only %u hardware "
                             "thread%s)",
                             speedup_at_4plus, hw, hw == 1 ? "" : "s"));
        bench::row("background-yield improvement",
                   strFormat("%.1fx (not required: only %u hardware "
                             "thread%s)",
                             yield_speedup, hw, hw == 1 ? "" : "s"));
    }
    bench::row("json", json.ok() ? json.path().c_str() : "WRITE FAILED");

    bench::row("view cost ratio",
               strFormat("%.3f (required: <= 0.5)", view_cost_ratio));
    bool ok = identical && generation_cancels && view_cost_ratio <= 0.5 &&
              (!enough_hw ||
               (speedup_at_4plus >= 1.5 && yield_speedup >= 2.0));
    return ok ? 0 : 1;
}
