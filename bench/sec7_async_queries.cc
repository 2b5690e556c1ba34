/**
 * @file
 * Asynchronous query plane: cold parallel interval statistics and
 * cancellation latency.
 *
 * The paper's statistical views aggregate a user-selected interval
 * across all CPUs (section II-A); on a many-core trace the first (cold)
 * aggregation is a full scan, exactly the stall the asynchronous query
 * plane moves off the interaction path. This bench measures the cold
 * interval-statistics scan of the 192-CPU seidel trace at 1/2/4/8
 * workers through Session::submit()'s parallel executor (per-CPU
 * partial sums merged at the end, task counts from the task index),
 * verifies the parallel
 * result is bit-identical to the serial one, requires — on >= 4
 * hardware threads — a >= 2x speedup at >= 4 workers, and measures how
 * fast an in-flight query reacts to cancel() and to a view-generation
 * bump.
 *
 * It also measures priority inversion: the p95 latency of an
 * interactive stats query submitted while a background warm-up storm
 * saturates the shared engine pool, against a FIFO baseline (the same
 * storm submitted at Interactive priority, which queues ahead of the
 * probe exactly like the old single-queue engine). On >= 4 hardware
 * threads the two-level scheduler must improve the p95 by >= 5x —
 * background drainers yield at index-build boundaries, so the probe
 * waits for at most one chunk instead of the whole storm. Results are
 * emitted as JSON lines with a "workers" field
 * (bench-out/BENCH_sec7_async_queries.json) for the perf trajectory
 * and the CI bench-regression gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "common.h"

using namespace aftermath;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Wall time of one cold interval-statistics query, seconds. */
double
timeColdStats(const trace::Trace &tr, unsigned workers,
              stats::IntervalStats *out = nullptr)
{
    Session session = Session::view(tr);
    session.setConcurrency(workers);
    // Spin workers up outside the timing.
    session.queryEngine()->withPool([](base::ThreadPool &) {});
    auto start = Clock::now();
    const stats::IntervalStats &stats = session.intervalStats();
    double seconds = secondsSince(start);
    if (out)
        *out = stats;
    return seconds;
}

/** Average cold-query time over @p reps fresh sessions, seconds. */
double
averageColdStats(const trace::Trace &tr, unsigned workers, int reps)
{
    double total = 0.0;
    for (int r = 0; r < reps; r++)
        total += timeColdStats(tr, workers);
    return total / reps;
}

} // namespace

int
main()
{
    bench::banner("Section VII (this repo)",
                  "async query plane: parallel cold interval statistics "
                  "+ cancellation latency");
    bench::JsonLines json("sec7_async_queries");

    runtime::RunResult result = bench::runSeidel(false);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;
    bench::row("trace",
               strFormat("%u cpus, %zu task instances", tr.numCpus(),
                         tr.taskInstances().size()));

    // Calibrate repetitions so each timing covers >= ~50 ms of work.
    double probe = timeColdStats(tr, 1);
    int reps = static_cast<int>(
        std::clamp(0.05 / std::max(probe, 1e-6), 3.0, 50.0));

    double serial_s = averageColdStats(tr, 1, reps);
    json.add("cold_stats_w1", serial_s, "s", 1);
    bench::row("serial cold interval stats",
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
        double parallel_s = averageColdStats(tr, workers, reps);
        double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
        json.add(strFormat("cold_stats_w%u", workers), parallel_s, "s",
                 static_cast<int>(workers));
        json.add(strFormat("speedup_w%u", workers), speedup, "x",
                 static_cast<int>(workers));
        bench::row(strFormat("%u workers", workers),
                   strFormat("%.5f s (%.2fx)", parallel_s, speedup));
        if (workers >= 4)
            speedup_at_4plus = std::max(speedup_at_4plus, speedup);
    }

    // Correctness: the parallel merge must be bit-identical to the
    // serial scan — same per-state map, same task counts.
    stats::IntervalStats serial_stats, parallel_stats;
    timeColdStats(tr, 1, &serial_stats);
    timeColdStats(tr, std::max(4u, std::min(hw, 8u)), &parallel_stats);
    bool identical =
        serial_stats.interval == parallel_stats.interval &&
        serial_stats.timeInState == parallel_stats.timeInState &&
        serial_stats.tasksOverlapping == parallel_stats.tasksOverlapping &&
        serial_stats.tasksStarted == parallel_stats.tasksStarted;

    // Cancellation latency: how long a running cold query needs to
    // notice cancel() and complete as Cancelled. Every submission
    // computes; the intervals differ only so that no two are alike.
    TimeInterval span = tr.span();
    double cancel_total = 0.0;
    int cancel_samples = 0;
    for (int r = 0; r < reps; r++) {
        Session session = Session::view(tr);
        session.setConcurrency(2);
        session.queryEngine()->withPool([](base::ThreadPool &) {});
        auto ticket = session.submit(session::IntervalStatsQuery{
            TimeInterval{span.start, span.end - 1 - r}});
        while (ticket.status() == session::QueryStatus::Pending)
            std::this_thread::yield();
        if (ticket.status() != session::QueryStatus::Running)
            continue; // Finished before we could cancel; retry.
        auto start = Clock::now();
        ticket.cancel();
        session::QueryStatus final_status = ticket.wait();
        // Cancellation is cooperative: a scan in its final chunk may
        // legitimately race to Done. Only actual cancellations are
        // latency samples.
        if (final_status == session::QueryStatus::Cancelled) {
            cancel_total += secondsSince(start);
            cancel_samples++;
        }
    }
    double cancel_latency =
        cancel_samples > 0 ? cancel_total / cancel_samples : 0.0;
    json.add("cancel_latency", cancel_latency, "s", 2);
    json.add("cancel_samples", cancel_samples);

    // Generation semantics: a view change cancels the stale in-flight
    // query without an explicit cancel().
    bool generation_cancels = true;
    {
        Session session = Session::view(tr);
        session.setConcurrency(2);
        session.queryEngine()->withPool([](base::ThreadPool &) {});
        auto stale = session.submit(session::IntervalStatsQuery{
            TimeInterval{span.start, span.end - 7}});
        session.setView({span.start, span.start + span.duration() / 4});
        session::QueryStatus status = stale.wait();
        // Fast machines may finish the scan before the bump lands;
        // only a stale *completion under the old view* would be wrong.
        generation_cancels = status == session::QueryStatus::Cancelled ||
                             status == session::QueryStatus::Done;
        auto fresh = session.submit(session::IntervalStatsQuery{});
        generation_cancels =
            generation_cancels &&
            fresh.wait() == session::QueryStatus::Done;
    }

    // Priority inversion: an interactive stats query racing a
    // background warm-up storm. Fresh sessions each trial keep every
    // index store cold, so each storm really rebuilds all indexes.
    // 20 trials: the ceil-rank p95 is then the second-largest sample,
    // so the CI-gated ratio tolerates one outlier per mode instead of
    // being a max-over-max of scheduler noise.
    const unsigned storm_workers = std::clamp(hw, 2u, 4u);
    const int storm_sessions = 8;
    const int trials = 20;
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
            Session probe = Session::view(tr);
            probe.setQueryEngine(engine);
            // Spin workers up outside the timing.
            engine->withPool([](base::ThreadPool &) {});

            std::vector<session::QueryTicket<session::WarmupStats>>
                storm_tickets;
            for (Session &sess : storm)
                storm_tickets.push_back(sess.submit(session::WarmupQuery{
                    {std::nullopt, storm_priority},
                    session::WarmupPolicy()}));
            auto start = Clock::now();
            auto ticket = probe.submit(session::IntervalStatsQuery{
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
    double priority_p95 =
        interactiveLatency(session::QueryPriority::Background);
    double inversion_speedup =
        priority_p95 > 0 ? fifo_p95 / priority_p95 : 0;
    json.add("interactive_p95_fifo", fifo_p95, "s",
             static_cast<int>(storm_workers));
    json.add("interactive_p95_priority", priority_p95, "s",
             static_cast<int>(storm_workers));
    json.add("priority_inversion_speedup", inversion_speedup, "x",
             static_cast<int>(storm_workers));

    json.add("identical", identical ? 1 : 0);
    json.add("generation_cancels", generation_cancels ? 1 : 0);
    json.add("hardware_threads", hw);

    std::printf("\n");
    bench::row("parallel == serial (bit-identical)",
               identical ? "yes" : "NO");
    bench::row("cancel latency",
               strFormat("%.6f s (avg of %d running cancels)",
                         cancel_latency, cancel_samples));
    bench::row("generation bump cancels stale queries",
               generation_cancels ? "yes" : "NO");
    bench::row("interactive p95 behind FIFO storm",
               strFormat("%.5f s", fifo_p95));
    bench::row("interactive p95 behind background storm",
               strFormat("%.5f s", priority_p95));
    bool enough_hw = hw >= 4;
    if (enough_hw) {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (required: >= 2x)", speedup_at_4plus));
        bench::row("priority-inversion improvement",
                   strFormat("%.1fx (required: >= 5x)",
                             inversion_speedup));
    } else {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (not required: only %u hardware "
                             "thread%s)",
                             speedup_at_4plus, hw, hw == 1 ? "" : "s"));
        bench::row("priority-inversion improvement",
                   strFormat("%.1fx (not required: only %u hardware "
                             "thread%s)",
                             inversion_speedup, hw, hw == 1 ? "" : "s"));
    }
    bench::row("json", json.ok() ? json.path().c_str() : "WRITE FAILED");

    bool ok = identical && generation_cancels &&
              (!enough_hw ||
               (speedup_at_4plus >= 2.0 && inversion_speedup >= 5.0));
    return ok ? 0 : 1;
}
