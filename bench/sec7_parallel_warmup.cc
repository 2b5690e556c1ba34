/**
 * @file
 * Parallel session warm-up: concurrent index construction vs serial.
 *
 * The paper's per-(CPU, counter) search trees (section VI-B.c) are
 * exactly what makes the first zoom on a many-core trace stall when
 * they are built lazily on the query path. Session::warmup() builds
 * them off that path, concurrently across the per-CPU shards of the
 * index store. This bench measures warm-up wall time on the seidel
 * trace (192 CPUs x 4 counters) at 1/2/4/8 workers, verifies the
 * parallel build is bit-identical to the serial one, and — on machines
 * with >= 4 hardware threads — requires a >= 2x speedup at >= 4
 * workers. Results are also emitted as JSON lines
 * (BENCH_sec7_parallel_warmup.json) for the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"

using namespace aftermath;

namespace {

/** Wall time of one full warm-up on a fresh session, seconds. */
double
timeWarmup(const trace::Trace &tr, unsigned workers,
           session::Session::WarmupStats *stats_out = nullptr)
{
    Session session = Session::view(tr);
    session.setConcurrency(workers);
    auto start = std::chrono::steady_clock::now();
    session::Session::WarmupStats stats = session.warmup();
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    if (stats_out)
        *stats_out = stats;
    return d.count();
}

/** Average warm-up time over @p reps fresh sessions, seconds. */
double
averageWarmup(const trace::Trace &tr, unsigned workers, int reps)
{
    double total = 0.0;
    for (int r = 0; r < reps; r++)
        total += timeWarmup(tr, workers);
    return total / reps;
}

} // namespace

int
main()
{
    bench::banner("Section VII (this repo)",
                  "parallel session warm-up vs serial index construction");
    bench::JsonLines json("sec7_parallel_warmup");

    runtime::RunResult result = bench::runSeidel(false);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;

    std::size_t pairs = 0, samples = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (CounterId id : tr.cpu(c).counterIds()) {
            pairs++;
            samples += tr.cpu(c).counterSamples(id).size();
        }
    }
    bench::row("trace",
               strFormat("%u cpus, %zu (cpu, counter) pairs, %zu samples",
                         tr.numCpus(), pairs, samples));

    // Calibrate repetitions so each timing covers >= ~50 ms of work.
    double probe = timeWarmup(tr, 1);
    int reps = static_cast<int>(
        std::clamp(0.05 / std::max(probe, 1e-6), 3.0, 50.0));

    double serial_s = averageWarmup(tr, 1, reps);
    json.add("serial_warmup", serial_s, "s", 1);
    bench::row("serial warm-up",
               strFormat("%.4f s (avg of %d)", serial_s, reps));

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
        double parallel_s = averageWarmup(tr, workers, reps);
        double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
        json.add(strFormat("parallel_warmup_w%u", workers), parallel_s,
                 "s", static_cast<int>(workers));
        json.add(strFormat("speedup_w%u", workers), speedup, "x",
                 static_cast<int>(workers));
        bench::row(strFormat("%u workers", workers),
                   strFormat("%.4f s (%.2fx)", parallel_s, speedup));
        if (workers >= 4)
            speedup_at_4plus = std::max(speedup_at_4plus, speedup);
    }

    // Correctness: the parallel build must be bit-identical to the
    // serial one — same extrema for every (cpu, counter) over probe
    // intervals, same number of indexes built.
    Session serial = Session::view(tr);
    Session parallel = Session::view(tr);
    parallel.setConcurrency(std::max(4u, std::min(hw, 8u)));
    session::Session::WarmupStats serial_stats = serial.warmup();
    session::Session::WarmupStats parallel_stats = parallel.warmup();
    bool identical = serial_stats.indexesBuilt ==
                     parallel_stats.indexesBuilt;
    TimeInterval span = tr.span();
    const TimeInterval probes[] = {
        span,
        {span.start, span.start + span.duration() / 3},
        {span.start + span.duration() / 2, span.end},
        {span.start + span.duration() / 3,
         span.start + span.duration() / 3 + 1}};
    for (CpuId c = 0; c < tr.numCpus() && identical; c++) {
        for (CounterId id : tr.cpu(c).counterIds()) {
            for (const TimeInterval &iv : probes) {
                index::MinMax a = serial.counterExtrema(c, id, iv);
                index::MinMax b = parallel.counterExtrema(c, id, iv);
                if (a.valid != b.valid ||
                    (a.valid && (a.min != b.min || a.max != b.max))) {
                    identical = false;
                    break;
                }
            }
        }
    }

    // Idempotence: a repeated warm-up builds nothing.
    std::uint64_t builds_before =
        parallel.cacheStats().counterIndex.builds;
    parallel.warmup();
    bool idempotent =
        parallel.cacheStats().counterIndex.builds == builds_before;

    json.add("identical", identical ? 1 : 0);
    json.add("idempotent", idempotent ? 1 : 0);
    json.add("hardware_threads", hw);

    std::printf("\n");
    bench::row("parallel == serial (bit-identical)",
               identical ? "yes" : "NO");
    bench::row("repeated warm-up is a no-op", idempotent ? "yes" : "NO");
    bool enough_hw = hw >= 4;
    if (enough_hw) {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (required: >= 2x)", speedup_at_4plus));
    } else {
        bench::row("speedup at >= 4 workers",
                   strFormat("%.2fx (not required: only %u hardware "
                             "thread%s)",
                             speedup_at_4plus, hw, hw == 1 ? "" : "s"));
    }
    bench::row("json", json.ok() ? json.path().c_str() : "WRITE FAILED");

    bool ok = identical && idempotent &&
              (!enough_hw || speedup_at_4plus >= 2.0);
    return ok ? 0 : 1;
}
