/**
 * @file
 * Quickstart: simulate a small task-parallel execution, write the trace
 * to disk, read it back and run a few analyses on it.
 *
 * Walks the full pipeline a downstream user would: workload -> runtime
 * simulator -> trace file -> analysis session (interval statistics,
 * derived counters, task graph) -> timeline rendering to a PPM image.
 * All analysis goes through session::Session, the library's front door.
 */

#include <cstdio>

#include "aftermath.h"

using namespace aftermath;

int
main()
{
    // 1. A small NUMA machine: 4 nodes x 4 cores.
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::small(4, 4);
    config.scheduling = runtime::SchedulingPolicy::RandomSteal;
    config.seed = 42;

    // 2. A fork-join workload: 8 phases of 32 tasks.
    runtime::TaskSet program = workloads::buildForkJoin(8, 32, 200'000);

    // 3. Simulate.
    runtime::RuntimeSystem rts(config);
    runtime::RunResult result = rts.run(program);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    std::printf("simulated %llu tasks on %u cpus\n",
                static_cast<unsigned long long>(result.tasksExecuted),
                result.trace.numCpus());
    std::printf("makespan: %s (%.3f ms), %llu steals\n",
                humanCycles(result.makespan).c_str(),
                result.seconds() * 1e3,
                static_cast<unsigned long long>(result.steals));

    // 4. Round-trip through the on-disk format (compact encoding). The
    //    reader decodes per-CPU frame runs in parallel — here with two
    //    workers; the trace is bit-identical at any worker count.
    std::string error;
    if (!trace::writeTraceFile(result.trace, "quickstart.ostv",
                               trace::Encoding::Compact, error)) {
        std::fprintf(stderr, "write failed: %s\n", error.c_str());
        return 1;
    }
    trace::ReadOptions read_options;
    read_options.workers = 2;
    trace::ReadResult loaded =
        trace::readTraceFile("quickstart.ostv", read_options);
    if (!loaded.ok) {
        std::fprintf(stderr, "read failed: %s\n", loaded.error.c_str());
        return 1;
    }
    std::printf("trace file: %zu bytes, %zu task instances\n",
                loaded.bytesRead, loaded.trace.taskInstances().size());

    // 5. Open an analysis session — the front door to statistics,
    //    counter queries, filtered iteration and rendering. The session
    //    takes ownership of the loaded trace and lazily builds every
    //    index a query needs.
    Session session(std::move(loaded.trace));
    const trace::Trace &tr = session.trace();

    const stats::IntervalStats &istats = session.intervalStats();
    std::printf("average parallelism: %.2f of %u cpus\n",
                istats.averageParallelism(static_cast<std::uint32_t>(
                    trace::CoreState::TaskExec)),
                tr.numCpus());
    for (const auto &[state, time] : istats.timeInState) {
        std::printf("  %-16s %6.2f%%\n", tr.stateName(state).c_str(),
                    100.0 * istats.stateFraction(state));
    }

    metrics::DerivedCounter idle = metrics::stateOccupancy(
        tr, static_cast<std::uint32_t>(trace::CoreState::Idle), 50);
    std::printf("peak simultaneous idle workers: %.1f\n",
                idle.maxValue());

    // 5b. The same queries submit asynchronously: a UI thread gets a
    //     ticket back immediately, work runs on the session's worker
    //     pool, and a view/filter change cancels stale tickets. Here we
    //     just submit two queries and collect both — they execute
    //     concurrently at workers >= 2.
    session.setConcurrency(2);
    auto stats_ticket = session.submit(
        session::IntervalStatsQuery{TimeInterval{0, result.makespan / 2}});
    auto histogram_ticket = session.submit(session::HistogramQuery{{}, 16});
    stats::IntervalStats first_half = stats_ticket.take();
    stats::Histogram durations = histogram_ticket.take();
    std::printf("async: %llu tasks started in the first half, "
                "%u duration bins\n",
                static_cast<unsigned long long>(first_half.tasksStarted),
                durations.numBins());

    // 5c. A session is bound to its trace for life: to analyse another
    //     trace, read it and open it in a new session. Here that is
    //     the file step 4 wrote.
    trace::ReadResult reread =
        trace::readTraceFile("quickstart.ostv", read_options);
    if (!reread.ok) {
        std::fprintf(stderr, "reload failed: %s\n", reread.error.c_str());
        return 1;
    }
    Session reopened(std::move(reread.trace));
    std::printf("reload: %zu bytes -> %u cpus, opened\n", reread.bytesRead,
                reopened.trace().numCpus());

    // 6. Task graph reconstruction from the trace's memory accesses.
    graph::TaskGraph tg = graph::TaskGraph::reconstruct(reopened.trace());
    graph::DepthAnalysis depth = graph::computeDepths(tg);
    std::printf("task graph: %u nodes, %zu edges, max depth %u, "
                "acyclic=%s\n",
                tg.numNodes(), tg.numEdges(), depth.maxDepth,
                depth.acyclic ? "yes" : "no");

    // 7. Render the state timeline to a PPM image.
    render::Framebuffer fb(800, 256);
    render::TimelineConfig tl_config;
    tl_config.mode = render::TimelineMode::State;
    const render::RenderStats &rstats = reopened.render(tl_config, fb);
    if (!fb.writePpmFile("quickstart_states.ppm", error)) {
        std::fprintf(stderr, "ppm export failed: %s\n", error.c_str());
        return 1;
    }
    std::printf("wrote quickstart_states.ppm (%llu draw ops)\n",
                static_cast<unsigned long long>(rstats.totalOps()));
    return 0;
}
