/**
 * @file
 * The paper's seidel performance-debugging session, end to end.
 *
 * Reproduces the workflow of sections III-A/B and IV: simulate seidel on
 * the UV2000-like machine, detect the idle phases with the derived idle-
 * workers counter, explain them via the reconstructed task graph's
 * available-parallelism profile, identify the slow initialization with
 * the heatmap/typemap and the getrusage-style counters, and compare NUMA
 * locality between the non-optimized and optimized runtime
 * configurations.
 */

#include <cstdio>

#include "aftermath.h"

using namespace aftermath;

namespace {

runtime::RunResult
simulate(bool numa_optimized)
{
    // 64 x 64 blocks and enough sweeps that the wavefront keeps the 192
    // cores busy — a starved machine steals across nodes and erases any
    // placement policy's locality.
    workloads::SeidelParams params;
    params.blocksX = 64;
    params.blocksY = 64;
    params.blockDim = 128;
    params.iterations = 30;
    params.workPerElement = 1; // The stencil is memory-bound.
    params.numaOptimized = numa_optimized;
    params.numNodes =
        machine::MachineSpec::uv2000().topology.numNodes();

    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::uv2000();
    config.scheduling = numa_optimized
        ? runtime::SchedulingPolicy::NumaAware
        : runtime::SchedulingPolicy::RandomSteal;
    config.placement = numa_optimized
        ? machine::PlacementPolicy::Explicit
        : machine::PlacementPolicy::FirstTouch;
    config.cost.cyclesPerByteLocal = 0.5;
    config.cost.pageFaultCycles = 90'000;
    config.seed = 2026;
    return runtime::RuntimeSystem(config).run(
        workloads::buildSeidel(params));
}

} // namespace

int
main()
{
    std::printf("== Step 1: trace the non-optimized execution\n");
    runtime::RunResult plain = simulate(false);
    if (!plain.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     plain.error.c_str());
        return 1;
    }
    const trace::Trace &tr = plain.trace;
    Session session = Session::view(tr);
    std::printf("   %zu tasks, makespan %s\n",
                session.tasks().size(),
                humanCycles(plain.makespan).c_str());

    std::printf("== Step 2: detect idle phases (Fig 2/3)\n");
    metrics::DerivedCounter idle = metrics::stateOccupancy(
        tr, static_cast<std::uint32_t>(trace::CoreState::Idle), 60);
    std::printf("   peak idle workers: %.0f of %u\n", idle.maxValue(),
                tr.numCpus());

    std::printf("== Step 3: explain via the task graph (Fig 5)\n");
    graph::TaskGraph g = graph::TaskGraph::reconstruct(tr);
    graph::DepthAnalysis depth = graph::computeDepths(g);
    graph::ParallelismPhases phases =
        graph::classifyPhases(depth.parallelismByDepth);
    std::printf("   startup %llu -> drop %llu -> wavefront max %llu "
                "(depth %u of %u)\n",
                static_cast<unsigned long long>(
                    phases.startupParallelism),
                static_cast<unsigned long long>(phases.dropParallelism),
                static_cast<unsigned long long>(phases.peakParallelism),
                phases.peakDepth, depth.maxDepth);

    std::string error;
    graph::DotOptions dot_options;
    dot_options.include = [&](graph::NodeIndex v) {
        return g.taskOf(v) < 3 * 64 * 64; // Inits + two sweeps.
    };
    if (graph::exportDotFile(g, tr, "seidel_graph.dot", error,
                             dot_options))
        std::printf("   wrote seidel_graph.dot\n");

    std::printf("== Step 4: find the slow initialization (Fig 7-10)\n");
    double init_avg = 0, compute_avg = 0;
    std::uint64_t ninit = 0, ncompute = 0;
    for (const trace::TaskInstance *task : session.tasks()) {
        if (task->type == workloads::kSeidelInitType) {
            init_avg += static_cast<double>(task->duration());
            ninit++;
        } else {
            compute_avg += static_cast<double>(task->duration());
            ncompute++;
        }
    }
    init_avg /= static_cast<double>(ninit);
    compute_avg /= static_cast<double>(ncompute);
    std::printf("   init tasks average %s, computes %s (%.1fx)\n",
                humanCycles(static_cast<std::uint64_t>(
                    init_avg)).c_str(),
                humanCycles(static_cast<std::uint64_t>(
                    compute_avg)).c_str(),
                init_avg / compute_avg);

    metrics::DerivedCounter sys = metrics::aggregateCounter(
        tr, static_cast<CounterId>(trace::CoreCounter::SystemTimeUs), 40);
    metrics::DerivedCounter dsys = metrics::differenceQuotient(sys);
    std::size_t growth_end = 0;
    for (std::size_t i = 0; i < dsys.samples.size(); i++) {
        if (dsys.samples[i].value > 1e-9)
            growth_end = i;
    }
    std::printf("   kernel time stops growing after %.0f%% of the run "
                "(physical allocation confined to init)\n",
                100.0 * static_cast<double>(growth_end) /
                    static_cast<double>(dsys.samples.size()));

    std::printf("== Step 5: heatmap / typemap / NUMA images\n");
    struct View
    {
        render::TimelineMode mode;
        const char *path;
    };
    const View views[] = {
        {render::TimelineMode::State, "seidel_states.ppm"},
        {render::TimelineMode::Heatmap, "seidel_heatmap.ppm"},
        {render::TimelineMode::TypeMap, "seidel_typemap.ppm"},
        {render::TimelineMode::NumaRead, "seidel_numa_read.ppm"},
        {render::TimelineMode::NumaHeatmap, "seidel_numa_heat.ppm"},
    };
    for (const View &view : views) {
        // One persistent renderer inside the session serves all modes.
        render::Framebuffer fb(1100, 576);
        render::TimelineConfig config;
        config.mode = view.mode;
        session.render(config, fb);
        if (fb.writePpmFile(view.path, error))
            std::printf("   wrote %s\n", view.path);
    }

    std::printf("== Step 6: optimize NUMA placement (Fig 14/15)\n");
    runtime::RunResult numa = simulate(true);
    if (!numa.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     numa.error.c_str());
        return 1;
    }
    stats::CommMatrix before = stats::CommMatrix::fromTrace(tr);
    stats::CommMatrix after = stats::CommMatrix::fromTrace(numa.trace);
    std::printf("   diagonal traffic: %.0f%% -> %.0f%%\n",
                100 * before.diagonalFraction(),
                100 * after.diagonalFraction());
    std::printf("   makespan: %s -> %s (%.2fx speedup)\n",
                humanCycles(plain.makespan).c_str(),
                humanCycles(numa.makespan).c_str(),
                static_cast<double>(plain.makespan) /
                    static_cast<double>(numa.makespan));
    std::printf("   optimized communication matrix:\n%s",
                after.toAscii().c_str());
    return 0;
}
