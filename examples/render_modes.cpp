/**
 * @file
 * render_modes: the paper's Fig 1 — every view of the main window.
 *
 * Renders all five timeline modes plus a counter overlay and a discrete
 * annotation for one trace, producing the gallery of images the GUI's
 * main window composes: timeline (1), filters applied (2), statistics
 * (3), selected-task details (4), derived metrics (5).
 */

#include <cstdio>

#include "aftermath.h"

using namespace aftermath;

int
main()
{
    // A moderately sized seidel trace on the Opteron-like preset.
    workloads::SeidelParams params;
    params.blocksX = 16;
    params.blocksY = 16;
    params.blockDim = 64;
    params.iterations = 10;
    runtime::TaskSet set = workloads::buildSeidel(params);

    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::opteron64();
    config.cost.pageFaultCycles = 60'000;
    config.seed = 1;
    runtime::RunResult result = runtime::RuntimeSystem(config).run(set);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;
    Session session = Session::view(tr);
    std::string error;

    // (1) The timeline in all five modes.
    struct View
    {
        render::TimelineMode mode;
        const char *name;
    };
    const View views[] = {
        {render::TimelineMode::State, "state"},
        {render::TimelineMode::Heatmap, "heatmap"},
        {render::TimelineMode::TypeMap, "typemap"},
        {render::TimelineMode::NumaRead, "numa_read"},
        {render::TimelineMode::NumaWrite, "numa_write"},
        {render::TimelineMode::NumaHeatmap, "numa_heatmap"},
    };
    for (const View &view : views) {
        // Every pass renders its lanes in parallel on the session's
        // engine, each lane with a renderer of its own.
        render::Framebuffer fb(1024, 512);
        render::TimelineConfig tl;
        tl.mode = view.mode;
        const render::RenderStats &rstats = session.render(tl, fb);
        std::string path = strFormat("mode_%s.ppm", view.name);
        if (fb.writePpmFile(path, error))
            std::printf("wrote %s (%llu draw ops for %llu events)\n",
                        path.c_str(),
                        static_cast<unsigned long long>(
                            rstats.totalOps()),
                        static_cast<unsigned long long>(
                            rstats.eventsVisited));
    }

    // (2) A filtered view: long tasks only. Filters installed on the
    // session apply to rendering, statistics and export alike.
    filter::FilterSet long_tasks;
    long_tasks.add(std::make_shared<filter::DurationFilter>(
        1'000'000, kTimeMax));
    session.setFilters(long_tasks);
    render::Framebuffer filtered_fb(1024, 512);
    render::TimelineConfig filtered_config;
    filtered_config.mode = render::TimelineMode::Heatmap;
    session.render(filtered_config, filtered_fb);
    if (filtered_fb.writePpmFile("mode_filtered.ppm", error))
        std::printf("wrote mode_filtered.ppm (filter: %s)\n",
                    session.filters().describe().c_str());
    session.clearFilters();

    // (5) Derived metric overlay: idle workers over the state view.
    render::Framebuffer overlay_fb(1024, 512);
    session.render({}, overlay_fb);
    metrics::DerivedCounter idle = metrics::stateOccupancy(
        tr, static_cast<std::uint32_t>(trace::CoreState::Idle), 200);
    session.renderGlobalOverlay(idle, session.layoutFor(overlay_fb), {},
                                overlay_fb);
    if (overlay_fb.writePpmFile("mode_overlay.ppm", error))
        std::printf("wrote mode_overlay.ppm\n");

    // (4) Selected-task details, as the detail pane would show them.
    const trace::TaskInstance &selected = *session.tasks().front();
    std::printf("\nselected task %llu:\n",
                static_cast<unsigned long long>(selected.id));
    std::printf("  type: %s\n",
                tr.taskTypes().at(selected.type).name.c_str());
    std::printf("  cpu %u (node %u), duration %s\n", selected.cpu,
                tr.topology().nodeOfCpu(selected.cpu),
                humanCycles(selected.duration()).c_str());
    trace::NumaAccessSummary reads =
        trace::summarizeTaskAccesses(tr, selected.id, false);
    trace::NumaAccessSummary writes =
        trace::summarizeTaskAccesses(tr, selected.id, true);
    std::printf("  reads %s (dominant node %u), writes %s\n",
                humanBytes(reads.totalBytes()).c_str(),
                reads.dominantNode(),
                humanBytes(writes.totalBytes()).c_str());

    // Annotations saved separately from the trace (section VI-C).
    symbols::AnnotationStore notes;
    notes.add({selected.cpu, selected.interval, "analyst",
               "first initialization task; triggers page faults"});
    if (notes.save("render_modes_notes.txt", error))
        std::printf("wrote render_modes_notes.txt (%zu annotations)\n",
                    notes.all().size());
    return 0;
}
