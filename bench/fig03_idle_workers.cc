/**
 * @file
 * Fig 3: number of idle workers over normalized execution time.
 *
 * Aftermath generates a derived counter for the number of workers
 * simultaneously in a given state by dividing the execution into
 * intervals and summing per-worker state occupancy (paper section III-A).
 * For seidel, the resulting plot peaks above half the 192 cores during
 * the two idle phases.
 */

#include <cstdio>

#include "common.h"

using namespace aftermath;

int
main()
{
    bench::banner("Fig 3", "seidel: derived counter of idle workers");

    runtime::RunResult result = bench::runSeidel(false);
    if (!result.ok) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     result.error.c_str());
        return 1;
    }
    const trace::Trace &tr = result.trace;
    Session session = Session::view(tr);

    metrics::DerivedCounter idle = metrics::stateOccupancy(
        tr, static_cast<std::uint32_t>(trace::CoreState::Idle), 100);

    std::printf("\nnormalized_time_pct, idle_workers\n");
    TimeStamp span = tr.span().duration();
    for (const auto &sample : idle.samples) {
        std::printf("%.1f, %.2f\n",
                    100.0 * static_cast<double>(sample.time) /
                        static_cast<double>(span),
                    sample.value);
    }

    double peak = idle.maxValue();
    double half = tr.numCpus() / 2.0;
    std::printf("\n");
    bench::row("workers", strFormat("%u", tr.numCpus()));
    bench::row("peak simultaneous idle workers",
               strFormat("%.1f (paper: peaks exceed %g)", peak, half));
    bool shape = peak > half;
    bench::row("peak exceeds half the cores", shape ? "yes" : "NO");

    // Render the overlay over the timeline as the paper displays it.
    render::Framebuffer fb(1000, 200);
    session.render({}, fb);
    session.renderGlobalOverlay(idle, session.layoutFor(fb), {}, fb);
    std::string error;
    if (fb.writePpmFile("fig03_idle_workers.ppm", error))
        std::printf("wrote fig03_idle_workers.ppm\n");
    return shape ? 0 : 1;
}
