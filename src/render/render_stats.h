/**
 * @file
 * Instrumentation of rendering work.
 *
 * The renderer counts its own drawing operations so the optimizations of
 * paper section VI-B (one pixel drawn once, aggregation of adjacent
 * equal-colored pixels into single rectangles, min/max counter column
 * rendering) are measurable against the naive algorithms they replace.
 */

#ifndef AFTERMATH_RENDER_RENDER_STATS_H
#define AFTERMATH_RENDER_RENDER_STATS_H

#include <cstdint>

#include "base/resolution.h"

namespace aftermath {
namespace render {

/** Counts of primitive drawing operations issued. */
struct RenderStats
{
    /**
     * Rectangles drawn: one per span of a lane image
     * (render/lane_image.h), that is one per run of equal columns of an
     * exact lane and one per band of each pyramid column, however the
     * rasterizer then writes them; fillRect calls of the naive
     * baseline. Adjacent identical pyramid columns are not merged.
     */
    std::uint64_t rectOps = 0;
    std::uint64_t lineOps = 0;   ///< drawLine/drawVLine calls.
    std::uint64_t eventsVisited = 0; ///< Trace events inspected.

    /**
     * How the frame was resolved (base/resolution.h): exact per-event
     * predominant-color resolution (the default), or pyramid-backed
     * occupancy bands — then granularityNs is the pyramid's leaf
     * granularity and nodesTouched counts the summary cells read.
     */
    ResolutionInfo resolution;

    void
    reset()
    {
        *this = RenderStats{};
    }

    /** Add the operation and summary-cell counts of @p other, a part of
     *  the same frame (the resolution kind stays this one's). */
    void
    addCounts(const RenderStats &other)
    {
        rectOps += other.rectOps;
        lineOps += other.lineOps;
        eventsVisited += other.eventsVisited;
        resolution.nodesTouched += other.resolution.nodesTouched;
    }

    std::uint64_t totalOps() const { return rectOps + lineOps; }
};

} // namespace render
} // namespace aftermath

#endif // AFTERMATH_RENDER_RENDER_STATS_H
