/**
 * @file
 * The timeline renderer and its five modes.
 *
 * The timeline shows the activity of each processor over time (paper
 * section II-B): state mode, task-duration heatmap, task-type map, NUMA
 * read/write maps and the NUMA heatmap. Rendering follows the paper's
 * optimizations (section VI-B): every pixel is resolved exactly once to
 * the predominant color of its interval, and runs of equal-colored
 * adjacent pixels are aggregated into single spans. A lane renders to a
 * lane image (render/lane_image.h), not to pixels: exact lanes are
 * constant down the lane, so they are runs of columns; pyramid lanes are
 * bands per column. One rasterizer draws lane images into framebuffers,
 * row by row; the daemon ships them undrawn.
 */

#ifndef AFTERMATH_RENDER_TIMELINE_RENDERER_H
#define AFTERMATH_RENDER_TIMELINE_RENDERER_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/resolution.h"
#include "base/time_interval.h"
#include "filter/task_filter.h"
#include "render/color.h"
#include "render/framebuffer.h"
#include "render/lane_image.h"
#include "render/layout.h"
#include "render/render_stats.h"
#include "trace/trace.h"

namespace aftermath {

namespace index {
class TraceIndex;
} // namespace index

namespace render {

/** The five timeline modes of paper section II-B. */
enum class TimelineMode {
    State,      ///< Worker states over time (default).
    Heatmap,    ///< Task durations as shades of red.
    TypeMap,    ///< One color per task type.
    NumaRead,   ///< Node holding most data read per task.
    NumaWrite,  ///< Node holding most data written per task.
    NumaHeatmap,///< Remote-access fraction, blue (local) to pink (remote).
};

/** Configuration of one timeline rendering pass. */
struct TimelineConfig
{
    TimelineMode mode = TimelineMode::State;

    /** Visible interval; empty means the whole trace span. */
    TimeInterval view;

    /**
     * Heatmap duration range, read by Heatmap mode only. When max is 0
     * the range adapts to the shortest/longest task currently displayed
     * (paper section II-B); finding it scans every task instance once
     * per frame, so only an adaptive Heatmap frame pays that scan.
     */
    TimeStamp heatmapMin = 0;
    TimeStamp heatmapMax = 0;

    /** Number of discrete heatmap shades (the paper uses 10). */
    std::uint32_t heatmapShades = 10;

    /** Optional task filter; non-matching tasks are not drawn. */
    const filter::TaskFilter *taskFilter = nullptr;

    /**
     * Resolution request (base/resolution.h). A non-Exact request lets
     * State-mode renders answer each pixel column from the summary
     * pyramid's occupancy — sub-pixel vertical bands showing the state
     * mix instead of the per-event predominant color — when `pyramids`
     * is set, no task filter is active, and a pixel spans at least one
     * pyramid leaf. Exact (the default) always renders per event.
     */
    Resolution resolution;

    /**
     * Pyramid store backing non-Exact renders; owned by the caller and
     * kept alive across the render. Session renders always use the
     * session's own store (the async executor holds a shared
     * reference), replacing any value set here.
     */
    index::TraceIndex *pyramids = nullptr;
};

/**
 * What every lane of one frame shares, fixed once before any lane is
 * drawn (TimelineRenderer::planFrame): the config with an adaptive
 * heatmap range resolved to explicit bounds, the layout, and whether
 * the lanes are drawn from the summary pyramids. Lanes of one plan may
 * be rendered by different renderers on different threads, and each
 * lane image rasterizes into its own framebuffer rows only.
 */
struct FramePlan
{
    TimelineConfig config;
    TimelineLayout layout;
    bool pyramids = false; ///< Lanes drawn as pyramid occupancy bands.

    /** The frame's provenance: exact, or the pyramids' leaf granularity
     *  (nodesTouched is counted per lane). */
    ResolutionInfo resolution() const;
};

/**
 * Renders a trace's timeline into lane images and framebuffers.
 *
 * The renderer is independent of any particular framebuffer: construct it
 * over a trace and pass the target buffer to each render call. It keeps
 * the task-type palette index, built by one pass over the trace's task
 * types at construction, and per-lane color caches. A frame is rendered
 * lane by lane through renderLane(): render() walks the lanes of one
 * plan serially and rasterizes each, and session::Session fans them out
 * over its engine's workers, one renderer per lane.
 */
class TimelineRenderer
{
  public:
    /** A renderer for @p trace; pass the framebuffer per render call. */
    explicit TimelineRenderer(const trace::Trace &trace);

    /**
     * Render into @p fb with the paper's optimizations: per-pixel
     * predominant color resolution and aggregation of equal adjacent
     * pixels into single spans. Plans the frame, fills the rows no lane
     * covers, and rasterizes every lane's renderLane() image in order.
     */
    void render(const TimelineConfig &config, Framebuffer &fb);

    /**
     * Plan a @p width x @p height frame of @p config; nullopt when the
     * visible interval is empty (the frame is all background). Scans
     * the task instances for the duration range only for an adaptive
     * Heatmap frame (mode Heatmap, heatmapMax 0).
     */
    std::optional<FramePlan> planFrame(const TimelineConfig &config,
                                       std::uint32_t width,
                                       std::uint32_t height) const;

    /**
     * The image of lane @p cpu of @p frame: runs of columns for an
     * exact lane, bands per column for a pyramid lane. Adds the lane's
     * operation counts to stats(), one rectOp per span. A frame with
     * fewer rows than lanes stacks lanes on shared rows; rasterize
     * those in lane order on one thread.
     */
    LaneImage renderLane(const FramePlan &frame, CpuId cpu);

    /**
     * Render naively into @p fb: one rectangle per visible event, drawn
     * in trace order. Produces (approximately) the same image but issues
     * one operation per event — the baseline of the Fig 20 comparison.
     */
    void renderNaive(const TimelineConfig &config, Framebuffer &fb);

    /** Operation counts of the last render call, or of the lanes drawn
     *  since construction. */
    const RenderStats &stats() const { return stats_; }

    /**
     * The color the optimized path assigns to pixel @p x of @p cpu's
     * lane, resolved independently through binary-search slicing. Used
     * by property tests to cross-check the scanning fast path.
     */
    Rgba resolvePixel(const TimelineConfig &config,
                      const TimelineLayout &layout, CpuId cpu,
                      std::uint32_t x);

  private:
    /** True when this render can answer from the summary pyramids. */
    bool usePyramids(const TimelineConfig &config,
                     const TimelineLayout &layout) const;

    /**
     * Pyramid-backed lane: every pixel column as sub-pixel vertical
     * bands of the column's state occupancy (largest-remainder
     * rounding, states in id order, uncovered time as lane background).
     */
    void renderPyramidLane(const TimelineConfig &config,
                           const TimelineLayout &layout, CpuId cpu,
                           LaneImage &lane);

    /** Resolve every pixel column color of one CPU lane into runs. */
    void resolveLane(const TimelineConfig &config,
                     const TimelineLayout &layout, CpuId cpu,
                     LaneImage &lane);

    /** Predominant-color resolution over a slice of state events. */
    Rgba resolveInterval(const TimelineConfig &config, CpuId cpu,
                         const std::vector<trace::StateEvent> &states,
                         std::size_t first, std::size_t last,
                         const TimeInterval &pixel);

    /** Background color of @p cpu's lane. */
    static Rgba laneBackground(CpuId cpu);

    /** Color of a task in non-state modes (heatmap/typemap/NUMA). */
    std::optional<Rgba> taskColor(const TimelineConfig &config,
                                  TaskInstanceId id);

    /** Remote-access fraction of a task, cached. */
    double taskRemoteFraction(TaskInstanceId id, CpuId cpu);

    /** True if the task passes the config's filter. */
    bool taskVisible(const TimelineConfig &config, TaskInstanceId id) const;

    /**
     * @p config with an adaptive heatmap range (mode Heatmap,
     * heatmapMax 0) replaced by the shortest and longest duration of
     * the tasks visible in @p view; any other config as is.
     */
    TimelineConfig resolveHeatmapRange(const TimelineConfig &config,
                                       const TimeInterval &view) const;

    /** Map task type id to its palette index. */
    std::size_t typeIndex(TaskTypeId type) const;

    const trace::Trace &trace_;
    RenderStats stats_;

    std::unordered_map<TaskInstanceId, Rgba> taskColorCache_;
    std::unordered_map<TaskInstanceId, double> remoteFractionCache_;
    std::unordered_map<TaskTypeId, std::size_t> typeIndexCache_;
};

} // namespace render
} // namespace aftermath

#endif // AFTERMATH_RENDER_TIMELINE_RENDERER_H
