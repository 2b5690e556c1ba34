#include "render/timeline_renderer.h"

#include <algorithm>

#include "base/logging.h"
#include "index/trace_index.h"
#include "trace/numa.h"
#include "trace/state.h"

namespace aftermath {
namespace render {

namespace {

/** Color of tasks whose NUMA placement is unknown. */
constexpr Rgba kUnknownNuma{120, 120, 120, 255};

constexpr std::uint32_t kTaskExecState =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);

} // namespace

TimelineRenderer::TimelineRenderer(const trace::Trace &trace)
    : trace_(trace)
{
    std::size_t index = 0;
    for (const auto &[id, type] : trace_.taskTypes())
        typeIndexCache_[id] = index++;
}

Rgba
TimelineRenderer::laneBackground(CpuId cpu)
{
    return (cpu % 2) ? kBackgroundAlt : kBackground;
}

std::size_t
TimelineRenderer::typeIndex(TaskTypeId type) const
{
    auto it = typeIndexCache_.find(type);
    return it == typeIndexCache_.end() ? 0 : it->second;
}

bool
TimelineRenderer::taskVisible(const TimelineConfig &config,
                              TaskInstanceId id) const
{
    if (!config.taskFilter)
        return true;
    const trace::TaskInstance *task = trace_.taskInstance(id);
    if (!task)
        return false;
    return config.taskFilter->matches(trace_, *task);
}

TimelineConfig
TimelineRenderer::resolveHeatmapRange(const TimelineConfig &config,
                                      const TimeInterval &view) const
{
    if (config.mode != TimelineMode::Heatmap || config.heatmapMax != 0)
        return config;
    // Adapt to the shortest/longest task currently displayed.
    bool any = false;
    TimeStamp lo = 0, hi = 1;
    for (const trace::TaskInstance &task : trace_.taskInstances()) {
        if (!task.interval.overlaps(view))
            continue;
        if (config.taskFilter &&
            !config.taskFilter->matches(trace_, task))
            continue;
        TimeStamp d = task.duration();
        if (!any) {
            lo = hi = d;
            any = true;
        } else {
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
    }
    TimelineConfig resolved = config;
    resolved.heatmapMin = lo;
    resolved.heatmapMax = std::max(hi, lo + 1);
    return resolved;
}

double
TimelineRenderer::taskRemoteFraction(TaskInstanceId id, CpuId cpu)
{
    auto it = remoteFractionCache_.find(id);
    if (it != remoteFractionCache_.end())
        return it->second;

    trace::NumaAccessSummary reads =
        trace::summarizeTaskAccesses(trace_, id, /*writes=*/false);
    trace::NumaAccessSummary writes =
        trace::summarizeTaskAccesses(trace_, id, /*writes=*/true);
    NodeId local = trace_.topology().nodeOfCpu(cpu);
    std::uint64_t total = reads.totalBytes() + writes.totalBytes();
    double fraction = 0.0;
    if (total > 0) {
        std::uint64_t local_bytes = 0;
        if (local < reads.bytesPerNode.size())
            local_bytes += reads.bytesPerNode[local];
        if (local < writes.bytesPerNode.size())
            local_bytes += writes.bytesPerNode[local];
        fraction = static_cast<double>(total - local_bytes) /
                   static_cast<double>(total);
    }
    remoteFractionCache_[id] = fraction;
    return fraction;
}

std::optional<Rgba>
TimelineRenderer::taskColor(const TimelineConfig &config, TaskInstanceId id)
{
    auto it = taskColorCache_.find(id);
    if (it != taskColorCache_.end())
        return it->second;

    const trace::TaskInstance *task = trace_.taskInstance(id);
    if (!task)
        return std::nullopt;

    Rgba color;
    switch (config.mode) {
      case TimelineMode::Heatmap:
        color = heatmapShade(task->duration(), config.heatmapMin,
                             config.heatmapMax, config.heatmapShades);
        break;
      case TimelineMode::TypeMap:
        color = taskTypeColor(typeIndex(task->type));
        break;
      case TimelineMode::NumaRead:
      case TimelineMode::NumaWrite: {
        trace::NumaAccessSummary summary = trace::summarizeTaskAccesses(
            trace_, id, config.mode == TimelineMode::NumaWrite);
        NodeId node = summary.dominantNode();
        color = node == kInvalidNode ? kUnknownNuma : numaNodeColor(node);
        break;
      }
      default:
        return std::nullopt;
    }
    taskColorCache_[id] = color;
    return color;
}

bool
TimelineRenderer::usePyramids(const TimelineConfig &config,
                              const TimelineLayout &layout) const
{
    if (config.mode != TimelineMode::State || !config.pyramids ||
        config.resolution.kind == Resolution::Kind::Exact)
        return false;
    // The task filter changes which exec events are drawn; occupancy
    // nodes carry no task identity, so filtered renders stay exact.
    if (config.taskFilter || layout.width() == 0)
        return false;
    // Deep zoom: once a pixel is finer than one leaf, every pixel of a
    // leaf would repeat the leaf's mix — and the exact path is cheap
    // there anyway (few events per pixel).
    TimeStamp per_pixel = layout.view().duration() / layout.width();
    return per_pixel >= config.pyramids->leafGranularity();
}

void
TimelineRenderer::renderPyramidLane(const TimelineConfig &config,
                                    const TimelineLayout &layout,
                                    CpuId cpu, LaneImage &lane)
{
    const index::SummaryPyramid &pyramid = config.pyramids->get(cpu);
    const std::uint32_t height = layout.laneHeight();
    std::uint64_t cells = 0;

    struct Band
    {
        std::uint32_t state;
        double exact;
        std::uint32_t rows;
    };
    index::SummaryPyramid::Sweep sweep;
    std::vector<Band> bands;
    lane.columns = true;
    for (std::uint32_t x = 0; x < layout.width(); x++) {
        TimeInterval pixel = layout.pixelInterval(x);
        if (pixel.empty()) {
            lane.spans.push_back({height, laneBackground(cpu)});
            continue;
        }
        pyramid.occupancyOver(pixel, sweep, cells);
        // Share of the lane height per state, in state order, rows
        // summing to the covered share by largest-remainder rounding;
        // uncovered time (idle between events) stays lane background.
        bands.clear();
        double covered = 0.0;
        const double total = static_cast<double>(pixel.duration());
        for (const auto &[state, time] : sweep.occupancy) {
            double share = std::min((time / total) *
                                        static_cast<double>(height),
                                    static_cast<double>(height));
            bands.push_back(
                {state, share, static_cast<std::uint32_t>(share)});
            covered += share;
        }
        std::uint32_t covered_rows = static_cast<std::uint32_t>(
            std::min(covered + 0.5, static_cast<double>(height)));
        std::uint32_t assigned = 0;
        for (const Band &b : bands)
            assigned += b.rows;
        while (assigned < covered_rows) {
            Band *best = nullptr;
            for (Band &b : bands) {
                double rem = b.exact - static_cast<double>(b.rows);
                if (!best ||
                    rem > best->exact - static_cast<double>(best->rows))
                    best = &b;
            }
            if (!best)
                break;
            best->rows++;
            assigned++;
        }
        std::uint32_t y = 0;
        for (const Band &b : bands) {
            std::uint32_t rows = std::min(b.rows, height - y);
            if (rows == 0)
                continue;
            lane.spans.push_back({rows, stateColor(b.state)});
            y += rows;
        }
        if (y < height)
            lane.spans.push_back({height - y, laneBackground(cpu)});
    }
    stats_.resolution.nodesTouched += cells;
}

Rgba
TimelineRenderer::resolveInterval(const TimelineConfig &config, CpuId cpu,
                                  const std::vector<trace::StateEvent> &states,
                                  std::size_t first, std::size_t last,
                                  const TimeInterval &pixel)
{
    if (pixel.empty())
        return laneBackground(cpu);

    if (config.mode == TimelineMode::State) {
        // Predominant state: the state covering the largest share of the
        // pixel interval (paper section VI-B.a).
        // Small flat accumulation keyed by state id.
        std::uint32_t best_state = 0;
        TimeStamp best_time = 0;
        std::vector<std::pair<std::uint32_t, TimeStamp>> acc;
        for (std::size_t i = first; i < last; i++) {
            const trace::StateEvent &ev = states[i];
            stats_.eventsVisited++;
            TimeStamp overlap = ev.interval.overlapDuration(pixel);
            if (overlap == 0)
                continue;
            if (ev.state == kTaskExecState &&
                ev.task != kInvalidTaskInstance &&
                !taskVisible(config, ev.task))
                continue;
            bool found = false;
            for (auto &[state, time] : acc) {
                if (state == ev.state) {
                    time += overlap;
                    if (time > best_time) {
                        best_time = time;
                        best_state = state;
                    }
                    found = true;
                    break;
                }
            }
            if (!found) {
                acc.emplace_back(ev.state, overlap);
                if (overlap > best_time) {
                    best_time = overlap;
                    best_state = ev.state;
                }
            }
        }
        return best_time == 0 ? laneBackground(cpu)
                              : stateColor(best_state);
    }

    if (config.mode == TimelineMode::NumaHeatmap) {
        // Average remote fraction weighted by each task's coverage.
        double weight_sum = 0.0;
        double fraction_sum = 0.0;
        for (std::size_t i = first; i < last; i++) {
            const trace::StateEvent &ev = states[i];
            stats_.eventsVisited++;
            if (ev.state != kTaskExecState ||
                ev.task == kInvalidTaskInstance)
                continue;
            TimeStamp overlap = ev.interval.overlapDuration(pixel);
            if (overlap == 0 || !taskVisible(config, ev.task))
                continue;
            double w = static_cast<double>(overlap);
            weight_sum += w;
            fraction_sum += w * taskRemoteFraction(ev.task, cpu);
        }
        if (weight_sum == 0.0)
            return laneBackground(cpu);
        return numaHeatShade(fraction_sum / weight_sum);
    }

    // Task-colored modes: the predominant visible task execution wins.
    TaskInstanceId best_task = kInvalidTaskInstance;
    TimeStamp best_time = 0;
    for (std::size_t i = first; i < last; i++) {
        const trace::StateEvent &ev = states[i];
        stats_.eventsVisited++;
        if (ev.state != kTaskExecState || ev.task == kInvalidTaskInstance)
            continue;
        TimeStamp overlap = ev.interval.overlapDuration(pixel);
        if (overlap == 0 || !taskVisible(config, ev.task))
            continue;
        if (overlap > best_time) {
            best_time = overlap;
            best_task = ev.task;
        }
    }
    if (best_task == kInvalidTaskInstance)
        return laneBackground(cpu);
    std::optional<Rgba> color = taskColor(config, best_task);
    return color.value_or(laneBackground(cpu));
}

void
TimelineRenderer::resolveLane(const TimelineConfig &config,
                              const TimelineLayout &layout, CpuId cpu,
                              LaneImage &lane)
{
    const auto &states = trace_.cpu(cpu).states();
    trace::SliceRange slice = trace_.cpu(cpu).stateSlice(layout.view());

    // Equal adjacent pixels join one run (paper section VI-B.b).
    auto append = [&lane](const Rgba &color) {
        if (!lane.spans.empty() && lane.spans.back().color == color)
            lane.spans.back().length++;
        else
            lane.spans.push_back({1, color});
    };
    std::size_t ptr = slice.first;
    for (std::uint32_t x = 0; x < layout.width(); x++) {
        TimeInterval pixel = layout.pixelInterval(x);
        if (pixel.empty()) {
            append(laneBackground(cpu));
            continue;
        }
        // Advance past events entirely before this pixel; state ends are
        // sorted because states are non-overlapping and start-sorted.
        while (ptr < slice.last &&
               states[ptr].interval.end <= pixel.start)
            ptr++;
        std::size_t end = ptr;
        while (end < slice.last && states[end].interval.start < pixel.end)
            end++;
        append(resolveInterval(config, cpu, states, ptr, end, pixel));
    }
}

ResolutionInfo
FramePlan::resolution() const
{
    ResolutionInfo info;
    if (pyramids) {
        info.exact = false;
        info.granularityNs = config.pyramids->leafGranularity();
    }
    return info;
}

std::optional<FramePlan>
TimelineRenderer::planFrame(const TimelineConfig &config,
                            std::uint32_t width, std::uint32_t height) const
{
    TimeInterval view = config.view.empty() ? trace_.span() : config.view;
    if (view.empty())
        return std::nullopt;
    FramePlan frame{resolveHeatmapRange(config, view),
                    TimelineLayout(view, width, height, trace_.numCpus())};
    frame.pyramids = usePyramids(frame.config, frame.layout);
    return frame;
}

LaneImage
TimelineRenderer::renderLane(const FramePlan &frame, CpuId cpu)
{
    // The caches are per lane, so a lane draws the same whether its
    // renderer drew other lanes before or not.
    taskColorCache_.clear();
    remoteFractionCache_.clear();
    LaneImage lane;
    if (frame.pyramids)
        renderPyramidLane(frame.config, frame.layout, cpu, lane);
    else
        resolveLane(frame.config, frame.layout, cpu, lane);
    stats_.rectOps += lane.spans.size();
    return lane;
}

void
TimelineRenderer::render(const TimelineConfig &config, Framebuffer &fb)
{
    stats_.reset();
    std::optional<FramePlan> frame =
        planFrame(config, fb.width(), fb.height());
    if (!frame) {
        fb.clear(kBackground);
        return;
    }
    stats_.resolution = frame->resolution();
    fillUncoveredRows(frame->layout, fb);
    for (CpuId cpu = 0; cpu < trace_.numCpus(); cpu++)
        rasterizeLane(renderLane(*frame, cpu), frame->layout, cpu, fb);
}

void
TimelineRenderer::renderNaive(const TimelineConfig &config, Framebuffer &fb)
{
    stats_.reset();
    taskColorCache_.clear();
    remoteFractionCache_.clear();

    fb.clear(kBackground);
    std::optional<FramePlan> frame =
        planFrame(config, fb.width(), fb.height());
    if (!frame)
        return;
    const TimelineConfig &resolved = frame->config;
    const TimelineLayout &layout = frame->layout;
    const TimeInterval &view = layout.view();

    for (CpuId cpu = 0; cpu < trace_.numCpus(); cpu++) {
        std::uint32_t top = layout.laneTop(cpu);
        std::uint32_t height = layout.laneHeight();
        fb.fillRect(0, top, layout.width(), height, laneBackground(cpu));
        stats_.rectOps++;

        const auto &states = trace_.cpu(cpu).states();
        trace::SliceRange slice = trace_.cpu(cpu).stateSlice(view);
        for (std::size_t i = slice.first; i < slice.last; i++) {
            const trace::StateEvent &ev = states[i];
            stats_.eventsVisited++;
            TimeInterval clipped = ev.interval.intersect(view);
            if (clipped.empty())
                continue;

            Rgba color;
            if (resolved.mode == TimelineMode::State) {
                if (ev.state == kTaskExecState &&
                    ev.task != kInvalidTaskInstance &&
                    !taskVisible(resolved, ev.task))
                    continue;
                color = stateColor(ev.state);
            } else {
                if (ev.state != kTaskExecState ||
                    ev.task == kInvalidTaskInstance ||
                    !taskVisible(resolved, ev.task))
                    continue;
                if (resolved.mode == TimelineMode::NumaHeatmap) {
                    color = numaHeatShade(
                        taskRemoteFraction(ev.task, cpu));
                } else {
                    std::optional<Rgba> c = taskColor(resolved, ev.task);
                    if (!c)
                        continue;
                    color = *c;
                }
            }

            std::uint32_t x0 = layout.timeToPixel(clipped.start);
            std::uint32_t x1 = layout.timeToPixel(clipped.end - 1);
            fb.fillRect(x0, top, x1 - x0 + 1, height, color);
            stats_.rectOps++;
        }
    }
}

Rgba
TimelineRenderer::resolvePixel(const TimelineConfig &config,
                               const TimelineLayout &layout, CpuId cpu,
                               std::uint32_t x)
{
    taskColorCache_.clear();
    remoteFractionCache_.clear();
    TimeInterval pixel = layout.pixelInterval(x);
    const auto &states = trace_.cpu(cpu).states();
    trace::SliceRange slice = trace_.cpu(cpu).stateSlice(pixel);
    return resolveInterval(resolveHeatmapRange(config, layout.view()), cpu,
                           states, slice.first, slice.last, pixel);
}

} // namespace render
} // namespace aftermath
