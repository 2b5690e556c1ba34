/** @file Tests of the timeline renderer: modes, optimizations, filters. */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "filter/task_filter.h"
#include "render/timeline_renderer.h"
#include "trace/state.h"

namespace aftermath {
namespace render {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/** Random but valid trace with tasks and NUMA-placed regions. */
trace::Trace
randomTrace(std::uint64_t seed, std::uint32_t cpus = 4)
{
    Rng rng(seed);
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, (cpus + 1) / 2));
    tr.addTaskType({0x1, "alpha"});
    tr.addTaskType({0x2, "beta"});
    TaskInstanceId next = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        TimeStamp t = rng.nextBounded(30);
        for (int i = 0; i < 60; i++) {
            TimeStamp end = t + 1 + rng.nextBounded(50);
            if (rng.nextBool(0.7)) {
                TaskInstanceId id = next++;
                tr.addTaskInstance(
                    {id, rng.nextBool(0.5) ? 0x1ull : 0x2ull, c, {t, end}});
                tr.cpu(c).addState({{t, end}, kExec, id});
                tr.addMemAccess({id, 0x1000 + (id % 8) * 0x100, 64,
                                 rng.nextBool(0.5)});
            } else {
                tr.cpu(c).addState({{t, end}, kIdle,
                                    kInvalidTaskInstance});
            }
            t = end + rng.nextBounded(15);
        }
    }
    for (RegionId r = 0; r < 8; r++)
        tr.addMemRegion({r, 0x1000 + r * 0x100, 0x100,
                         static_cast<NodeId>(r % 2)});
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/** Sweep: seeds x all five modes, fast path vs independent per-pixel. */
class RendererProperty
    : public ::testing::TestWithParam<std::tuple<int, TimelineMode>>
{};

TEST_P(RendererProperty, FastPathMatchesPerPixelResolution)
{
    auto [seed, mode] = GetParam();
    trace::Trace tr = randomTrace(seed);
    Framebuffer fb(173, 64);
    TimelineRenderer renderer(tr);
    TimelineConfig config;
    config.mode = mode;
    renderer.render(config, fb);

    TimelineLayout layout(tr.span(), fb.width(), fb.height(),
                          tr.numCpus());
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        std::uint32_t y = layout.laneTop(c);
        for (std::uint32_t x = 0; x < fb.width(); x += 7) {
            Rgba expect = renderer.resolvePixel(config, layout, c, x);
            EXPECT_EQ(fb.pixel(x, y), expect)
                << "cpu " << c << " x " << x;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RendererProperty,
    ::testing::Combine(
        ::testing::Values(1, 7, 33),
        ::testing::Values(TimelineMode::State, TimelineMode::Heatmap,
                          TimelineMode::TypeMap, TimelineMode::NumaRead,
                          TimelineMode::NumaWrite,
                          TimelineMode::NumaHeatmap)));

TEST(Renderer, StateModeShowsDominantState)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    // 90% exec, 10% idle within the single pixel.
    tr.addTaskType({0x1, "t"});
    tr.addTaskInstance({0, 0x1, 0, {0, 90}});
    tr.cpu(0).addState({{0, 90}, kExec, 0});
    tr.cpu(0).addState({{90, 100}, kIdle, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    Framebuffer fb(1, 1);
    TimelineRenderer renderer(tr);
    renderer.render({}, fb);
    EXPECT_EQ(fb.pixel(0, 0), stateColor(kExec));
}

TEST(Renderer, BackgroundVisibleInGaps)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addState({{0, 10}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{90, 100}, kIdle, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    Framebuffer fb(100, 4);
    TimelineRenderer renderer(tr);
    renderer.render({}, fb);
    EXPECT_EQ(fb.pixel(50, 0), kBackground); // The gap (Fig 7's black).
    EXPECT_EQ(fb.pixel(5, 0), stateColor(kIdle));
}

TEST(Renderer, AggregationBoundsRectOps)
{
    trace::Trace tr = randomTrace(5);
    Framebuffer fb(200, 64);
    TimelineRenderer renderer(tr);
    renderer.render({}, fb);
    // Optimized: at most one rect per pixel column per lane.
    EXPECT_LE(renderer.stats().rectOps,
              static_cast<std::uint64_t>(200) * tr.numCpus());
    EXPECT_GT(renderer.stats().rectOps, 0u);
}

TEST(Renderer, NaiveIssuesOneOpPerEvent)
{
    trace::Trace tr = randomTrace(6);
    std::uint64_t events = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++)
        events += tr.cpu(c).states().size();

    Framebuffer fb(200, 64);
    TimelineRenderer renderer(tr);
    renderer.renderNaive({}, fb);
    // One background rect per lane plus one per drawn event.
    EXPECT_GE(renderer.stats().rectOps, events / 2);
    EXPECT_LE(renderer.stats().rectOps, events + tr.numCpus());
}

TEST(Renderer, ZoomedOutOptimizedBeatsNaive)
{
    // Narrow framebuffer, many events per pixel: aggregation wins big.
    trace::Trace tr = randomTrace(8, 2);
    Framebuffer fb(10, 16);
    TimelineRenderer optimized(tr);
    optimized.render({}, fb);
    Framebuffer fb2(10, 16);
    TimelineRenderer naive(tr);
    naive.renderNaive({}, fb2);
    EXPECT_LT(optimized.stats().rectOps, naive.stats().rectOps / 2);
}

TEST(Renderer, TaskFilterHidesTasks)
{
    trace::Trace tr = randomTrace(9);
    filter::TaskTypeFilter only_alpha({0x1});
    TimelineConfig config;
    config.mode = TimelineMode::TypeMap;
    config.taskFilter = &only_alpha;

    Framebuffer fb(300, 64);
    TimelineRenderer renderer(tr);
    renderer.render(config, fb);
    // Beta's color must not appear; alpha's should.
    Rgba alpha = taskTypeColor(0);
    Rgba beta = taskTypeColor(1);
    EXPECT_GT(fb.countPixels(alpha), 0u);
    EXPECT_EQ(fb.countPixels(beta), 0u);

    // Without the filter both appear.
    config.taskFilter = nullptr;
    renderer.render(config, fb);
    EXPECT_GT(fb.countPixels(alpha), 0u);
    EXPECT_GT(fb.countPixels(beta), 0u);
}

TEST(Renderer, HeatmapUsesConfiguredRange)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addTaskType({0x1, "t"});
    tr.addTaskInstance({0, 0x1, 0, {0, 1000}});
    tr.cpu(0).addState({{0, 1000}, kExec, 0});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    // Fixed range far above the task's duration: lightest shade.
    TimelineConfig config;
    config.mode = TimelineMode::Heatmap;
    config.heatmapMin = 0;
    config.heatmapMax = 50'000'000;
    config.heatmapShades = 10;
    Framebuffer fb(10, 4);
    TimelineRenderer renderer(tr);
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(0, 0), heatmapShade(0, 0, 10, 10));
}

/** True when @p a and @p b hold the same pixels. */
bool
sameFrame(const Framebuffer &a, const Framebuffer &b)
{
    const std::size_t n = static_cast<std::size_t>(a.width()) * a.height();
    return a.width() == b.width() && a.height() == b.height() &&
           std::equal(a.data(), a.data() + n, b.data());
}

TEST(Renderer, NonHeatmapModesIgnoreTheHeatmapRange)
{
    trace::Trace tr = randomTrace(21);
    Rng rng(4);
    for (int m = 0; m <= static_cast<int>(TimelineMode::NumaHeatmap); m++) {
        const auto mode = static_cast<TimelineMode>(m);
        if (mode == TimelineMode::Heatmap)
            continue;
        TimelineConfig config;
        config.mode = mode;
        Framebuffer reference(150, 32);
        TimelineRenderer renderer(tr);
        renderer.render(config, reference);
        const RenderStats reference_stats = renderer.stats();
        for (int i = 0; i < 4; i++) {
            // Adaptive, explicit, inverted and huge ranges alike.
            config.heatmapMin = rng.nextBounded(200);
            config.heatmapMax = i == 0 ? 0 : rng.nextBounded(1u << 30);
            Framebuffer fb(150, 32);
            renderer.render(config, fb);
            EXPECT_TRUE(sameFrame(fb, reference))
                << "mode " << m << " range ["
                << config.heatmapMin << ", " << config.heatmapMax << "]";
            EXPECT_EQ(renderer.stats().rectOps, reference_stats.rectOps);
            EXPECT_EQ(renderer.stats().eventsVisited,
                      reference_stats.eventsVisited);
        }
    }
}

TEST(Renderer, AdaptiveHeatmapSpansTheVisibleTaskDurations)
{
    trace::Trace tr = randomTrace(17);
    const TimeInterval span = tr.span();
    const TimeInterval view{span.start + span.duration() / 3,
                            span.end - span.duration() / 4};
    filter::TaskTypeFilter only_alpha({0x1});
    for (bool filtered : {false, true}) {
        const filter::TaskFilter *filter =
            filtered ? &only_alpha : nullptr;
        // The shortest and longest task the frame shows.
        TimeStamp lo = ~TimeStamp{0}, hi = 0;
        for (const trace::TaskInstance &task : tr.taskInstances()) {
            if (!task.interval.overlaps(view) ||
                (filter && !filter->matches(tr, task)))
                continue;
            lo = std::min(lo, task.duration());
            hi = std::max(hi, task.duration());
        }
        ASSERT_LT(lo, hi);

        TimelineConfig adaptive;
        adaptive.mode = TimelineMode::Heatmap;
        adaptive.view = view;
        adaptive.taskFilter = filter;
        TimelineConfig fixed = adaptive;
        fixed.heatmapMin = lo;
        fixed.heatmapMax = hi;

        TimelineRenderer renderer(tr);
        Framebuffer adaptive_fb(211, 48);
        Framebuffer fixed_fb(211, 48);
        renderer.render(adaptive, adaptive_fb);
        renderer.render(fixed, fixed_fb);
        EXPECT_TRUE(sameFrame(adaptive_fb, fixed_fb))
            << (filtered ? "filtered" : "unfiltered");
        renderer.renderNaive(adaptive, adaptive_fb);
        renderer.renderNaive(fixed, fixed_fb);
        EXPECT_TRUE(sameFrame(adaptive_fb, fixed_fb))
            << (filtered ? "filtered naive" : "unfiltered naive");
    }
}

TEST(Renderer, NumaReadModeColorsByDominantNode)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, 1));
    tr.addTaskType({0x1, "t"});
    tr.addTaskInstance({0, 0x1, 0, {0, 100}});
    tr.cpu(0).addState({{0, 100}, kExec, 0});
    tr.addMemRegion({0, 0x1000, 0x100, 1}); // Data on node 1.
    tr.addMemAccess({0, 0x1000, 64, false});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    Framebuffer fb(10, 8);
    TimelineRenderer renderer(tr);
    TimelineConfig config;
    config.mode = TimelineMode::NumaRead;
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(5, 0), numaNodeColor(1));

    // Write map: no writes recorded -> unknown gray.
    config.mode = TimelineMode::NumaWrite;
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(5, 0), (Rgba{120, 120, 120, 255}));

    // NUMA heatmap: all bytes remote from node 0 -> pink end.
    config.mode = TimelineMode::NumaHeatmap;
    renderer.render(config, fb);
    EXPECT_EQ(fb.pixel(5, 0), numaHeatShade(1.0));
}

TEST(Renderer, ViewRestrictsRendering)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addState({{0, 50}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{50, 100}, kExec, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    TimelineConfig config;
    config.view = {0, 50};
    Framebuffer fb(10, 2);
    TimelineRenderer renderer(tr);
    renderer.render(config, fb);
    EXPECT_EQ(fb.countPixels(stateColor(kExec)), 0u);
    EXPECT_GT(fb.countPixels(stateColor(kIdle)), 0u);
}

} // namespace
} // namespace render
} // namespace aftermath
