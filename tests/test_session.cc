/**
 * @file
 * Tests of the session facade: lazy index construction, cache
 * invalidation on filter changes, and equivalence of
 * facade results with the legacy free-function paths.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "base/rng.h"
#include "filter/task_filter.h"
#include "index/counter_index.h"
#include "metrics/counter_utils.h"
#include "metrics/task_attribution.h"
#include "render/framebuffer.h"
#include "render/timeline_renderer.h"
#include "runtime/runtime_system.h"
#include "session/session.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "trace/state.h"
#include "workloads/synthetic.h"

namespace aftermath {
namespace session {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);
constexpr CounterId kCtr = 7;

/** Two CPUs with states, tasks and a sampled counter. */
trace::Trace
smallTrace(std::int64_t counter_scale = 1)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, 1));
    tr.cpu(0).addState({{0, 60}, kExec, 0});
    tr.cpu(0).addState({{60, 100}, kIdle, kInvalidTaskInstance});
    tr.cpu(1).addState({{0, 100}, kExec, 1});
    tr.addTaskType({0xa, "w"});
    tr.addTaskInstance({0, 0xa, 0, {0, 60}});
    tr.addTaskInstance({1, 0xa, 1, {0, 100}});
    for (TimeStamp t = 0; t <= 100; t += 5) {
        std::int64_t v = static_cast<std::int64_t>(t) * counter_scale;
        tr.cpu(0).addCounterSample(kCtr, {t, v});
        tr.cpu(1).addCounterSample(kCtr, {t, -v});
    }
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

TEST(Session, LazyCounterIndexBuiltOncePerCpuCounter)
{
    Session session(smallTrace());
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 0u);

    for (int i = 0; i < 5; i++)
        session.counterExtrema(0, kCtr, {0, 50});
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 1u);
    EXPECT_EQ(session.cacheStats().counterIndex.hits, 4u);

    // A different CPU is a different index; the first one stays cached.
    session.counterExtrema(1, kCtr, {0, 50});
    session.counterExtrema(1, kCtr, {10, 90});
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 2u);
    session.counterIndex(0, kCtr);
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 2u);
}

TEST(Session, CounterExtremaMatchesDirectIndex)
{
    trace::Trace tr = smallTrace();
    index::CounterIndex direct(tr.cpu(0).counterSamples(kCtr));
    Session session(std::move(tr));

    for (auto iv : {TimeInterval{0, 101}, {5, 20}, {20, 21}, {90, 200},
                    {101, 300}}) {
        index::MinMax expect = direct.query(iv);
        index::MinMax got = session.counterExtrema(0, kCtr, iv);
        ASSERT_EQ(got.valid, expect.valid);
        if (expect.valid) {
            EXPECT_EQ(got.min, expect.min);
            EXPECT_EQ(got.max, expect.max);
        }
    }
}

TEST(Session, CounterExtremaUnknownCpuOrCounterIsInvalid)
{
    Session session(smallTrace());
    EXPECT_FALSE(session.counterExtrema(99, kCtr, {0, 100}).valid);
    EXPECT_FALSE(session.counterExtrema(kInvalidCpu, kCtr,
                                        {0, 100}).valid);
    EXPECT_FALSE(session.counterExtrema(0, 999, {0, 100}).valid);
}

TEST(Session, IntervalStatsRepeatQueriesAnswerIdentically)
{
    Session session(smallTrace());
    const stats::IntervalStats a = session.intervalStats({0, 100});
    const stats::IntervalStats half = session.intervalStats({0, 50});
    const stats::IntervalStats b = session.intervalStats({0, 100});
    EXPECT_EQ(b.interval, a.interval);
    EXPECT_EQ(b.timeInState, a.timeInState);
    EXPECT_EQ(b.tasksOverlapping, a.tasksOverlapping);
    EXPECT_EQ(b.tasksStarted, a.tasksStarted);
    EXPECT_EQ(half.interval, TimeInterval(0, 50));

    EXPECT_EQ(a.timeInState.at(kExec), 160u);
    EXPECT_EQ(a.timeInState.at(kIdle), 40u);
    EXPECT_EQ(a.tasksOverlapping, 2u);
}

TEST(Session, ViewDefaultsToSpanAndDrivesQueries)
{
    Session session(smallTrace());
    EXPECT_EQ(session.view(), session.trace().span());

    session.setView({0, 50});
    EXPECT_EQ(session.view(), TimeInterval(0, 50));
    EXPECT_EQ(session.intervalStats().interval, TimeInterval(0, 50));

    index::MinMax mm = session.counterExtrema(0, kCtr);
    ASSERT_TRUE(mm.valid);
    EXPECT_EQ(mm.max, 45); // Last sample before t=50.

    session.setView({});
    EXPECT_EQ(session.view(), session.trace().span());
}

TEST(Session, SetFiltersInvalidatesTaskListButNotIndexes)
{
    Session session(smallTrace());
    EXPECT_EQ(session.tasks().size(), 2u);

    session.counterExtrema(0, kCtr, {0, 100});
    std::uint64_t index_builds = session.cacheStats().counterIndex.builds;

    filter::FilterSet longer;
    longer.add(std::make_shared<filter::DurationFilter>(90, 1000));
    session.setFilters(longer);

    EXPECT_EQ(session.tasks().size(), 1u);
    EXPECT_EQ(session.tasks().front()->id, 1u);

    // Filter-independent caches survived.
    session.counterExtrema(0, kCtr, {0, 100});
    EXPECT_EQ(session.cacheStats().counterIndex.builds, index_builds);

    session.clearFilters();
    EXPECT_EQ(session.tasks().size(), 2u);
}

TEST(Session, TaskListComposesEveryActiveFilter)
{
    Session session(smallTrace());
    filter::FilterSet on_cpu1;
    on_cpu1.add(std::make_shared<filter::CpuFilter>(
        std::unordered_set<CpuId>{1}));
    session.setFilters(on_cpu1);
    auto tasks = session.tasks();
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks[0]->id, 1u);

    // Filters conjoin: no task is both short and on cpu 1.
    filter::FilterSet short_on_cpu1 = on_cpu1;
    short_on_cpu1.add(std::make_shared<filter::DurationFilter>(0, 70));
    session.setFilters(short_on_cpu1);
    EXPECT_TRUE(session.tasks().empty());
}

TEST(Session, OwningAndViewModesSeeTheSameTrace)
{
    trace::Trace tr = smallTrace();
    Session borrowed = Session::view(tr);
    EXPECT_EQ(&borrowed.trace(), &tr);

    Session owning(smallTrace());
    EXPECT_EQ(owning.trace().numCpus(), tr.numCpus());
}

/** Facade results equal independent hand-rolled computations. */
class SessionEquivalence : public ::testing::Test
{
  protected:
    static trace::Trace workload_;

    static void
    SetUpTestSuite()
    {
        runtime::RuntimeConfig config;
        config.machine = machine::MachineSpec::small(2, 4);
        config.seed = 99;
        runtime::RunResult result = runtime::RuntimeSystem(config).run(
            workloads::buildForkJoin(4, 24, 150'000));
        ASSERT_TRUE(result.ok) << result.error;
        workload_ = std::move(result.trace);
    }
};

trace::Trace SessionEquivalence::workload_;

TEST_F(SessionEquivalence, IntervalStatsMatchBruteForce)
{
    Session session = Session::view(workload_);
    TimeInterval span = workload_.span();
    for (auto iv : {span, TimeInterval{span.end / 4, span.end / 2},
                    TimeInterval{0, 1}}) {
        // Independent full-scan computation (no slicing, no session).
        std::map<std::uint32_t, TimeStamp> time_in_state;
        for (CpuId c = 0; c < workload_.numCpus(); c++) {
            for (const trace::StateEvent &ev : workload_.cpu(c).states()) {
                TimeStamp overlap = ev.interval.overlapDuration(iv);
                if (overlap > 0)
                    time_in_state[ev.state] += overlap;
            }
        }
        std::uint64_t overlapping = 0, started = 0;
        for (const trace::TaskInstance &task : workload_.taskInstances()) {
            if (task.interval.overlaps(iv)) {
                overlapping++;
                if (iv.contains(task.interval.start))
                    started++;
            }
        }

        const stats::IntervalStats &facade = session.intervalStats(iv);
        for (const auto &[state, time] : time_in_state)
            EXPECT_EQ(facade.timeInState.at(state), time)
                << "state " << state;
        for (const auto &[state, time] : facade.timeInState) {
            if (time > 0) {
                EXPECT_EQ(time_in_state[state], time)
                    << "state " << state;
            }
        }
        EXPECT_EQ(facade.tasksOverlapping, overlapping);
        EXPECT_EQ(facade.tasksStarted, started);
    }
}

TEST_F(SessionEquivalence, FilteredTasksMatchHandFilter)
{
    Session session = Session::view(workload_);
    filter::FilterSet f;
    f.add(std::make_shared<filter::CpuFilter>(
        std::unordered_set<CpuId>{0, 3, 5}));

    std::vector<const trace::TaskInstance *> expected;
    for (const trace::TaskInstance &task : workload_.taskInstances()) {
        if (f.matches(workload_, task))
            expected.push_back(&task);
    }
    ASSERT_FALSE(expected.empty());

    session.setFilters(f);
    EXPECT_EQ(session.tasks(), expected);
}

TEST_F(SessionEquivalence, HistogramMatchesFromValues)
{
    Session session = Session::view(workload_);
    std::vector<double> durations;
    for (const trace::TaskInstance &task : workload_.taskInstances())
        durations.push_back(static_cast<double>(task.duration()));
    stats::Histogram expected = stats::Histogram::fromValues(durations, 12);

    stats::Histogram facade = session.histogram(12);
    ASSERT_EQ(facade.numBins(), expected.numBins());
    EXPECT_EQ(facade.total(), expected.total());
    for (std::uint32_t i = 0; i < expected.numBins(); i++)
        EXPECT_EQ(facade.count(i), expected.count(i)) << "bin " << i;
}

TEST_F(SessionEquivalence, TaskCounterIncreasesMatchHandAttribution)
{
    Session session = Session::view(workload_);
    CounterId counter = 0;
    for (CpuId c = 0; c < workload_.numCpus(); c++) {
        auto ids = workload_.cpu(c).counterIds();
        if (!ids.empty()) {
            counter = ids[0];
            break;
        }
    }
    // Hand attribution: value right before start minus right before end.
    std::vector<metrics::TaskCounterIncrease> expected;
    for (const trace::TaskInstance &task : workload_.taskInstances()) {
        const trace::CpuTimeline *tl = workload_.cpuOrNull(task.cpu);
        if (!tl)
            continue;
        auto before =
            metrics::counterValueAt(*tl, counter, task.interval.start);
        auto after =
            metrics::counterValueAt(*tl, counter, task.interval.end);
        if (!before || !after)
            continue;
        metrics::TaskCounterIncrease row;
        row.task = task.id;
        row.increase = *after - *before;
        row.duration = task.duration();
        expected.push_back(row);
    }
    ASSERT_FALSE(expected.empty());

    auto facade = session.taskCounterIncreases(counter);
    ASSERT_EQ(facade.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); i++) {
        EXPECT_EQ(facade[i].task, expected[i].task);
        EXPECT_EQ(facade[i].increase, expected[i].increase);
        EXPECT_EQ(facade[i].duration, expected[i].duration);
    }
}

TEST_F(SessionEquivalence, CounterExtremaMatchBruteForce)
{
    Session session = Session::view(workload_);
    CpuId cpu = 0;
    CounterId counter = 0;
    bool found = false;
    for (CpuId c = 0; c < workload_.numCpus() && !found; c++) {
        for (CounterId id : workload_.cpu(c).counterIds()) {
            if (workload_.cpu(c).counterSamples(id).size() > 10) {
                cpu = c;
                counter = id;
                found = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "workload trace has no sampled counter";

    const auto &samples = workload_.cpu(cpu).counterSamples(counter);
    Rng rng(17);
    TimeStamp max_t = samples.back().time + 10;
    for (int trial = 0; trial < 100; trial++) {
        TimeStamp a = rng.nextBounded(max_t);
        TimeInterval iv{a, a + rng.nextBounded(max_t / 2 + 1)};
        index::MinMax expect;
        for (const auto &s : samples) {
            if (s.time < iv.start || s.time >= iv.end)
                continue;
            if (!expect.valid) {
                expect = {s.value, s.value, true};
            } else {
                expect.min = std::min(expect.min, s.value);
                expect.max = std::max(expect.max, s.value);
            }
        }
        index::MinMax got = session.counterExtrema(cpu, counter, iv);
        ASSERT_EQ(got.valid, expect.valid);
        if (expect.valid) {
            EXPECT_EQ(got.min, expect.min);
            EXPECT_EQ(got.max, expect.max);
        }
    }
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 1u);
}

TEST_F(SessionEquivalence, RenderMatchesDirectRenderer)
{
    Session session = Session::view(workload_);

    render::TimelineConfig config;
    config.mode = render::TimelineMode::State;

    render::Framebuffer direct_fb(320, 96);
    render::TimelineRenderer direct(workload_);
    direct.render(config, direct_fb);

    render::Framebuffer session_fb(320, 96);
    session.render(config, session_fb);

    for (std::uint32_t y = 0; y < direct_fb.height(); y += 3) {
        for (std::uint32_t x = 0; x < direct_fb.width(); x += 7) {
            ASSERT_EQ(session_fb.pixel(x, y), direct_fb.pixel(x, y))
                << "pixel (" << x << ", " << y << ")";
        }
    }
}

TEST_F(SessionEquivalence, SessionFiltersApplyToRendering)
{
    Session session = Session::view(workload_);
    filter::FilterSet none;
    none.add(std::make_shared<filter::DurationFilter>(kTimeMax - 1,
                                                      kTimeMax));

    render::TimelineConfig config;
    config.mode = render::TimelineMode::Heatmap;

    // Direct renderer with the same filter threaded explicitly.
    render::Framebuffer direct_fb(200, 64);
    render::TimelineRenderer direct(workload_);
    render::TimelineConfig direct_config = config;
    direct_config.taskFilter = &none;
    direct.render(direct_config, direct_fb);

    render::Framebuffer session_fb(200, 64);
    session.setFilters(none);
    session.render(config, session_fb);

    for (std::uint32_t y = 0; y < direct_fb.height(); y += 5) {
        for (std::uint32_t x = 0; x < direct_fb.width(); x += 5) {
            ASSERT_EQ(session_fb.pixel(x, y), direct_fb.pixel(x, y))
                << "pixel (" << x << ", " << y << ")";
        }
    }
}

} // namespace
} // namespace session
} // namespace aftermath
