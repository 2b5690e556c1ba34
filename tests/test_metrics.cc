/** @file Tests of derived-counter generators and task attribution. */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "filter/task_filter.h"
#include "metrics/counter_utils.h"
#include "metrics/generators.h"
#include "metrics/task_attribution.h"
#include "session/session.h"
#include "trace/state.h"
#include "trace/trace.h"

namespace aftermath {
namespace metrics {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/** Two CPUs: cpu0 executes [0,100), idles [100,200); cpu1 inverse. */
class MetricsTest : public ::testing::Test
{
  protected:
    trace::Trace tr;

    void
    SetUp() override
    {
        tr.setTopology(trace::MachineTopology::uniform(1, 2));
        tr.cpu(0).addState({{0, 100}, kExec, 0});
        tr.cpu(0).addState({{100, 200}, kIdle, kInvalidTaskInstance});
        tr.cpu(1).addState({{0, 100}, kIdle, kInvalidTaskInstance});
        tr.cpu(1).addState({{100, 200}, kExec, 1});
        tr.addTaskType({0xa, "work"});
        tr.addTaskInstance({0, 0xa, 0, {0, 100}});
        tr.addTaskInstance({1, 0xa, 1, {100, 200}});

        // A monotone counter on cpu0 sampled at task boundaries.
        tr.cpu(0).addCounterSample(0, {0, 1000});
        tr.cpu(0).addCounterSample(0, {100, 1500});
        tr.cpu(0).addCounterSample(0, {200, 1600});
        tr.cpu(1).addCounterSample(0, {0, 0});
        tr.cpu(1).addCounterSample(0, {100, 40});
        tr.cpu(1).addCounterSample(0, {200, 240});
        std::string err;
        ASSERT_TRUE(tr.finalize(err)) << err;
    }
};

TEST_F(MetricsTest, StateOccupancyCountsWorkers)
{
    DerivedCounter idle = stateOccupancy(tr, kIdle, 2);
    ASSERT_EQ(idle.samples.size(), 2u);
    // Exactly one worker idle in each half.
    EXPECT_DOUBLE_EQ(idle.samples[0].value, 1.0);
    EXPECT_DOUBLE_EQ(idle.samples[1].value, 1.0);

    DerivedCounter exec = stateOccupancy(tr, kExec, 4);
    for (const auto &s : exec.samples)
        EXPECT_DOUBLE_EQ(s.value, 1.0);
}

TEST_F(MetricsTest, StateOccupancyFractionalIntervals)
{
    // One interval covering everything: each state occupies 1 worker on
    // average.
    DerivedCounter idle = stateOccupancy(tr, kIdle, 1);
    ASSERT_EQ(idle.samples.size(), 1u);
    EXPECT_DOUBLE_EQ(idle.samples[0].value, 1.0);
}

TEST_F(MetricsTest, AverageTaskDuration)
{
    DerivedCounter avg = averageTaskDuration(tr, 2);
    ASSERT_EQ(avg.samples.size(), 2u);
    // Both halves contain exactly one 100-cycle task.
    EXPECT_DOUBLE_EQ(avg.samples[0].value, 100.0);
    EXPECT_DOUBLE_EQ(avg.samples[1].value, 100.0);
}

TEST_F(MetricsTest, DifferenceQuotient)
{
    DerivedCounter series;
    series.name = "s";
    series.samples = {{0, 0.0}, {10, 20.0}, {20, 20.0}, {30, 50.0}};
    DerivedCounter dq = differenceQuotient(series);
    ASSERT_EQ(dq.samples.size(), 3u);
    EXPECT_DOUBLE_EQ(dq.samples[0].value, 2.0);
    EXPECT_DOUBLE_EQ(dq.samples[1].value, 0.0);
    EXPECT_DOUBLE_EQ(dq.samples[2].value, 3.0);
    EXPECT_EQ(dq.samples[0].time, 10u);
}

TEST_F(MetricsTest, DifferenceQuotientDegenerate)
{
    DerivedCounter empty;
    EXPECT_TRUE(differenceQuotient(empty).samples.empty());
    DerivedCounter one;
    one.samples = {{5, 1.0}};
    EXPECT_TRUE(differenceQuotient(one).samples.empty());
}

TEST_F(MetricsTest, AggregateCounterSumsWorkers)
{
    DerivedCounter sum = aggregateCounter(tr, 0, 2);
    ASSERT_EQ(sum.samples.size(), 2u);
    // At t=99: cpu0 -> 1000 (last sample at 0), cpu1 -> 0.
    EXPECT_DOUBLE_EQ(sum.samples[0].value, 1000.0);
    // At t=199: cpu0 -> 1500, cpu1 -> 40.
    EXPECT_DOUBLE_EQ(sum.samples[1].value, 1540.0);
}

TEST_F(MetricsTest, CounterRatio)
{
    DerivedCounter a, b;
    a.samples = {{10, 6.0}, {20, 9.0}, {30, 12.0}};
    b.samples = {{10, 2.0}, {20, 3.0}, {30, 0.0}};
    DerivedCounter ratio = counterRatio(a, b);
    // The t=30 sample is dropped: b's step value there is 0.
    ASSERT_EQ(ratio.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(ratio.samples[0].value, 3.0);
    EXPECT_DOUBLE_EQ(ratio.samples[1].value, 3.0);
    EXPECT_EQ(ratio.samples[1].time, 20u);
}

TEST_F(MetricsTest, CounterValueAtStepInterpolation)
{
    auto v = counterValueAt(tr.cpu(0), 0, 50);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1000);
    EXPECT_EQ(*counterValueAt(tr.cpu(0), 0, 100), 1500);
    EXPECT_EQ(*counterValueAt(tr.cpu(0), 0, 1000), 1600);
    EXPECT_FALSE(counterValueAt(tr.cpu(1), 99, 50).has_value());
}

TEST_F(MetricsTest, CounterValueInterpolatedIsLinear)
{
    auto v = counterValueInterpolated(tr.cpu(0), 0, 50);
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(*v, 1250.0);
    EXPECT_DOUBLE_EQ(*counterValueInterpolated(tr.cpu(0), 0, 0), 1000.0);
    // Clamps outside the sampled range.
    EXPECT_DOUBLE_EQ(*counterValueInterpolated(tr.cpu(0), 0, 9999),
                     1600.0);
}

TEST(CounterUtils, InterpolationSpansTheWholeValueRange)
{
    // The step from INT64_MIN to INT64_MAX does not fit 64 bits.
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addCounterSample(0, {0, INT64_MIN});
    tr.cpu(0).addCounterSample(0, {100, INT64_MAX});
    tr.cpu(0).addCounterSample(0, {200, INT64_MIN});
    EXPECT_DOUBLE_EQ(*counterValueInterpolated(tr.cpu(0), 0, 50), 0.0);
    EXPECT_DOUBLE_EQ(*counterValueInterpolated(tr.cpu(0), 0, 150), 0.0);
}

TEST_F(MetricsTest, TaskCounterIncreases)
{
    auto rows = session::Session::view(tr).taskCounterIncreases(0);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].task, 0u);
    EXPECT_EQ(rows[0].increase, 500); // 1500 - 1000 across [0, 100).
    EXPECT_EQ(rows[0].duration, 100u);
    EXPECT_DOUBLE_EQ(rows[0].ratePerKcycle(), 5000.0);
    EXPECT_EQ(rows[1].increase, 200); // 240 - 40 across [100, 200).
}

TEST_F(MetricsTest, TaskCounterIncreasesRespectFilter)
{
    filter::FilterSet cpu0;
    cpu0.add(std::make_shared<filter::CpuFilter>(
        std::unordered_set<CpuId>{0}));
    session::Session session = session::Session::view(tr);
    session.setFilters(cpu0);
    auto rows = session.taskCounterIncreases(0);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].task, 0u);
}

TEST_F(MetricsTest, DerivedCounterMinMax)
{
    DerivedCounter c;
    EXPECT_DOUBLE_EQ(c.minValue(), 0.0);
    c.samples = {{0, 5.0}, {1, -2.0}, {2, 8.0}};
    EXPECT_DOUBLE_EQ(c.minValue(), -2.0);
    EXPECT_DOUBLE_EQ(c.maxValue(), 8.0);
    EXPECT_EQ(c.lastTime(), 2u);
}

} // namespace
} // namespace metrics
} // namespace aftermath
