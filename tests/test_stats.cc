/** @file Tests of histograms, matrices, interval stats and regression. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "base/rng.h"
#include "filter/task_filter.h"
#include "session/session.h"
#include "stats/comm_matrix.h"
#include "stats/export.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "stats/regression.h"
#include "trace/state.h"

namespace aftermath {
namespace stats {
namespace {

TEST(Histogram, BasicBinning)
{
    Histogram h = Histogram::fromValues({0.5, 1.5, 1.6, 2.5, 2.6, 2.7}, 3,
                                        0.0, 3.0);
    EXPECT_EQ(h.numBins(), 3u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 3u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.5);
    EXPECT_DOUBLE_EQ(h.binWidth(), 1.0);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binLow(2), 2.0);
}

TEST(Histogram, AutoRangeAndClamping)
{
    Histogram h = Histogram::fromValues({1.0, 2.0, 3.0}, 2);
    EXPECT_DOUBLE_EQ(h.rangeMin(), 1.0);
    EXPECT_DOUBLE_EQ(h.rangeMax(), 3.0);
    EXPECT_EQ(h.total(), 3u);

    // Values outside an explicit range land in the edge bins.
    Histogram c = Histogram::fromValues({-5.0, 0.4, 99.0}, 2, 0.0, 1.0);
    EXPECT_EQ(c.count(0), 2u);
    EXPECT_EQ(c.count(1), 1u);
}

TEST(Histogram, EmptyAndConstantInput)
{
    Histogram e = Histogram::fromValues({}, 4);
    EXPECT_EQ(e.total(), 0u);
    EXPECT_DOUBLE_EQ(e.fraction(0), 0.0);

    Histogram k = Histogram::fromValues({7.0, 7.0, 7.0}, 4);
    EXPECT_EQ(k.total(), 3u);
    EXPECT_EQ(k.count(0), 3u); // Degenerate range widened internally.
}

TEST(Histogram, PeaksDetectLocalMaxima)
{
    Histogram h = Histogram::fromValues(
        {0.1, 0.1, 0.1, 2.1, 4.1, 4.1, 4.1, 4.1}, 5, 0.0, 5.0);
    // Bins: [3, 0, 1, 0, 4]; every nonzero bin is a local maximum here.
    auto peaks = h.peaks();
    ASSERT_EQ(peaks.size(), 3u);
    EXPECT_EQ(peaks[0], 0u);
    EXPECT_EQ(peaks[1], 2u);
    EXPECT_EQ(peaks[2], 4u);
}

TEST(Regression, PerfectLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 50; i++) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 7.0);
    }
    Regression r = linearRegression(xs, ys);
    ASSERT_TRUE(r.valid);
    EXPECT_NEAR(r.slope, 3.0, 1e-9);
    EXPECT_NEAR(r.intercept, 7.0, 1e-9);
    EXPECT_NEAR(r.r2, 1.0, 1e-12);
    EXPECT_NEAR(r.pearson, 1.0, 1e-12);
}

TEST(Regression, NegativeCorrelation)
{
    std::vector<double> xs, ys;
    Rng rng(3);
    for (int i = 0; i < 200; i++) {
        double x = rng.nextDouble() * 10;
        xs.push_back(x);
        ys.push_back(-2.0 * x + rng.nextGaussian() * 0.1);
    }
    Regression r = linearRegression(xs, ys);
    ASSERT_TRUE(r.valid);
    EXPECT_LT(r.pearson, -0.99);
    EXPECT_GT(r.r2, 0.98);
    EXPECT_NEAR(r.slope, -2.0, 0.05);
}

TEST(Regression, NoiseHasLowR2)
{
    Rng rng(4);
    std::vector<double> xs, ys;
    for (int i = 0; i < 500; i++) {
        xs.push_back(rng.nextDouble());
        ys.push_back(rng.nextDouble());
    }
    Regression r = linearRegression(xs, ys);
    ASSERT_TRUE(r.valid);
    EXPECT_LT(r.r2, 0.05);
}

TEST(Regression, DegenerateInputs)
{
    EXPECT_FALSE(linearRegression({}, {}).valid);
    EXPECT_FALSE(linearRegression({1.0}, {2.0}).valid);
    // Vertical line: identical x everywhere.
    EXPECT_FALSE(linearRegression({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0}).valid);
    // Horizontal line: fit is exact.
    Regression h = linearRegression({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0});
    ASSERT_TRUE(h.valid);
    EXPECT_DOUBLE_EQ(h.slope, 0.0);
    EXPECT_DOUBLE_EQ(h.r2, 1.0);
}

TEST(Regression, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0,
                1e-12);
}

class TraceStatsTest : public ::testing::Test
{
  protected:
    trace::Trace tr;
    static constexpr std::uint32_t kExec =
        static_cast<std::uint32_t>(trace::CoreState::TaskExec);
    static constexpr std::uint32_t kIdle =
        static_cast<std::uint32_t>(trace::CoreState::Idle);

    void
    SetUp() override
    {
        tr.setTopology(trace::MachineTopology::uniform(2, 1));
        tr.cpu(0).addState({{0, 60}, kExec, 0});
        tr.cpu(0).addState({{60, 100}, kIdle, kInvalidTaskInstance});
        tr.cpu(1).addState({{0, 100}, kExec, 1});
        tr.addTaskType({0xa, "w"});
        tr.addTaskInstance({0, 0xa, 0, {0, 60}});
        tr.addTaskInstance({1, 0xa, 1, {0, 100}});
        // Comm: node0 -> node0 local 100 bytes; node0 -> node1 300 bytes.
        tr.cpu(0).addComm({10, trace::CommKind::DataRead, 0, 0, 100, 0});
        tr.cpu(1).addComm({20, trace::CommKind::DataRead, 0, 1, 300, 0});
        tr.cpu(1).addComm({30, trace::CommKind::Steal, 0, 1, 0, 0});
        std::string err;
        ASSERT_TRUE(tr.finalize(err)) << err;
    }
};

TEST_F(TraceStatsTest, IntervalStatsBreakdown)
{
    IntervalStats s = session::Session::view(tr).intervalStats({0, 100});
    EXPECT_EQ(s.timeInState[kExec], 160u);
    EXPECT_EQ(s.timeInState[kIdle], 40u);
    EXPECT_EQ(s.totalTime(), 200u);
    EXPECT_DOUBLE_EQ(s.stateFraction(kExec), 0.8);
    EXPECT_DOUBLE_EQ(s.averageParallelism(kExec), 1.6);
    EXPECT_EQ(s.tasksOverlapping, 2u);
    EXPECT_EQ(s.tasksStarted, 2u);
}

TEST_F(TraceStatsTest, IntervalStatsSubRange)
{
    IntervalStats s = session::Session::view(tr).intervalStats({50, 100});
    EXPECT_EQ(s.timeInState[kExec], 60u); // 10 from cpu0 + 50 from cpu1.
    EXPECT_EQ(s.timeInState[kIdle], 40u);
    EXPECT_EQ(s.tasksOverlapping, 2u);
    EXPECT_EQ(s.tasksStarted, 0u);
}

TEST_F(TraceStatsTest, CommMatrixCountsOnlyDataTraffic)
{
    CommMatrix m = CommMatrix::fromTrace(tr);
    EXPECT_EQ(m.numNodes(), 2u);
    EXPECT_EQ(m.bytes(0, 0), 100u);
    EXPECT_EQ(m.bytes(0, 1), 300u);
    EXPECT_EQ(m.bytes(1, 0), 0u);
    EXPECT_EQ(m.totalBytes(), 400u); // The steal carries no bytes.
    EXPECT_DOUBLE_EQ(m.diagonalFraction(), 0.25);
    EXPECT_DOUBLE_EQ(m.fraction(0, 1), 0.75);
    EXPECT_EQ(m.maxBytes(), 300u);
}

TEST_F(TraceStatsTest, CommMatrixIntervalRestriction)
{
    CommMatrix m = CommMatrix::fromTrace(tr, {0, 15});
    EXPECT_EQ(m.totalBytes(), 100u);
    EXPECT_DOUBLE_EQ(m.diagonalFraction(), 1.0);
}

TEST_F(TraceStatsTest, CommMatrixAscii)
{
    CommMatrix m = CommMatrix::fromTrace(tr);
    std::string art = m.toAscii();
    // Two rows ending in newlines; the largest cell renders '#'.
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
    EXPECT_NE(art.find('#'), std::string::npos);
}

TEST_F(TraceStatsTest, ExportTsvFormat)
{
    std::vector<metrics::TaskCounterIncrease> rows;
    rows.push_back({7, 0xa, 2, 1000, 50});
    std::ostringstream os;
    exportTaskCounterTsv(rows, os);
    std::string text = os.str();
    EXPECT_NE(text.find("task\ttype\tcpu"), std::string::npos);
    EXPECT_NE(text.find("7\t10\t2\t1000\t50\t50"), std::string::npos);
}

TEST_F(TraceStatsTest, HistogramOfTaskDurationsWithFilter)
{
    session::Session session = session::Session::view(tr);
    Histogram h = session.histogram(4);
    EXPECT_EQ(h.total(), 2u);
    filter::FilterSet longer;
    longer.add(std::make_shared<filter::DurationFilter>(90, 1000));
    session.setFilters(longer);
    Histogram h2 = session.histogram(4);
    EXPECT_EQ(h2.total(), 1u);
}

} // namespace
} // namespace stats
} // namespace aftermath
