/** @file End-to-end integration: simulate -> file -> analyze -> render. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "aftermath.h"

namespace aftermath {
namespace {

/** Small seidel on a small machine, round-tripped through the format. */
class SeidelEndToEnd : public ::testing::Test
{
  protected:
    static trace::Trace traceFromDisk_;
    static TimeStamp makespan_;

    static void
    SetUpTestSuite()
    {
        workloads::SeidelParams params;
        params.blocksX = 8;
        params.blocksY = 8;
        params.blockDim = 32;
        params.iterations = 6;
        params.numaOptimized = false;
        runtime::TaskSet set = workloads::buildSeidel(params);

        runtime::RuntimeConfig config;
        config.machine = machine::MachineSpec::small(4, 4);
        config.seed = 3;
        // Bench-like proportions: faults make inits much longer than
        // computes without dominating the total execution.
        config.cost.pageFaultCycles = 30'000;
        runtime::RunResult result = runtime::RuntimeSystem(config).run(set);
        ASSERT_TRUE(result.ok) << result.error;
        makespan_ = result.makespan;

        // Round-trip through the compact on-disk format.
        auto bytes = trace::writeTrace(result.trace,
                                       trace::Encoding::Compact);
        trace::ReadResult loaded = trace::readTrace(bytes);
        ASSERT_TRUE(loaded.ok) << loaded.error;
        traceFromDisk_ = std::move(loaded.trace);
    }
};

trace::Trace SeidelEndToEnd::traceFromDisk_;
TimeStamp SeidelEndToEnd::makespan_;

TEST_F(SeidelEndToEnd, TraceSurvivesRoundTrip)
{
    EXPECT_EQ(traceFromDisk_.span().end, makespan_);
    EXPECT_EQ(traceFromDisk_.taskInstances().size(), 64u + 64u * 6u);
    EXPECT_EQ(traceFromDisk_.memRegions().size(), 64u * 7u);
}

TEST_F(SeidelEndToEnd, GraphPhasesMatchWavefrontShape)
{
    graph::TaskGraph g = graph::TaskGraph::reconstruct(traceFromDisk_);
    graph::DepthAnalysis d = graph::computeDepths(g);
    ASSERT_TRUE(d.acyclic);
    // depth(t, i, j) = i + j + 1 + 2 (t - 1); max at (7, 7, 6).
    EXPECT_EQ(d.maxDepth, 7u + 7u + 1u + 2u * 5u);
    EXPECT_EQ(d.parallelismByDepth[0], 64u); // All init tasks.
    EXPECT_EQ(d.parallelismByDepth[1], 1u);  // The drop to one task.
    graph::ParallelismPhases phases =
        graph::classifyPhases(d.parallelismByDepth);
    EXPECT_TRUE(phases.valid);
}

TEST_F(SeidelEndToEnd, IdleWorkersPeakDuringDrop)
{
    metrics::DerivedCounter idle = metrics::stateOccupancy(
        traceFromDisk_,
        static_cast<std::uint32_t>(trace::CoreState::Idle), 100);
    // The parallelism drop forces more than half the 16 workers idle at
    // some point (the paper's Fig 3 criterion).
    EXPECT_GT(idle.maxValue(), 8.0);
}

TEST_F(SeidelEndToEnd, InitTasksDominateDuration)
{
    // Average duration of init tasks exceeds compute tasks by a large
    // factor (first-touch page faults; the Fig 7/8 effect).
    double init_sum = 0, compute_sum = 0;
    std::uint64_t init_n = 0, compute_n = 0;
    for (const trace::TaskInstance &inst :
         traceFromDisk_.taskInstances()) {
        if (inst.type == workloads::kSeidelInitType) {
            init_sum += static_cast<double>(inst.duration());
            init_n++;
        } else {
            compute_sum += static_cast<double>(inst.duration());
            compute_n++;
        }
    }
    double init_avg = init_sum / static_cast<double>(init_n);
    double compute_avg = compute_sum / static_cast<double>(compute_n);
    EXPECT_GT(init_avg, 3.0 * compute_avg);
}

TEST_F(SeidelEndToEnd, SystemTimeGrowsOnlyDuringInit)
{
    // The Fig 10 criterion: the aggregated system-time counter stops
    // growing after initialization completes.
    metrics::DerivedCounter sys = metrics::aggregateCounter(
        traceFromDisk_,
        static_cast<CounterId>(trace::CoreCounter::SystemTimeUs), 20);
    ASSERT_GE(sys.samples.size(), 10u);
    double early = sys.samples[11].value; // After ~60% of the run.
    double late = sys.samples.back().value;
    EXPECT_GT(early, 0.0);
    // The bulk of the kernel time accrues during initialization: little
    // growth in the last 40% of the execution.
    EXPECT_LT(late - early, 0.15 * late + 1e-9);

    metrics::DerivedCounter rss = metrics::aggregateCounter(
        traceFromDisk_,
        static_cast<CounterId>(trace::CoreCounter::ResidentKb), 20);
    EXPECT_LT(rss.samples.back().value - rss.samples[11].value,
              0.15 * rss.samples.back().value + 1e-9);
}

TEST_F(SeidelEndToEnd, AllTimelineModesRenderNonTrivially)
{
    for (render::TimelineMode mode :
         {render::TimelineMode::State, render::TimelineMode::Heatmap,
          render::TimelineMode::TypeMap, render::TimelineMode::NumaRead,
          render::TimelineMode::NumaWrite,
          render::TimelineMode::NumaHeatmap}) {
        render::Framebuffer fb(160, 64);
        render::TimelineRenderer renderer(traceFromDisk_);
        render::TimelineConfig config;
        config.mode = mode;
        renderer.render(config, fb);
        std::uint64_t background = fb.countPixels(render::kBackground) +
            fb.countPixels(render::kBackgroundAlt);
        EXPECT_LT(background, 160u * 64u)
            << "mode " << static_cast<int>(mode) << " drew nothing";
        EXPECT_GT(renderer.stats().rectOps, 0u);
    }
}

TEST_F(SeidelEndToEnd, CommMatrixAccountsDataTraffic)
{
    stats::CommMatrix m = stats::CommMatrix::fromTrace(traceFromDisk_);
    EXPECT_GT(m.totalBytes(), 0u);
    double diag = m.diagonalFraction();
    // Random stealing + scattered first touch: locality far from 1.
    EXPECT_LT(diag, 0.6);
}

TEST_F(SeidelEndToEnd, CounterIndexConsistentWithOverlayScale)
{
    const auto &samples = traceFromDisk_.cpu(0).counterSamples(
        static_cast<CounterId>(trace::CoreCounter::CacheMisses));
    ASSERT_FALSE(samples.empty());
    index::CounterIndex index(samples);
    index::MinMax mm = index.query(traceFromDisk_.span());
    ASSERT_TRUE(mm.valid);
    EXPECT_EQ(mm.min, samples.front().value); // Monotone counter.
    EXPECT_EQ(mm.max, samples.back().value);
}

/** k-means end-to-end: histogram modes and correlation (Fig 16/19). */
class KmeansEndToEnd : public ::testing::Test
{
  protected:
    static trace::Trace trace_;

    static void
    SetUpTestSuite()
    {
        workloads::KmeansParams params;
        params.numPoints = 160'000;
        params.pointsPerBlock = 10'000;
        params.iterations = 6;
        params.seed = 11;
        runtime::TaskSet set = workloads::buildKmeans(params);

        runtime::RuntimeConfig config;
        config.machine = machine::MachineSpec::small(2, 8);
        config.seed = 7;
        config.cost.mispredictPenaltyCycles = 60;
        config.cost.durationNoise = 0.05;
        runtime::RunResult result = runtime::RuntimeSystem(config).run(set);
        ASSERT_TRUE(result.ok) << result.error;
        trace_ = std::move(result.trace);
    }
};

trace::Trace KmeansEndToEnd::trace_;

TEST_F(KmeansEndToEnd, DurationCorrelatesWithMispredictions)
{
    filter::FilterSet f;
    f.add(std::make_shared<filter::TaskTypeFilter>(
        std::unordered_set<TaskTypeId>{workloads::kKmeansDistanceType}));
    auto rows = Session::view(trace_).taskCounterIncreasesMatching(
        static_cast<CounterId>(trace::CoreCounter::BranchMispredictions),
        f);
    ASSERT_GT(rows.size(), 50u);

    std::vector<double> xs, ys;
    for (const auto &row : rows) {
        xs.push_back(row.ratePerKcycle());
        ys.push_back(static_cast<double>(row.duration));
    }
    stats::Regression r = stats::linearRegression(xs, ys);
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.slope, 0.0);
    EXPECT_GT(r.r2, 0.5) << "expected a strong correlation (paper: 0.83)";
}

TEST_F(KmeansEndToEnd, ComputeDurationHistogramIsSpread)
{
    filter::FilterSet f;
    f.add(std::make_shared<filter::TaskTypeFilter>(
        std::unordered_set<TaskTypeId>{workloads::kKmeansDistanceType}));
    Session session = Session::view(trace_);
    session.setFilters(f);
    stats::Histogram h = session.histogram(20);
    EXPECT_GT(h.total(), 50u);
    // Non-uniform durations: range spans at least 1.3x.
    EXPECT_GT(h.rangeMax(), 1.3 * h.rangeMin());
    // Occupied bins spread beyond a single spike.
    int occupied = 0;
    for (std::uint32_t i = 0; i < h.numBins(); i++)
        occupied += h.count(i) > 0;
    EXPECT_GE(occupied, 5);
}

TEST_F(KmeansEndToEnd, AuxStatesPresent)
{
    stats::IntervalStats s =
        Session::view(trace_).intervalStats(trace_.span());
    EXPECT_GT(s.timeInState[static_cast<std::uint32_t>(
        trace::CoreState::Reduction)], 0u);
    EXPECT_GT(s.timeInState[static_cast<std::uint32_t>(
        trace::CoreState::Broadcast)], 0u);
    EXPECT_GT(s.timeInState[static_cast<std::uint32_t>(
        trace::CoreState::TaskCreation)], 0u);
}

TEST_F(KmeansEndToEnd, ExportedTsvMatchesRowCount)
{
    filter::FilterSet all;
    auto rows = Session::view(trace_).taskCounterIncreasesMatching(
        static_cast<CounterId>(trace::CoreCounter::BranchMispredictions),
        all);
    std::string path = ::testing::TempDir() + "/aftermath_export.tsv";
    std::string error;
    ASSERT_TRUE(stats::exportTaskCounterTsvFile(rows, path, error))
        << error;
    std::ifstream is(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line))
        lines++;
    EXPECT_EQ(lines, rows.size() + 1); // Header + one per task.
    std::remove(path.c_str());
}

} // namespace
} // namespace aftermath
