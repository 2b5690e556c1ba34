/**
 * @file
 * Tests of the parallel session engine: the thread pool, concurrent
 * index warm-up (bit-identical to serial), warm-up idempotence, and
 * SessionGroup's delta queries and shared-framebuffer rendering. Built
 * with TSan in CI to keep the concurrency race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/buffer.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "render/color.h"
#include "render/framebuffer.h"
#include "session/compare.h"
#include "session/counter_index_cache.h"
#include "session/session.h"
#include "session/session_group.h"
#include "stats/export.h"
#include "stats/regression.h"
#include "trace/state.h"
#include "trace_builder.h"

namespace aftermath {
namespace session {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/** The shared counter-heavy fixture (see tests/trace_builder.h). */
trace::Trace
denseTrace(std::uint32_t cpus = 8, std::uint32_t counters = 3,
           int samples = 2'000, std::int64_t scale = 1)
{
    test_support::DenseTraceOptions options;
    options.cpus = cpus;
    options.counters = counters;
    options.samples = samples;
    options.scale = scale;
    return test_support::buildDenseTrace(options);
}

/** Wire bytes of interval statistics: bit-for-bit comparison. */
std::vector<std::uint8_t>
bytesOf(const stats::IntervalStats &s)
{
    ByteWriter w;
    stats::encodeIntervalStats(s, w);
    return w.take();
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    base::ThreadPool pool(4);
    EXPECT_EQ(pool.numWorkers(), 4u);
    std::vector<std::atomic<int>> touched(1000);
    pool.parallelFor(touched.size(), [&](std::size_t i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < touched.size(); i++)
        ASSERT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForDegenerateSizes)
{
    base::ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
    int calls = 0;
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        calls++;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SubmitAndWaitDrainsQueue)
{
    base::ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; i++)
        pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
    pool.wait();
    EXPECT_EQ(done.load(), 64);
    // Destruction after wait() must also be clean with queued work.
    for (int i = 0; i < 16; i++)
        pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
}

TEST(CounterIndexCache, ConcurrentGetsBuildEachIndexOnce)
{
    trace::Trace tr = denseTrace(4, 2, 500);
    CounterIndexCache cache(tr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; t++) {
        threads.emplace_back([&] {
            for (CpuId c = 0; c < tr.numCpus(); c++) {
                for (CounterId id = 0; id < 2; id++) {
                    index::MinMax mm = cache.query(c, id, {10, 900});
                    EXPECT_TRUE(mm.valid);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.builds, 8u); // 4 cpus x 2 counters, built once.
    EXPECT_EQ(counters.total(), 8u * 8u);
    EXPECT_EQ(cache.size(), 8u);
}

TEST(SessionParallel, ParallelWarmupBitIdenticalToSerial)
{
    trace::Trace tr = denseTrace();
    Session serial = Session::view(tr);
    Session parallel = Session::view(tr);
    parallel.setConcurrency({4});

    Session::WarmupStats serial_stats = serial.warmup();
    Session::WarmupStats parallel_stats = parallel.warmup();
    EXPECT_EQ(serial_stats.workers, 1u);
    EXPECT_EQ(parallel_stats.workers, 4u);
    EXPECT_EQ(serial_stats.indexesVisited, 8u * 3u);
    EXPECT_EQ(parallel_stats.indexesVisited, 8u * 3u);
    EXPECT_EQ(serial_stats.indexesBuilt, parallel_stats.indexesBuilt);
    EXPECT_EQ(serial.cacheStats().counterIndex.builds,
              parallel.cacheStats().counterIndex.builds);

    // Extrema agree exactly on random probes for every (cpu, counter).
    Rng rng(7);
    TimeStamp max_t = tr.span().end;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (CounterId id = 0; id < 3; id++) {
            for (int trial = 0; trial < 20; trial++) {
                TimeStamp a = rng.nextBounded(max_t);
                TimeInterval iv{a, a + 1 + rng.nextBounded(max_t / 2)};
                index::MinMax expect = serial.counterExtrema(c, id, iv);
                index::MinMax got = parallel.counterExtrema(c, id, iv);
                ASSERT_EQ(got.valid, expect.valid);
                if (expect.valid) {
                    ASSERT_EQ(got.min, expect.min);
                    ASSERT_EQ(got.max, expect.max);
                }
            }
        }
    }
}

TEST(SessionParallel, RepeatedWarmupIsIncrementallySkipped)
{
    trace::Trace tr = denseTrace(4, 2, 300);
    Session session = Session::view(tr);
    session.setConcurrency({3});
    Session::WarmupStats initial = session.warmup();
    EXPECT_EQ(initial.indexesVisited, 4u * 2u);
    EXPECT_EQ(initial.indexesSkipped, 0u);
    SessionCacheStats first = session.cacheStats();
    EXPECT_EQ(first.counterIndex.builds, 4u * 2u);
    // Warm-up leaves interval statistics to the query: the answer
    // equals a cold session's.
    const auto span_stats = bytesOf(Session::view(tr).intervalStats());
    EXPECT_EQ(bytesOf(session.intervalStats()), span_stats);

    for (int i = 0; i < 3; i++) {
        // Incremental re-warm-up: built pairs are skipped outright
        // (no counted index-cache lookup).
        Session::WarmupStats repeat = session.warmup();
        EXPECT_EQ(repeat.indexesVisited, 0u);
        EXPECT_EQ(repeat.indexesSkipped, 4u * 2u);
        EXPECT_EQ(repeat.indexesBuilt, 0u);
    }
    SessionCacheStats later = session.cacheStats();
    EXPECT_EQ(later.counterIndex.builds, first.counterIndex.builds);
    EXPECT_EQ(later.counterIndex.hits, first.counterIndex.hits);
    EXPECT_EQ(bytesOf(session.intervalStats()), span_stats);

    // A view change re-warms nothing: no index revisits, and the new
    // view's statistics equal a cold session's.
    session.setView({0, 120});
    Session::WarmupStats after_zoom = session.warmup();
    EXPECT_EQ(after_zoom.indexesVisited, 0u);
    EXPECT_EQ(after_zoom.indexesSkipped, 4u * 2u);
    EXPECT_EQ(bytesOf(session.intervalStats()),
              bytesOf(Session::view(tr).intervalStats({0, 120})));
    EXPECT_EQ(session.cacheStats().counterIndex.builds,
              first.counterIndex.builds);
}

TEST(SessionParallel, WarmupSkipsIndexesAQueryAlreadyBuilt)
{
    trace::Trace tr = denseTrace(4, 2, 300);
    Session session = Session::view(tr);
    // The index cache is the one record of what is built: indexes a
    // query built are skipped like those of an earlier warm-up.
    session.counterExtrema(0, 0, tr.span());
    session.counterExtrema(2, 1, tr.span());
    Session::WarmupStats stats = session.warmup();
    EXPECT_EQ(stats.indexesSkipped, 2u);
    EXPECT_EQ(stats.indexesVisited, 4u * 2u - 2u);
    EXPECT_EQ(stats.indexesBuilt, 4u * 2u - 2u);
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 4u * 2u);
}

TEST(SessionParallel, WarmupPolicyRestrictsCounters)
{
    trace::Trace tr = denseTrace(4, 3, 200);
    Session session = Session::view(tr);
    Session::WarmupPolicy policy;
    policy.counters = {1};
    policy.intervalStats = false;
    policy.taskList = false;
    Session::WarmupStats stats = session.warmup(policy);
    EXPECT_EQ(stats.indexesVisited, 4u);
    EXPECT_EQ(stats.indexesBuilt, 4u);
    EXPECT_EQ(session.cacheStats().intervalStats.total(), 0u);
}

TEST(SessionParallel, WarmupRestrictionWithDuplicatesAndUnsampledIds)
{
    trace::Trace tr = denseTrace(4, 3, 200);
    Session session = Session::view(tr);
    Session::WarmupPolicy policy;
    // Counters 0 and 2 named twice or more, 77 and 999 never sampled.
    policy.counters = {2, 999, 2, 0, 77, 0, 2};
    Session::WarmupStats stats = session.warmup(policy);
    EXPECT_EQ(stats.indexesVisited, 4u * 2u);
    EXPECT_EQ(stats.indexesBuilt, 4u * 2u);
    const CounterIndexCache &cache = *session.sharedCaches().counterIndexes;
    EXPECT_EQ(cache.size(), 4u * 2u);
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        EXPECT_TRUE(cache.contains(c, 0)) << c;
        EXPECT_FALSE(cache.contains(c, 1)) << c;
        EXPECT_TRUE(cache.contains(c, 2)) << c;
    }
}

TEST(SessionParallel, HardwareDefaultWorkersWarmsUp)
{
    trace::Trace tr = denseTrace(4, 2, 200);
    Session session = Session::view(tr);
    session.setConcurrency({0}); // 0 = one worker per hardware thread.
    Session::WarmupStats stats = session.warmup();
    EXPECT_EQ(stats.indexesVisited, 8u);
    EXPECT_GE(stats.workers, 1u);
}

/** Two variants whose counter values and task lengths differ. */
class SessionGroupTest : public ::testing::Test
{
  protected:
    trace::Trace base_ = denseTrace(4, 2, 400, 1);
    trace::Trace variant_ = denseTrace(4, 2, 400, 3);
    SessionGroup group_;

    void
    SetUp() override
    {
        group_.add("base", Session::view(base_));
        group_.add("variant", Session::view(variant_));
    }
};

TEST_F(SessionGroupTest, AlignedStateFansOut)
{
    filter::FilterSet f;
    f.add(std::make_shared<filter::DurationFilter>(150, kTimeMax));
    group_.setFilters(f);
    group_.setView({0, 100});
    for (std::size_t i = 0; i < group_.size(); i++) {
        EXPECT_EQ(group_.session(i).filters().size(), 1u);
        EXPECT_EQ(group_.session(i).view(), TimeInterval(0, 100));
    }
    group_.clearFilters();
    EXPECT_EQ(group_.session(0).filters().size(), 0u);
    EXPECT_EQ(group_.label(0), "base");
    EXPECT_EQ(group_.label(1), "variant");
}

TEST_F(SessionGroupTest, IntervalStatsDeltaMatchesHandComputation)
{
    group_.setView({0, 200});
    compare::IntervalStatsDelta delta = group_.intervalStatsDelta(0, 1);

    Session a = Session::view(base_);
    Session b = Session::view(variant_);
    const stats::IntervalStats &sa = a.intervalStats({0, 200});
    const stats::IntervalStats &sb = b.intervalStats({0, 200});
    for (const auto &[state, d] : delta.timeInState) {
        std::int64_t expect =
            static_cast<std::int64_t>(
                sb.timeInState.count(state) ? sb.timeInState.at(state)
                                            : 0) -
            static_cast<std::int64_t>(
                sa.timeInState.count(state) ? sa.timeInState.at(state)
                                            : 0);
        EXPECT_EQ(d, expect) << "state " << state;
    }
    EXPECT_EQ(delta.tasksOverlapping,
              static_cast<std::int64_t>(sb.tasksOverlapping) -
                  static_cast<std::int64_t>(sa.tasksOverlapping));
    EXPECT_EQ(delta.tasksStarted,
              static_cast<std::int64_t>(sb.tasksStarted) -
                  static_cast<std::int64_t>(sa.tasksStarted));
    ASSERT_GT(sb.totalTime(), 0u);
    EXPECT_DOUBLE_EQ(delta.totalTimeRatio,
                     static_cast<double>(sa.totalTime()) /
                         static_cast<double>(sb.totalTime()));
    EXPECT_EQ(delta.intervalA, TimeInterval(0, 200));
    EXPECT_EQ(delta.intervalB, TimeInterval(0, 200));
}

TEST_F(SessionGroupTest, PairedHistogramsShareOneBinGrid)
{
    compare::PairedHistograms paired = group_.pairedHistograms(8);
    ASSERT_EQ(paired.variants.size(), 2u);
    EXPECT_EQ(paired.variants[0].numBins(), 8u);
    EXPECT_EQ(paired.variants[0].rangeMin(),
              paired.variants[1].rangeMin());
    EXPECT_EQ(paired.variants[0].rangeMax(),
              paired.variants[1].rangeMax());
    EXPECT_EQ(paired.variants[0].rangeMin(), paired.rangeMin);
    EXPECT_EQ(paired.variants[0].rangeMax(), paired.rangeMax);

    // Equals hand-built histograms over the shared range.
    for (std::size_t v = 0; v < 2; v++) {
        std::vector<double> durations;
        for (const trace::TaskInstance *task :
             group_.session(v).tasks())
            durations.push_back(static_cast<double>(task->duration()));
        stats::Histogram expect = stats::Histogram::fromValues(
            durations, 8, paired.rangeMin, paired.rangeMax);
        for (std::uint32_t bin = 0; bin < 8; bin++)
            EXPECT_EQ(paired.variants[v].count(bin), expect.count(bin))
                << "variant " << v << " bin " << bin;
    }

    // countDelta is the signed per-bin difference.
    for (std::uint32_t bin = 0; bin < 8; bin++) {
        EXPECT_EQ(paired.countDelta(0, 1, bin),
                  static_cast<std::int64_t>(
                      paired.variants[1].count(bin)) -
                      static_cast<std::int64_t>(
                          paired.variants[0].count(bin)));
    }
}

TEST_F(SessionGroupTest, RegressionRowsMatchPerSessionComputation)
{
    std::vector<compare::RegressionRow> rows = group_.regressionRows(0);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].label, "base");
    EXPECT_EQ(rows[1].label, "variant");

    for (std::size_t v = 0; v < 2; v++) {
        auto increases = group_.session(v).taskCounterIncreases(0);
        ASSERT_EQ(rows[v].tasks, increases.size());
        std::vector<double> rates, durations;
        for (const auto &inc : increases) {
            rates.push_back(inc.ratePerKcycle());
            durations.push_back(static_cast<double>(inc.duration));
        }
        EXPECT_DOUBLE_EQ(rows[v].meanDuration, stats::mean(durations));
        EXPECT_DOUBLE_EQ(rows[v].stddevDuration,
                         stats::stddev(durations));
        stats::Regression expect =
            stats::linearRegression(rates, durations);
        EXPECT_EQ(rows[v].fit.valid, expect.valid);
        EXPECT_DOUBLE_EQ(rows[v].fit.slope, expect.slope);
        EXPECT_DOUBLE_EQ(rows[v].fit.r2, expect.r2);
    }
}

TEST_F(SessionGroupTest, SideBySideBandsEqualPerSessionRenders)
{
    render::TimelineConfig config;
    render::Framebuffer fb(96, 32);
    group_.renderSideBySide(config, fb);

    for (std::size_t v = 0; v < 2; v++) {
        render::Framebuffer band(96, 16);
        Session solo = Session::view(v == 0 ? base_ : variant_);
        solo.render(config, band);
        for (std::uint32_t y = 0; y < 16; y += 3) {
            for (std::uint32_t x = 0; x < 96; x += 5) {
                ASSERT_EQ(fb.pixel(x, v * 16 + y), band.pixel(x, y))
                    << "variant " << v << " pixel (" << x << ", " << y
                    << ")";
            }
        }
    }
}

TEST_F(SessionGroupTest, DiffHighlightsOnlyDifferingPixels)
{
    render::TimelineConfig config;

    // Identical variants: no highlight anywhere, gray context only.
    SessionGroup same;
    same.add("a", Session::view(base_));
    same.add("b", Session::view(base_));
    render::Framebuffer same_fb(64, 24);
    same.renderDiff(0, 1, config, same_fb);
    EXPECT_EQ(same_fb.countPixels(SessionGroup::kDiffHighlight), 0u);

    // Differing variants (different task lengths): some highlight, and
    // every non-highlight pixel is gray (r == g == b).
    render::Framebuffer diff_fb(64, 24);
    group_.renderDiff(0, 1, config, diff_fb);
    EXPECT_GT(diff_fb.countPixels(SessionGroup::kDiffHighlight), 0u);
    for (std::uint32_t y = 0; y < diff_fb.height(); y++) {
        for (std::uint32_t x = 0; x < diff_fb.width(); x++) {
            render::Rgba p = diff_fb.pixel(x, y);
            if (!(p == SessionGroup::kDiffHighlight)) {
                ASSERT_EQ(p.r, p.g);
                ASSERT_EQ(p.g, p.b);
            }
        }
    }
}

TEST_F(SessionGroupTest, GroupWarmupWarmsEveryVariant)
{
    group_.setConcurrency({2});
    std::vector<Session::WarmupStats> stats = group_.warmup();
    ASSERT_EQ(stats.size(), 2u);
    for (const Session::WarmupStats &s : stats) {
        EXPECT_EQ(s.indexesVisited, 4u * 2u);
        EXPECT_EQ(s.workers, 2u);
    }
    for (std::size_t i = 0; i < group_.size(); i++)
        EXPECT_EQ(group_.session(i).cacheStats().counterIndex.builds,
                  8u);
}

} // namespace
} // namespace session
} // namespace aftermath
