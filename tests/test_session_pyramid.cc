/**
 * @file
 * Property tests of the resolution-aware query plane: pyramid answers
 * are bit-identical to the exact scan over the snapped interval,
 * snapping stays within the requested budget, Resolution::Exact is
 * bit-identical at every worker count, the trace-global task index
 * answers as the scan does over any interval (hostile wrapped task
 * intervals and a span ending at 2^64 - 1 included),
 * sessions share one index store, and a trace read back with
 * readTrace answers through a session opened over it. Built with TSan
 * and ASan+UBSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "base/resolution.h"
#include "base/rng.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "index/trace_index.h"
#include "session/query.h"
#include "session/session.h"
#include "stats/interval_stats.h"
#include "trace_builder.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace aftermath {
namespace session {
namespace {

using test_support::buildRandomTrace;
using test_support::naiveOccupancy;
using test_support::naiveOccupancyOver;
using test_support::RandomTraceOptions;
using test_support::withTasks;

/** The serial exact interval scan, as ground truth. */
stats::IntervalStats
serialIntervalStats(const trace::Trace &tr, const TimeInterval &interval)
{
    stats::IntervalStats out;
    out.interval = interval;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        const auto &states = tr.cpu(c).states();
        trace::SliceRange slice = tr.cpu(c).stateSlice(interval);
        for (std::size_t i = slice.first; i < slice.last; i++)
            out.timeInState[states[i].state] +=
                states[i].interval.overlapDuration(interval);
    }
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        if (task.interval.overlaps(interval))
            out.tasksOverlapping++;
        if (interval.contains(task.interval.start))
            out.tasksStarted++;
    }
    return out;
}

/**
 * Equality of the aggregate payload. The exact state scan records
 * zero-duration entries for states merely touched by the interval;
 * the pyramid path does not, so zero entries are dropped on both
 * sides before comparing (the documented caveat of the pyramid path).
 */
void
expectSameAggregates(const stats::IntervalStats &a,
                     const stats::IntervalStats &b)
{
    std::map<std::uint32_t, TimeStamp> nza, nzb;
    for (const auto &[state, t] : a.timeInState)
        if (t != 0)
            nza[state] = t;
    for (const auto &[state, t] : b.timeInState)
        if (t != 0)
            nzb[state] = t;
    EXPECT_EQ(nza, nzb);
    EXPECT_EQ(a.tasksStarted, b.tasksStarted);
    EXPECT_EQ(a.tasksOverlapping, b.tasksOverlapping);
}

/** A random subinterval of @p span (possibly small, never empty). */
TimeInterval
randomInterval(Rng &rng, const TimeInterval &span)
{
    TimeStamp len = span.duration();
    TimeStamp start = span.start + rng.nextBounded(len);
    TimeStamp end = start + 1 + rng.nextBounded(len - (start - span.start));
    return {start, end};
}

/**
 * The task-index answers over [a, b) by the scan's definitions, from
 * the raw task array: #{start in [a, b)}, #{task overlaps [a, b)}, and
 * the tasks starting in [a, b) in trace order.
 */
struct NaiveTaskIndex
{
    std::uint64_t started = 0;
    std::uint64_t overlapping = 0;
    std::vector<const trace::TaskInstance *> startingIn;
    std::vector<const trace::TaskInstance *> overlappingTasks;
};

NaiveTaskIndex
naiveTaskIndex(const trace::Trace &tr, const TimeInterval &interval)
{
    NaiveTaskIndex out;
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        if (interval.contains(task.interval.start)) {
            out.started++;
            out.startingIn.push_back(&task);
        }
        if (task.interval.overlaps(interval)) {
            out.overlapping++;
            out.overlappingTasks.push_back(&task);
        }
    }
    return out;
}

/**
 * Intervals over @p pyramids' domain: every ordered pair, inverted
 * ones included, of a set of instants holding the domain's edges, its
 * first and last leaves, its middle and random leaf boundaries, points
 * one off a boundary and inside a leaf, and points past the domain end
 * up to the last timestamp. So empty, inverted, single-leaf, unaligned,
 * past-domain and whole-domain intervals are all in.
 */
std::vector<TimeInterval>
intervalGrid(const index::TraceIndex &pyramids, Rng &rng)
{
    const std::uint64_t leaves = pyramids.leafCount();
    const TimeStamp g0 = pyramids.leafGranularity();
    const TimeStamp dom = pyramids.domainEnd();
    std::vector<TimeStamp> points;
    for (std::uint64_t leaf : std::vector<std::uint64_t>{
             0, 1, leaves / 3, leaves / 2, leaves - 1, leaves})
        points.push_back(leaf * g0);
    for (int i = 0; i < 8; i++)
        points.push_back(rng.nextBounded(leaves + 1) * g0);
    for (int i = 0; i < 8; i++) {
        const TimeStamp at = rng.nextBounded(leaves) * g0;
        points.push_back(at + 1);
        points.push_back(at + rng.nextBounded(g0));
        if (at > 0)
            points.push_back(at - 1);
    }
    for (TimeStamp past : {dom + 1, dom + g0 + 3, ~TimeStamp{0}})
        if (past > dom)
            points.push_back(past);
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    std::vector<TimeInterval> out;
    for (TimeStamp a : points)
        for (TimeStamp b : points)
            out.push_back({a, b});
    return out;
}

/**
 * Every task-index answer of @p pyramids over every interval of
 * @p grid equals naiveTaskIndex() over @p tr, and its start range is
 * the start leaves meeting the interval: exactly the tasks starting in
 * it once filtered by contains(), and nothing more when the interval is
 * leaf-aligned inside the domain. Its overlap range holds every task
 * that overlaps the interval.
 */
void
expectTaskIndexMatchesNaive(const trace::Trace &tr,
                            const index::TraceIndex &pyramids,
                            const std::vector<TimeInterval> &grid)
{
    const auto &by_start = pyramids.tasksByStart();
    const TimeStamp g0 = pyramids.leafGranularity();
    for (const TimeInterval &iv : grid) {
        NaiveTaskIndex expect = naiveTaskIndex(tr, iv);
        EXPECT_EQ(pyramids.tasksStartedIn(iv), expect.started)
            << "[" << iv.start << ", " << iv.end << ")";
        EXPECT_EQ(pyramids.tasksOverlapping(iv), expect.overlapping)
            << "[" << iv.start << ", " << iv.end << ")";
        auto [first, last] = pyramids.taskStartRange(iv);
        ASSERT_LE(first, last);
        ASSERT_LE(last, by_start.size());
        std::vector<const trace::TaskInstance *> got;
        for (std::size_t i = first; i < last; i++)
            if (iv.contains(by_start[i]->interval.start))
                got.push_back(by_start[i]);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expect.startingIn)
            << "[" << iv.start << ", " << iv.end << ")";
        if (iv.start % g0 == 0 && iv.end % g0 == 0 &&
            iv.end <= pyramids.domainEnd()) {
            EXPECT_EQ(last - first, got.size())
                << "[" << iv.start << ", " << iv.end << ")";
        }

        auto [near_first, near_last] = pyramids.taskOverlapRange(iv);
        ASSERT_LE(near_first, near_last);
        ASSERT_LE(near_last, by_start.size());
        std::vector<const trace::TaskInstance *> overlapping;
        for (std::size_t i = near_first; i < near_last; i++)
            if (by_start[i]->interval.overlaps(iv))
                overlapping.push_back(by_start[i]);
        std::sort(overlapping.begin(), overlapping.end());
        EXPECT_EQ(overlapping, expect.overlappingTasks)
            << "[" << iv.start << ", " << iv.end << ")";
    }
    TimeStamp longest = 0;
    for (const trace::TaskInstance &task : tr.taskInstances())
        longest = std::max(longest, task.duration());
    EXPECT_EQ(pyramids.maxTaskDuration(), longest);
}

/**
 * tasksByStart() holds every task once, in start-leaf order (starts
 * past the domain last) and in trace order within a leaf.
 */
void
expectTasksBucketedByStartLeaf(const trace::Trace &tr,
                               const index::TraceIndex &pyramids)
{
    const auto &by_start = pyramids.tasksByStart();
    ASSERT_EQ(by_start.size(), tr.taskInstances().size());
    auto leaf_of = [&](const trace::TaskInstance *task) {
        return std::min(task->interval.start / pyramids.leafGranularity(),
                        pyramids.leafCount());
    };
    for (std::size_t i = 1; i < by_start.size(); i++) {
        const std::uint64_t prev = leaf_of(by_start[i - 1]);
        const std::uint64_t cur = leaf_of(by_start[i]);
        ASSERT_LE(prev, cur) << i;
        if (prev == cur) {
            ASSERT_LT(by_start[i - 1], by_start[i]) << i;
        }
    }
}

TEST(SummaryPyramid, BudgetAnswersEqualExactScanOfSnappedInterval)
{
    for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        RandomTraceOptions opts;
        opts.cpus = 5;
        opts.statesPerCpu = 400;
        trace::Trace tr = buildRandomTrace(seed, opts);
        Session session = Session::view(tr);
        const TimeInterval span = tr.span();

        Rng rng(seed * 31 + 1);
        for (int trial = 0; trial < 25; trial++) {
            TimeInterval interval = randomInterval(rng, span);
            std::uint64_t budget = 1 + rng.nextBounded(span.duration());
            Resolution res = Resolution::budget(budget);

            stats::IntervalStats approx =
                session
                    .submit(IntervalStatsQuery{
                        {interval, QueryPriority::Interactive, res}})
                    .take();

            const TimeStamp g =
                session.traceIndex()->granularityFor(res, interval);
            if (g == 0) {
                // Budget finer than a leaf: exact fallback.
                EXPECT_TRUE(approx.resolution.exact);
                EXPECT_EQ(approx.resolution.granularityNs, 0u);
                EXPECT_EQ(approx.interval, interval);
                expectSameAggregates(approx,
                                     serialIntervalStats(tr, interval));
                continue;
            }

            // The snapped interval covers the request, each edge moved
            // by less than the granularity (and the granularity is
            // within the budget).
            EXPECT_LE(g, budget);
            EXPECT_LE(approx.interval.start, interval.start);
            EXPECT_GE(approx.interval.end, interval.end);
            EXPECT_LT(interval.start - approx.interval.start, g);
            EXPECT_LT(approx.interval.end - interval.end, g);
            EXPECT_EQ(approx.interval,
                      session.traceIndex()->snap(interval, g));

            // Bit-identical to the exact scan of the snapped interval.
            expectSameAggregates(
                approx, serialIntervalStats(tr, approx.interval));

            // Provenance: granularity reported, exactness iff the snap
            // was the identity.
            EXPECT_EQ(approx.resolution.granularityNs, g);
            EXPECT_EQ(approx.resolution.exact,
                      approx.interval == interval);
            EXPECT_GT(approx.resolution.nodesTouched, 0u);
        }
    }
}

TEST(SummaryPyramid, PixelsIsBudgetOfIntervalOverWidth)
{
    trace::Trace tr = buildRandomTrace(5);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    const std::uint32_t width = 64;

    stats::IntervalStats by_pixels =
        session
            .submit(IntervalStatsQuery{
                {span, QueryPriority::Interactive,
                 Resolution::pixels(width)}})
            .take();
    stats::IntervalStats by_budget =
        session
            .submit(IntervalStatsQuery{
                {span, QueryPriority::Interactive,
                 Resolution::budget(span.duration() / width)}})
            .take();
    EXPECT_EQ(by_pixels.interval, by_budget.interval);
    expectSameAggregates(by_pixels, by_budget);
    EXPECT_EQ(by_pixels.resolution.granularityNs,
              by_budget.resolution.granularityNs);

    // Width 0 is an exact request.
    stats::IntervalStats w0 =
        session
            .submit(IntervalStatsQuery{
                {span, QueryPriority::Interactive, Resolution::pixels(0)}})
            .take();
    EXPECT_TRUE(w0.resolution.exact);
    expectSameAggregates(w0, serialIntervalStats(tr, span));
}

TEST(SummaryPyramid, ExactStaysBitIdenticalAtEveryWorkerCount)
{
    trace::Trace tr = buildRandomTrace(11);
    const TimeInterval span = tr.span();
    TimeInterval interval{span.start + 13, span.end - 7};
    stats::IntervalStats expect = serialIntervalStats(tr, interval);

    for (unsigned workers : {1u, 2u, 5u}) {
        Session session = Session::view(tr);
        session.setConcurrency(workers);
        stats::IntervalStats got =
            session.submit(IntervalStatsQuery{{interval}}).take();
        EXPECT_EQ(got.timeInState, expect.timeInState) << workers;
        EXPECT_EQ(got.tasksStarted, expect.tasksStarted) << workers;
        EXPECT_EQ(got.tasksOverlapping, expect.tasksOverlapping)
            << workers;
        EXPECT_TRUE(got.resolution.exact);
        EXPECT_EQ(got.resolution.granularityNs, 0u);
    }
}

TEST(SummaryPyramid, ApproximateResultsAreNeverMemoized)
{
    trace::Trace tr = buildRandomTrace(17);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    TimeInterval interval{span.start + 3, span.end - 5};
    Resolution coarse = Resolution::budget(span.duration() / 4);

    stats::IntervalStats approx =
        session
            .submit(IntervalStatsQuery{
                {interval, QueryPriority::Interactive, coarse}})
            .take();
    ASSERT_GT(approx.resolution.granularityNs, 0u);

    // The exact query over the same interval must not be served from
    // anything the approximate pass left behind.
    stats::IntervalStats exact =
        session.submit(IntervalStatsQuery{{interval}}).take();
    EXPECT_TRUE(exact.resolution.exact);
    EXPECT_EQ(exact.interval, interval);
    expectSameAggregates(exact, serialIntervalStats(tr, interval));
}

TEST(SummaryPyramid, CounterExtremaMatchExactOverSnappedInterval)
{
    trace::Trace tr = buildRandomTrace(23);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    Rng rng(99);
    for (int trial = 0; trial < 15; trial++) {
        CpuId cpu = static_cast<CpuId>(rng.nextBounded(tr.numCpus()));
        TimeInterval interval = randomInterval(rng, span);
        Resolution res =
            Resolution::budget(1 + rng.nextBounded(span.duration()));
        index::MinMax approx =
            session
                .submit(CounterExtremaQuery{
                    {interval, QueryPriority::Interactive, res}, cpu, 0})
                .take();
        TimeStamp g = session.traceIndex()->granularityFor(res, interval);
        TimeInterval probe =
            g == 0 ? interval : session.traceIndex()->snap(interval, g);
        index::MinMax exact =
            session.submit(CounterExtremaQuery{{probe}, cpu, 0}).take();
        EXPECT_EQ(approx.valid, exact.valid);
        if (exact.valid) {
            EXPECT_EQ(approx.min, exact.min);
            EXPECT_EQ(approx.max, exact.max);
        }
    }
}

TEST(SummaryPyramid, HistogramRestrictionMatchesExactOverSnappedInterval)
{
    trace::Trace tr = buildRandomTrace(29);
    Session session = Session::view(tr);
    const TimeInterval span = tr.span();
    Rng rng(7);
    for (int trial = 0; trial < 10; trial++) {
        TimeInterval interval = randomInterval(rng, span);
        Resolution res =
            Resolution::budget(1 + rng.nextBounded(span.duration()));
        stats::Histogram approx =
            session
                .submit(HistogramQuery{
                    {interval, QueryPriority::Interactive, res}, 12})
                .take();
        TimeStamp g = session.traceIndex()->granularityFor(res, interval);
        TimeInterval probe =
            g == 0 ? interval : session.traceIndex()->snap(interval, g);
        stats::Histogram exact =
            session.submit(HistogramQuery{{probe}, 12}).take();
        ASSERT_EQ(approx.numBins(), exact.numBins());
        EXPECT_EQ(approx.rangeMin(), exact.rangeMin());
        EXPECT_EQ(approx.rangeMax(), exact.rangeMax());
        for (std::uint32_t bin = 0; bin < exact.numBins(); bin++)
            EXPECT_EQ(approx.count(bin), exact.count(bin)) << bin;
    }
}

TEST(SummaryPyramid, OccupancyMatchesNaivePerEventReference)
{
    // Leaves of about 1, 8 and 64 time units under events 0-100 long:
    // events cross leaf boundaries, and some have zero duration.
    for (std::uint64_t seed : {3ull, 11ull, 2024ull}) {
        for (int states : {40, 400, 3000}) {
            RandomTraceOptions opts;
            opts.cpus = 3;
            opts.statesPerCpu = states;
            opts.zeroDurationProbability = 0.15;
            trace::Trace tr = buildRandomTrace(seed, opts);
            index::TraceIndex pyramids(tr);
            const TimeStamp g0 = pyramids.leafGranularity();
            const std::uint64_t leaves = pyramids.leafCount();
            const TimeStamp dom = pyramids.domainEnd();
            Rng rng(seed * 17 + static_cast<std::uint64_t>(states));
            for (CpuId c = 0; c < tr.numCpus(); c++) {
                const index::SummaryPyramid &pyramid = pyramids.get(c);

                // Leaf ranges: the whole domain, an empty one at its
                // end, one running past it, and random ones.
                std::vector<std::pair<std::uint64_t, std::uint64_t>>
                    ranges = {{0, leaves},
                              {leaves, leaves},
                              {leaves / 2, leaves + 3}};
                for (int i = 0; i < 40; i++) {
                    std::uint64_t a = rng.nextBounded(leaves + 1);
                    ranges.emplace_back(
                        a, a + rng.nextBounded(leaves + 1 - a));
                }
                for (const auto &[a, b] : ranges) {
                    std::map<std::uint32_t, TimeStamp> got;
                    std::uint64_t cells = 0;
                    pyramid.occupancy(a, b, got, cells);
                    EXPECT_EQ(got,
                              naiveOccupancy(
                                  tr, c,
                                  {a * g0, std::min(b, leaves) * g0}))
                        << "cpu " << c << " leaves [" << a << ", " << b
                        << ")";
                }

                // Arbitrary intervals: short and long, empty, touching
                // and passing the domain end, and beyond it.
                std::vector<TimeInterval> intervals = {
                    {0, dom},          {dom - 1, dom},
                    {dom / 3, dom + 5}, {dom + 1, dom + 9},
                    {dom / 2, dom / 2}};
                for (int i = 0; i < 60; i++) {
                    TimeStamp start = rng.nextBounded(dom + 2 * g0);
                    TimeStamp len = i % 2 == 0 ? rng.nextBounded(4 * g0)
                                               : rng.nextBounded(dom);
                    intervals.push_back({start, start + len});
                }
                // A left-to-right sweep of adjacent pixel-like columns,
                // the renderer's access pattern.
                for (TimeStamp x = 0; x < 300; x++)
                    intervals.push_back(
                        {dom * x / 299, dom * (x + 1) / 299});
                index::SummaryPyramid::Sweep sweep;
                for (const TimeInterval &iv : intervals) {
                    std::uint64_t cells = 0;
                    pyramid.occupancyOver(iv, sweep, cells);
                    EXPECT_EQ(sweep.occupancy,
                              naiveOccupancyOver(tr, c, g0, dom, iv))
                        << "cpu " << c << " [" << iv.start << ", "
                        << iv.end << ")";
                }
            }
        }
    }
}

TEST(SummaryPyramid, TaskIndexMatchesNaiveCountsOverAnyInterval)
{
    // Random traces plus tasks starting and ending exactly on leaf
    // boundaries, zero-duration tasks on and off boundaries, a task
    // spanning the whole trace, all appended in descending start order
    // (out of the trace's start order). The span is a multiple of 1024
    // in one variant (it then divides evenly into leaves) and one past
    // it in the other.
    for (std::uint64_t seed : {5ull, 23ull, 101ull}) {
        for (int states : {40, 3000}) {
            for (TimeStamp tail : {0ull, 1ull}) {
                RandomTraceOptions opts;
                opts.cpus = 3;
                opts.statesPerCpu = states;
                trace::Trace base = buildRandomTrace(seed, opts);
                const TimeStamp span_end =
                    ((base.span().end | 1023) + 1) + tail;
                TaskInstanceId next_id = base.taskInstances().size();
                const TaskTypeId type =
                    base.taskInstances().front().type;
                const trace::TaskInstance spanning{
                    next_id++, type, 0, {0, span_end}};
                const TimeStamp g0 =
                    index::TraceIndex(withTasks(base, {spanning}))
                        .leafGranularity();
                if (tail == 0) {
                    ASSERT_EQ(span_end % g0, 0u);
                }

                Rng rng(seed * 31 + static_cast<std::uint64_t>(states));
                std::vector<trace::TaskInstance> extra;
                auto add = [&](TimeStamp start, TimeStamp end) {
                    extra.push_back(
                        {next_id++, type,
                         static_cast<CpuId>(rng.nextBounded(opts.cpus)),
                         {start, end}});
                };
                const std::uint64_t boundaries = span_end / g0;
                for (int i = 0; i < 60; i++) {
                    const TimeStamp at = rng.nextBounded(boundaries) * g0;
                    const TimeStamp len = rng.nextBounded(4 * g0);
                    add(at, std::min(at + len, span_end)); // Starts on one.
                    add(at > len ? at - len : 0, at);      // Ends on one.
                    add(at, at);                           // Zero, on one.
                    const TimeStamp off = rng.nextBounded(span_end);
                    add(off, off); // Zero-duration, anywhere.
                }
                add(0, 0);
                add(span_end, span_end);
                extra.push_back(spanning);
                std::sort(extra.begin(), extra.end(),
                          [](const trace::TaskInstance &a,
                             const trace::TaskInstance &b) {
                              return a.interval.start > b.interval.start;
                          });
                trace::Trace tr = withTasks(base, extra);
                ASSERT_EQ(tr.span().end, span_end);

                index::TraceIndex pyramids(tr);
                ASSERT_EQ(pyramids.leafGranularity(), g0);
                expectTasksBucketedByStartLeaf(tr, pyramids);
                expectTaskIndexMatchesNaive(tr, pyramids,
                                            intervalGrid(pyramids, rng));
            }
        }
    }
}

TEST(SummaryPyramid, WrappedTaskIntervalsBuildCleanlyAndCountByDefinition)
{
    // A wrapped task starts far past the span, which covers ends only.
    const trace::Trace tr =
        test_support::buildWrappedTaskTrace(buildRandomTrace(61));
    ASSERT_EQ(tr.span().end, buildRandomTrace(61).span().end);

    index::TraceIndex pyramids(tr);
    std::size_t wrapped = 0;
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        if (task.interval.start > task.interval.end) {
            wrapped++;
            ASSERT_GE(task.interval.start, pyramids.domainEnd());
        }
    }
    ASSERT_EQ(wrapped, test_support::kWrappedTasks);
    expectTasksBucketedByStartLeaf(tr, pyramids);
    Rng rng(67);
    expectTaskIndexMatchesNaive(tr, pyramids, intervalGrid(pyramids, rng));

    // The query plane answers over them as the scan does: a Pixels
    // answer equals the scan of its snapped interval, and so does the
    // exact answer of that interval.
    Session session = Session::view(tr);
    stats::IntervalStats approx =
        session
            .submit(IntervalStatsQuery{{tr.span(),
                                        QueryPriority::Interactive,
                                        Resolution::pixels(16)}})
            .take();
    const stats::IntervalStats scan =
        serialIntervalStats(tr, approx.interval);
    expectSameAggregates(approx, scan);
    stats::IntervalStats exact =
        session.submit(IntervalStatsQuery{{approx.interval}}).take();
    EXPECT_EQ(exact.timeInState, scan.timeInState);
    EXPECT_EQ(exact.tasksStarted, scan.tasksStarted);
    EXPECT_EQ(exact.tasksOverlapping, scan.tasksOverlapping);
}

TEST(SummaryPyramid, SpanEndingAtTheLastTimestampAnswersOverTheDomain)
{
    // The span end 2^64 - 1 lies in the top leaf below 2^64: the leaf
    // layout must neither wrap to zero leaves nor put the domain end
    // at 2^64 (which wraps to 0).
    trace::ReadResult read = trace::readTrace(trace::writeTrace(
        test_support::buildTopOfTimeTrace(), trace::Encoding::Raw));
    ASSERT_TRUE(read.ok) << read.error;
    const trace::Trace &tr = read.trace;
    const TimeInterval span = tr.span();
    ASSERT_EQ(span.end, ~TimeStamp{0});

    Session session = Session::view(tr);
    const index::TraceIndex &pyramids = *session.traceIndex();
    const TimeStamp g0 = pyramids.leafGranularity();
    ASSERT_GT(pyramids.leafCount(), 0u);
    EXPECT_LE(pyramids.leafCount(), index::TraceIndex::kTargetLeaves);
    EXPECT_GT(pyramids.domainEnd(), 0u);
    EXPECT_EQ(pyramids.domainEnd() / g0, pyramids.leafCount());
    EXPECT_EQ(pyramids.domainEnd() % g0, 0u);

    PyramidBuildStats built = session.submit(PyramidBuildQuery{}).take();
    EXPECT_EQ(built.cpusBuilt, tr.numCpus());

    // Stats: the snapped interval is leaf-aligned inside the domain,
    // and the answer is the exact scan of it.
    const Resolution res = Resolution::pixels(1920);
    const QueryContext context{span, QueryPriority::Interactive, res};
    stats::IntervalStats approx =
        session.submit(IntervalStatsQuery{context}).take();
    const TimeStamp g = pyramids.granularityFor(res, span);
    ASSERT_GT(g, 0u);
    EXPECT_FALSE(approx.resolution.exact);
    EXPECT_EQ(approx.interval, pyramids.snap(span, g));
    EXPECT_EQ(approx.interval.start % g0, 0u);
    EXPECT_EQ(approx.interval.end % g0, 0u);
    EXPECT_LE(approx.interval.end, pyramids.domainEnd());
    expectSameAggregates(approx, serialIntervalStats(tr, approx.interval));

    // Histogram: the task selection of the snapped interval.
    stats::Histogram hist =
        session.submit(HistogramQuery{context, 12}).take();
    stats::Histogram exact =
        session.submit(HistogramQuery{{approx.interval}, 12}).take();
    ASSERT_EQ(hist.numBins(), exact.numBins());
    EXPECT_EQ(hist.rangeMin(), exact.rangeMin());
    EXPECT_EQ(hist.rangeMax(), exact.rangeMax());
    for (std::uint32_t bin = 0; bin < exact.numBins(); bin++)
        EXPECT_EQ(hist.count(bin), exact.count(bin)) << bin;

    // Render: the pyramid path draws every column, sync and async
    // alike.
    TimelineRenderQuery render;
    render.context.resolution = res;
    render.width = 1920;
    render.height = 32;
    TimelineRenderResult frame = session.submit(render).take();
    EXPECT_FALSE(frame.stats.resolution.exact);
    EXPECT_EQ(frame.stats.resolution.granularityNs, g0);
    render::TimelineConfig config;
    config.resolution = res;
    render::Framebuffer fb(1920, 32);
    session.render(config, fb);
    EXPECT_TRUE(std::equal(fb.data(), fb.data() + 1920 * 32,
                           frame.fb.data()));

    // Snapping a sub-interval near the top rounds up without wrapping.
    const TimeInterval top{pyramids.domainEnd() - 3 * g0 - 1,
                           pyramids.domainEnd() - 1};
    for (TimeStamp gran = g0; gran != 0 && gran <= (TimeStamp{1} << 63);
         gran *= 2) {
        TimeInterval snapped = pyramids.snap(top, gran);
        EXPECT_LE(snapped.start, top.start) << gran;
        EXPECT_EQ(snapped.end, pyramids.domainEnd()) << gran;
    }
}

TEST(SummaryPyramid, BuildQueryIsIdempotentAndAttributed)
{
    trace::Trace tr = buildRandomTrace(31);
    Session session = Session::view(tr);
    PyramidBuildStats first = session.submit(PyramidBuildQuery{}).take();
    EXPECT_EQ(first.cpusVisited, tr.numCpus());
    EXPECT_EQ(first.cpusBuilt, tr.numCpus());
    PyramidBuildStats second = session.submit(PyramidBuildQuery{}).take();
    EXPECT_EQ(second.cpusVisited, tr.numCpus());
    EXPECT_EQ(second.cpusBuilt, 0u);
}

TEST(SummaryPyramid, SessionsShareOneTraceIndex)
{
    auto tr = std::make_shared<const trace::Trace>(buildRandomTrace(43));
    Session a(tr);
    a.submit(PyramidBuildQuery{}).take();
    Session b(tr, a.traceIndex());
    EXPECT_EQ(a.traceIndex().get(), b.traceIndex().get());
    // b built no pyramid of its own: a's prefetch serves it.
    EXPECT_EQ(b.traceIndex()->counts().pyramids, tr->numCpus());

    const TimeInterval span = tr->span();
    Resolution res = Resolution::budget(span.duration() / 8);
    stats::IntervalStats via_b =
        b.submit(IntervalStatsQuery{
                     {span, QueryPriority::Interactive, res}})
            .take();
    expectSameAggregates(via_b,
                         serialIntervalStats(*tr, via_b.interval));
}

TEST(SummaryPyramid, RenderAtPixelsResolutionReportsProvenance)
{
    trace::Trace tr = buildRandomTrace(47);
    Session session = Session::view(tr);
    render::TimelineConfig config;
    config.view = tr.span();
    // A granularity far coarser than a leaf guarantees the pyramid
    // path engages for this viewport width.
    render::Framebuffer fb(32, 64);
    config.resolution = Resolution::pixels(32);
    const render::RenderStats &stats = session.render(config, fb);
    EXPECT_FALSE(stats.resolution.exact);
    EXPECT_EQ(stats.resolution.granularityNs,
              session.traceIndex()->leafGranularity());
    EXPECT_GT(stats.resolution.nodesTouched, 0u);

    // Exact rendering is untouched by the pyramid plumbing.
    render::Framebuffer exact_fb(32, 64);
    render::TimelineConfig exact_config;
    exact_config.view = tr.span();
    const render::RenderStats &exact_stats =
        session.render(exact_config, exact_fb);
    EXPECT_TRUE(exact_stats.resolution.exact);
    EXPECT_EQ(exact_stats.resolution.granularityNs, 0u);
}

TEST(SummaryPyramid, DaemonCarriesResolutionAndProvenanceOverTheWire)
{
    using namespace aftermath::daemon;
    trace::Trace built = buildRandomTrace(59);
    std::vector<std::uint8_t> bytes =
        trace::writeTrace(built, trace::Encoding::Raw);

    Server server(Server::Options{2, 16});
    Client client;
    std::string error;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;

    OpenTraceRequest open;
    open.bytes =
        std::make_shared<const std::vector<std::uint8_t>>(bytes);
    Reply<OpenTraceReply> opened = client.openTrace(open);
    ASSERT_TRUE(opened.ok()) << opened.message;
    const TimeInterval span = opened.value.span;

    // A local session over the same trace is the reference.
    trace::ReadResult local_read = trace::readTrace(bytes);
    ASSERT_TRUE(local_read.ok) << local_read.error;
    Session local = Session::view(local_read.trace);

    TimeInterval interval{span.start + 9, span.end - 11};
    Resolution res = Resolution::budget(span.duration() / 3);

    IntervalStatsRequest request;
    request.head.traceId = opened.value.traceId;
    request.interval = interval;
    request.resolution = res;
    Reply<stats::IntervalStats> remote = client.intervalStats(request);
    ASSERT_TRUE(remote.ok()) << remote.message;

    stats::IntervalStats expect =
        local
            .submit(IntervalStatsQuery{
                {interval, QueryPriority::Interactive, res}})
            .take();
    EXPECT_EQ(remote.value.interval, expect.interval);
    EXPECT_EQ(remote.value.timeInState, expect.timeInState);
    EXPECT_EQ(remote.value.tasksStarted, expect.tasksStarted);
    EXPECT_EQ(remote.value.tasksOverlapping, expect.tasksOverlapping);
    EXPECT_EQ(remote.value.resolution.exact, expect.resolution.exact);
    EXPECT_EQ(remote.value.resolution.granularityNs,
              expect.resolution.granularityNs);

    // Exact over the wire stays bit-identical to the local exact scan.
    IntervalStatsRequest exact_request;
    exact_request.head.traceId = opened.value.traceId;
    exact_request.interval = interval;
    Reply<stats::IntervalStats> remote_exact =
        client.intervalStats(exact_request);
    ASSERT_TRUE(remote_exact.ok()) << remote_exact.message;
    stats::IntervalStats local_exact =
        serialIntervalStats(local_read.trace, interval);
    EXPECT_EQ(remote_exact.value.timeInState, local_exact.timeInState);
    EXPECT_EQ(remote_exact.value.tasksStarted, local_exact.tasksStarted);
    EXPECT_TRUE(remote_exact.value.resolution.exact);

    // Render provenance rides the RenderReply.
    TimelineRenderRequest render;
    render.head.traceId = opened.value.traceId;
    render.view = span;
    render.width = 16;
    render.height = 32;
    render.resolution = Resolution::pixels(16);
    Reply<RenderReply> frame = client.timelineRender(render);
    ASSERT_TRUE(frame.ok()) << frame.message;
    EXPECT_FALSE(frame.value.stats.resolution.exact);
    EXPECT_GT(frame.value.stats.resolution.granularityNs, 0u);

    client.closeTrace(opened.value.traceId);
}

} // namespace
} // namespace session
} // namespace aftermath
