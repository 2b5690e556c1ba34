/**
 * @file
 * Tests of the parallel anomaly-scan query plane: AnomalyScanQuery
 * results bit-identical (via the wire encoding) to the serial
 * stats::scanForAnomalies() at every worker count, filter and view
 * sensitivity, cooperative cancellation (explicit, queued and via
 * generation bumps), and SessionGroup::detectRegressions() on
 * hand-built baseline/variant pairs. Built with TSan and ASan+UBSan in
 * CI to keep the fan-out race- and overflow-free.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "base/buffer.h"
#include "base/thread_pool.h"
#include "filter/task_filter.h"
#include "session/compare.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "session/session.h"
#include "session/session_group.h"
#include "stats/anomaly.h"
#include "stats/export.h"
#include "trace/state.h"

namespace aftermath {
namespace session {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/**
 * Bit-level equality goes through the wire encoder: two ranked lists
 * are the same result iff they encode to the same bytes (severity
 * doubles included, compared as IEEE-754 bits).
 */
std::vector<std::uint8_t>
bytesOf(const std::vector<stats::Anomaly> &findings)
{
    ByteWriter w;
    stats::encodeAnomalies(findings, w);
    return w.take();
}

/**
 * A 4-CPU trace that triggers all three anomaly kinds across several
 * chunks: a task cluster with two outliers on CPU 0, aux tasks and an
 * idle window on CPU 1, a half-idle CPU 2 (the CPU 1 + CPU 2 overlap
 * crosses the 2-worker idle threshold), and bursty counters on CPU 3.
 */
trace::Trace
buildAnomalousTrace()
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, 2));
    tr.addTaskType({0x1, "work"});
    tr.addTaskType({0x2, "aux"});
    tr.addCounterDescription({0, "misses"});
    tr.addCounterDescription({1, "stalls"});

    // CPU 0: a tight 100-cycle cluster with outliers of two magnitudes.
    TimeStamp t = 0;
    TaskInstanceId id = 0;
    for (; id < 60; id++) {
        TimeStamp d = 100 + (id % 3);
        if (id == 11)
            d = 600;
        if (id == 23)
            d = 900;
        tr.addTaskInstance({id, 0x1, 0, {t, t + d}});
        tr.cpu(0).addState({{t, t + d}, kExec, id});
        t += d;
    }
    const TimeStamp end = t;

    // CPU 1: steady aux tasks with an idle window through the middle.
    auto add_aux = [&](TimeStamp from, TimeStamp to) {
        TimeStamp ts = from;
        for (; ts + 50 <= to; ts += 50) {
            tr.addTaskInstance({id, 0x2, 1, {ts, ts + 50}});
            tr.cpu(1).addState({{ts, ts + 50}, kExec, id});
            id++;
        }
        return ts;
    };
    TimeStamp stop = add_aux(0, end / 4);
    tr.cpu(1).addState({{stop, end / 2}, kIdle, kInvalidTaskInstance});
    add_aux(end / 2, end);

    // CPU 2: idle through the middle and the tail.
    tr.cpu(2).addState({{0, end / 4}, kExec, kInvalidTaskInstance});
    tr.cpu(2).addState({{end / 4, end / 2}, kIdle, kInvalidTaskInstance});
    tr.cpu(2).addState(
        {{end / 2, 3 * end / 4}, kExec, kInvalidTaskInstance});
    tr.cpu(2).addState({{3 * end / 4, end}, kIdle, kInvalidTaskInstance});

    // CPU 3: executes throughout; both counters burst mid-run.
    tr.cpu(3).addState({{0, end}, kExec, kInvalidTaskInstance});
    const TimeStamp step = end / 100;
    for (CounterId ctr = 0; ctr < 2; ctr++) {
        std::int64_t v = 0;
        for (TimeStamp ct = 0; ct <= end; ct += step) {
            std::int64_t dv = static_cast<std::int64_t>(step);
            if (ct == (20 + 10 * ctr) * step)
                dv *= 10;
            if (ct == 60 * step)
                dv *= 20 + 5 * static_cast<std::int64_t>(ctr);
            v += dv;
            tr.cpu(3).addCounterSample(ctr, {ct, v});
        }
    }
    // A steady counter on CPU 1 adds a burst chunk that finds nothing.
    std::int64_t v = 0;
    for (TimeStamp ct = 0; ct <= end; ct += end / 50) {
        v += static_cast<std::int64_t>(end / 50);
        tr.cpu(1).addCounterSample(0, {ct, v});
    }

    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/** A gate that parks the engine's (sole) worker until released. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }

    void
    block()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }
};

/** Park the engine's (sole) worker behind @p gate. */
void
occupyWorker(Session &session, const std::shared_ptr<Gate> &gate)
{
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([gate] { gate->block(); });
    });
}

TEST(SessionAnomaly, AsyncMatchesSerialBitIdenticallyAtEveryWorkerCount)
{
    trace::Trace tr = buildAnomalousTrace();
    std::vector<stats::Anomaly> serial = stats::scanForAnomalies(tr);
    const std::vector<std::uint8_t> expect = bytesOf(serial);

    // The reference run actually exercises all three detector kinds.
    bool seen[3] = {false, false, false};
    for (const stats::Anomaly &a : serial)
        seen[static_cast<int>(a.kind)] = true;
    ASSERT_TRUE(seen[0] && seen[1] && seen[2]);

    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        Session session = Session::view(tr);
        session.setConcurrency(workers);
        std::vector<stats::Anomaly> got =
            session.submit(AnomalyScanQuery{}).take();
        EXPECT_EQ(bytesOf(got), expect) << workers << " workers";
        // The synchronous wrapper runs through the same executor.
        EXPECT_EQ(bytesOf(session.scanForAnomalies()), expect)
            << workers << " workers";
    }
}

TEST(SessionAnomaly, FiltersRestrictTheOutlierScan)
{
    trace::Trace tr = buildAnomalousTrace();
    Session session = Session::view(tr);
    session.setConcurrency(4);
    const std::vector<std::uint8_t> unfiltered =
        bytesOf(session.submit(AnomalyScanQuery{}).take());

    // Excluding every task longer than 500 cycles removes both
    // outliers; the remaining cluster is too tight to produce one.
    filter::FilterSet only_short;
    only_short.add(std::make_shared<filter::DurationFilter>(0, 500));
    session.setFilters(only_short);
    std::vector<stats::Anomaly> got =
        session.submit(AnomalyScanQuery{}).take();
    EXPECT_EQ(bytesOf(got),
              bytesOf(stats::scanForAnomalies(tr, {}, session.view(),
                                              &session.filters())));
    EXPECT_NE(bytesOf(got), unfiltered);
    for (const stats::Anomaly &a : got)
        EXPECT_NE(a.kind, stats::AnomalyKind::DurationOutlier)
            << a.description;
}

TEST(SessionAnomaly, ViewAndExplicitIntervalsRestrictTheScan)
{
    trace::Trace tr = buildAnomalousTrace();
    Session session = Session::view(tr);
    session.setConcurrency(2);

    const TimeInterval half{0, tr.span().end / 2};
    session.setView(half);
    std::vector<stats::Anomaly> got =
        session.submit(AnomalyScanQuery{}).take();
    EXPECT_EQ(bytesOf(got),
              bytesOf(stats::scanForAnomalies(tr, {}, half,
                                              &session.filters())));
    for (const stats::Anomaly &a : got) {
        if (a.kind == stats::AnomalyKind::DurationOutlier) {
            // Outliers report the task's true extent; a task that
            // straddles the view edge may poke past it.
            EXPECT_TRUE(a.interval.overlaps(half)) << a.description;
            continue;
        }
        EXPECT_GE(a.interval.start, half.start) << a.description;
        EXPECT_LE(a.interval.end, half.end) << a.description;
    }

    // An explicit query interval overrides the view.
    AnomalyScanQuery query;
    query.context.interval = tr.span();
    std::vector<std::uint8_t> whole = bytesOf(session.submit(query).take());
    EXPECT_EQ(whole, bytesOf(stats::scanForAnomalies(
                         tr, {}, tr.span(), &session.filters())));
    EXPECT_NE(whole, bytesOf(got));
}

TEST(SessionAnomaly, CancelWhileQueuedReportsCancelled)
{
    trace::Trace tr = buildAnomalousTrace();
    Session session = Session::view(tr); // 1 worker by default.
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    auto ticket = session.submit(AnomalyScanQuery{});
    EXPECT_EQ(ticket.status(), QueryStatus::Pending);
    ticket.cancel();
    gate->release();
    EXPECT_EQ(ticket.wait(), QueryStatus::Cancelled);
    EXPECT_TRUE(ticket.done());
}

TEST(SessionAnomaly, ViewAndFilterBumpsCancelInFlightScans)
{
    trace::Trace tr = buildAnomalousTrace();
    Session session = Session::view(tr);
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    // The scan keys on the view generation: panning cancels it.
    auto stale = session.submit(AnomalyScanQuery{});
    const TimeInterval half{0, tr.span().end / 2};
    session.setView(half);
    gate->release();
    EXPECT_EQ(stale.wait(), QueryStatus::Cancelled);

    // A fresh submit under the new generation completes normally.
    auto fresh = session.submit(AnomalyScanQuery{});
    EXPECT_EQ(fresh.wait(), QueryStatus::Done);
    EXPECT_EQ(bytesOf(fresh.result()),
              bytesOf(stats::scanForAnomalies(tr, {}, half,
                                              &session.filters())));

    // A filter change cancels an in-flight scan just the same.
    auto filter_gate = std::make_shared<Gate>();
    occupyWorker(session, filter_gate);
    auto stale_filter = session.submit(AnomalyScanQuery{});
    filter::FilterSet only_short;
    only_short.add(std::make_shared<filter::DurationFilter>(0, 500));
    session.setFilters(only_short);
    filter_gate->release();
    EXPECT_EQ(stale_filter.wait(), QueryStatus::Cancelled);
}

TEST(SessionAnomaly, BackgroundScanCoexistsWithInteractiveQueries)
{
    // The scan defaults to Background so its drainers yield to
    // interactive work at chunk boundaries; racing it against
    // interval-stats queries must perturb neither result.
    EXPECT_EQ(AnomalyScanQuery{}.context.priority,
              QueryPriority::Background);

    trace::Trace tr = buildAnomalousTrace();
    Session session = Session::view(tr);
    session.setConcurrency(2);
    const std::vector<std::uint8_t> expect =
        bytesOf(stats::scanForAnomalies(tr));

    for (unsigned round = 0; round < 5; round++) {
        auto scan = session.submit(AnomalyScanQuery{});
        TimeInterval iv{round, tr.span().end / 2 + round};
        stats::IntervalStats interactive =
            session.submit(IntervalStatsQuery{iv}).take();
        EXPECT_EQ(interactive.interval, iv);
        EXPECT_EQ(bytesOf(scan.take()), expect) << "round " << round;
    }
}

/**
 * Baseline/variant pair of SessionGroup::detectRegressions(): the
 * regressed variant runs the same workload with 2x task durations, an
 * idle window on CPU 1 and a counter burst, none of which the baseline
 * has.
 */
trace::Trace
buildComparisonTrace(bool regressed)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 2));
    tr.addTaskType({0x1, "work"});
    tr.addCounterDescription({0, "misses"});

    const TimeStamp dur = regressed ? 200 : 100;
    TimeStamp t = 0;
    for (TaskInstanceId id = 0; id < 40; id++) {
        TimeStamp d = dur + (id % 3);
        tr.addTaskInstance({id, 0x1, 0, {t, t + d}});
        tr.cpu(0).addState({{t, t + d}, kExec, id});
        t += d;
    }
    const TimeStamp end = t;

    if (regressed) {
        tr.cpu(1).addState({{0, end / 4}, kExec, kInvalidTaskInstance});
        tr.cpu(1).addState(
            {{end / 4, end / 2}, kIdle, kInvalidTaskInstance});
        tr.cpu(1).addState({{end / 2, end}, kExec, kInvalidTaskInstance});
    } else {
        tr.cpu(1).addState({{0, end}, kExec, kInvalidTaskInstance});
    }

    std::int64_t v = 0;
    const TimeStamp step = end / 100;
    for (TimeStamp ct = 0; ct <= end; ct += step) {
        std::int64_t dv = static_cast<std::int64_t>(step);
        if (regressed && ct == 60 * step)
            dv *= 25;
        v += dv;
        tr.cpu(1).addCounterSample(0, {ct, v});
    }

    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

TEST(SessionGroupRegressions, VariantRegressionsAreDetectedAndRanked)
{
    trace::Trace base = buildComparisonTrace(false);
    trace::Trace bad = buildComparisonTrace(true);
    SessionGroup group;
    group.add("base", Session::view(base));
    group.add("bad", Session::view(bad));
    group.setConcurrency(2);

    compare::RegressionReport report = group.detectRegressions(0, 1);
    EXPECT_EQ(report.baseline, 0u);
    EXPECT_EQ(report.variant, 1u);
    ASSERT_FALSE(report.findings.empty());

    bool seen[3] = {false, false, false};
    for (std::size_t i = 0; i < report.findings.size(); i++) {
        const compare::RegressionFinding &f = report.findings[i];
        seen[static_cast<int>(f.kind)] = true;
        if (i > 0) {
            EXPECT_FALSE(compare::regressionRankedBefore(
                f, report.findings[i - 1]))
                << "finding " << i;
        }
        switch (f.kind) {
        case compare::RegressionFinding::Kind::TaskTypeSlowdown:
            EXPECT_EQ(f.taskType, 0x1u);
            EXPECT_GT(f.severity, 1.8);
            EXPECT_LT(f.severity, 2.2);
            EXPECT_NE(f.description.find("work"), std::string::npos);
            break;
        case compare::RegressionFinding::Kind::NewIdlePhase:
            EXPECT_EQ(f.anomaly.kind, stats::AnomalyKind::IdlePhase);
            EXPECT_EQ(f.description.rfind("variant-only", 0), 0u)
                << f.description;
            break;
        case compare::RegressionFinding::Kind::NewCounterBurst:
            EXPECT_EQ(f.anomaly.kind, stats::AnomalyKind::CounterBurst);
            EXPECT_EQ(f.anomaly.cpu, 1u);
            EXPECT_EQ(f.anomaly.counter, 0u);
            break;
        }
    }
    EXPECT_TRUE(seen[0]) << "no task-type slowdown reported";
    EXPECT_TRUE(seen[1]) << "no new idle phase reported";
    EXPECT_TRUE(seen[2]) << "no new counter burst reported";
}

TEST(SessionGroupRegressions, IdenticalVariantsProduceNoFindings)
{
    // Even an anomaly-rich trace compared against itself regresses
    // nowhere: every variant anomaly is matched by its baseline twin
    // and the per-type duration ratio is exactly 1.
    trace::Trace bad = buildComparisonTrace(true);
    SessionGroup group;
    group.add("a", Session::view(bad));
    group.add("b", Session::view(bad));
    group.setConcurrency(2);

    compare::RegressionReport report = group.detectRegressions(0, 1);
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.delta.tasksOverlapping, 0);
    EXPECT_EQ(report.delta.tasksStarted, 0);
}

} // namespace
} // namespace session
} // namespace aftermath
