/**
 * @file
 * Dedicated unit tests of the anomaly scanner (stats/anomaly.h) on
 * hand-built traces: ranking determinism and ordering guarantees,
 * empty-trace and single-CPU edges, the per-kind cap, the statistical
 * thresholds (minimum sample counts, zero variance), results that do
 * not depend on candidate order or chunking, and counter values at the
 * ends of the 64-bit range.
 * Smoke-level detection coverage lives in test_extensions.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/buffer.h"
#include "base/rng.h"
#include "stats/anomaly.h"
#include "stats/export.h"
#include "trace/state.h"

namespace aftermath {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/** Rank used for ordering checks: idle phases first, bursts last. */
int
kindRank(stats::AnomalyKind kind)
{
    switch (kind) {
      case stats::AnomalyKind::IdlePhase:
        return 0;
      case stats::AnomalyKind::DurationOutlier:
        return 1;
      case stats::AnomalyKind::CounterBurst:
        return 2;
    }
    return 3;
}

TEST(AnomalyScan, EmptyTraceYieldsNoFindings)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 2));
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;
    EXPECT_TRUE(tr.span().empty());
    EXPECT_TRUE(stats::scanForAnomalies(tr).empty());
}

TEST(AnomalyScan, SingleCpuIdlePhaseIsDetected)
{
    // With one CPU the idle threshold is 0.5 workers: the lone CPU
    // going idle must still register as a full-severity phase.
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addState({{0, 400}, kExec, kInvalidTaskInstance});
    tr.cpu(0).addState({{400, 600}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{600, 1000}, kExec, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    auto findings = stats::scanForAnomalies(tr);
    ASSERT_FALSE(findings.empty());
    EXPECT_EQ(findings.front().kind, stats::AnomalyKind::IdlePhase);
    EXPECT_GT(findings.front().severity, 0.9);
}

/** A trace that triggers all three kinds at several severities. */
trace::Trace
buildBusyTrace()
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 2));
    tr.addTaskType({0x1, "work"});
    tr.addCounterDescription({0, "misses"});

    // Tasks: a tight cluster around 100 cycles with two outliers of
    // different magnitude (ids 11 and 23). The baseline population is
    // large so both outliers clear the z-score threshold even though
    // they inflate the type's own variance.
    TimeStamp t = 0;
    for (TaskInstanceId id = 0; id < 100; id++) {
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

    // CPU 1: executes, then idles through the middle (two disjoint
    // idle phases of different depth relative to the span).
    tr.cpu(1).addState({{0, end / 4}, kExec, kInvalidTaskInstance});
    tr.cpu(1).addState(
        {{end / 4, end / 2}, kIdle, kInvalidTaskInstance});
    tr.cpu(1).addState(
        {{end / 2, 3 * end / 4}, kExec, kInvalidTaskInstance});
    tr.cpu(1).addState({{3 * end / 4, end}, kIdle, kInvalidTaskInstance});

    // Counter on CPU 1: steady rate with two bursts, the second
    // stronger than the first.
    std::int64_t v = 0;
    for (TimeStamp ct = 0; ct <= end; ct += end / 100) {
        std::int64_t dv = static_cast<std::int64_t>(end / 100);
        if (ct == 20 * (end / 100))
            dv *= 10;
        if (ct == 60 * (end / 100))
            dv *= 25;
        v += dv;
        tr.cpu(1).addCounterSample(0, {ct, v});
    }
    return tr;
}

TEST(AnomalyScan, FindingsFormOneRankedListAcrossKinds)
{
    trace::Trace tr = buildBusyTrace();
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    auto findings = stats::scanForAnomalies(tr);
    ASSERT_GE(findings.size(), 3u);

    // One globally ranked list under the strict total order: severity
    // never increases, and each adjacent pair is correctly ordered.
    bool seen[3] = {false, false, false};
    double kind_top[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < findings.size(); i++) {
        int rank = kindRank(findings[i].kind);
        seen[rank] = true;
        kind_top[rank] = std::max(kind_top[rank], findings[i].severity);
        if (i == 0)
            continue;
        EXPECT_GE(findings[i - 1].severity, findings[i].severity)
            << "finding " << i;
        EXPECT_FALSE(
            stats::anomalyRankedBefore(findings[i], findings[i - 1]))
            << "finding " << i;
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);

    // Severities normalize per kind: every kind's top finding scores
    // exactly 1.0, so the global head is a severity-1.0 finding and no
    // kind drowns the others.
    EXPECT_EQ(findings.front().severity, 1.0);
    EXPECT_EQ(kind_top[0], 1.0);
    EXPECT_EQ(kind_top[1], 1.0);
    EXPECT_EQ(kind_top[2], 1.0);

    // The stronger duration outlier (task 23) outranks the weaker one.
    std::vector<TaskInstanceId> outliers;
    for (const stats::Anomaly &a : findings) {
        if (a.kind == stats::AnomalyKind::DurationOutlier)
            outliers.push_back(a.task);
    }
    ASSERT_EQ(outliers.size(), 2u);
    EXPECT_EQ(outliers[0], 23u);
    EXPECT_EQ(outliers[1], 11u);
}

TEST(AnomalyScan, RankingIsDeterministic)
{
    trace::Trace tr = buildBusyTrace();
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    auto first = stats::scanForAnomalies(tr);
    auto second = stats::scanForAnomalies(tr);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); i++) {
        EXPECT_EQ(first[i].kind, second[i].kind) << i;
        EXPECT_EQ(first[i].severity, second[i].severity) << i;
        EXPECT_EQ(first[i].description, second[i].description) << i;
    }
}

TEST(AnomalyScan, MaxPerKindCapsEachKindIndependently)
{
    trace::Trace tr = buildBusyTrace();
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    stats::AnomalyScanOptions options;
    options.maxPerKind = 1;
    auto findings = stats::scanForAnomalies(tr, options);

    std::size_t counts[3] = {0, 0, 0};
    for (const stats::Anomaly &a : findings)
        counts[kindRank(a.kind)]++;
    EXPECT_LE(counts[0], 1u);
    EXPECT_LE(counts[1], 1u);
    EXPECT_LE(counts[2], 1u);
    // The cap keeps the most severe finding of each kind: the big
    // outlier survives, the small one is dropped.
    for (const stats::Anomaly &a : findings) {
        if (a.kind == stats::AnomalyKind::DurationOutlier) {
            EXPECT_EQ(a.task, 23u);
        }
    }
}

TEST(AnomalyScan, FewerThanTenTasksSkipsDurationOutliers)
{
    // 9 samples of one type — even a gross outlier must be ignored,
    // the z-score would be meaningless.
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addTaskType({0x1, "work"});
    TimeStamp t = 0;
    for (TaskInstanceId id = 0; id < 9; id++) {
        TimeStamp d = (id == 4) ? 5'000 : 100 + (id % 3);
        tr.addTaskInstance({id, 0x1, 0, {t, t + d}});
        tr.cpu(0).addState({{t, t + d}, kExec, id});
        t += d;
    }
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    for (const stats::Anomaly &a : stats::scanForAnomalies(tr))
        EXPECT_NE(a.kind, stats::AnomalyKind::DurationOutlier);
}

TEST(AnomalyScan, ZeroVarianceDurationsYieldNoOutliers)
{
    // 20 identical durations: sd == 0, nothing can be an outlier.
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addTaskType({0x1, "work"});
    TimeStamp t = 0;
    for (TaskInstanceId id = 0; id < 20; id++) {
        tr.addTaskInstance({id, 0x1, 0, {t, t + 100}});
        tr.cpu(0).addState({{t, t + 100}, kExec, id});
        t += 100;
    }
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    for (const stats::Anomaly &a : stats::scanForAnomalies(tr))
        EXPECT_NE(a.kind, stats::AnomalyKind::DurationOutlier);
}

TEST(AnomalyScan, FewerThanThreeCounterSamplesSkipsBursts)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addCounterDescription({0, "misses"});
    // Two samples encoding an enormous rate jump: still below the
    // minimum sample count, so no burst may be reported.
    tr.cpu(0).addCounterSample(0, {0, 0});
    tr.cpu(0).addCounterSample(0, {1'000, 1'000'000});
    tr.cpu(0).addState({{0, 1'000}, kExec, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    for (const stats::Anomaly &a : stats::scanForAnomalies(tr))
        EXPECT_NE(a.kind, stats::AnomalyKind::CounterBurst);
}

TEST(AnomalyScan, BurstReportsCpuCounterAndInterval)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 2));
    tr.addCounterDescription({7, "stalls"});
    std::int64_t v = 0;
    for (TimeStamp t = 0; t <= 1'000; t += 10) {
        v += (t == 700) ? 200 : 10;
        tr.cpu(1).addCounterSample(7, {t, v});
    }
    for (CpuId c = 0; c < 2; c++)
        tr.cpu(c).addState({{0, 1'000}, kExec, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    bool found = false;
    for (const stats::Anomaly &a : stats::scanForAnomalies(tr)) {
        if (a.kind != stats::AnomalyKind::CounterBurst)
            continue;
        found = true;
        EXPECT_EQ(a.cpu, 1u);
        EXPECT_EQ(a.counter, 7u);
        EXPECT_TRUE(a.interval.overlaps({690, 701}));
        EXPECT_NE(a.description.find("stalls"), std::string::npos);
    }
    EXPECT_TRUE(found);
}

// Regression: a resetting counter must not manufacture bursts. A naive
// back-minus-front total delta shrinks across each reset, deflating the
// mean rate until perfectly steady segments look like 4x bursts.
TEST(AnomalyScan, CounterResetDoesNotManufactureBursts)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addCounterDescription({0, "misses"});
    tr.cpu(0).addState({{0, 1'000}, kExec, kInvalidTaskInstance});

    // Perfectly constant rate (10 per 10 cycles) with three resets to
    // zero. No window is ever faster than the true rate.
    std::int64_t v = 0;
    for (TimeStamp t = 0; t <= 1'000; t += 10) {
        tr.cpu(0).addCounterSample(0, {t, v});
        v += 10;
        if (t == 240 || t == 490 || t == 740)
            v = 0;
    }
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    for (const stats::Anomaly &a : stats::scanForAnomalies(tr))
        EXPECT_NE(a.kind, stats::AnomalyKind::CounterBurst)
            << a.description;
}

// Regression: idle phases at the trace edges are widened by half a
// sub-interval on each side; without a saturating clamp the widening
// wraps below zero at the trace start (unsigned timestamps) and spills
// past the trace end.
TEST(AnomalyScan, IdlePhaseIntervalsStayWithinTraceSpan)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.cpu(0).addState({{0, 100}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{100, 900}, kExec, kInvalidTaskInstance});
    tr.cpu(0).addState({{900, 1'000}, kIdle, kInvalidTaskInstance});
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    auto findings = stats::scanForAnomalies(tr);
    std::size_t phases = 0;
    for (const stats::Anomaly &a : findings) {
        if (a.kind != stats::AnomalyKind::IdlePhase)
            continue;
        phases++;
        EXPECT_GE(a.interval.start, tr.span().start) << a.description;
        EXPECT_LE(a.interval.end, tr.span().end) << a.description;
    }
    // Both edge phases must be reported — clamped, not dropped.
    EXPECT_EQ(phases, 2u);
}

// Regression: duration variance must survive large cycle counts. A
// double sum2/n - mean^2 cancels catastrophically once durations reach
// ~2^52 cycles (sum2 needs ~104 bits), flattening the jitter to
// sd == 0 and silently suppressing every outlier; the exact integer
// sums (S2 in 192 bits, n*S2 - S1^2 in 256) keep the small deviations
// exact.
TEST(AnomalyScan, LargeDurationsStillDetectOutliers)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addTaskType({0x1, "work"});
    TimeStamp t = 0;
    for (TaskInstanceId id = 0; id < 12; id++) {
        TimeStamp d = (TimeStamp{1} << 52) + (id % 3);
        if (id == 7)
            d += 100'000;
        tr.addTaskInstance({id, 0x1, 0, {t, t + d}});
        tr.cpu(0).addState({{t, t + d}, kExec, id});
        t += d;
    }
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    bool found = false;
    for (const stats::Anomaly &a : stats::scanForAnomalies(tr)) {
        if (a.kind != stats::AnomalyKind::DurationOutlier)
            continue;
        found = true;
        EXPECT_EQ(a.task, 7u) << a.description;
    }
    EXPECT_TRUE(found) << "outlier lost to catastrophic cancellation";
}

// Counter values at both ends of the 64-bit range: each step from
// INT64_MIN to INT64_MAX, and the sum of such steps, overflows 64 bits.
// Of the 20 rising steps, 19 take 10 cycles and one takes 1, so that
// one runs at 191/20 of the mean rate and is the only burst.
TEST(AnomalyScan, ExtremeCounterValuesDoNotOverflowTheBurstRate)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 1));
    tr.addCounterDescription({0, "ctr"});
    TimeStamp t = 0;
    for (int i = 0; i < 40; i++) {
        tr.cpu(0).addCounterSample(0, {t, i % 2 ? INT64_MAX : INT64_MIN});
        t += i == 20 ? 1 : 10;
    }
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;

    std::vector<stats::Anomaly> bursts;
    for (const stats::Anomaly &a : stats::scanForAnomalies(tr))
        if (a.kind == stats::AnomalyKind::CounterBurst)
            bursts.push_back(a);
    ASSERT_EQ(bursts.size(), 1u);
    EXPECT_EQ(bursts[0].interval, (TimeInterval{200, 201}));
    EXPECT_EQ(bursts[0].severity, 1.0);
}

// The outlier sums are exact, so neither the order the candidates come
// in nor where the chunks cut them changes a bit of the ranked list.
TEST(AnomalyScan, AnyCandidateOrderAndChunkingGiveTheSameList)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 2));
    tr.addTaskType({0x1, "a"});
    tr.addTaskType({0x2, "b"});
    tr.addTaskType({0x3, "c"});
    Rng rng(7);
    TimeStamp t[2] = {0, 0};
    for (TaskInstanceId id = 0; id < 3000; id++) {
        const CpuId cpu = static_cast<CpuId>(id % 2);
        TimeStamp d = 1000 + rng.nextBounded(1000);
        if (rng.nextBounded(50) == 0)
            d *= 3 + rng.nextBounded(5);
        tr.addTaskInstance({id, 1 + id % 3, cpu, {t[cpu], t[cpu] + d}});
        tr.cpu(cpu).addState({{t[cpu], t[cpu] + d}, kExec, id});
        t[cpu] += d;
    }
    std::string err;
    ASSERT_TRUE(tr.finalize(err)) << err;
    const TimeInterval window{tr.span().end / 5, tr.span().end / 2};
    const stats::AnomalyScanOptions options;
    auto bytesOf = [](const std::vector<stats::Anomaly> &findings) {
        ByteWriter w;
        stats::encodeAnomalies(findings, w);
        return w.take();
    };
    const std::vector<stats::Anomaly> reference =
        stats::scanForAnomalies(tr, options, window, nullptr);
    std::size_t outliers = 0;
    for (const stats::Anomaly &a : reference)
        outliers += a.kind == stats::AnomalyKind::DurationOutlier ? 1 : 0;
    ASSERT_GT(outliers, 1u);

    std::vector<const trace::TaskInstance *> shuffled;
    for (const trace::TaskInstance &task : tr.taskInstances())
        shuffled.push_back(&task);
    for (std::size_t i = shuffled.size(); i > 1; i--)
        std::swap(shuffled[i - 1], shuffled[rng.nextBounded(i)]);
    const stats::TaskCandidates candidates(shuffled);

    for (int round = 0; round < 4; round++) {
        std::vector<stats::AnomalyScanChunk> chunks;
        for (const stats::AnomalyScanChunk &chunk :
             stats::anomalyScanChunks(tr, 0))
            chunks.push_back(chunk);
        for (std::size_t first = 0; first < shuffled.size();) {
            stats::AnomalyScanChunk chunk;
            chunk.family = stats::AnomalyScanChunk::Family::Outlier;
            chunk.first = first;
            chunk.last = std::min<std::size_t>(
                shuffled.size(), first + 1 + rng.nextBounded(700));
            chunks.push_back(chunk);
            first = chunk.last;
        }
        if (round % 2)
            std::reverse(chunks.begin(), chunks.end());
        std::vector<stats::AnomalyChunkResult> partials;
        for (const stats::AnomalyScanChunk &chunk : chunks)
            partials.push_back(stats::runAnomalyChunk(
                tr, chunk, candidates, options, window, nullptr));
        EXPECT_EQ(bytesOf(stats::mergeAnomalyChunks(
                      tr, chunks, std::move(partials), candidates, options,
                      window, nullptr)),
                  bytesOf(reference))
            << "round " << round;
    }
}

} // namespace
} // namespace aftermath
