/**
 * @file
 * Exact round-trip coverage of the binary statistics serialization
 * (stats/export.h) — the payload layer of the daemon's wire protocol.
 *
 * Every encode/decode pair must reproduce the original value exactly:
 * integers are compared for equality, doubles for bit-identity (the
 * wire carries IEEE-754 bits, and Histogram::fromBins recomputes the
 * bin width with the same expression fromValues used). Truncated
 * buffers must fail the decoder, never crash or fabricate values.
 */

#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "base/buffer.h"
#include "stats/export.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"

using namespace aftermath;

namespace {

/** Bit-level equality: NaN-safe and distinguishes -0.0 from 0.0. */
bool
sameBits(double a, double b)
{
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof ba);
    std::memcpy(&bb, &b, sizeof bb);
    return ba == bb;
}

stats::IntervalStats
sampleStats()
{
    stats::IntervalStats s;
    s.interval = {123, 456789};
    s.timeInState[0] = 1000;
    s.timeInState[3] = 0; // Zero-sum entries must survive the trip.
    s.timeInState[7] = 0xdeadbeefcafeull;
    s.tasksOverlapping = 42;
    s.tasksStarted = 17;
    return s;
}

} // namespace

TEST(StatsExport, IntervalStatsRoundTrip)
{
    stats::IntervalStats s = sampleStats();
    ByteWriter w;
    stats::encodeIntervalStats(s, w);
    std::vector<std::uint8_t> bytes = w.take();

    ByteReader r(bytes);
    stats::IntervalStats back;
    ASSERT_TRUE(stats::decodeIntervalStats(r, back));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.interval.start, s.interval.start);
    EXPECT_EQ(back.interval.end, s.interval.end);
    EXPECT_EQ(back.timeInState, s.timeInState);
    EXPECT_EQ(back.tasksOverlapping, s.tasksOverlapping);
    EXPECT_EQ(back.tasksStarted, s.tasksStarted);
}

TEST(StatsExport, IntervalStatsEmptyRoundTrip)
{
    stats::IntervalStats s;
    ByteWriter w;
    stats::encodeIntervalStats(s, w);
    ByteReader r(w.data());
    stats::IntervalStats back;
    ASSERT_TRUE(stats::decodeIntervalStats(r, back));
    EXPECT_TRUE(back.timeInState.empty());
    EXPECT_EQ(back.tasksOverlapping, 0u);
}

TEST(StatsExport, HistogramRoundTripIsBitIdentical)
{
    std::mt19937_64 rng(7);
    std::vector<double> values;
    for (int i = 0; i < 500; i++)
        values.push_back(
            static_cast<double>(rng() % 1000000) / 3.0 + 0.125);
    stats::Histogram h = stats::Histogram::fromValues(values, 23);

    ByteWriter w;
    stats::encodeHistogram(h, w);
    ByteReader r(w.data());
    stats::Histogram back;
    ASSERT_TRUE(stats::decodeHistogram(r, back));
    EXPECT_TRUE(r.atEnd());

    ASSERT_EQ(back.numBins(), h.numBins());
    for (std::uint32_t i = 0; i < h.numBins(); i++)
        EXPECT_EQ(back.count(i), h.count(i)) << "bin " << i;
    EXPECT_EQ(back.total(), h.total());
    EXPECT_TRUE(sameBits(back.rangeMin(), h.rangeMin()));
    EXPECT_TRUE(sameBits(back.rangeMax(), h.rangeMax()));
    EXPECT_TRUE(sameBits(back.binWidth(), h.binWidth()));
    for (std::uint32_t i = 0; i < h.numBins(); i++) {
        EXPECT_TRUE(sameBits(back.binCenter(i), h.binCenter(i)));
        EXPECT_TRUE(sameBits(back.fraction(i), h.fraction(i)));
    }
}

TEST(StatsExport, HistogramDegenerateRangeRoundTrip)
{
    // All-equal observations trigger fromValues' max = min + 1 clamp;
    // the wire carries the post-clamp edges, so the trip stays exact.
    std::vector<double> values(10, 4.25);
    stats::Histogram h = stats::Histogram::fromValues(values, 5);
    ByteWriter w;
    stats::encodeHistogram(h, w);
    ByteReader r(w.data());
    stats::Histogram back;
    ASSERT_TRUE(stats::decodeHistogram(r, back));
    EXPECT_TRUE(sameBits(back.rangeMax(), h.rangeMax()));
    EXPECT_TRUE(sameBits(back.binWidth(), h.binWidth()));
    EXPECT_EQ(back.count(0), h.count(0));
    EXPECT_EQ(back.peaks(), h.peaks());
}

TEST(StatsExport, MinMaxRoundTrip)
{
    index::MinMax cases[] = {
        {-1234567890123ll, 987654321012ll, true},
        {0, 0, false},
        {-1, -1, true},
    };
    for (const index::MinMax &m : cases) {
        ByteWriter w;
        stats::encodeMinMax(m, w);
        ByteReader r(w.data());
        index::MinMax back;
        ASSERT_TRUE(stats::decodeMinMax(r, back));
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(back.valid, m.valid);
        EXPECT_EQ(back.min, m.min);
        EXPECT_EQ(back.max, m.max);
    }
}

TEST(StatsExport, MinMaxRejectsBadValidityByte)
{
    ByteWriter w;
    w.writeU8(2); // Neither 0 nor 1.
    w.writeSignedVarint(0);
    w.writeSignedVarint(0);
    ByteReader r(w.data());
    index::MinMax back;
    EXPECT_FALSE(stats::decodeMinMax(r, back));
}

namespace {

/** One finding of each kind, including the sentinel ids. */
std::vector<stats::Anomaly>
sampleAnomalies()
{
    std::vector<stats::Anomaly> findings;
    stats::Anomaly idle;
    idle.kind = stats::AnomalyKind::IdlePhase;
    idle.interval = {0, 5'000};
    idle.severity = 1.0;
    idle.description = "idle phase: up to 3 of 4 workers idle";
    findings.push_back(idle);
    stats::Anomaly outlier;
    outlier.kind = stats::AnomalyKind::DurationOutlier;
    outlier.interval = {123, 456};
    outlier.task = 77;
    outlier.severity = 0.625;
    outlier.description = "task 77 (work) ran long";
    findings.push_back(outlier);
    stats::Anomaly burst;
    burst.kind = stats::AnomalyKind::CounterBurst;
    burst.interval = {0xdeadbeefull, 0xdeadbeefull + 9};
    burst.cpu = 3;
    burst.counter = 0xabc;
    burst.severity = 0.015625;
    burst.description = ""; // Empty strings must survive the trip.
    findings.push_back(burst);
    return findings;
}

} // namespace

TEST(StatsExport, AnomaliesRoundTrip)
{
    std::vector<stats::Anomaly> findings = sampleAnomalies();
    ByteWriter w;
    stats::encodeAnomalies(findings, w);
    ByteReader r(w.data());
    std::vector<stats::Anomaly> back;
    ASSERT_TRUE(stats::decodeAnomalies(r, back));
    EXPECT_TRUE(r.atEnd());
    ASSERT_EQ(back.size(), findings.size());
    for (std::size_t i = 0; i < findings.size(); i++) {
        EXPECT_EQ(back[i].kind, findings[i].kind) << i;
        EXPECT_EQ(back[i].interval, findings[i].interval) << i;
        EXPECT_EQ(back[i].cpu, findings[i].cpu) << i;
        EXPECT_EQ(back[i].task, findings[i].task) << i;
        EXPECT_EQ(back[i].counter, findings[i].counter) << i;
        EXPECT_TRUE(sameBits(back[i].severity, findings[i].severity)) << i;
        EXPECT_EQ(back[i].description, findings[i].description) << i;
    }

    // Re-encoding the decoded list reproduces the exact bytes — the
    // property the daemon round-trip tests build on.
    ByteWriter w2;
    stats::encodeAnomalies(back, w2);
    EXPECT_EQ(w2.data(), w.data());
}

TEST(StatsExport, AnomaliesEmptyRoundTrip)
{
    ByteWriter w;
    stats::encodeAnomalies({}, w);
    ByteReader r(w.data());
    std::vector<stats::Anomaly> back = sampleAnomalies();
    ASSERT_TRUE(stats::decodeAnomalies(r, back));
    EXPECT_TRUE(back.empty());
    EXPECT_TRUE(r.atEnd());
}

TEST(StatsExport, AnomaliesRejectBadKindByte)
{
    ByteWriter w;
    w.writeVarint(1);
    w.writeU8(7); // No such kind.
    for (int i = 0; i < 40; i++)
        w.writeU8(0); // Plenty of bytes so the count bound passes.
    ByteReader r(w.data());
    std::vector<stats::Anomaly> out;
    EXPECT_FALSE(stats::decodeAnomalies(r, out));
}

TEST(StatsExport, AnomaliesRejectHostileCount)
{
    ByteWriter w;
    w.writeVarint(0xffffffffull); // Count with almost no bytes behind.
    w.writeU8(0);
    ByteReader r(w.data());
    std::vector<stats::Anomaly> out;
    EXPECT_FALSE(stats::decodeAnomalies(r, out));
}

TEST(StatsExport, TruncationFailsEveryDecoder)
{
    // Encode one valid instance of each type, then decode every
    // strict prefix: the decoder must return false (never crash, never
    // fabricate a value from the void).
    ByteWriter w;
    stats::encodeIntervalStats(sampleStats(), w);
    std::vector<std::uint8_t> stats_bytes = w.take();
    for (std::size_t len = 0; len < stats_bytes.size(); len++) {
        ByteReader r(stats_bytes.data(), len);
        stats::IntervalStats out;
        EXPECT_FALSE(stats::decodeIntervalStats(r, out))
            << "prefix " << len;
    }

    stats::Histogram h =
        stats::Histogram::fromValues({1.0, 2.0, 3.0, 4.0}, 4);
    stats::encodeHistogram(h, w);
    std::vector<std::uint8_t> histo_bytes = w.take();
    for (std::size_t len = 0; len < histo_bytes.size(); len++) {
        ByteReader r(histo_bytes.data(), len);
        stats::Histogram out;
        EXPECT_FALSE(stats::decodeHistogram(r, out)) << "prefix " << len;
    }

    stats::encodeAnomalies(sampleAnomalies(), w);
    std::vector<std::uint8_t> anomaly_bytes = w.take();
    for (std::size_t len = 0; len < anomaly_bytes.size(); len++) {
        ByteReader r(anomaly_bytes.data(), len);
        std::vector<stats::Anomaly> out;
        EXPECT_FALSE(stats::decodeAnomalies(r, out))
            << "prefix " << len;
    }
}

TEST(StatsExport, HostileCountsAreRejected)
{
    // A huge element count with almost no bytes behind it must fail at
    // the count, not allocate.
    ByteWriter w;
    w.writeU64(0);
    w.writeU64(100);
    w.writeVarint(0xffffffffffull); // timeInState "size".
    ByteReader r(w.data());
    stats::IntervalStats out;
    EXPECT_FALSE(stats::decodeIntervalStats(r, out));
}
