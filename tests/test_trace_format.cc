/** @file Round-trip and robustness tests of the on-disk trace format. */

#include <gtest/gtest.h>

#include <cstdio>

#include "index/summary_pyramid.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace trace {
namespace {

using test_support::buildRandomTrace;
using test_support::expectTracesEqual;

/** The shared random-trace fixture at this file's historic density. */
Trace
randomTrace(std::uint64_t seed, std::uint32_t num_cpus = 4)
{
    test_support::RandomTraceOptions options;
    options.cpus = num_cpus;
    return buildRandomTrace(seed, options);
}

/** Property sweep over seeds x encodings. */
class FormatRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, Encoding>>
{};

TEST_P(FormatRoundTrip, PreservesEverything)
{
    auto [seed, encoding] = GetParam();
    Trace original = randomTrace(seed);
    std::vector<std::uint8_t> bytes = writeTrace(original, encoding);
    ReadResult result = readTrace(bytes);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.encoding, encoding);
    expectTracesEqual(original, result.trace);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FormatRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 42, 999),
                       ::testing::Values(Encoding::Raw,
                                         Encoding::Compact)));

TEST(Format, CompactIsSmallerThanRaw)
{
    Trace tr = randomTrace(7, 8);
    auto raw = writeTrace(tr, Encoding::Raw);
    auto compact = writeTrace(tr, Encoding::Compact);
    EXPECT_LT(compact.size(), raw.size() / 2)
        << "compact " << compact.size() << " vs raw " << raw.size();
}

TEST(Format, WrappedTaskIntervalsRoundTrip)
{
    // A task whose end wraps below its start (hostile bytes) must come
    // back as read: writing its duration as 0 would move it far past
    // the span and the pyramid domain end up to about 2^64.
    const Trace wrapped =
        test_support::buildWrappedTaskTrace(buildRandomTrace(61));
    const TimeStamp domain_end =
        index::TracePyramids(wrapped).domainEnd();
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        ReadResult result = readTrace(writeTrace(wrapped, encoding));
        ASSERT_TRUE(result.ok) << result.error;
        expectTracesEqual(wrapped, result.trace);
        EXPECT_EQ(index::TracePyramids(result.trace).domainEnd(),
                  domain_end);
    }
}

TEST(Format, FileRoundTrip)
{
    Trace tr = randomTrace(21);
    std::string path = ::testing::TempDir() + "/aftermath_roundtrip.ostv";
    std::string error;
    ASSERT_TRUE(writeTraceFile(tr, path, Encoding::Compact, error))
        << error;
    ReadResult result = readTraceFile(path);
    ASSERT_TRUE(result.ok) << result.error;
    expectTracesEqual(tr, result.trace);
    std::remove(path.c_str());
}

TEST(Format, MissingFileReportsError)
{
    ReadResult result = readTraceFile("/nonexistent/path/trace.ostv");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(FormatErrors, BadMagicRejected)
{
    std::vector<std::uint8_t> bytes = {'N', 'O', 'P', 'E', 0, 0, 0, 0};
    bytes.resize(32, 0);
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(FormatErrors, BadVersionRejected)
{
    Trace tr = randomTrace(1);
    auto bytes = writeTrace(tr, Encoding::Raw);
    bytes[4] = 0x63; // Version field.
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("version"), std::string::npos);
}

TEST(FormatErrors, UnknownEncodingRejected)
{
    Trace tr = randomTrace(1);
    auto bytes = writeTrace(tr, Encoding::Raw);
    bytes[6] = 0x7f; // Encoding field.
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("encoding"), std::string::npos);
}

TEST(FormatErrors, UnknownFrameTypeRejected)
{
    Trace tr = randomTrace(1);
    auto bytes = writeTrace(tr, Encoding::Raw);
    // Corrupt the first frame tag after the 16-byte header.
    bytes[16] = 0xee;
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
}

TEST(FormatErrors, EveryTruncationFailsCleanly)
{
    Trace tr = randomTrace(3, 2);
    auto bytes = writeTrace(tr, Encoding::Compact);
    // Chop the stream at many prefix lengths: the reader must reject
    // each without crashing (end-of-trace frame is mandatory).
    for (std::size_t len = 0; len < bytes.size() - 1;
         len += 1 + len / 16) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() + len);
        ReadResult result = readTrace(prefix);
        EXPECT_FALSE(result.ok) << "prefix " << len << " unexpectedly ok";
        EXPECT_FALSE(result.error.empty());
    }
}

TEST(FormatErrors, EventBeforeTopologyRejected)
{
    TraceWriter writer(Encoding::Raw);
    writer.stateEvent(0, {{0, 10}, 0, kInvalidTaskInstance});
    auto bytes = writer.finish();
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("topology"), std::string::npos);
}

TEST(FormatErrors, EventOnCpuOutsideTopologyRejected)
{
    TraceWriter writer(Encoding::Raw);
    writer.topology(MachineTopology::uniform(1, 2));
    writer.stateEvent(5, {{0, 10}, 0, kInvalidTaskInstance});
    auto bytes = writer.finish();
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("outside topology"), std::string::npos);
}

TEST(FormatErrors, OverlappingStatesRejectedAtValidation)
{
    TraceWriter writer(Encoding::Raw);
    writer.topology(MachineTopology::uniform(1, 1));
    writer.stateEvent(0, {{0, 10}, 0, kInvalidTaskInstance});
    writer.stateEvent(0, {{5, 15}, 1, kInvalidTaskInstance});
    auto bytes = writer.finish();
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("validation"), std::string::npos);
}

TEST(FormatErrors, DuplicateTopologyRejected)
{
    TraceWriter writer(Encoding::Raw);
    writer.topology(MachineTopology::uniform(1, 1));
    writer.topology(MachineTopology::uniform(1, 1));
    auto bytes = writer.finish();
    ReadResult result = readTrace(bytes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("duplicate"), std::string::npos);
}

TEST(Format, InterleavedCpuStreamsAccepted)
{
    // Events from different CPUs freely interleaved; per-CPU order kept.
    TraceWriter writer(Encoding::Compact);
    writer.topology(MachineTopology::uniform(1, 2));
    writer.stateEvent(0, {{0, 10}, 0, kInvalidTaskInstance});
    writer.stateEvent(1, {{5, 25}, 1, kInvalidTaskInstance});
    writer.stateEvent(0, {{10, 30}, 2, kInvalidTaskInstance});
    writer.stateEvent(1, {{25, 30}, 0, kInvalidTaskInstance});
    writer.counterSample(1, 0, {5, 100});
    writer.counterSample(0, 0, {2, 50});
    auto bytes = writer.finish();
    ReadResult result = readTrace(bytes);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.trace.cpu(0).states().size(), 2u);
    EXPECT_EQ(result.trace.cpu(1).states().size(), 2u);
}

} // namespace
} // namespace trace
} // namespace aftermath
