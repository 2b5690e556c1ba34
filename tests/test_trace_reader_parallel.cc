/**
 * @file
 * Property and robustness tests of the two-phase parallel trace reader:
 * writer->reader round-trip bit-identity across encodings and CPU
 * counts, serial == parallel decode equality at every worker count, a
 * full corruption sweep (every truncation, every single-byte flip),
 * offset-bearing diagnostics, cooperative cancellation, and the
 * asynchronous TraceLoadQuery plane. The parallel-decode tests run
 * under TSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/thread_pool.h"
#include "session/session.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace trace {
namespace {

using test_support::buildRandomTrace;
using test_support::expectTracesEqual;
using test_support::RandomTraceOptions;

/** Workers settings every equality test sweeps. */
const unsigned kWorkerCounts[] = {1, 2, 4, 8};

/**
 * Round-trip @p tr through @p encoding at every worker count and
 * assert all decodes are bit-identical to the original (record-level
 * equality plus re-serialized byte equality, the strongest oracle).
 */
void
expectRoundTripIdentical(const Trace &tr, Encoding encoding)
{
    std::vector<std::uint8_t> bytes = writeTrace(tr, encoding);
    std::vector<std::uint8_t> serial_reencoded;
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_TRUE(result.ok)
            << "workers " << workers << ": " << result.error;
        EXPECT_EQ(result.encoding, encoding);
        EXPECT_EQ(result.bytesRead, bytes.size());
        expectTracesEqual(tr, result.trace);
        // Re-serialize: equal bytes means equal traces, bit for bit.
        std::vector<std::uint8_t> reencoded =
            writeTrace(result.trace, Encoding::Raw);
        if (workers == 1)
            serial_reencoded = std::move(reencoded);
        else
            EXPECT_EQ(reencoded, serial_reencoded)
                << "workers " << workers
                << " decode differs from serial";
    }
}

/** Seeds x encodings x CPU counts, including the degenerate ones. */
class ReaderRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, Encoding>>
{};

TEST_P(ReaderRoundTrip, BitIdenticalAtEveryWorkerCount)
{
    auto [seed, encoding] = GetParam();
    for (std::uint32_t cpus : {1u, 3u, 16u}) {
        RandomTraceOptions options;
        options.cpus = cpus;
        options.statesPerCpu = 40;
        expectRoundTripIdentical(buildRandomTrace(seed, options),
                                 encoding);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReaderRoundTrip,
    ::testing::Combine(::testing::Values(1, 5, 77),
                       ::testing::Values(Encoding::Raw,
                                         Encoding::Compact)));

TEST(ReaderRoundTrip, LargeTraceExercisesThePool)
{
    // Big enough (> 4096 per-CPU frames) that workers > 1 really
    // decodes on a ThreadPool instead of the small-trace fallback.
    RandomTraceOptions options;
    options.cpus = 16;
    options.counters = 2;
    options.statesPerCpu = 200;
    Trace tr = buildRandomTrace(99, options);
    expectRoundTripIdentical(tr, Encoding::Raw);
    expectRoundTripIdentical(tr, Encoding::Compact);
}

TEST(ReaderRoundTrip, EmptyTrace)
{
    // Topology only: no events, no descriptions, no tasks.
    TraceWriter writer(Encoding::Compact);
    writer.topology(MachineTopology::uniform(1, 1));
    std::vector<std::uint8_t> bytes = writer.finish();
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.trace.numCpus(), 1u);
        EXPECT_EQ(result.trace.cpu(0).states().size(), 0u);
        EXPECT_EQ(result.trace.taskInstances().size(), 0u);
    }
}

TEST(ReaderRoundTrip, SingleCpuTrace)
{
    RandomTraceOptions options;
    options.cpus = 1;
    options.nodes = 1;
    options.statesPerCpu = 60;
    expectRoundTripIdentical(buildRandomTrace(3, options),
                             Encoding::Compact);
}

TEST(ReaderRoundTrip, GlobalFramesOnlyTrace)
{
    // Descriptions, task types/instances and memory frames but not a
    // single per-CPU event frame: the decode phase has nothing to do.
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        TraceWriter writer(encoding, 3'000'000'000);
        writer.topology(MachineTopology::uniform(2, 2));
        writer.stateDescription({0, "exec"});
        writer.counterDescription({7, "cycles"});
        writer.taskType({0xbeef, "work"});
        writer.taskInstance({1, 0xbeef, 0, {10, 90}});
        writer.taskInstance({2, 0xbeef, 3, {20, 50}});
        writer.memRegion({1, 0x1000, 0x100, 0});
        writer.memAccess({1, 0x1010, 8, true});
        std::vector<std::uint8_t> bytes = writer.finish();
        for (unsigned workers : kWorkerCounts) {
            ReadOptions options;
            options.workers = workers;
            ReadResult result = readTrace(bytes, options);
            ASSERT_TRUE(result.ok) << result.error;
            EXPECT_EQ(result.trace.taskInstances().size(), 2u);
            EXPECT_EQ(result.trace.memRegions().size(), 1u);
            EXPECT_EQ(result.trace.memAccesses().size(), 1u);
            EXPECT_EQ(result.trace.counterName(7), "cycles");
        }
    }
}

TEST(ReaderRoundTrip, TrailingBytesAfterEndOfTraceIgnored)
{
    Trace tr = buildRandomTrace(11, {.cpus = 2, .statesPerCpu = 10});
    std::vector<std::uint8_t> bytes = writeTrace(tr, Encoding::Compact);
    std::size_t real_size = bytes.size();
    bytes.insert(bytes.end(), 64, 0xab);
    ReadResult result = readTrace(bytes);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.bytesRead, real_size);
    expectTracesEqual(tr, result.trace);
}

// ---- Corruption sweeps -------------------------------------------------

/** A small valid trace for the exhaustive corruption sweeps. */
std::vector<std::uint8_t>
smallTraceBytes(Encoding encoding)
{
    RandomTraceOptions options;
    options.cpus = 2;
    options.counters = 1;
    options.statesPerCpu = 4;
    return writeTrace(buildRandomTrace(17, options), encoding);
}

/** Errors must locate the problem: byte offset, or a semantic class. */
void
expectActionableError(const ReadResult &result, const char *what,
                      std::size_t position)
{
    EXPECT_FALSE(result.error.empty())
        << what << " at " << position << ": empty diagnostic";
    bool located =
        result.error.find("offset") != std::string::npos ||
        result.error.find("topology") != std::string::npos ||
        result.error.find("validation") != std::string::npos;
    EXPECT_TRUE(located) << what << " at " << position
                         << ": diagnostic carries no location: "
                         << result.error;
}

TEST(ReaderCorruption, EveryTruncationFailsCleanly)
{
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        std::vector<std::uint8_t> bytes = smallTraceBytes(encoding);
        for (std::size_t len = 0; len < bytes.size(); len++) {
            std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + len);
            ReadResult result = readTrace(prefix);
            ASSERT_FALSE(result.ok) << "truncation at " << len;
            expectActionableError(result, "truncation", len);
        }
    }
}

TEST(ReaderCorruption, EveryByteFlipFailsCleanlyOrStaysValid)
{
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        std::vector<std::uint8_t> bytes = smallTraceBytes(encoding);
        for (std::size_t pos = 0; pos < bytes.size(); pos++) {
            for (std::uint8_t flip : {std::uint8_t{0x01},
                                      std::uint8_t{0x80},
                                      std::uint8_t{0xff}}) {
                std::vector<std::uint8_t> corrupt = bytes;
                corrupt[pos] ^= flip;
                // Must never crash; a flip in a value payload may still
                // decode to a valid trace, which is fine.
                ReadResult result = readTrace(corrupt);
                if (!result.ok)
                    expectActionableError(result, "byte flip", pos);
            }
        }
    }
}

TEST(ReaderCorruption, DiagnosticsCarryOffsetAndFrameKind)
{
    // A compact StateEvent whose state field overflows 32 bits: the
    // scan accepts the structure, the decode phase reports it with the
    // frame's offset and kind — identically at every worker count.
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(1); // cpus
    writer.writeVarint(1); // nodes
    writer.writeVarint(0); // cpu 0 -> node 0
    writer.writeVarint(10); // distance
    std::size_t bad_offset = writer.size();
    writer.writeU8(static_cast<std::uint8_t>(FrameType::StateEvent));
    writer.writeVarint(0);                  // cpu
    writer.writeVarint(0x1'0000'0000ull);   // state: overflows u32
    writer.writeSignedVarint(5);            // time delta
    writer.writeVarint(10);                 // duration
    writer.writeVarint(0);                  // task
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    std::vector<std::uint8_t> bytes = writer.take();

    std::string first_error;
    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_FALSE(result.ok) << "workers " << workers;
        EXPECT_NE(result.error.find("StateEvent"), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(bad_offset)),
                  std::string::npos)
            << result.error;
        if (workers == 1)
            first_error = result.error;
        else
            EXPECT_EQ(result.error, first_error);
    }
}

TEST(ReaderCorruption, ParallelDecodeReportsLowestOffsetError)
{
    // Two corrupt frames on different CPUs: the reported diagnostic is
    // the lower-offset one no matter how the runs are scheduled.
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(2);
    writer.writeVarint(1);
    writer.writeVarint(0);
    writer.writeVarint(0);
    writer.writeVarint(10);
    auto bad_state_event = [&](std::uint32_t cpu) {
        writer.writeU8(static_cast<std::uint8_t>(FrameType::StateEvent));
        writer.writeVarint(cpu);
        writer.writeVarint(0x1'0000'0000ull); // state overflows u32
        writer.writeSignedVarint(5);
        writer.writeVarint(10);
        writer.writeVarint(0);
    };
    std::size_t first_bad = writer.size();
    bad_state_event(1); // Earlier in the stream, on cpu 1.
    bad_state_event(0); // Later, on cpu 0 (decoded first by cpu order).
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    std::vector<std::uint8_t> bytes = writer.take();

    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_FALSE(result.ok);
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(first_bad)),
                  std::string::npos)
            << "workers " << workers << ": " << result.error;
    }
}

TEST(ReaderCorruption, OverlongVarintsReachingBufferEndFailCleanly)
{
    // A compact MemAccess whose three "varints" are over-long
    // continuation runs placed so that skipping them lands exactly on
    // the buffer end, leaving no room for the trailing is-write byte.
    // The scan's word-at-a-time skip does not bound varint length, so
    // this must fail as a truncated frame — never read past the end.
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(1);  // cpus
    writer.writeVarint(1);  // nodes
    writer.writeVarint(0);  // cpu 0 -> node 0
    writer.writeVarint(10); // distance
    std::size_t frame_offset = writer.size();
    writer.writeU8(static_cast<std::uint8_t>(FrameType::MemAccess));
    for (int i = 0; i < 57; i++)
        writer.writeU8(0x80); // "task": 58-byte continuation run...
    writer.writeU8(0x01);     // ...terminated.
    writer.writeU8(0x01);     // "address": 1 byte.
    for (int i = 0; i < 9; i++)
        writer.writeU8(0x80); // "size": 10 bytes, terminator at the
    writer.writeU8(0x01);     // very last byte of the buffer.
    std::vector<std::uint8_t> bytes = writer.take();

    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_FALSE(result.ok) << "workers " << workers;
        EXPECT_NE(result.error.find("MemAccess"), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find(
                      "offset " + std::to_string(frame_offset)),
                  std::string::npos)
            << result.error;
    }
}

TEST(ReaderCorruption, SampledCorruptionIsIdenticalAtEveryWorkerCount)
{
    // Every CPU lane fills a 4096-frame batch, so workers > 1 decode on
    // the pipeline while the scan runs: a corrupt byte must give the
    // same outcome whether it stops the scan with pumps in flight,
    // fails one lane's decode, or decodes to a different valid trace.
    RandomTraceOptions options;
    options.cpus = 3;
    options.statesPerCpu = 1700;
    const Trace tr = buildRandomTrace(31, options);
    for (Encoding encoding : {Encoding::Raw, Encoding::Compact}) {
        const std::vector<std::uint8_t> bytes = writeTrace(tr, encoding);
        Rng rng(encoding == Encoding::Raw ? 101 : 202);
        for (int sample = 0; sample < 48; sample++) {
            const std::size_t pos = rng.nextBounded(bytes.size());
            std::vector<std::vector<std::uint8_t>> corruptions;
            corruptions.emplace_back(bytes.begin(), bytes.begin() + pos);
            for (std::uint8_t flip : {std::uint8_t{0x01},
                                      std::uint8_t{0x80},
                                      std::uint8_t{0xff}}) {
                corruptions.push_back(bytes);
                corruptions.back()[pos] ^= flip;
            }
            for (std::size_t kind = 0; kind < corruptions.size(); kind++) {
                SCOPED_TRACE("position " + std::to_string(pos) +
                             ", corruption " + std::to_string(kind));
                ReadResult serial;
                std::vector<std::uint8_t> serial_reencoded;
                for (unsigned workers : {1u, 2u, 4u}) {
                    ReadOptions read_options;
                    read_options.workers = workers;
                    ReadResult result =
                        readTrace(corruptions[kind], read_options);
                    std::vector<std::uint8_t> reencoded;
                    if (result.ok)
                        reencoded = writeTrace(result.trace, Encoding::Raw);
                    if (workers == 1) {
                        serial = std::move(result);
                        serial_reencoded = std::move(reencoded);
                        continue;
                    }
                    EXPECT_EQ(result.ok, serial.ok) << "workers " << workers;
                    EXPECT_EQ(result.cancelled, serial.cancelled);
                    EXPECT_EQ(result.error, serial.error);
                    EXPECT_EQ(result.bytesRead, serial.bytesRead);
                    EXPECT_EQ(reencoded, serial_reencoded)
                        << "workers " << workers;
                }
            }
        }
    }
}

TEST(ReaderRoundTrip, OverlongCpuIdsKeepFrameBoundaries)
{
    // CPU ids varint-encoded in 10 and in 9 bytes (readVarint accepts
    // both). The scan skips a frame that repeats the previous frame's
    // (tag, CPU id) prefix after one 8-byte compare; two prefixes that
    // agree on their first 8 bytes but differ in length must not pass
    // for one another, or the scan loses the frame boundaries.
    ByteWriter writer;
    writer.writeU32(kTraceMagic);
    writer.writeU16(kTraceVersion);
    writer.writeU16(static_cast<std::uint16_t>(Encoding::Compact));
    writer.writeU64(2'000'000'000);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::Topology));
    writer.writeVarint(1);  // cpus
    writer.writeVarint(1);  // nodes
    writer.writeVarint(0);  // cpu 0 -> node 0
    writer.writeVarint(10); // distance
    auto state_event = [&](int cpu_id_bytes) {
        writer.writeU8(static_cast<std::uint8_t>(FrameType::StateEvent));
        for (int i = 1; i < cpu_id_bytes; i++)
            writer.writeU8(0x80); // Over-long encoding of cpu 0...
        writer.writeU8(0x00);     // ...terminated.
        writer.writeVarint(0);        // state
        writer.writeSignedVarint(20); // time delta
        writer.writeVarint(10);       // duration
        writer.writeVarint(0);        // task
    };
    for (int i = 0; i < 100; i++)
        state_event(10);
    state_event(9);
    for (int i = 0; i < 100; i++)
        state_event(10);
    writer.writeU8(static_cast<std::uint8_t>(FrameType::EndOfTrace));
    std::vector<std::uint8_t> bytes = writer.take();

    for (unsigned workers : kWorkerCounts) {
        ReadOptions options;
        options.workers = workers;
        ReadResult result = readTrace(bytes, options);
        ASSERT_TRUE(result.ok) << "workers " << workers << ": "
                               << result.error;
        EXPECT_EQ(result.bytesRead, bytes.size());
        EXPECT_EQ(result.trace.cpu(0).states().size(), 201u);
    }
}

// ---- Cancellation ------------------------------------------------------

TEST(ReaderCancellation, PreCancelledTokenStopsTheLoad)
{
    std::vector<std::uint8_t> bytes = smallTraceBytes(Encoding::Compact);
    ReadOptions options;
    options.workers = 2;
    options.cancel.requestCancel();
    ReadResult result = readTrace(bytes, options);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.cancelled);
    EXPECT_NE(result.error.find("cancelled"), std::string::npos);
}

TEST(ReaderCancellation, ValidLoadIsNotCancelled)
{
    std::vector<std::uint8_t> bytes = smallTraceBytes(Encoding::Raw);
    ReadOptions options;
    ReadResult result = readTrace(bytes, options);
    EXPECT_TRUE(result.ok);
    EXPECT_FALSE(result.cancelled);
}

// ---- The asynchronous TraceLoadQuery plane -----------------------------

TEST(TraceLoadQuery, LoadsAndSwapsATrace)
{
    RandomTraceOptions options;
    options.cpus = 6;
    options.statesPerCpu = 30;
    Trace next = buildRandomTrace(23, options);
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        writeTrace(next, Encoding::Compact));

    Session session(buildRandomTrace(1, {.cpus = 2}));
    session.setConcurrency({2});
    session::TraceLoadQuery query;
    query.bytes = bytes;
    auto ticket = session.submit(query);
    session::TraceLoadResult result = ticket.take();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_NE(result.trace, nullptr);
    EXPECT_EQ(result.encoding, Encoding::Compact);
    EXPECT_EQ(result.bytesRead, bytes->size());
    expectTracesEqual(next, *result.trace);

    // The driving thread swaps the loaded trace in.
    session.setTrace(result.trace);
    EXPECT_EQ(session.trace().numCpus(), 6u);
    EXPECT_GT(session.intervalStats().tasksStarted, 0u);
}

TEST(TraceLoadQuery, ReportsReadErrors)
{
    auto garbage = std::make_shared<const std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>{'n', 'o', 'p', 'e', 0, 1, 2, 3});
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session::TraceLoadQuery query;
    query.bytes = garbage;
    session::TraceLoadResult result = session.submit(query).take();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.trace, nullptr);
    EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(TraceLoadQuery, ReportsMissingFile)
{
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session::TraceLoadQuery query;
    query.path = "/nonexistent/aftermath_load.ostv";
    session::TraceLoadResult result = session.submit(query).take();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(TraceLoadQuery, QueuedLoadCancelsBeforeRunning)
{
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session.setConcurrency({1});
    // Occupy the single engine worker so the load stays queued.
    std::atomic<bool> release{false};
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([&] {
            while (!release.load(std::memory_order_acquire)) {}
        });
    });
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        smallTraceBytes(Encoding::Raw));
    session::TraceLoadQuery query;
    query.bytes = bytes;
    auto ticket = session.submit(query);
    ticket.cancel();
    release.store(true, std::memory_order_release);
    EXPECT_EQ(ticket.wait(), session::QueryStatus::Cancelled);
}

TEST(TraceLoadQuery, GenerationBumpsDoNotCancelALoad)
{
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        smallTraceBytes(Encoding::Compact));
    Session session(buildRandomTrace(1, {.cpus = 2}));
    session::TraceLoadQuery query;
    query.bytes = bytes;
    auto ticket = session.submit(query);
    // View and filter mutations must not invalidate the load.
    session.setView({0, 10});
    session.clearFilters();
    session::TraceLoadResult result = ticket.take();
    EXPECT_TRUE(result.ok) << result.error;
}

} // namespace
} // namespace trace
} // namespace aftermath
