/**
 * @file
 * Hostile-input tests of the daemon's wire protocol (daemon/wire.h,
 * daemon/protocol.h): truncated frames, oversized length prefixes,
 * garbage bodies inside valid envelopes, and seeded random byte
 * streams. The server must answer decodable garbage with an error
 * response carrying the failing byte offset, drop unframeable streams,
 * and never crash or wedge — after every hostile connection a fresh
 * well-formed client must still be served.
 *
 * Raw bytes are written straight to the in-process socket (no Client),
 * and every read side carries a receive timeout so a server that
 * stopped responding fails the test instead of hanging it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <sys/socket.h>

#include "base/buffer.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/wire.h"
#include "render/framebuffer.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace daemon {
namespace {

/** Bound every raw read so a wedged server fails fast, never hangs. */
void
setReadTimeout(int fd, int seconds)
{
    struct timeval tv;
    tv.tv_sec = seconds;
    tv.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/** Write raw bytes, ignoring errors (the peer may already be gone). */
void
writeRaw(int fd, const std::vector<std::uint8_t> &bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return;
        done += static_cast<std::size_t>(n);
    }
}

/** A hand-assembled frame: [u32 length][u8 type][u64 request id][body]. */
std::vector<std::uint8_t>
rawFrame(std::uint8_t type, std::uint64_t request_id,
         const std::vector<std::uint8_t> &body,
         std::int64_t length_override = -1)
{
    const std::uint64_t length =
        length_override >= 0
            ? static_cast<std::uint64_t>(length_override)
            : kFrameHeaderBytes + body.size();
    std::vector<std::uint8_t> out;
    out.reserve(4 + kFrameHeaderBytes + body.size());
    for (int i = 0; i < 4; i++)
        out.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
    out.push_back(type);
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<std::uint8_t>(request_id >> (8 * i)));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

/** Perform the client half of the handshake on a raw fd. */
bool
rawHandshake(int fd)
{
    Handshake hello;
    ByteWriter w;
    encodeHandshake(hello, w);
    if (!writeFrame(fd, MsgType::Hello, 0, w.take()))
        return false;
    Frame ack;
    return readFrame(fd, ack) == FrameReadStatus::Ok &&
           ack.type == MsgType::HelloAck;
}

/** The server must still serve a well-formed client end to end. */
void
expectServerStillServes(Server &server)
{
    static const std::shared_ptr<const std::vector<std::uint8_t>> bytes =
        std::make_shared<const std::vector<std::uint8_t>>(trace::writeTrace(
            test_support::buildRandomTrace(3, [] {
                test_support::RandomTraceOptions options;
                options.cpus = 2;
                options.statesPerCpu = 20;
                return options;
            }())));
    Client client;
    std::string error;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;
    OpenTraceRequest open;
    open.bytes = bytes;
    Reply<OpenTraceReply> reply = client.openTrace(open);
    ASSERT_TRUE(reply.ok()) << reply.message;
    TaskListRequest tasks;
    tasks.head.traceId = reply.value.traceId;
    EXPECT_TRUE(client.taskList(tasks).ok());
}

TEST(DaemonProtocol, RejectsBadMagicAndAnswersWithError)
{
    Server server(Server::Options{1, 16});
    Socket socket = server.connectInProcess();
    setReadTimeout(socket.fd(), 10);

    Handshake hello;
    hello.magic = 0xDEADBEEF;
    ByteWriter w;
    encodeHandshake(hello, w);
    ASSERT_TRUE(writeFrame(socket.fd(), MsgType::Hello, 0, w.take()));

    Frame frame;
    ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
    EXPECT_EQ(frame.type, MsgType::Response);
    ByteReader r(frame.body);
    ResponseHead head;
    ASSERT_TRUE(decodeResponseHead(r, head));
    EXPECT_EQ(head.status, Status::Error);
    EXPECT_FALSE(head.message.empty());

    // And the connection closes: the next read is EOF, not a hang.
    EXPECT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Eof);
    expectServerStillServes(server);
    server.stop();
}

TEST(DaemonProtocol, V1HelloIsRejectedAndCloses)
{
    // Every request decoder reads the current layout, so a server that
    // acked an older client would fail its first query instead.
    Server server(Server::Options{1, 16});
    Socket socket = server.connectInProcess();
    setReadTimeout(socket.fd(), 10);

    Handshake hello;
    hello.version = 1;
    ByteWriter w;
    encodeHandshake(hello, w);
    ASSERT_TRUE(writeFrame(socket.fd(), MsgType::Hello, 0, w.take()));

    Frame frame;
    ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
    EXPECT_EQ(frame.type, MsgType::Response);
    ByteReader r(frame.body);
    ResponseHead head;
    ASSERT_TRUE(decodeResponseHead(r, head));
    EXPECT_EQ(head.status, Status::Error);
    EXPECT_FALSE(head.message.empty());

    EXPECT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Eof);
    expectServerStillServes(server);
    server.stop();
}

TEST(DaemonProtocol, NewerClientVersionNegotiatesDownToServers)
{
    Server server(Server::Options{1, 16});
    Socket socket = server.connectInProcess();
    setReadTimeout(socket.fd(), 10);

    Handshake hello;
    hello.version = kProtocolVersion + 7; // From the future.
    ByteWriter w;
    encodeHandshake(hello, w);
    ASSERT_TRUE(writeFrame(socket.fd(), MsgType::Hello, 0, w.take()));

    Frame frame;
    ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
    ASSERT_EQ(frame.type, MsgType::HelloAck);
    Handshake ack;
    ByteReader r(frame.body);
    ASSERT_TRUE(decodeHandshake(r, ack));
    EXPECT_EQ(ack.version, kProtocolVersion); // min(client, server).
    server.stop();
}

TEST(DaemonProtocol, OversizedLengthPrefixAnswersErrorAndCloses)
{
    Server server(Server::Options{1, 16});
    Socket socket = server.connectInProcess();
    setReadTimeout(socket.fd(), 10);
    ASSERT_TRUE(rawHandshake(socket.fd()));

    // Claim a frame bigger than the protocol allows; send no body.
    writeRaw(socket.fd(),
             rawFrame(static_cast<std::uint8_t>(MsgType::TaskList), 1, {},
                      static_cast<std::int64_t>(kMaxFrameBytes) + 1));

    Frame frame;
    ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
    EXPECT_EQ(frame.type, MsgType::Response);
    ByteReader r(frame.body);
    ResponseHead head;
    ASSERT_TRUE(decodeResponseHead(r, head));
    EXPECT_EQ(head.status, Status::Error);

    // The stream is unframeable: the server hangs up afterwards.
    EXPECT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Eof);
    EXPECT_GE(server.stats().protocolErrors, 1u);
    expectServerStillServes(server);
    server.stop();
}

TEST(DaemonProtocol, TruncatedFramesDisconnectWithoutWedging)
{
    Server server(Server::Options{1, 16});

    // A length prefix smaller than the fixed frame head, a frame cut
    // off mid-head, and one cut off mid-body.
    const std::vector<std::vector<std::uint8_t>> attacks = {
        {0x04, 0x00, 0x00, 0x00, 0x07},          // length 4 < 9
        {0xFF, 0x00, 0x00},                      // torn length prefix
        rawFrame(static_cast<std::uint8_t>(MsgType::TaskList), 1,
                 {0x01, 0x02, 0x03, 0x04}, 64),  // body shorter than length
    };
    for (const std::vector<std::uint8_t> &attack : attacks) {
        Socket socket = server.connectInProcess();
        setReadTimeout(socket.fd(), 10);
        ASSERT_TRUE(rawHandshake(socket.fd()));
        writeRaw(socket.fd(), attack);
        socket.shutdownBoth(); // Half-close: the torn frame is final.

        // The server drops the connection without an answer (there is
        // no request id to answer on) — and without crashing.
        Frame frame;
        FrameReadStatus status = readFrame(socket.fd(), frame);
        EXPECT_TRUE(status == FrameReadStatus::Eof ||
                    status == FrameReadStatus::Truncated);
    }
    expectServerStillServes(server);
    server.stop();
}

TEST(DaemonProtocol, GarbageBodiesAnswerErrorsWithByteOffsets)
{
    Server server(Server::Options{1, 16});
    Socket socket = server.connectInProcess();
    setReadTimeout(socket.fd(), 10);
    ASSERT_TRUE(rawHandshake(socket.fd()));

    // Every query type with an undecodable body must answer Error on
    // the same request id, carry a body offset, and keep the stream.
    const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0xFF, 0xFF,
                                               0xFF, 0xFF, 0xFF, 0xFF,
                                               0xFF, 0xFF, 0xFF, 0x7F};
    const std::vector<MsgType> types = {
        MsgType::OpenTrace,     MsgType::CloseTrace,
        MsgType::SetView,       MsgType::SetFilters,
        MsgType::IntervalStats, MsgType::Histogram,
        MsgType::TaskList,      MsgType::CounterExtrema,
        MsgType::TimelineRender, MsgType::Warmup,
        MsgType::AnomalyScan,   MsgType::Cancel,
    };
    std::uint64_t request_id = 1;
    for (MsgType type : types) {
        ASSERT_TRUE(
            writeFrame(socket.fd(), type, request_id, garbage));
        Frame frame;
        ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok)
            << "type " << static_cast<int>(type);
        EXPECT_EQ(frame.type, MsgType::Response);
        EXPECT_EQ(frame.requestId, request_id);
        ByteReader r(frame.body);
        ResponseHead head;
        ASSERT_TRUE(decodeResponseHead(r, head));
        EXPECT_EQ(head.status, Status::Error)
            << "type " << static_cast<int>(type);
        EXPECT_LE(head.errorOffset, garbage.size());
        EXPECT_FALSE(head.message.empty());
        request_id++;
    }

    // A response-typed frame from a client is a protocol error too.
    ASSERT_TRUE(
        writeFrame(socket.fd(), MsgType::Response, request_id, {}));
    Frame frame;
    ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
    ByteReader r(frame.body);
    ResponseHead head;
    ASSERT_TRUE(decodeResponseHead(r, head));
    EXPECT_EQ(head.status, Status::Error);

    EXPECT_GE(server.stats().protocolErrors,
              static_cast<std::uint64_t>(types.size()));
    expectServerStillServes(server);
    server.stop();
}

TEST(DaemonProtocol, SeededRandomByteStormsNeverCrashTheServer)
{
    Server server(Server::Options{1, 16});
    std::mt19937_64 rng(20260808);
    for (int round = 0; round < 32; round++) {
        Socket socket = server.connectInProcess();
        setReadTimeout(socket.fd(), 10);
        // Half the rounds attack the handshake itself, half attack the
        // post-handshake frame stream.
        if (round % 2 == 0) {
            EXPECT_TRUE(rawHandshake(socket.fd()));
        }
        std::vector<std::uint8_t> storm(1 + rng() % 512);
        for (std::uint8_t &byte : storm)
            byte = static_cast<std::uint8_t>(rng());
        writeRaw(socket.fd(), storm);
        socket.shutdownBoth();

        // Drain whatever the server answers until it hangs up; the
        // receive timeout turns a wedged server into a test failure.
        Frame frame;
        int guard = 0;
        while (readFrame(socket.fd(), frame) == FrameReadStatus::Ok &&
               guard++ < 1000) {
        }
        EXPECT_LT(guard, 1000);
    }
    expectServerStillServes(server);
    server.stop();
}

TEST(DaemonProtocol, AnomalyScanRequestRoundTripsAndValidates)
{
    AnomalyScanRequest request;
    request.head.traceId = 42;
    request.head.priority = WirePriority::Background;
    request.interval = TimeInterval{7, 900};
    request.options.numIntervals = 64;
    request.options.idleWorkerFraction = 0.25;
    request.options.durationZScore = 2.5;
    request.options.burstFactor = 8.0;
    request.options.maxPerKind = 5;

    ByteWriter w;
    encodeAnomalyScanRequest(request, w);
    ByteReader r(w.data());
    AnomalyScanRequest back;
    ASSERT_TRUE(decodeAnomalyScanRequest(r, back));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.head.traceId, 42u);
    EXPECT_EQ(back.head.priority, WirePriority::Background);
    ASSERT_TRUE(back.interval.has_value());
    EXPECT_EQ(*back.interval, TimeInterval(7, 900));
    EXPECT_EQ(back.options.numIntervals, 64u);
    EXPECT_EQ(back.options.idleWorkerFraction, 0.25);
    EXPECT_EQ(back.options.durationZScore, 2.5);
    EXPECT_EQ(back.options.burstFactor, 8.0);
    EXPECT_EQ(back.options.maxPerKind, 5u);

    // A nullopt interval (scan the current view) round-trips too.
    request.interval.reset();
    ByteWriter w2;
    encodeAnomalyScanRequest(request, w2);
    ByteReader r2(w2.data());
    ASSERT_TRUE(decodeAnomalyScanRequest(r2, back));
    EXPECT_FALSE(back.interval.has_value());

    // Structurally invalid thresholds must fail the decoder instead of
    // reaching the scanner: a zero or absurd sub-interval count and
    // non-finite doubles.
    auto rejects = [](const AnomalyScanRequest &bad) {
        ByteWriter bw;
        encodeAnomalyScanRequest(bad, bw);
        ByteReader br(bw.data());
        AnomalyScanRequest out;
        return !decodeAnomalyScanRequest(br, out);
    };
    AnomalyScanRequest bad = request;
    bad.options.numIntervals = 0;
    EXPECT_TRUE(rejects(bad));
    bad = request;
    bad.options.numIntervals = (1u << 20) + 1;
    EXPECT_TRUE(rejects(bad));
    bad = request;
    bad.options.burstFactor = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(rejects(bad));
    bad = request;
    bad.options.durationZScore = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(rejects(bad));
    bad = request;
    bad.options.idleWorkerFraction =
        -std::numeric_limits<double>::infinity();
    EXPECT_TRUE(rejects(bad));
}

TEST(DaemonProtocol, RenderReplyRunsSpanRowsAndMatchGoldenBytes)
{
    // A 3x2 frame, rows "A A B" and "B B C": the B run crosses the row
    // boundary, so the codec must see one run of 3, not two runs.
    const render::Rgba a{1, 2, 3, 255};
    const render::Rgba b{9, 8, 7, 6};
    const render::Rgba c{0, 0, 0, 0};
    RenderReply reply;
    reply.fb = render::Framebuffer(3, 2, b);
    reply.fb.setPixel(0, 0, a);
    reply.fb.setPixel(1, 0, a);
    reply.fb.setPixel(2, 1, c);
    reply.stats.rectOps = 5;
    reply.stats.eventsVisited = 300;
    reply.stats.resolution.exact = false;
    reply.stats.resolution.nodesTouched = 1;
    reply.stats.resolution.granularityNs = 128;

    ByteWriter w;
    encodeRenderReply(reply, w);
    const std::vector<std::uint8_t> golden = {
        3, 0, 0, 0, 2, 0, 0, 0, // width, height (u32 LE)
        2, 1, 2, 3, 255,        // run 2 of A
        3, 9, 8, 7, 6,          // run 3 of B, across the row boundary
        1, 0, 0, 0, 0,          // run 1 of C
        5, 0, 0xac, 0x02,       // rectOps, lineOps, eventsVisited
        0, 1, 0x80, 0x01};      // exact, nodesTouched, granularityNs
    EXPECT_EQ(w.data(), golden);

    ByteReader r(golden);
    RenderReply back;
    ASSERT_TRUE(decodeRenderReply(r, back));
    EXPECT_TRUE(r.atEnd());
    for (std::int64_t y = 0; y < 2; y++)
        for (std::int64_t x = 0; x < 3; x++)
            EXPECT_EQ(back.fb.pixel(x, y), reply.fb.pixel(x, y))
                << x << "," << y;
    EXPECT_EQ(back.stats.eventsVisited, 300u);
    EXPECT_EQ(back.stats.resolution.granularityNs, 128u);

    // A zero-length run and a run past the frame's end are rejected.
    for (std::uint8_t bad_run : {0, 5}) {
        std::vector<std::uint8_t> bytes = golden;
        bytes[13] = bad_run; // The B run.
        ByteReader br(bytes);
        RenderReply out;
        EXPECT_FALSE(decodeRenderReply(br, out)) << int(bad_run);
    }
}

TEST(DaemonProtocol, RequestsBeforeHandshakeAreRejected)
{
    Server server(Server::Options{1, 16});
    Socket socket = server.connectInProcess();
    setReadTimeout(socket.fd(), 10);

    // Skip Hello entirely and go straight to a query.
    TaskListRequest request;
    request.head.traceId = 1;
    ByteWriter w;
    encodeTaskListRequest(request, w);
    ASSERT_TRUE(
        writeFrame(socket.fd(), MsgType::TaskList, 1, w.take()));

    Frame frame;
    ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
    EXPECT_EQ(frame.type, MsgType::Response);
    ByteReader r(frame.body);
    ResponseHead head;
    ASSERT_TRUE(decodeResponseHead(r, head));
    EXPECT_EQ(head.status, Status::Error);
    EXPECT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Eof);
    expectServerStillServes(server);
    server.stop();
}

} // namespace
} // namespace daemon
} // namespace aftermath
