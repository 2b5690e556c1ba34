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

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "base/buffer.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/wire.h"
#include "render/framebuffer.h"
#include "render/lane_image.h"
#include "session/session.h"
#include "trace/state.h"
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

TEST(DaemonProtocol, OlderHellosAreRejectedAndClose)
{
    // Every request decoder reads the current layout, and a v2 client
    // would read v3 render replies as pixel runs, so a server that
    // acked an older client would fail its queries instead.
    Server server(Server::Options{1, 16});
    for (std::uint32_t version : {1u, kProtocolVersion - 1}) {
        Socket socket = server.connectInProcess();
        setReadTimeout(socket.fd(), 10);

        Handshake hello;
        hello.version = version;
        ByteWriter w;
        encodeHandshake(hello, w);
        ASSERT_TRUE(writeFrame(socket.fd(), MsgType::Hello, 0, w.take()));

        Frame frame;
        ASSERT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Ok);
        EXPECT_EQ(frame.type, MsgType::Response);
        ByteReader r(frame.body);
        ResponseHead head;
        ASSERT_TRUE(decodeResponseHead(r, head));
        EXPECT_EQ(head.status, Status::Error) << "version " << version;
        EXPECT_FALSE(head.message.empty());

        EXPECT_EQ(readFrame(socket.fd(), frame), FrameReadStatus::Eof);
    }
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

TEST(DaemonProtocol, ClientRefusesAnAckOfAnotherVersion)
{
    // An older server acks its own version; its render replies are not
    // lane images, so the client must not go on.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket server_end(fds[1]);
    std::thread older_server([fd = server_end.fd()] {
        Frame hello;
        if (readFrame(fd, hello) != FrameReadStatus::Ok)
            return;
        Handshake ack;
        ack.version = kProtocolVersion - 1;
        ack.inflightCap = 4;
        ByteWriter w;
        encodeHandshake(ack, w);
        writeFrame(fd, MsgType::HelloAck, 0, w.take());
    });
    Client client;
    std::string error;
    EXPECT_FALSE(client.adopt(Socket(fds[0]), error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    older_server.join();
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

/**
 * Encode @p request, compare its bytes with @p wire, decode them whole
 * into @p back, and check that every strict prefix fails to decode.
 */
template <typename Request, typename Encoded>
void
expectControlBody(const Request &request,
                  void (*encode)(Encoded, ByteWriter &),
                  bool (*decode)(ByteReader &, Request &),
                  const std::vector<std::uint8_t> &wire, Request &back)
{
    ByteWriter w;
    encode(request, w);
    EXPECT_EQ(w.data(), wire);
    ByteReader r(wire);
    ASSERT_TRUE(decode(r, back));
    EXPECT_TRUE(r.atEnd());
    for (std::size_t len = 0; len < wire.size(); len++) {
        const std::vector<std::uint8_t> prefix(wire.begin(),
                                               wire.begin() + len);
        ByteReader pr(prefix);
        Request out;
        EXPECT_FALSE(decode(pr, out)) << "prefix of " << len << " bytes";
    }
}

TEST(DaemonProtocol, ControlRequestBodiesRoundTripWithTheirWireBytes)
{
    // The bodies of CloseTrace, SetView, SetFilters and Cancel keep the
    // bytes the protocol has always carried for them.
    std::uint64_t trace_id = 0;
    expectControlBody<std::uint64_t>(300, encodeCloseTrace,
                                     decodeCloseTrace, {0xac, 0x02},
                                     trace_id);
    EXPECT_EQ(trace_id, 300u);

    SetViewRequest view;
    expectControlBody<SetViewRequest>(
        {5, {7, 900}}, encodeSetView, decodeSetView,
        {5, 7, 0, 0, 0, 0, 0, 0, 0, 0x84, 0x03, 0, 0, 0, 0, 0, 0}, view);
    EXPECT_EQ(view.traceId, 5u);
    EXPECT_EQ(view.view, TimeInterval(7, 900));

    FilterSpec types;
    types.kind = FilterSpec::Kind::TaskType;
    types.ids = {0x1000, 3};
    SetFiltersRequest filters;
    expectControlBody<SetFiltersRequest>(
        {9, {types}}, encodeSetFilters, decodeSetFilters,
        {9, 1, 0, 2, 0x80, 0x20, 3}, filters);
    EXPECT_EQ(filters.traceId, 9u);
    ASSERT_EQ(filters.specs.size(), 1u);
    EXPECT_EQ(filters.specs[0].kind, FilterSpec::Kind::TaskType);
    EXPECT_EQ(filters.specs[0].ids, types.ids);

    std::uint64_t target = 0;
    expectControlBody<std::uint64_t>(
        0x0807060504030201, encodeCancel, decodeCancel,
        {1, 2, 3, 4, 5, 6, 7, 8}, target);
    EXPECT_EQ(target, 0x0807060504030201u);
}

/** The counter restriction of @p body after decoding it whole. */
std::vector<CounterId>
decodedWarmupCounters(const std::vector<std::uint8_t> &body)
{
    ByteReader r(body);
    WarmupRequest back;
    EXPECT_TRUE(decodeWarmupRequest(r, back));
    EXPECT_TRUE(r.atEnd());
    return back.policy.counters;
}

TEST(DaemonProtocol, WarmupRequestDecodesItsCountersAsASortedSet)
{
    WarmupRequest request;
    request.head.traceId = 3;
    request.policy.counters = {5, 3, 5, 9, 3};
    ByteWriter w;
    encodeWarmupRequest(request, w);
    EXPECT_EQ(decodedWarmupCounters(w.data()),
              (std::vector<CounterId>{3, 5, 9}));

    // A body near the frame limit of one repeated one-byte id: the
    // announced count is bounded by the body, and the decoded list by
    // the one distinct id.
    request.policy.counters.clear();
    ByteWriter head;
    encodeWarmupRequest(request, head);
    std::vector<std::uint8_t> body = head.data();
    body.pop_back(); // The empty list's count, 0.
    const std::size_t repeats = kMaxFrameBytes - 64;
    ByteWriter count;
    count.writeVarint(repeats);
    body.insert(body.end(), count.data().begin(), count.data().end());
    body.insert(body.end(), repeats, 7);
    ASSERT_LE(body.size(), kMaxFrameBytes);
    EXPECT_EQ(decodedWarmupCounters(body), std::vector<CounterId>{7});
}

/**
 * A 3x5 frame of two lanes (rows 0-1 and 2-3; row 4 is uncovered): an
 * exact lane of runs "A A B", and a pyramid lane whose columns hold
 * bands B/C, A and C. Colors A, B and C enter the palette on first use.
 */
const std::vector<std::uint8_t> kGoldenReply = {
    3, 0, 0, 0, 5, 0, 0, 0, // width, height (u32 LE)
    2,                      // lanes
    0,                      // lane 0: exact
    2, 0, 1, 2, 3, 255,     //   run 2 of A (new: palette 1)
    1, 0, 9, 8, 7, 6,       //   run 1 of B (new: palette 2)
    1,                      // lane 1: pyramid
    1, 2,                   //   column 0: band 1 of B,
    1, 0, 0, 0, 0, 0,       //             band 1 of C (new: palette 3)
    2, 1,                   //   column 1: band 2 of A
    2, 3,                   //   column 2: band 2 of C
    7, 0, 0xac, 0x02,       // rectOps, lineOps, eventsVisited
    0, 1, 0x80, 0x01};      // exact, nodesTouched, granularityNs

/** Offsets into kGoldenReply of the fields the rejection tests edit. */
constexpr std::size_t kLanesAt = 8;
constexpr std::size_t kLane0RunAt = 10;
constexpr std::size_t kLane1KindAt = 22;
constexpr std::size_t kColumn1BandAt = 31;
constexpr std::size_t kColumn2CodeAt = 34;

/** True when @p bytes decode as one whole render reply. */
bool
decodesWhole(const std::vector<std::uint8_t> &bytes, RenderReply &out)
{
    ByteReader r(bytes);
    return decodeRenderReply(r, out) && r.atEnd();
}

TEST(DaemonProtocol, RenderReplyLanesMatchGoldenBytes)
{
    const render::Rgba a{1, 2, 3, 255};
    const render::Rgba b{9, 8, 7, 6};
    const render::Rgba c{0, 0, 0, 0};
    render::FrameImage image;
    image.width = 3;
    image.height = 5;
    image.lanes = {{false, {{2, a}, {1, b}}},
                   {true, {{1, b}, {1, c}, {2, a}, {2, c}}}};
    render::RenderStats stats;
    stats.rectOps = 7;
    stats.eventsVisited = 300;
    stats.resolution.exact = false;
    stats.resolution.nodesTouched = 1;
    stats.resolution.granularityNs = 128;
    ByteWriter w;
    encodeRenderReply(image, stats, w);
    EXPECT_EQ(w.data(), kGoldenReply);

    RenderReply back;
    ASSERT_TRUE(decodesWhole(kGoldenReply, back));
    const render::Rgba bg = render::kBackground;
    const std::vector<std::vector<render::Rgba>> rows = {
        {a, a, b}, {a, a, b}, {b, a, c}, {c, a, c}, {bg, bg, bg}};
    ASSERT_EQ(back.fb.width(), 3u);
    ASSERT_EQ(back.fb.height(), 5u);
    for (std::uint32_t y = 0; y < 5; y++)
        for (std::uint32_t x = 0; x < 3; x++)
            EXPECT_EQ(back.fb.pixel(x, y), rows[y][x]) << x << "," << y;
    EXPECT_EQ(back.stats.rectOps, 7u);
    EXPECT_EQ(back.stats.eventsVisited, 300u);
    EXPECT_FALSE(back.stats.resolution.exact);
    EXPECT_EQ(back.stats.resolution.granularityNs, 128u);

    // A drawn frame encodes as one full-height lane of its columns'
    // vertical runs, and decodes back to the same pixels.
    RenderReply drawn{back.fb, stats};
    ByteWriter fw;
    encodeRenderReply(drawn, fw);
    const std::vector<std::uint8_t> drawn_golden = {
        3, 0, 0, 0, 5, 0, 0, 0, 1, 1,        // 3x5, one pyramid lane
        2, 0, 1, 2, 3, 255, 1, 0, 9, 8, 7, 6, // column 0: A A B
        1, 0, 0, 0, 0, 0, 1, 0, 32, 32, 32, 255, //        C bg
        4, 1, 1, 4,                           // column 1: A A A A bg
        2, 2, 2, 3, 1, 4,                     // column 2: B B C C bg
        7, 0, 0xac, 0x02, 0, 1, 0x80, 0x01};
    EXPECT_EQ(fw.data(), drawn_golden);
    RenderReply again;
    ASSERT_TRUE(decodesWhole(fw.data(), again));
    EXPECT_EQ(std::vector<render::Rgba>(again.fb.data(),
                                        again.fb.data() + 15),
              std::vector<render::Rgba>(back.fb.data(),
                                        back.fb.data() + 15));
}

TEST(DaemonProtocol, RenderReplyRejectsSpansLanesAndSizesOffTheLayout)
{
    auto edited = [](std::size_t at, std::uint8_t value) {
        std::vector<std::uint8_t> bytes = kGoldenReply;
        bytes[at] = value;
        return bytes;
    };
    // A zero-length run of A between lane 0's runs, which otherwise
    // still sum to the width.
    std::vector<std::uint8_t> zero_run = kGoldenReply;
    zero_run.insert(zero_run.begin() + kLane0RunAt + 6, {0, 1});
    auto sized = [](std::uint32_t width, std::uint32_t height,
                    std::uint64_t lanes) {
        ByteWriter w;
        w.writeU32(width);
        w.writeU32(height);
        w.writeVarint(lanes);
        std::vector<std::uint8_t> bytes = w.take();
        bytes.insert(bytes.end(), kGoldenReply.begin() + kLanesAt + 1,
                     kGoldenReply.end());
        return bytes;
    };
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        bad = {
            {"zero-length run", zero_run},
            {"runs past the width", edited(kLane0RunAt, 3)},
            {"bands past the lane height", edited(kColumn1BandAt, 3)},
            {"band rows short of the lane height",
             edited(kColumn1BandAt, 1)},
            {"unknown lane kind", edited(kLane1KindAt, 2)},
            {"palette code past the entries sent", edited(kColumn2CodeAt, 4)},
            {"one lane more than sent", edited(kLanesAt, 3)},
            {"one lane fewer than sent", edited(kLanesAt, 1)},
            {"lanes of another height", sized(3, 7, 2)},
            {"zero width", sized(0, 5, 2)},
            {"pixels above the bound", sized(kMaxRenderPixels, 2, 2)},
            {"largest dimensions", sized(0xFFFFFFFF, 0xFFFFFFFF, 2)},
            {"more lanes than bytes", sized(3, 5, std::uint64_t{1} << 40)},
        };
    for (const auto &[what, bytes] : bad) {
        RenderReply out;
        EXPECT_FALSE(decodesWhole(bytes, out)) << what;
    }
    // At the bound the size check passes (the lanes then do not).
    RenderReply out;
    const std::vector<std::uint8_t> at_bound = sized(kMaxRenderPixels, 1, 0);
    ByteReader r(at_bound);
    EXPECT_TRUE(decodeRenderReply(r, out));
    EXPECT_EQ(out.fb.width(), kMaxRenderPixels);
}

TEST(DaemonProtocol, TruncatedAndStormedRenderRepliesNeverCrash)
{
    // A real frame: pyramid and exact lanes of a random trace.
    const trace::Trace tr = test_support::buildRandomTrace(7);
    session::Session session = session::Session::view(tr);
    session::TimelineRenderQuery query;
    query.width = 40;
    query.height = 9;
    query.asLanes = true;
    query.context.resolution = Resolution::pixels(40);
    session::TimelineRenderResult frame = session.submit(query).take();
    ASSERT_EQ(frame.image.lanes.size(), tr.numCpus());
    ByteWriter w;
    encodeRenderReply(frame.image, frame.stats, w);
    const std::vector<std::vector<std::uint8_t>> bodies = {kGoldenReply,
                                                           w.take()};

    for (const std::vector<std::uint8_t> &body : bodies) {
        RenderReply whole;
        ASSERT_TRUE(decodesWhole(body, whole));
        for (std::size_t cut = 0; cut < body.size(); cut++) {
            std::vector<std::uint8_t> prefix(body.begin(),
                                             body.begin() + cut);
            RenderReply out;
            EXPECT_FALSE(decodesWhole(prefix, out)) << "cut at " << cut;
        }
    }
    std::mt19937_64 rng(20261020);
    for (int round = 0; round < 4000; round++) {
        std::vector<std::uint8_t> bytes = bodies[round % 2];
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < flips; i++)
            bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
        if (round % 5 == 0)
            bytes.resize(rng() % bytes.size());
        RenderReply out;
        ByteReader r(bytes);
        if (decodeRenderReply(r, out)) {
            EXPECT_LE(static_cast<std::uint64_t>(out.fb.width()) *
                          out.fb.height(),
                      kMaxRenderPixels);
        }
    }
}

TEST(DaemonProtocol, StackedLaneRepliesDrawOnlyTheFramesPixels)
{
    // One row of the widest frame a request may ask for, under 50,000
    // exact lanes of one run each: a 300 KB reply. Every lane sits on
    // the one row, so only the last shows; drawing each lane in full
    // would be 1.2e11 pixel writes, tens of seconds of work.
    const render::Rgba hidden{1, 2, 3, 255};
    const render::Rgba shown{9, 8, 7, 255};
    constexpr std::size_t kLanes = 50000;
    render::FrameImage image;
    image.width = kMaxRenderPixels;
    image.height = 1;
    image.lanes.assign(kLanes, {false, {{kMaxRenderPixels, hidden}}});
    image.lanes.back().spans.front().color = shown;
    ByteWriter w;
    encodeRenderReply(image, render::RenderStats{}, w);
    ASSERT_LT(w.size(), 7 * kLanes);

    const auto start = std::chrono::steady_clock::now();
    RenderReply out;
    ASSERT_TRUE(decodesWhole(w.data(), out));
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 10.0);
    ASSERT_EQ(out.fb.width(), kMaxRenderPixels);
    ASSERT_EQ(out.fb.height(), 1u);
    EXPECT_EQ(std::count(out.fb.data(), out.fb.data() + kMaxRenderPixels,
                         shown),
              static_cast<std::ptrdiff_t>(kMaxRenderPixels));
}

/**
 * A trace of @p cpus CPUs, each in one state over [0, 2^22). A view
 * half as long as the frame is wide leaves every other pixel column
 * empty, so the columns alternate between the state and the lane
 * background: the costliest frame for a run encoding.
 */
std::shared_ptr<const std::vector<std::uint8_t>>
alternatingColumnTrace(std::uint32_t cpus)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, cpus));
    for (const auto &desc : trace::coreStateDescriptions())
        tr.addStateDescription(desc);
    for (CpuId c = 0; c < cpus; c++)
        tr.cpu(c).addState(
            {{0, TimeStamp{1} << 22},
             static_cast<std::uint32_t>(trace::CoreState::Idle),
             kInvalidTaskInstance});
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return std::make_shared<const std::vector<std::uint8_t>>(
        trace::writeTrace(tr));
}

TEST(DaemonProtocol, RenderRequestsAreBoundedByTheirWorstCaseReply)
{
    Server server(Server::Options{2, 16});
    Client client;
    std::string error;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;
    OpenTraceRequest open;
    open.bytes = alternatingColumnTrace(4);
    Reply<OpenTraceReply> opened = client.openTrace(open);
    ASSERT_TRUE(opened.ok()) << opened.message;
    auto render = [&](std::uint32_t width, std::uint32_t height) {
        TimelineRenderRequest request;
        request.head.traceId = opened.value.traceId;
        request.view = {0, width / 2};
        request.width = width;
        request.height = height;
        return client.timelineRender(request);
    };

    // Above the bound: refused as malformed, and the connection stays.
    // (Pixel runs encoded this 4096x1024 frame to over 16 MiB, which
    // the server could not send and answered by hanging up.)
    ASSERT_GT(4096u * 1024u, kMaxRenderPixels);
    Reply<RenderReply> refused = render(4096, 1024);
    EXPECT_EQ(refused.status, Status::Error);

    // Within it: drawn, every other column the state.
    ASSERT_LE(2048u * 1024u, kMaxRenderPixels);
    Reply<RenderReply> drawn = render(2048, 1024);
    ASSERT_TRUE(drawn.ok()) << drawn.message;
    const render::Rgba idle = render::stateColor(
        static_cast<std::uint32_t>(trace::CoreState::Idle));
    for (std::uint32_t x : {0u, 1u, 2u, 2047u}) {
        EXPECT_EQ(drawn.value.fb.pixel(x, 0),
                  x % 2 ? idle : render::kBackground)
            << x;
        EXPECT_EQ(drawn.value.fb.pixel(x, 1023),
                  x % 2 ? idle : render::kBackgroundAlt)
            << x;
    }

    // Four lanes stacked on one row, each of kMaxRenderPixels
    // alternating runs, encode past the frame bound: the server
    // answers an error in place of the reply it cannot send.
    Reply<RenderReply> stacked = render(kMaxRenderPixels, 1);
    EXPECT_EQ(stacked.status, Status::Error);
    EXPECT_NE(stacked.message.find("exceeds"), std::string::npos)
        << stacked.message;

    TaskListRequest tasks;
    tasks.head.traceId = opened.value.traceId;
    EXPECT_TRUE(client.taskList(tasks).ok());
    expectServerStillServes(server);
    server.stop();
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
