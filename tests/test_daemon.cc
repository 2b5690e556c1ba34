/**
 * @file
 * End-to-end tests of the trace-serving daemon (daemon/server.h,
 * daemon/client.h): many concurrent clients against one in-process
 * server over the real wire protocol, with every result checked
 * byte-identical to a local Session over the same trace; plus the
 * daemon-specific planes a local session has no analogue for —
 * admission control (Rejected at the in-flight cap), the Cancel frame,
 * per-client generation isolation (one client's SetView must never
 * cancel a neighbour's in-flight query), and disconnect reaping
 * in-flight Background work.
 *
 * Determinism: tests that need requests to *stay* in flight park the
 * engine's only worker on a WorkerGate (a pool task blocked on a
 * future) so submitted queries sit queued until the test releases it.
 * Cancelling a queued query of any kind completes it Cancelled at
 * once, so cancellation outcomes are exact, not racy.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "render/framebuffer.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "session/session.h"
#include "stats/export.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace daemon {
namespace {

using session::QueryPriority;

// -- Shared test trace -----------------------------------------------------

struct TraceFile
{
    std::string path;
    /** The trace as read back from @p path — what the server serves. */
    std::shared_ptr<const trace::Trace> trace;
};

/** One randomized trace written to disk once for the whole binary. */
const TraceFile &
traceFile()
{
    static const TraceFile file = [] {
        test_support::RandomTraceOptions options;
        options.cpus = 8;
        options.nodes = 2;
        options.counters = 3;
        options.statesPerCpu = 300;
        trace::Trace built = test_support::buildRandomTrace(7, options);

        TraceFile f;
        f.path = ::testing::TempDir() + "aftermath_daemon_e2e.trace";
        std::string error;
        AFTERMATH_ASSERT(trace::writeTraceFile(built, f.path,
                                               trace::Encoding::Compact,
                                               error),
                         "writing the shared test trace failed");
        trace::ReadResult read = trace::readTraceFile(f.path);
        AFTERMATH_ASSERT(read.ok, "reading the shared test trace failed");
        f.trace =
            std::make_shared<const trace::Trace>(std::move(read.trace));
        return f;
    }();
    return file;
}

// -- Byte-identity helpers -------------------------------------------------
//
// Equality goes through the wire encoders: a decoded reply re-encodes
// to the exact bytes the local session's result encodes to, so every
// field (doubles included) is compared bit-for-bit.

std::vector<std::uint8_t>
bytesOf(const stats::IntervalStats &s)
{
    ByteWriter w;
    stats::encodeIntervalStats(s, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const stats::Histogram &h)
{
    ByteWriter w;
    stats::encodeHistogram(h, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const std::vector<TaskRow> &rows)
{
    ByteWriter w;
    encodeTaskRows(rows, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const index::MinMax &m)
{
    ByteWriter w;
    stats::encodeMinMax(m, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const RenderReply &r)
{
    ByteWriter w;
    encodeRenderReply(r, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const std::vector<stats::Anomaly> &findings)
{
    ByteWriter w;
    stats::encodeAnomalies(findings, w);
    return w.take();
}

/** The server's task-list row projection, applied to a local result. */
std::vector<TaskRow>
toRows(const std::vector<const trace::TaskInstance *> &tasks)
{
    std::vector<TaskRow> rows;
    rows.reserve(tasks.size());
    for (const trace::TaskInstance *task : tasks)
        rows.push_back(TaskRow{task->id, task->type, task->cpu,
                               task->interval});
    return rows;
}

// -- Worker gate -----------------------------------------------------------

/**
 * Parks @p workers pool workers on a shared future until release(), so
 * every query submitted while the gate is closed stays queued — the
 * deterministic setup for admission, cancel and disconnect tests.
 */
class WorkerGate
{
  public:
    explicit WorkerGate(session::QueryEngine &engine, unsigned workers = 1)
        : released_(promise_.get_future().share())
    {
        std::shared_future<void> released = released_;
        engine.withPool([&](base::ThreadPool &pool) {
            for (unsigned i = 0; i < workers; i++)
                pool.submit([released] { released.wait(); });
        });
    }

    ~WorkerGate() { release(); }

    void
    release()
    {
        if (open_)
            return;
        open_ = true;
        promise_.set_value();
    }

  private:
    std::promise<void> promise_;
    std::shared_future<void> released_;
    bool open_ = false;
};

/** Adopt an in-process connection or fail the test. */
bool
connect(Server &server, Client &client)
{
    std::string error;
    bool ok = client.adopt(server.connectInProcess(), error);
    EXPECT_TRUE(ok) << error;
    return ok;
}

/** Open the shared trace file over @p client or fail the test. */
bool
openShared(Client &client, std::uint64_t &trace_id)
{
    OpenTraceRequest open;
    open.path = traceFile().path;
    Reply<OpenTraceReply> reply = client.openTrace(open);
    EXPECT_TRUE(reply.ok()) << reply.message;
    trace_id = reply.value.traceId;
    return reply.ok();
}

// -- Tests -----------------------------------------------------------------

TEST(Daemon, OpenTraceReportsShapeAndSharesRegistry)
{
    Server server(Server::Options{2, 16});
    Client a;
    Client b;
    ASSERT_TRUE(connect(server, a));
    ASSERT_TRUE(connect(server, b));
    EXPECT_EQ(a.inflightCap(), 16u);

    OpenTraceRequest open;
    open.path = traceFile().path;
    Reply<OpenTraceReply> ra = a.openTrace(open);
    ASSERT_TRUE(ra.ok()) << ra.message;
    Reply<OpenTraceReply> rb = b.openTrace(open);
    ASSERT_TRUE(rb.ok()) << rb.message;

    const trace::Trace &local = *traceFile().trace;
    EXPECT_EQ(ra.value.numCpus, local.numCpus());
    EXPECT_EQ(ra.value.span.start, local.span().start);
    EXPECT_EQ(ra.value.span.end, local.span().end);

    // Both clients opened the same path: one registry entry, one trace.
    EXPECT_EQ(server.stats().sharedTraces, 1u);

    ASSERT_TRUE(a.closeTrace(ra.value.traceId).ok());
    EXPECT_EQ(server.stats().sharedTraces, 1u); // b still holds it.
    ASSERT_TRUE(b.closeTrace(rb.value.traceId).ok());
    EXPECT_EQ(server.stats().sharedTraces, 0u);
    server.stop();
}

TEST(Daemon, OpenTraceOfADirectoryOrFifoAnswersError)
{
    // Any client can name any path. A directory or a FIFO answers
    // Error, and the daemon and the connection go on serving.
    Server server(Server::Options{1, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));
    std::string dir =
        ::testing::TempDir() + "aftermath_daemon_not_a_file_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    const std::string fifo = dir + "/fifo";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    for (const std::string &path : {dir, fifo}) {
        OpenTraceRequest open;
        open.path = path;
        Reply<OpenTraceReply> reply = client.openTrace(open);
        EXPECT_EQ(reply.status, Status::Error) << path;
        EXPECT_NE(reply.message.find(path), std::string::npos)
            << reply.message;
    }
    EXPECT_EQ(server.stats().sharedTraces, 0u);

    std::uint64_t trace_id = 0;
    EXPECT_TRUE(openShared(client, trace_id));
    EXPECT_EQ(server.stats().sharedTraces, 1u);
    server.stop();
    ::unlink(fifo.c_str());
    ::rmdir(dir.c_str());
}

TEST(Daemon, UnknownTraceIdAndUnknownTypeAnswerErrors)
{
    Server server(Server::Options{1, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));

    // Every trace-addressed request type answers Error for a never-
    // opened id. A well-formed body must decode under its own type, so
    // neither the protocol-error nor the rejection count may move.
    constexpr std::uint64_t kUnknown = 999;
    const auto outcome = [](const auto &reply) {
        return std::make_pair(reply.status, reply.message);
    };
    using Outcome = std::pair<Status, std::string>;
    const std::vector<std::pair<const char *, std::function<Outcome()>>>
        probes = {
            {"IntervalStats",
             [&] {
                 IntervalStatsRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.intervalStats(q));
             }},
            {"Histogram",
             [&] {
                 HistogramRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.histogram(q));
             }},
            {"TaskList",
             [&] {
                 TaskListRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.taskList(q));
             }},
            {"CounterExtrema",
             [&] {
                 CounterExtremaRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.counterExtrema(q));
             }},
            {"Warmup",
             [&] {
                 WarmupRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.warmup(q));
             }},
            {"TimelineRender",
             [&] {
                 TimelineRenderRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.timelineRender(q));
             }},
            {"AnomalyScan",
             [&] {
                 AnomalyScanRequest q;
                 q.head.traceId = kUnknown;
                 return outcome(client.anomalyScan(q));
             }},
            {"SetView",
             [&] {
                 return outcome(
                     client.setView(kUnknown, traceFile().trace->span()));
             }},
            {"SetFilters",
             [&] {
                 FilterSpec spec;
                 spec.ids = {1};
                 return outcome(client.setFilters(kUnknown, {spec}));
             }},
        };
    const Server::Stats before = server.stats();
    for (const auto &[name, probe] : probes) {
        auto [status, message] = probe();
        EXPECT_EQ(status, Status::Error) << name;
        EXPECT_FALSE(message.empty()) << name;
        EXPECT_EQ(server.stats().protocolErrors, before.protocolErrors)
            << name;
        EXPECT_EQ(server.stats().rejected, before.rejected) << name;
        EXPECT_TRUE(client.connected()) << name;
    }

    // Closing an unknown id errors too, and the connection stays usable.
    EXPECT_EQ(client.closeTrace(42).status, Status::Error);
    std::uint64_t id = 0;
    ASSERT_TRUE(openShared(client, id));
    EXPECT_TRUE(client.closeTrace(id).ok());
    server.stop();
}

/**
 * The acceptance-criterion test: eight concurrent clients over one
 * in-process server, each issuing the full mix of query types (with
 * pipelined interval-stats requests collected out of order and
 * alternating wire priorities), every result byte-identical to a local
 * Session over the same trace.
 */
TEST(Daemon, EightClientsMixedQueriesBitIdenticalToLocalSession)
{
    const trace::Trace &tr = *traceFile().trace;
    const TimeInterval span = tr.span();
    const TimeStamp quarter = span.end / 4;
    const std::vector<TimeInterval> intervals = {
        span,
        {0, quarter},
        {quarter, 2 * quarter},
        {quarter, span.end},
    };
    constexpr std::uint32_t kBins = 16;
    constexpr std::uint32_t kWidth = 160;
    constexpr std::uint32_t kHeight = 120;

    // Local ground truth, computed once on this thread.
    session::Session local(traceFile().trace);
    std::vector<std::vector<std::uint8_t>> expect_stats;
    for (const TimeInterval &interval : intervals)
        expect_stats.push_back(bytesOf(local.intervalStats(interval)));
    const std::vector<std::uint8_t> expect_histo =
        bytesOf(local.histogram(kBins));
    const std::vector<std::uint8_t> expect_rows =
        bytesOf(toRows(local.tasks()));
    std::vector<std::vector<std::uint8_t>> expect_extrema;
    for (CpuId cpu = 0; cpu < 4; cpu++)
        for (CounterId counter = 0; counter < 2; counter++)
            expect_extrema.push_back(
                bytesOf(local.counterExtrema(cpu, counter, span)));
    render::TimelineConfig config;
    config.mode = render::TimelineMode::State;
    config.view = span;
    render::Framebuffer fb(kWidth, kHeight);
    RenderReply local_render;
    local_render.stats = local.render(config, fb);
    local_render.fb = fb;
    const std::vector<std::uint8_t> expect_render = bytesOf(local_render);

    Server server(Server::Options{4, 32});
    constexpr int kClients = 8;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; i++) {
        threads.emplace_back([&, i] {
            Client client;
            if (!connect(server, client))
                return;
            std::uint64_t id = 0;
            if (!openShared(client, id))
                return;
            const WirePriority priority = (i % 2) != 0
                                              ? WirePriority::Background
                                              : WirePriority::Interactive;

            // Pipeline the stats queries, collect out of order.
            std::vector<Future<stats::IntervalStats>> futures;
            for (const TimeInterval &interval : intervals) {
                IntervalStatsRequest request;
                request.head.traceId = id;
                request.head.priority = priority;
                request.interval = interval;
                futures.push_back(client.asyncIntervalStats(request));
            }
            for (std::size_t k = futures.size(); k-- > 0;) {
                Reply<stats::IntervalStats> reply = futures[k].get();
                ASSERT_TRUE(reply.ok()) << reply.message;
                EXPECT_EQ(bytesOf(reply.value), expect_stats[k])
                    << "client " << i << " interval " << k;
            }

            HistogramRequest histo;
            histo.head.traceId = id;
            histo.head.priority = priority;
            histo.numBins = kBins;
            Reply<stats::Histogram> h = client.histogram(histo);
            ASSERT_TRUE(h.ok()) << h.message;
            EXPECT_EQ(bytesOf(h.value), expect_histo);

            TaskListRequest tasks;
            tasks.head.traceId = id;
            tasks.head.priority = priority;
            Reply<std::vector<TaskRow>> rows = client.taskList(tasks);
            ASSERT_TRUE(rows.ok()) << rows.message;
            EXPECT_EQ(bytesOf(rows.value), expect_rows);

            std::size_t pair = 0;
            for (CpuId cpu = 0; cpu < 4; cpu++) {
                for (CounterId counter = 0; counter < 2; counter++) {
                    CounterExtremaRequest extrema;
                    extrema.head.traceId = id;
                    extrema.head.priority = priority;
                    extrema.cpu = cpu;
                    extrema.counter = counter;
                    extrema.interval = span;
                    Reply<index::MinMax> m = client.counterExtrema(extrema);
                    ASSERT_TRUE(m.ok()) << m.message;
                    EXPECT_EQ(bytesOf(m.value), expect_extrema[pair++])
                        << "cpu " << cpu << " counter " << counter;
                }
            }

            WarmupRequest warm;
            warm.head.traceId = id;
            warm.head.priority = priority;
            Reply<session::WarmupStats> w = client.warmup(warm);
            EXPECT_TRUE(w.ok()) << w.message;

            TimelineRenderRequest render;
            render.head.traceId = id;
            render.head.priority = priority;
            render.mode =
                static_cast<std::uint8_t>(render::TimelineMode::State);
            render.view = span;
            render.width = kWidth;
            render.height = kHeight;
            Reply<RenderReply> frame = client.timelineRender(render);
            ASSERT_TRUE(frame.ok()) << frame.message;
            EXPECT_EQ(bytesOf(frame.value), expect_render);

            EXPECT_TRUE(client.closeTrace(id).ok());
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    Server::Stats stats = server.stats();
    EXPECT_EQ(stats.connectionsAccepted, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
    EXPECT_EQ(stats.sharedTraces, 0u); // Every client closed its trace.
    server.stop();
}

TEST(Daemon, InlineBytesOpenStaysPrivate)
{
    Server server(Server::Options{2, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));

    OpenTraceRequest open;
    open.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        trace::writeTrace(*traceFile().trace, trace::Encoding::Raw));
    Reply<OpenTraceReply> reply = client.openTrace(open);
    ASSERT_TRUE(reply.ok()) << reply.message;

    // Inline opens never enter the path-keyed registry.
    EXPECT_EQ(server.stats().sharedTraces, 0u);

    // And the private binding still answers queries correctly.
    session::Session local(traceFile().trace);
    TaskListRequest tasks;
    tasks.head.traceId = reply.value.traceId;
    Reply<std::vector<TaskRow>> rows = client.taskList(tasks);
    ASSERT_TRUE(rows.ok()) << rows.message;
    EXPECT_EQ(bytesOf(rows.value), bytesOf(toRows(local.tasks())));
    server.stop();
}

TEST(Daemon, TraceEndingAtTheLastTimestampRendersInsteadOfAborting)
{
    // A span ending at 2^64 - 1 must still give the pyramids a leaf
    // layout: a degenerate one aborts the first pyramid-backed query,
    // and with it the whole daemon.
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        trace::writeTrace(test_support::buildTopOfTimeTrace(),
                          trace::Encoding::Raw));
    Server server(Server::Options{2, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));
    OpenTraceRequest open;
    open.bytes = bytes;
    Reply<OpenTraceReply> opened = client.openTrace(open);
    ASSERT_TRUE(opened.ok()) << opened.message;
    ASSERT_EQ(opened.value.span.end, ~TimeStamp{0});

    TimelineRenderRequest render;
    render.head.traceId = opened.value.traceId;
    render.view = opened.value.span;
    render.width = 1920;
    render.height = 32;
    render.resolution = Resolution::pixels(1920);
    Reply<RenderReply> frame = client.timelineRender(render);
    ASSERT_TRUE(frame.ok()) << frame.message;
    EXPECT_FALSE(frame.value.stats.resolution.exact);

    // Bit-identical to a local session's render of the same bytes.
    trace::ReadResult read = trace::readTrace(*bytes);
    ASSERT_TRUE(read.ok) << read.error;
    session::Session local = session::Session::view(read.trace);
    session::TimelineRenderQuery query;
    query.config.view = opened.value.span;
    query.context.resolution = render.resolution;
    query.width = render.width;
    query.height = render.height;
    session::TimelineRenderResult expect = local.submit(query).take();
    EXPECT_EQ(bytesOf(frame.value),
              bytesOf(RenderReply{std::move(expect.fb), expect.stats}));
    server.stop();
}

TEST(Daemon, AdmissionControlRejectsBeyondInflightCap)
{
    Server server(Server::Options{1, 2});
    Client client;
    ASSERT_TRUE(connect(server, client));
    EXPECT_EQ(client.inflightCap(), 2u);
    std::uint64_t id = 0;
    ASSERT_TRUE(openShared(client, id));

    WorkerGate gate(*server.engine());
    TaskListRequest request;
    request.head.traceId = id;
    request.head.priority = WirePriority::Background;
    // The reader thread processes frames in order: the first two are
    // admitted (and stay queued behind the gate), the rest bounce.
    Future<std::vector<TaskRow>> f1 = client.asyncTaskList(request);
    Future<std::vector<TaskRow>> f2 = client.asyncTaskList(request);
    Future<std::vector<TaskRow>> f3 = client.asyncTaskList(request);
    Future<std::vector<TaskRow>> f4 = client.asyncTaskList(request);

    Reply<std::vector<TaskRow>> r3 = f3.get();
    EXPECT_EQ(r3.status, Status::Rejected);
    EXPECT_FALSE(r3.message.empty());
    EXPECT_EQ(f4.get().status, Status::Rejected);

    gate.release();
    EXPECT_TRUE(f1.get().ok());
    EXPECT_TRUE(f2.get().ok());
    EXPECT_EQ(server.stats().rejected, 2u);

    // With the gate open the cap no longer binds.
    EXPECT_TRUE(client.taskList(request).ok());
    server.stop();
}

TEST(Daemon, CancelFrameAbandonsQueuedQuery)
{
    Server server(Server::Options{1, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));
    std::uint64_t id = 0;
    ASSERT_TRUE(openShared(client, id));

    WorkerGate gate(*server.engine());
    TaskListRequest request;
    request.head.traceId = id;
    request.head.priority = WirePriority::Background;
    Future<std::vector<TaskRow>> future = client.asyncTaskList(request);

    // The Cancel frame is acked Ok; the target answers Cancelled on its
    // own request id (deterministic: the query is queued, so the cancel
    // completes it before it can run).
    EXPECT_TRUE(client.asyncCancel(future.requestId()).get().ok());
    EXPECT_EQ(future.get().status, Status::Cancelled);

    // Cancelling an unknown (already finished) id is a harmless ack.
    EXPECT_TRUE(client.asyncCancel(9999).get().ok());

    gate.release();
    EXPECT_TRUE(client.taskList(request).ok());
    server.stop();
}

/** Acceptance criterion: disconnect cancels in-flight Background work. */
TEST(Daemon, DisconnectCancelsInflightBackgroundWork)
{
    Server server(Server::Options{1, 16});
    {
        Client client;
        ASSERT_TRUE(connect(server, client));
        std::uint64_t id = 0;
        ASSERT_TRUE(openShared(client, id));

        WorkerGate gate(*server.engine());
        TaskListRequest request;
        request.head.traceId = id;
        request.head.priority = WirePriority::Background;
        Future<std::vector<TaskRow>> f1 = client.asyncTaskList(request);
        Future<std::vector<TaskRow>> f2 = client.asyncTaskList(request);
        Future<std::vector<TaskRow>> f3 = client.asyncTaskList(request);
        (void)f1;
        (void)f2;
        (void)f3;

        // A synchronous round-trip proves the server dispatched all
        // three queries (frames are processed in order). SetView bumps
        // the *view* generation, which the filter-tracked task list
        // ignores — the queries are still alive and queued.
        ASSERT_TRUE(
            client.setView(id, traceFile().trace->span()).ok());

        // Drop the connection with three Background queries in flight.
        client.close();

        for (int i = 0; i < 5000 && server.stats().activeConnections > 0;
             i++)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(server.stats().activeConnections, 0u);
        EXPECT_EQ(server.stats().cancelledOnDisconnect, 3u);
        EXPECT_EQ(server.stats().sharedTraces, 0u); // Binding released.
        gate.release();
    }
    server.stop();
}

/**
 * Remote anomaly scans return the exact ranked list a local serial
 * scan produces — byte-identical through the wire encoders, for the
 * whole span and for a restricted interval with non-default
 * thresholds, at both wire priorities.
 */
TEST(Daemon, AnomalyScanRoundTripsBitIdenticalToLocalScan)
{
    const trace::Trace &tr = *traceFile().trace;
    Server server(Server::Options{2, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));
    std::uint64_t id = 0;
    ASSERT_TRUE(openShared(client, id));

    AnomalyScanRequest request;
    request.head.traceId = id;
    request.head.priority = WirePriority::Interactive;
    Reply<std::vector<stats::Anomaly>> reply = client.anomalyScan(request);
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_EQ(bytesOf(reply.value), bytesOf(stats::scanForAnomalies(tr)));

    // Restricted interval, tightened thresholds, Background priority.
    const TimeInterval window{13, tr.span().end - 17};
    request.head.priority = WirePriority::Background;
    request.interval = window;
    request.options.numIntervals = 50;
    request.options.durationZScore = 2.0;
    request.options.maxPerKind = 3;
    Reply<std::vector<stats::Anomaly>> windowed =
        client.anomalyScan(request);
    ASSERT_TRUE(windowed.ok()) << windowed.message;
    EXPECT_EQ(bytesOf(windowed.value),
              bytesOf(stats::scanForAnomalies(tr, request.options, window,
                                              nullptr)));

    EXPECT_TRUE(client.closeTrace(id).ok());
    server.stop();
}

TEST(Daemon, AnomalyScanCancelsOverTheWire)
{
    Server server(Server::Options{1, 16});
    Client client;
    ASSERT_TRUE(connect(server, client));
    std::uint64_t id = 0;
    ASSERT_TRUE(openShared(client, id));

    WorkerGate gate(*server.engine());
    AnomalyScanRequest request;
    request.head.traceId = id;
    request.head.priority = WirePriority::Background;
    Future<std::vector<stats::Anomaly>> future =
        client.asyncAnomalyScan(request);

    // The scan's drainers sit queued behind the gate; the Cancel frame
    // marks the ticket before any of them can claim a chunk.
    EXPECT_TRUE(client.asyncCancel(future.requestId()).get().ok());
    gate.release();
    EXPECT_EQ(future.get().status, Status::Cancelled);

    // The connection is still healthy: the same scan now completes.
    Reply<std::vector<stats::Anomaly>> reply = client.anomalyScan(request);
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_EQ(bytesOf(reply.value),
              bytesOf(stats::scanForAnomalies(*traceFile().trace)));
    server.stop();
}

/**
 * Per-client generation isolation: B's SetView must not cancel A's
 * in-flight query on the shared engine, while A's own SetView must.
 */
TEST(Daemon, SetViewCancelsOwnQueriesButNotNeighbours)
{
    const TimeInterval span = traceFile().trace->span();
    Server server(Server::Options{1, 16});
    Client a;
    Client b;
    ASSERT_TRUE(connect(server, a));
    ASSERT_TRUE(connect(server, b));
    std::uint64_t ida = 0;
    std::uint64_t idb = 0;
    ASSERT_TRUE(openShared(a, ida));
    ASSERT_TRUE(openShared(b, idb));

    session::Session local(traceFile().trace);

    // Part 1: B mutates its view while A's query is queued — A's query
    // must survive and produce the exact local result. (The intervals
    // are deliberately odd so no earlier test memoized them.)
    const TimeInterval first = {13, span.end - 17};
    {
        WorkerGate gate(*server.engine());
        IntervalStatsRequest request;
        request.head.traceId = ida;
        request.head.priority = WirePriority::Interactive;
        request.interval = first;
        Future<stats::IntervalStats> future = a.asyncIntervalStats(request);
        ASSERT_TRUE(b.setView(idb, TimeInterval{0, span.end / 2}).ok());
        gate.release();
        Reply<stats::IntervalStats> reply = future.get();
        ASSERT_TRUE(reply.ok()) << reply.message;
        EXPECT_EQ(bytesOf(reply.value), bytesOf(local.intervalStats(first)));
    }

    // Part 2: A's own SetView lands while A's query is queued — the
    // stale query completes Cancelled, never with a result.
    {
        WorkerGate gate(*server.engine());
        IntervalStatsRequest request;
        request.head.traceId = ida;
        request.head.priority = WirePriority::Interactive;
        request.interval = TimeInterval{29, span.end - 31};
        Future<stats::IntervalStats> future = a.asyncIntervalStats(request);
        ASSERT_TRUE(a.setView(ida, TimeInterval{0, span.end / 2}).ok());
        gate.release();
        EXPECT_EQ(future.get().status, Status::Cancelled);
    }
    server.stop();
}

/** Open file descriptors of this process. */
std::size_t
openFds()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        n++;
    return n;
}

/**
 * A finished connection gives its socket and threads back: connect and
 * close churn leaves the descriptor count flat, and a client connecting
 * afterwards is served.
 */
TEST(Daemon, ConnectionChurnReleasesDescriptors)
{
    Server server(Server::Options{1, 16});
    const std::size_t baseline = openFds();
    for (int i = 0; i < 200; i++) {
        Client client;
        ASSERT_TRUE(connect(server, client));
        client.close();
    }
    for (int i = 0; i < 5000 && server.stats().activeConnections > 0; i++)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.stats().activeConnections, 0u);
    // Finished connections are reaped when the next one is served, so
    // only the last few may still hold their server end.
    EXPECT_LE(openFds(), baseline + 4);

    Client client;
    ASSERT_TRUE(connect(server, client));
    std::uint64_t id = 0;
    EXPECT_TRUE(openShared(client, id));
    server.stop();
}

} // namespace
} // namespace daemon
} // namespace aftermath
