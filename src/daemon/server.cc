#include "daemon/server.h"

#include <tuple>
#include <utility>

#include "base/logging.h"
#include "stats/export.h"
#include "trace/reader.h"

namespace aftermath {
namespace daemon {

using session::QueryPriority;
using session::QueryStatus;

/**
 * One trace shared across every client that opened the same file: the
 * trace object plus the shareable caches (Session::SharedCaches).
 * Reference-counted under the server mutex; the registry entry dies
 * with the last binding.
 */
struct Server::SharedTrace
{
    std::string key; ///< Registry key; empty = private (inline bytes).
    std::shared_ptr<const trace::Trace> trace;
    session::Session::SharedCaches caches;
    std::size_t refs = 0; ///< Guarded by the server mutex.
};

/** One (client, trace) binding: the session driven by this client. */
struct Server::Binding
{
    std::shared_ptr<SharedTrace> shared;
    std::unique_ptr<session::Session> session;
};

namespace {

/**
 * One row of the query dispatch table: the message type, its name in
 * diagnostics, the request decoder, the builder of the session spec
 * (everything but the priority, which the generic path applies), and
 * the encoder of the result.
 */
template <typename Request, typename Spec, typename Result>
struct QueryRoute
{
    MsgType type;
    const char *name;
    bool (*decode)(ByteReader &, Request &);
    Spec (*build)(const Request &);
    void (*encode)(const Result &, ByteWriter &);
};

/** The query dispatch table, one row per query message type. */
constexpr auto kQueryRoutes = std::make_tuple(
    QueryRoute<IntervalStatsRequest, session::IntervalStatsQuery,
               stats::IntervalStats>{
        MsgType::IntervalStats, "IntervalStats", decodeIntervalStatsRequest,
        [](const IntervalStatsRequest &q) {
            session::IntervalStatsQuery spec;
            spec.context.interval = q.interval;
            spec.context.resolution = q.resolution;
            return spec;
        },
        stats::encodeIntervalStats},
    QueryRoute<HistogramRequest, session::HistogramQuery, stats::Histogram>{
        MsgType::Histogram, "Histogram", decodeHistogramRequest,
        [](const HistogramRequest &q) {
            session::HistogramQuery spec;
            spec.numBins = q.numBins;
            spec.context.interval = q.interval;
            spec.context.resolution = q.resolution;
            return spec;
        },
        stats::encodeHistogram},
    QueryRoute<TaskListRequest, session::TaskListQuery,
               std::vector<const trace::TaskInstance *>>{
        MsgType::TaskList, "TaskList", decodeTaskListRequest,
        [](const TaskListRequest &) { return session::TaskListQuery(); },
        [](const std::vector<const trace::TaskInstance *> &tasks,
           ByteWriter &w) {
            std::vector<TaskRow> rows;
            rows.reserve(tasks.size());
            for (const trace::TaskInstance *task : tasks)
                rows.push_back(TaskRow{task->id, task->type, task->cpu,
                                       task->interval});
            encodeTaskRows(rows, w);
        }},
    QueryRoute<CounterExtremaRequest, session::CounterExtremaQuery,
               index::MinMax>{
        MsgType::CounterExtrema, "CounterExtrema",
        decodeCounterExtremaRequest,
        [](const CounterExtremaRequest &q) {
            session::CounterExtremaQuery spec;
            spec.cpu = q.cpu;
            spec.counter = q.counter;
            spec.context.interval = q.interval;
            spec.context.resolution = q.resolution;
            return spec;
        },
        stats::encodeMinMax},
    QueryRoute<WarmupRequest, session::WarmupQuery, session::WarmupStats>{
        MsgType::Warmup, "Warmup", decodeWarmupRequest,
        [](const WarmupRequest &q) {
            session::WarmupQuery spec;
            spec.policy = q.policy;
            return spec;
        },
        encodeWarmupStats},
    QueryRoute<TimelineRenderRequest, session::TimelineRenderQuery,
               session::TimelineRenderResult>{
        MsgType::TimelineRender, "TimelineRender",
        decodeTimelineRenderRequest,
        [](const TimelineRenderRequest &q) {
            session::TimelineRenderQuery spec;
            spec.config.mode = static_cast<render::TimelineMode>(q.mode);
            spec.config.view = q.view;
            spec.config.heatmapMin = q.heatmapMin;
            spec.config.heatmapMax = q.heatmapMax;
            spec.config.heatmapShades = q.heatmapShades;
            spec.width = q.width;
            spec.height = q.height;
            spec.context.resolution = q.resolution;
            return spec;
        },
        [](const session::TimelineRenderResult &result, ByteWriter &w) {
            RenderReply reply;
            reply.fb = result.fb;
            reply.stats = result.stats;
            encodeRenderReply(reply, w);
        }},
    QueryRoute<AnomalyScanRequest, session::AnomalyScanQuery,
               std::vector<stats::Anomaly>>{
        MsgType::AnomalyScan, "AnomalyScan", decodeAnomalyScanRequest,
        [](const AnomalyScanRequest &q) {
            session::AnomalyScanQuery spec;
            spec.options = q.options;
            spec.context.interval = q.interval;
            return spec;
        },
        stats::encodeAnomalies});

// Bodies of the control requests; the client writes them inline.

/** CloseTrace: the trace id. */
bool
decodeTraceId(ByteReader &r, std::uint64_t &trace_id)
{
    trace_id = r.readVarint();
    return r.ok();
}

/** Cancel: the target request id. */
bool
decodeCancelTarget(ByteReader &r, std::uint64_t &target)
{
    target = r.readU64();
    return r.ok();
}

/** SetView: the trace id, then the view. */
struct SetViewBody
{
    std::uint64_t traceId = 0;
    TimeInterval view;
};

bool
decodeSetView(ByteReader &r, SetViewBody &out)
{
    out.traceId = r.readVarint();
    out.view.start = r.readU64();
    out.view.end = r.readU64();
    return r.ok();
}

/** SetFilters: the trace id, then the filter specs. */
struct SetFiltersBody
{
    std::uint64_t traceId = 0;
    std::vector<FilterSpec> specs;
};

bool
decodeSetFilters(ByteReader &r, SetFiltersBody &out)
{
    out.traceId = r.readVarint();
    return r.ok() && decodeFilters(r, out.specs);
}

} // namespace

/**
 * One client connection: the socket, a reader thread (decodes request
 * frames, drives the sessions, submits queries) and a writer thread
 * (drains the response queue). The connection mutex
 * (lockrank::kDaemonConnection) guards the in-flight map and the
 * response queue — the two structures ticket completion callbacks
 * touch from engine workers.
 */
class Server::Connection
    : public std::enable_shared_from_this<Server::Connection>
{
  public:
    Connection(Server *server, Socket socket)
        : server_(server), socket_(std::move(socket))
    {}

    void
    start()
    {
        reader_ = std::thread([this] { readerLoop(); });
        writer_ = std::thread([this] { writerLoop(); });
    }

    /** Wake the reader with EOF; it runs the disconnect path. */
    void interrupt() { socket_.shutdownBoth(); }

    void
    join()
    {
        if (reader_.joinable())
            reader_.join();
        if (writer_.joinable())
            writer_.join();
    }

    bool finished() const { return finished_.load(std::memory_order_acquire); }

  private:
    /** The cancel/wait half of one in-flight ticket, type-erased. */
    struct InflightOp
    {
        std::function<void()> cancel;
        std::function<QueryStatus()> wait;
        bool background = false;
    };

    void enqueue(MsgType type, std::uint64_t request_id,
                 std::vector<std::uint8_t> body) AM_EXCLUDES(mutex_);
    void sendFailure(std::uint64_t request_id, Status status,
                     std::uint64_t offset, const std::string &message)
        AM_EXCLUDES(mutex_);
    void sendOk(std::uint64_t request_id) AM_EXCLUDES(mutex_);

    bool handshake();
    void readerLoop();
    void writerLoop();
    void dispatch(const Frame &frame);
    void disconnectCleanup();

    /** The binding of @p trace_id, or null after answering Error. */
    Binding *findBinding(const Frame &frame, std::uint64_t trace_id);

    /**
     * Serve @p frame through @p route if the types match: decode, find
     * the binding, admit, apply the priority, submit, track. Returns
     * false when @p route is not the frame's row.
     */
    template <typename Request, typename Spec, typename Result>
    bool serveQuery(const Frame &frame,
                    const QueryRoute<Request, Spec, Result> &route);

    void handleOpenTrace(const Frame &frame);
    void handleCloseTrace(const Frame &frame);
    void handleSetView(const Frame &frame);
    void handleSetFilters(const Frame &frame);
    void handleCancel(const Frame &frame);

    /** Admission control; a false return already sent Rejected. */
    bool admit(std::uint64_t request_id) AM_EXCLUDES(mutex_);

    /**
     * Register @p ticket as in flight and arrange for its completion
     * to encode (via @p encode) and send the response. The callback
     * runs on the completing thread with no ticket lock held, so
     * taking the connection lock inside is rank-correct (500 -> none,
     * then 50).
     */
    template <typename Result>
    void
    track(std::uint64_t request_id, session::QueryTicket<Result> ticket,
          bool background,
          std::function<void(const Result &, ByteWriter &)> encode)
    {
        {
            base::MutexLock lock(mutex_);
            InflightOp op;
            op.cancel = [ticket]() mutable { ticket.cancel(); };
            op.wait = [ticket]() { return ticket.wait(); };
            op.background = background;
            inflight_[request_id] = std::move(op);
        }
        // The callback holds a shared_ptr to this connection: a late
        // completion (after the disconnect path already returned) must
        // still find the mutex and queue alive.
        ticket.onComplete([self = shared_from_this(), request_id, ticket,
                           encode = std::move(encode)](QueryStatus status) {
            ByteWriter w;
            if (status == QueryStatus::Done) {
                w.writeU8(static_cast<std::uint8_t>(Status::Ok));
                encode(ticket.result(), w);
            } else {
                encodeFailure(Status::Cancelled, 0, "", w);
            }
            base::MutexLock lock(self->mutex_);
            self->inflight_.erase(request_id);
            self->queue_.emplace_back(MsgType::Response, request_id,
                                      w.take());
            self->cv_.notifyAll();
        });
    }

    template <typename Request>
    bool
    decodeOrFail(const Frame &frame, const char *what,
                 bool (*decode)(ByteReader &, Request &), Request &out)
    {
        ByteReader r(frame.body);
        if (decode(r, out) && r.atEnd())
            return true;
        server_->protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        sendFailure(frame.requestId, Status::Error, r.offset(),
                    std::string("malformed ") + what + " request");
        return false;
    }

    Server *server_;
    Socket socket_;

    mutable base::Mutex mutex_{base::lockrank::kDaemonConnection,
                               "daemon-connection"};
    base::CondVar cv_;
    std::deque<std::tuple<MsgType, std::uint64_t, std::vector<std::uint8_t>>>
        queue_ AM_GUARDED_BY(mutex_);
    bool closing_ AM_GUARDED_BY(mutex_) = false;
    std::unordered_map<std::uint64_t, InflightOp> inflight_
        AM_GUARDED_BY(mutex_);

    /** Reader-thread state only: the trace bindings this client opened. */
    std::unordered_map<std::uint64_t, Binding> bindings_;
    std::uint64_t nextTraceId_ = 1;

    std::atomic<bool> finished_{false};
    std::thread reader_;
    std::thread writer_;
};

// -- Connection: response plumbing ---------------------------------------

void
Server::Connection::enqueue(MsgType type, std::uint64_t request_id,
                            std::vector<std::uint8_t> body)
{
    base::MutexLock lock(mutex_);
    queue_.emplace_back(type, request_id, std::move(body));
    cv_.notifyAll();
}

void
Server::Connection::sendFailure(std::uint64_t request_id, Status status,
                                std::uint64_t offset,
                                const std::string &message)
{
    ByteWriter w;
    encodeFailure(status, offset, message, w);
    enqueue(MsgType::Response, request_id, w.take());
}

void
Server::Connection::sendOk(std::uint64_t request_id)
{
    ByteWriter w;
    w.writeU8(static_cast<std::uint8_t>(Status::Ok));
    enqueue(MsgType::Response, request_id, w.take());
}

void
Server::Connection::writerLoop()
{
    for (;;) {
        MsgType type;
        std::uint64_t request_id;
        std::vector<std::uint8_t> body;
        {
            base::MutexLock lock(mutex_);
            while (queue_.empty() && !closing_)
                cv_.wait(lock);
            if (queue_.empty()) {
                // closing_ and drained: every response (including a
                // final protocol error) is on the wire — hang up so
                // the peer observes EOF, not a silent idle socket.
                socket_.shutdownBoth();
                return;
            }
            std::tie(type, request_id, body) = std::move(queue_.front());
            queue_.pop_front();
        }
        if (!writeFrame(socket_.fd(), type, request_id, body)) {
            // The peer is gone; wake the reader so the disconnect path
            // runs, then keep draining (and discarding) the queue so
            // completion callbacks never block.
            socket_.shutdownBoth();
        }
    }
}

// -- Connection: request handling ----------------------------------------

bool
Server::Connection::handshake()
{
    Frame frame;
    if (readFrame(socket_.fd(), frame) != FrameReadStatus::Ok)
        return false;
    Handshake hello;
    ByteReader r(frame.body);
    if (frame.type != MsgType::Hello || !decodeHandshake(r, hello)) {
        sendFailure(frame.requestId, Status::Error, r.offset(),
                    "expected Hello");
        return false;
    }
    if (hello.magic != kMagic) {
        sendFailure(frame.requestId, Status::Error, 0, "bad magic");
        return false;
    }
    // Every decoder reads the current layout; only newer clients can
    // negotiate down.
    if (hello.version < kProtocolVersion) {
        sendFailure(frame.requestId, Status::Error, 0,
                    "unsupported protocol version");
        return false;
    }
    Handshake ack;
    ack.version = std::min(hello.version, kProtocolVersion);
    ack.inflightCap = server_->options_.inflightCap;
    ByteWriter w;
    encodeHandshake(ack, w);
    enqueue(MsgType::HelloAck, 0, w.take());
    return true;
}

void
Server::Connection::readerLoop()
{
    if (handshake()) {
        for (;;) {
            Frame frame;
            FrameReadStatus status = readFrame(socket_.fd(), frame);
            if (status == FrameReadStatus::TooLarge) {
                server_->protocolErrors_.fetch_add(
                    1, std::memory_order_relaxed);
                sendFailure(0, Status::Error, 0,
                            "frame exceeds kMaxFrameBytes");
                break; // The stream can no longer be framed.
            }
            if (status != FrameReadStatus::Ok)
                break; // EOF, torn frame, or I/O error: disconnect.
            dispatch(frame);
        }
    }
    disconnectCleanup();
}

void
Server::Connection::dispatch(const Frame &frame)
{
    server_->requests_.fetch_add(1, std::memory_order_relaxed);
    switch (frame.type) {
    case MsgType::OpenTrace:
        handleOpenTrace(frame);
        return;
    case MsgType::CloseTrace:
        handleCloseTrace(frame);
        return;
    case MsgType::SetView:
        handleSetView(frame);
        return;
    case MsgType::SetFilters:
        handleSetFilters(frame);
        return;
    case MsgType::Cancel:
        handleCancel(frame);
        return;
    default:
        break;
    }

    const bool routed = std::apply(
        [&](const auto &...route) {
            return (serveQuery(frame, route) || ...);
        },
        kQueryRoutes);
    if (!routed) {
        server_->protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        sendFailure(frame.requestId, Status::Error, 0,
                    "unexpected message type");
    }
}

template <typename Request, typename Spec, typename Result>
bool
Server::Connection::serveQuery(
    const Frame &frame, const QueryRoute<Request, Spec, Result> &route)
{
    if (frame.type != route.type)
        return false;
    Request q;
    if (!decodeOrFail(frame, route.name, route.decode, q))
        return true;
    Binding *binding = findBinding(frame, q.head.traceId);
    if (!binding || !admit(frame.requestId))
        return true;
    Spec spec = route.build(q);
    spec.context.priority =
        effectivePriority(q.head.priority, spec.context.priority);
    track<Result>(frame.requestId, binding->session->submit(spec),
                  spec.context.priority == QueryPriority::Background,
                  route.encode);
    return true;
}

Server::Binding *
Server::Connection::findBinding(const Frame &frame, std::uint64_t trace_id)
{
    auto it = bindings_.find(trace_id);
    if (it != bindings_.end())
        return &it->second;
    sendFailure(frame.requestId, Status::Error, 0, "unknown trace id");
    return nullptr;
}

bool
Server::Connection::admit(std::uint64_t request_id)
{
    std::size_t inflight;
    {
        base::MutexLock lock(mutex_);
        inflight = inflight_.size();
    }
    if (inflight < server_->options_.inflightCap)
        return true;
    server_->rejected_.fetch_add(1, std::memory_order_relaxed);
    sendFailure(request_id, Status::Rejected, 0,
                "in-flight cap reached");
    return false;
}

void
Server::Connection::handleOpenTrace(const Frame &frame)
{
    OpenTraceRequest q;
    if (!decodeOrFail(frame, "OpenTrace", decodeOpenTrace, q))
        return;
    std::string error;
    std::shared_ptr<SharedTrace> shared =
        server_->acquireTrace(q, error);
    if (!shared) {
        sendFailure(frame.requestId, Status::Error, 0, error);
        return;
    }

    Binding binding;
    binding.shared = shared;
    binding.session =
        std::make_unique<session::Session>(shared->trace);
    binding.session->setQueryEngine(server_->engine_);
    binding.session->adoptSharedCaches(shared->caches);
    // Per-client cancellation scope: this client's view/filter
    // mutations cancel only its own stale queries.
    binding.session->setGenerationDomain(
        std::make_shared<session::GenerationDomain>());

    OpenTraceReply reply;
    reply.traceId = nextTraceId_++;
    reply.numCpus = shared->trace->numCpus();
    reply.span = shared->trace->span();
    bindings_.emplace(reply.traceId, std::move(binding));

    ByteWriter w;
    w.writeU8(static_cast<std::uint8_t>(Status::Ok));
    encodeOpenTraceReply(reply, w);
    enqueue(MsgType::Response, frame.requestId, w.take());
}

void
Server::Connection::handleCloseTrace(const Frame &frame)
{
    std::uint64_t trace_id = 0;
    if (!decodeOrFail(frame, "CloseTrace", decodeTraceId, trace_id))
        return;
    Binding *binding = findBinding(frame, trace_id);
    if (!binding)
        return;
    // In-flight queries on this binding survive: executors own shared
    // handles to everything they touch, and their completions still
    // route through the in-flight map. Only the binding goes away.
    std::shared_ptr<SharedTrace> shared = std::move(binding->shared);
    bindings_.erase(trace_id);
    server_->releaseTrace(shared);
    sendOk(frame.requestId);
}

void
Server::Connection::handleSetView(const Frame &frame)
{
    SetViewBody q;
    if (!decodeOrFail(frame, "SetView", decodeSetView, q))
        return;
    if (Binding *binding = findBinding(frame, q.traceId)) {
        binding->session->setView(q.view);
        sendOk(frame.requestId);
    }
}

void
Server::Connection::handleSetFilters(const Frame &frame)
{
    SetFiltersBody q;
    if (!decodeOrFail(frame, "SetFilters", decodeSetFilters, q))
        return;
    if (Binding *binding = findBinding(frame, q.traceId)) {
        binding->session->setFilters(materializeFilters(q.specs));
        sendOk(frame.requestId);
    }
}

void
Server::Connection::handleCancel(const Frame &frame)
{
    std::uint64_t target = 0;
    if (!decodeOrFail(frame, "Cancel", decodeCancelTarget, target))
        return;
    std::function<void()> cancel;
    {
        base::MutexLock lock(mutex_);
        auto it = inflight_.find(target);
        if (it != inflight_.end())
            cancel = it->second.cancel;
    }
    // The target's own response (Cancelled, or Done if it won the
    // race) is sent by its completion callback; this acks the Cancel.
    if (cancel)
        cancel();
    sendOk(frame.requestId);
}

void
Server::Connection::disconnectCleanup()
{
    // Cancel every in-flight ticket of this client and wait each one
    // out — no orphaned executors keep running for a dead socket.
    std::vector<InflightOp> pending;
    {
        base::MutexLock lock(mutex_);
        pending.reserve(inflight_.size());
        for (auto &[id, op] : inflight_)
            pending.push_back(op);
    }
    for (InflightOp &op : pending)
        op.cancel();
    for (InflightOp &op : pending) {
        if (op.wait() == QueryStatus::Cancelled)
            server_->cancelledOnDisconnect_.fetch_add(
                1, std::memory_order_relaxed);
    }

    // Completion callbacks have all fired (they run before or
    // concurrently with wait() returning and only touch the map and
    // queue); now release the writer.
    {
        base::MutexLock lock(mutex_);
        closing_ = true;
        cv_.notifyAll();
    }

    // Drop the sessions and the shared-trace references.
    for (auto &[id, binding] : bindings_) {
        std::shared_ptr<SharedTrace> shared = std::move(binding.shared);
        binding.session.reset();
        server_->releaseTrace(shared);
    }
    bindings_.clear();

    finished_.store(true, std::memory_order_release);
}

// -- Server ---------------------------------------------------------------

Server::Server(Options options)
    : options_(options),
      engine_(std::make_shared<session::QueryEngine>(options.workers))
{}

Server::~Server()
{
    stop();
}

bool
Server::serveUnix(const std::string &path, std::string &error)
{
    Socket listener = listenUnix(path, error);
    if (!listener.valid())
        return false;
    listener_ = std::move(listener);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    for (;;) {
        Socket socket = acceptConnection(listener_.fd());
        if (!socket.valid())
            return; // Listener closed: stop() is running.
        serve(std::move(socket));
    }
}

void
Server::serve(Socket socket)
{
    auto conn = std::make_shared<Connection>(this, std::move(socket));
    {
        base::MutexLock lock(mutex_);
        if (stopping_)
            return; // Drops the socket: connection refused.
        connections_.push_back(conn);
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    conn->start();
}

Socket
Server::connectInProcess()
{
    Socket serverEnd, clientEnd;
    std::string error;
    if (!socketPair(serverEnd, clientEnd, error)) {
        warn("daemon: socketpair failed: %s", error.c_str());
        return Socket();
    }
    serve(std::move(serverEnd));
    return clientEnd;
}

void
Server::stop()
{
    std::vector<std::shared_ptr<Connection>> connections;
    {
        base::MutexLock lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
        connections.swap(connections_);
    }
    // Closing the listener makes accept() fail, ending the accept loop.
    listener_.shutdownBoth();
    listener_.close();
    if (acceptThread_.joinable())
        acceptThread_.join();

    for (auto &conn : connections)
        conn->interrupt();
    for (auto &conn : connections)
        conn->join();
    connections.clear();

    base::MutexLock lock(mutex_);
    registry_.clear();
}

Server::Stats
Server::stats() const
{
    Stats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.protocolErrors = protocolErrors_.load(std::memory_order_relaxed);
    s.cancelledOnDisconnect =
        cancelledOnDisconnect_.load(std::memory_order_relaxed);
    s.connectionsAccepted = accepted_.load(std::memory_order_relaxed);
    base::MutexLock lock(mutex_);
    for (const auto &conn : connections_)
        if (!conn->finished())
            s.activeConnections++;
    s.sharedTraces = registry_.size();
    return s;
}

std::shared_ptr<Server::SharedTrace>
Server::acquireTrace(const OpenTraceRequest &request, std::string &error)
{
    // Path-sourced opens share through the registry; inline bytes are
    // always a private trace, never in the registry.
    const bool from_path = !request.bytes;
    if (from_path) {
        base::MutexLock lock(mutex_);
        auto it = registry_.find(request.path);
        if (it != registry_.end()) {
            it->second->refs++;
            return it->second;
        }
    }

    // Load outside the lock: only this client waits on the read.
    trace::ReadOptions options;
    options.workers = options_.workers;
    trace::ReadResult result =
        from_path ? trace::readTraceFile(request.path, options)
                  : trace::readTrace(*request.bytes, options);
    if (!result.ok) {
        error = (from_path ? "cannot load " + request.path + ": "
                           : std::string("cannot parse inline trace: ")) +
                result.error;
        return nullptr;
    }
    auto shared = std::make_shared<SharedTrace>();
    shared->trace =
        std::make_shared<const trace::Trace>(std::move(result.trace));
    session::Session seed(shared->trace);
    shared->caches = seed.sharedCaches();
    shared->refs = 1;
    if (!from_path)
        return shared;

    shared->key = request.path;
    base::MutexLock lock(mutex_);
    auto [it, inserted] = registry_.emplace(request.path, shared);
    if (!inserted) {
        // Another client's load won the race; share theirs.
        it->second->refs++;
        return it->second;
    }
    return shared;
}

void
Server::releaseTrace(const std::shared_ptr<SharedTrace> &shared)
{
    if (!shared)
        return;
    base::MutexLock lock(mutex_);
    if (shared->refs > 0)
        shared->refs--;
    if (shared->refs == 0 && !shared->key.empty())
        registry_.erase(shared->key);
}

} // namespace daemon
} // namespace aftermath
