#include "daemon/client.h"

#include <utility>

#include "stats/export.h"

namespace aftermath {
namespace daemon {

namespace detail {

struct ReplySlot
{
    bool ready = false; ///< Guarded by the core mutex.
    std::vector<std::uint8_t> body;
};

/**
 * State shared between the Client, its demux thread, and every
 * outstanding Future: the socket, the pending map, and the one mutex
 * (lockrank::kDaemonClient) guarding both plus the write side.
 * shared_ptr-held so Futures outlive a destroyed Client gracefully.
 */
struct ClientCore
{
    mutable base::Mutex mutex{base::lockrank::kDaemonClient,
                              "daemon-client"};
    base::CondVar cv;
    Socket socket;
    bool connected AM_GUARDED_BY(mutex) = false;
    bool dead AM_GUARDED_BY(mutex) = false;
    std::uint32_t inflightCap AM_GUARDED_BY(mutex) = 0;
    std::uint64_t nextRequestId AM_GUARDED_BY(mutex) = 1;
    std::unordered_map<std::uint64_t, std::shared_ptr<ReplySlot>> pending
        AM_GUARDED_BY(mutex);
};

bool
awaitReply(const std::shared_ptr<ClientCore> &core,
           const std::shared_ptr<ReplySlot> &slot,
           std::vector<std::uint8_t> &body, std::string &error)
{
    if (!core || !slot) {
        error = "not connected";
        return false;
    }
    base::MutexLock lock(core->mutex);
    while (!slot->ready && !core->dead)
        core->cv.wait(lock);
    if (!slot->ready) {
        error = "connection closed";
        return false;
    }
    body = std::move(slot->body);
    return true;
}

namespace {

/** Fail every pending Future and mark the connection dead. */
void
markDead(ClientCore &core)
{
    base::MutexLock lock(core.mutex);
    core.dead = true;
    core.connected = false;
    core.pending.clear(); // Waiters hold their own slot refs.
    core.cv.notifyAll();
}

} // namespace

} // namespace detail

using detail::ClientCore;
using detail::ReplySlot;

namespace {

// Decoder adapters with the exact signature Future expects.

bool
decodeAck(ByteReader &, Ack &)
{
    return true;
}

bool
decodeStats(ByteReader &r, stats::IntervalStats &out)
{
    return stats::decodeIntervalStats(r, out) && r.atEnd();
}

bool
decodeHisto(ByteReader &r, stats::Histogram &out)
{
    return stats::decodeHistogram(r, out) && r.atEnd();
}

bool
decodeRows(ByteReader &r, std::vector<TaskRow> &out)
{
    return decodeTaskRows(r, out) && r.atEnd();
}

bool
decodeExtrema(ByteReader &r, index::MinMax &out)
{
    return stats::decodeMinMax(r, out) && r.atEnd();
}

bool
decodeWarmup(ByteReader &r, session::WarmupStats &out)
{
    return decodeWarmupStats(r, out) && r.atEnd();
}

bool
decodeRender(ByteReader &r, RenderReply &out)
{
    return decodeRenderReply(r, out) && r.atEnd();
}

bool
decodeOpenReply(ByteReader &r, OpenTraceReply &out)
{
    return decodeOpenTraceReply(r, out) && r.atEnd();
}

bool
decodeAnoms(ByteReader &r, std::vector<stats::Anomaly> &out)
{
    return stats::decodeAnomalies(r, out) && r.atEnd();
}

} // namespace

Client::Client() : core_(std::make_shared<ClientCore>()) {}

Client::~Client()
{
    close();
}

bool
Client::connectUnix(const std::string &path, std::string &error)
{
    Socket socket = daemon::connectUnix(path, error);
    if (!socket.valid())
        return false;
    return adopt(std::move(socket), error);
}

bool
Client::adopt(Socket socket, std::string &error)
{
    {
        base::MutexLock lock(core_->mutex);
        if (core_->connected || core_->dead) {
            error = "client already used";
            return false;
        }
        core_->socket = std::move(socket);
    }
    if (!handshake(error)) {
        detail::markDead(*core_);
        core_->socket.close();
        return false;
    }
    demux_ = std::thread([core = core_] {
        for (;;) {
            Frame frame;
            FrameReadStatus status =
                readFrame(core->socket.fd(), frame);
            if (status != FrameReadStatus::Ok)
                break;
            if (frame.type != MsgType::Response)
                continue; // Only responses flow server -> client.
            base::MutexLock lock(core->mutex);
            auto it = core->pending.find(frame.requestId);
            if (it == core->pending.end())
                continue; // Response to a forgotten request.
            it->second->ready = true;
            it->second->body = std::move(frame.body);
            core->pending.erase(it);
            core->cv.notifyAll();
        }
        detail::markDead(*core);
    });
    return true;
}

bool
Client::handshake(std::string &error)
{
    Handshake hello;
    ByteWriter w;
    encodeHandshake(hello, w);
    if (!writeFrame(core_->socket.fd(), MsgType::Hello, 0, w.take())) {
        error = "handshake write failed";
        return false;
    }
    Frame frame;
    if (readFrame(core_->socket.fd(), frame) != FrameReadStatus::Ok) {
        error = "handshake read failed";
        return false;
    }
    if (frame.type != MsgType::HelloAck) {
        // The server answers a bad Hello with an error Response.
        ByteReader r(frame.body);
        ResponseHead head;
        if (frame.type == MsgType::Response &&
            decodeResponseHead(r, head))
            error = "handshake rejected: " + head.message;
        else
            error = "handshake rejected";
        return false;
    }
    Handshake ack;
    ByteReader r(frame.body);
    if (!decodeHandshake(r, ack) || ack.magic != kMagic) {
        error = "malformed HelloAck";
        return false;
    }
    // Replies are decoded in this build's layout only (a v2 server's
    // render replies are pixel runs, not lane images).
    if (ack.version != kProtocolVersion) {
        error = "server selected unsupported protocol version";
        return false;
    }
    base::MutexLock lock(core_->mutex);
    core_->connected = true;
    core_->inflightCap = ack.inflightCap;
    return true;
}

bool
Client::connected() const
{
    base::MutexLock lock(core_->mutex);
    return core_->connected;
}

std::uint32_t
Client::inflightCap() const
{
    base::MutexLock lock(core_->mutex);
    return core_->inflightCap;
}

void
Client::close()
{
    core_->socket.shutdownBoth(); // Wakes the demux thread with EOF.
    if (demux_.joinable())
        demux_.join();
    detail::markDead(*core_);
    core_->socket.close();
}

std::pair<std::shared_ptr<ReplySlot>, std::uint64_t>
Client::send(MsgType type, std::vector<std::uint8_t> body)
{
    base::MutexLock lock(core_->mutex);
    if (!core_->connected || core_->dead)
        return {nullptr, 0};
    std::uint64_t id = core_->nextRequestId++;
    auto slot = std::make_shared<ReplySlot>();
    core_->pending.emplace(id, slot);
    // Writing under the lock serializes frames from concurrent
    // callers; the mutex ranks below nothing we hold here.
    if (!writeFrame(core_->socket.fd(), type, id, body)) {
        core_->pending.erase(id);
        return {nullptr, 0};
    }
    return {std::move(slot), id};
}

// -- Asynchronous API ------------------------------------------------------

Future<OpenTraceReply>
Client::asyncOpenTrace(const OpenTraceRequest &request)
{
    ByteWriter w;
    encodeOpenTrace(request, w);
    return this->request<OpenTraceReply>(MsgType::OpenTrace, w.take(),
                                         decodeOpenReply);
}

Future<Ack>
Client::asyncCloseTrace(std::uint64_t trace_id)
{
    ByteWriter w;
    encodeCloseTrace(trace_id, w);
    return request<Ack>(MsgType::CloseTrace, w.take(), decodeAck);
}

Future<Ack>
Client::asyncSetView(std::uint64_t trace_id, const TimeInterval &view)
{
    ByteWriter w;
    encodeSetView({trace_id, view}, w);
    return request<Ack>(MsgType::SetView, w.take(), decodeAck);
}

Future<Ack>
Client::asyncSetFilters(std::uint64_t trace_id,
                        const std::vector<FilterSpec> &filters)
{
    ByteWriter w;
    encodeSetFilters({trace_id, filters}, w);
    return request<Ack>(MsgType::SetFilters, w.take(), decodeAck);
}

Future<stats::IntervalStats>
Client::asyncIntervalStats(const IntervalStatsRequest &req)
{
    ByteWriter w;
    encodeIntervalStatsRequest(req, w);
    return request<stats::IntervalStats>(MsgType::IntervalStats, w.take(),
                                         decodeStats);
}

Future<stats::Histogram>
Client::asyncHistogram(const HistogramRequest &req)
{
    ByteWriter w;
    encodeHistogramRequest(req, w);
    return request<stats::Histogram>(MsgType::Histogram, w.take(),
                                     decodeHisto);
}

Future<std::vector<TaskRow>>
Client::asyncTaskList(const TaskListRequest &req)
{
    ByteWriter w;
    encodeTaskListRequest(req, w);
    return request<std::vector<TaskRow>>(MsgType::TaskList, w.take(),
                                         decodeRows);
}

Future<index::MinMax>
Client::asyncCounterExtrema(const CounterExtremaRequest &req)
{
    ByteWriter w;
    encodeCounterExtremaRequest(req, w);
    return request<index::MinMax>(MsgType::CounterExtrema, w.take(),
                                  decodeExtrema);
}

Future<session::WarmupStats>
Client::asyncWarmup(const WarmupRequest &req)
{
    ByteWriter w;
    encodeWarmupRequest(req, w);
    return request<session::WarmupStats>(MsgType::Warmup, w.take(),
                                         decodeWarmup);
}

Future<RenderReply>
Client::asyncTimelineRender(const TimelineRenderRequest &req)
{
    ByteWriter w;
    encodeTimelineRenderRequest(req, w);
    return request<RenderReply>(MsgType::TimelineRender, w.take(),
                                decodeRender);
}

Future<std::vector<stats::Anomaly>>
Client::asyncAnomalyScan(const AnomalyScanRequest &req)
{
    ByteWriter w;
    encodeAnomalyScanRequest(req, w);
    return request<std::vector<stats::Anomaly>>(MsgType::AnomalyScan,
                                                w.take(), decodeAnoms);
}

Future<Ack>
Client::asyncCancel(std::uint64_t target_request_id)
{
    ByteWriter w;
    encodeCancel(target_request_id, w);
    return request<Ack>(MsgType::Cancel, w.take(), decodeAck);
}

// -- Blocking API ----------------------------------------------------------

Reply<OpenTraceReply>
Client::openTrace(const OpenTraceRequest &request)
{
    return asyncOpenTrace(request).get();
}

Reply<Ack>
Client::closeTrace(std::uint64_t trace_id)
{
    return asyncCloseTrace(trace_id).get();
}

Reply<Ack>
Client::setView(std::uint64_t trace_id, const TimeInterval &view)
{
    return asyncSetView(trace_id, view).get();
}

Reply<Ack>
Client::setFilters(std::uint64_t trace_id,
                   const std::vector<FilterSpec> &filters)
{
    return asyncSetFilters(trace_id, filters).get();
}

Reply<stats::IntervalStats>
Client::intervalStats(const IntervalStatsRequest &request)
{
    return asyncIntervalStats(request).get();
}

Reply<stats::Histogram>
Client::histogram(const HistogramRequest &request)
{
    return asyncHistogram(request).get();
}

Reply<std::vector<TaskRow>>
Client::taskList(const TaskListRequest &request)
{
    return asyncTaskList(request).get();
}

Reply<index::MinMax>
Client::counterExtrema(const CounterExtremaRequest &request)
{
    return asyncCounterExtrema(request).get();
}

Reply<session::WarmupStats>
Client::warmup(const WarmupRequest &request)
{
    return asyncWarmup(request).get();
}

Reply<RenderReply>
Client::timelineRender(const TimelineRenderRequest &request)
{
    return asyncTimelineRender(request).get();
}

Reply<std::vector<stats::Anomaly>>
Client::anomalyScan(const AnomalyScanRequest &request)
{
    return asyncAnomalyScan(request).get();
}

} // namespace daemon
} // namespace aftermath
