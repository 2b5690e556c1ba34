/**
 * @file
 * Client half of the trace-serving daemon: a connection to aftermathd
 * with a blocking and an asynchronous request API.
 *
 * One Client is one protocol connection (daemon/protocol.h): connect,
 * handshake, then issue requests. Every request is asynchronous at the
 * wire level — the client assigns a request id, sends the frame, and a
 * demultiplexer thread routes the response to the matching Future. The
 * blocking methods are thin wrappers (send + Future::get()), so both
 * forms produce identical results; with the in-flight cap the server
 * advertises in its HelloAck, a client can keep several queries
 * pipelined and collect them out of order.
 *
 * Threading: all request methods and Future::get() are safe from any
 * thread (one mutex, lockrank::kDaemonClient, guards the pending map
 * and the socket's write side). A server disconnect fails every
 * pending Future with Status::Error rather than blocking forever.
 */

#ifndef AFTERMATH_DAEMON_CLIENT_H
#define AFTERMATH_DAEMON_CLIENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "daemon/protocol.h"
#include "daemon/wire.h"
#include "index/counter_index.h"
#include "session/query.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"

namespace aftermath {
namespace daemon {

/** Decoded outcome of one request. */
template <typename T>
struct Reply
{
    Status status = Status::Error;
    T value{};

    /** Error only: byte offset into the request body. */
    std::uint64_t errorOffset = 0;

    /** Error and Rejected: the server's diagnostic. */
    std::string message;

    bool ok() const { return status == Status::Ok; }
};

/** Result type of requests whose Ok response carries no body. */
struct Ack
{};

namespace detail {

/** Shared slot one response lands in (client internals). */
struct ReplySlot;

struct ClientCore;

/** Type-erased wait used by every Future<T>::get(). */
bool awaitReply(const std::shared_ptr<ClientCore> &core,
                const std::shared_ptr<ReplySlot> &slot,
                std::vector<std::uint8_t> &body, std::string &error);

} // namespace detail

/**
 * Handle to one in-flight request. get() blocks until the response
 * frame arrives (or the connection dies) and decodes it. get() may be
 * called once per Future; a default-constructed Future is invalid.
 */
template <typename T>
class Future
{
  public:
    Future() = default;

    bool valid() const { return slot_ != nullptr; }

    /** The request id on the wire (target for Client::cancel()). */
    std::uint64_t requestId() const { return requestId_; }

    Reply<T>
    get()
    {
        Reply<T> reply;
        std::vector<std::uint8_t> body;
        std::string error;
        if (!detail::awaitReply(core_, slot_, body, error)) {
            reply.status = Status::Error;
            reply.message = error;
            return reply;
        }
        ByteReader r(body);
        ResponseHead head;
        if (!decodeResponseHead(r, head)) {
            reply.status = Status::Error;
            reply.message = "undecodable response";
            return reply;
        }
        reply.status = head.status;
        reply.errorOffset = head.errorOffset;
        reply.message = head.message;
        if (head.status == Status::Ok && decode_ &&
            !decode_(r, reply.value)) {
            reply.status = Status::Error;
            reply.message = "undecodable response body";
        }
        return reply;
    }

  private:
    friend class Client;

    Future(std::shared_ptr<detail::ClientCore> core,
           std::shared_ptr<detail::ReplySlot> slot,
           std::uint64_t request_id, bool (*decode)(ByteReader &, T &))
        : core_(std::move(core)), slot_(std::move(slot)),
          requestId_(request_id), decode_(decode)
    {}

    std::shared_ptr<detail::ClientCore> core_;
    std::shared_ptr<detail::ReplySlot> slot_;
    std::uint64_t requestId_ = 0;
    bool (*decode_)(ByteReader &, T &) = nullptr;
};

/** One connection to a trace-serving daemon. */
class Client
{
  public:
    Client();
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to @p path and handshake; false with @p error set. */
    bool connectUnix(const std::string &path, std::string &error);

    /**
     * Adopt an already-connected socket (Server::connectInProcess())
     * and handshake on it.
     */
    bool adopt(Socket socket, std::string &error);

    /** True between a successful handshake and close()/disconnect. */
    bool connected() const;

    /** The server's per-client in-flight cap (from the HelloAck). */
    std::uint32_t inflightCap() const;

    /** Close the connection; every pending Future fails. Idempotent. */
    void close();

    // -- Asynchronous API --------------------------------------------------

    Future<OpenTraceReply> asyncOpenTrace(const OpenTraceRequest &request);
    Future<Ack> asyncCloseTrace(std::uint64_t trace_id);
    Future<Ack> asyncSetView(std::uint64_t trace_id,
                             const TimeInterval &view);
    Future<Ack> asyncSetFilters(std::uint64_t trace_id,
                                const std::vector<FilterSpec> &filters);
    Future<stats::IntervalStats>
    asyncIntervalStats(const IntervalStatsRequest &request);
    Future<stats::Histogram> asyncHistogram(const HistogramRequest &request);
    Future<std::vector<TaskRow>>
    asyncTaskList(const TaskListRequest &request);
    Future<index::MinMax>
    asyncCounterExtrema(const CounterExtremaRequest &request);
    Future<session::WarmupStats> asyncWarmup(const WarmupRequest &request);
    Future<RenderReply>
    asyncTimelineRender(const TimelineRenderRequest &request);
    Future<std::vector<stats::Anomaly>>
    asyncAnomalyScan(const AnomalyScanRequest &request);

    /**
     * Ask the server to cancel in-flight request @p target_request_id.
     * The target's own Future completes with Status::Cancelled (or Ok
     * if completion won the race); this Future acks the cancel.
     */
    Future<Ack> asyncCancel(std::uint64_t target_request_id);

    // -- Blocking API (send + get) -----------------------------------------

    Reply<OpenTraceReply> openTrace(const OpenTraceRequest &request);
    Reply<Ack> closeTrace(std::uint64_t trace_id);
    Reply<Ack> setView(std::uint64_t trace_id, const TimeInterval &view);
    Reply<Ack> setFilters(std::uint64_t trace_id,
                          const std::vector<FilterSpec> &filters);
    Reply<stats::IntervalStats>
    intervalStats(const IntervalStatsRequest &request);
    Reply<stats::Histogram> histogram(const HistogramRequest &request);
    Reply<std::vector<TaskRow>> taskList(const TaskListRequest &request);
    Reply<index::MinMax>
    counterExtrema(const CounterExtremaRequest &request);
    Reply<session::WarmupStats> warmup(const WarmupRequest &request);
    Reply<RenderReply>
    timelineRender(const TimelineRenderRequest &request);
    Reply<std::vector<stats::Anomaly>>
    anomalyScan(const AnomalyScanRequest &request);

  private:
    /** Register a slot and send the frame; null slot = send failed. */
    std::pair<std::shared_ptr<detail::ReplySlot>, std::uint64_t>
    send(MsgType type, std::vector<std::uint8_t> body);

    template <typename T>
    Future<T>
    request(MsgType type, std::vector<std::uint8_t> body,
            bool (*decode)(ByteReader &, T &))
    {
        auto [slot, id] = send(type, std::move(body));
        return Future<T>(core_, std::move(slot), id, decode);
    }

    bool handshake(std::string &error);

    std::shared_ptr<detail::ClientCore> core_;
    std::thread demux_;
};

} // namespace daemon
} // namespace aftermath

#endif // AFTERMATH_DAEMON_CLIENT_H
