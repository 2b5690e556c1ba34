/**
 * @file
 * The trace-serving daemon's wire protocol: frame grammar, message
 * types, and the encode/decode of every request and response body.
 *
 * One engine, many clients: aftermathd owns the traces and the query
 * engine; clients connect over a Unix-domain socket (the transport
 * abstraction in daemon/wire.h is TCP-ready) and speak this protocol.
 * Requests are the serialized form of the QuerySpec value types in
 * session/query.h, responses the serialized results from
 * stats/export.h — so a result decoded on the client is bit-identical
 * to the same query answered by a local Session.
 *
 * ## Frame grammar
 *
 * Every message — both directions — is one length-prefixed frame:
 *
 *     frame     := length payload
 *     length    := u32 LE                  ; byte count of `payload`,
 *                                          ; 9 <= length <= kMaxFrameBytes
 *     payload   := type request-id body
 *     type      := u8                      ; MsgType
 *     request-id:= u64 LE                  ; client-chosen, echoed in the
 *                                          ; response; 0 = handshake
 *     body      := type-specific bytes     ; may be empty
 *
 * Integers inside bodies use the trace format's conventions
 * (base/buffer.h): fixed-width fields are little-endian, open-ended
 * counts and ids are LEB128 varints, signed quantities are ZigZag
 * varints, doubles travel as their IEEE-754 bits. A frame whose length
 * field exceeds kMaxFrameBytes is a protocol error: the server answers
 * with Status::Error and closes the connection, since the stream can
 * no longer be framed reliably.
 *
 * ## Version negotiation
 *
 * The first frame on a fresh connection must be the client's Hello
 * (request-id 0): magic `kMagic`, then the highest protocol version the
 * client speaks. The server decodes only the kProtocolVersion layout,
 * so a client older than kProtocolVersion gets an Error response and
 * an immediate close, exactly like a bad magic. A newer client
 * negotiates down: the server answers HelloAck carrying the version it
 * selected — min(client, server), always kProtocolVersion — and its
 * admission cap (the per-client in-flight limit, so clients can size
 * their pipelines). daemon::Client likewise decodes only its own
 * version's layout, so it refuses a HelloAck selecting another (an
 * older server). No other frame is valid before the handshake
 * completes.
 *
 * ## Requests and responses
 *
 * Each request frame produces exactly one Response frame echoing its
 * request-id (out of order with respect to other requests — responses
 * complete as the engine finishes them). The response body starts with
 * a Status byte:
 *
 *     response-body := status result
 *     status        := u8            ; Status below
 *     result        := ok-body       ; status == Ok: per-request encoding
 *                    | error-body    ; status == Error
 *                    | ()            ; status == Cancelled
 *                    | string        ; status == Rejected: reason
 *     error-body    := offset message
 *     offset        := varint        ; byte offset into the *request*
 *                                    ; body where decoding failed (or 0
 *                                    ;  for semantic errors)
 *     message       := string        ; varint length + UTF-8 bytes
 *
 * Request priority: specs carrying a scheduling class encode it as one
 * u8 — 0 keeps the spec's default (session/query.h), 1 forces
 * Interactive, 2 forces Background. The daemon maps these directly
 * onto the engine's two-level queue; admission control (the in-flight
 * cap) answers Rejected without touching the engine.
 */

#ifndef AFTERMATH_DAEMON_PROTOCOL_H
#define AFTERMATH_DAEMON_PROTOCOL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/resolution.h"
#include "base/time_interval.h"
#include "base/types.h"
#include "filter/task_filter.h"
#include "render/framebuffer.h"
#include "render/lane_image.h"
#include "render/render_stats.h"
#include "session/query.h"
#include "trace/trace.h"

namespace aftermath {
namespace daemon {

/** First u32 of every Hello: "AMD1" (Aftermath Daemon, format 1). */
inline constexpr std::uint32_t kMagic = 0x414D4431;

/**
 * Highest protocol version this build speaks. Version 2 added the
 * resolution request field (base/resolution.h) to interval-stats,
 * histogram, counter-extrema and timeline-render requests, an optional
 * interval on histogram requests, and resolution provenance on the
 * render reply. Version 3 replaced the render reply's pixel runs with
 * lane images (render/lane_image.h), drawn by the client.
 */
inline constexpr std::uint32_t kProtocolVersion = 3;

/** Hard upper bound on one frame's payload (16 MiB). */
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/**
 * Worst-case render-reply bytes per pixel: a one-pixel span takes a
 * one-byte length and a color of at most five bytes (a new palette
 * entry), and a lane-kind byte adds at most one byte per row while
 * lanes do not share rows.
 */
inline constexpr std::uint32_t kRenderReplyBytesPerPixel = 7;

/**
 * Largest width x height a render request may ask for: the worst-case
 * reply of a frame whose lanes do not share rows, with the frame head,
 * the status byte and the reply's fixed fields (under 128 bytes in
 * all), fits one frame. A frame with more lanes than rows can still
 * exceed it; the server answers such a request with Status::Error.
 */
inline constexpr std::uint32_t kMaxRenderPixels =
    (kMaxFrameBytes - 128) / kRenderReplyBytesPerPixel;

/** Payload bytes before the body: type (1) + request id (8). */
inline constexpr std::size_t kFrameHeaderBytes = 9;

/** Message type — the first payload byte of every frame. */
enum class MsgType : std::uint8_t
{
    Hello = 1,      ///< Client -> server, request-id 0.
    HelloAck = 2,   ///< Server -> client, request-id 0.
    OpenTrace = 3,  ///< Load (or share) a trace; returns a trace id.
    CloseTrace = 4, ///< Drop one trace binding.
    SetView = 5,    ///< Move this client's view (bumps its generation).
    SetFilters = 6, ///< Replace this client's filters.
    IntervalStats = 7,
    Histogram = 8,
    TaskList = 9,
    CounterExtrema = 10,
    TimelineRender = 11,
    Warmup = 12,
    Cancel = 13,   ///< Cancel an in-flight request by its request-id.
    Response = 14, ///< Server -> client; echoes the request-id.
    AnomalyScan = 15, ///< Ranked anomaly scan (stats/anomaly.h).
};

/**
 * Highest assigned message type, the upper bound of the wire layer's
 * frame-type validation. Extend this when appending a type to MsgType
 * — numbers above Response stay valid because existing assignments
 * never move.
 */
constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::AnomalyScan);

/** First body byte of every Response frame. */
enum class Status : std::uint8_t
{
    Ok = 0,
    Error = 1,     ///< Malformed or unserviceable; offset + message.
    Cancelled = 2, ///< Cancel frame, client mutation, or disconnect.
    Rejected = 3,  ///< Admission control: in-flight cap reached.
};

/** Wire form of session::QueryPriority (0 = the spec's default). */
enum class WirePriority : std::uint8_t
{
    Default = 0,
    Interactive = 1,
    Background = 2,
};

/** Apply @p p to @p fallback (the spec's default scheduling class). */
session::QueryPriority effectivePriority(WirePriority p,
                                         session::QueryPriority fallback);

// -- Handshake -----------------------------------------------------------

/** Body of Hello and HelloAck. */
struct Handshake
{
    std::uint32_t magic = kMagic;
    std::uint32_t version = kProtocolVersion;

    /** HelloAck only: the server's per-client in-flight cap. */
    std::uint32_t inflightCap = 0;
};

void encodeHandshake(const Handshake &h, ByteWriter &w);
bool decodeHandshake(ByteReader &r, Handshake &out);

// -- OpenTrace / CloseTrace ----------------------------------------------

/**
 * Open a trace on the server. A path-sourced open of a file another
 * client already holds shares that client's trace object and caches;
 * inline bytes are always private to the requesting client.
 */
struct OpenTraceRequest
{
    /** 0 = path on the server's filesystem, 1 = inline trace bytes. */
    std::string path;
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
};

struct OpenTraceReply
{
    std::uint64_t traceId = 0;
    std::uint32_t numCpus = 0;
    TimeInterval span;
};

void encodeOpenTrace(const OpenTraceRequest &q, ByteWriter &w);
bool decodeOpenTrace(ByteReader &r, OpenTraceRequest &out);
void encodeOpenTraceReply(const OpenTraceReply &reply, ByteWriter &w);
bool decodeOpenTraceReply(ByteReader &r, OpenTraceReply &out);
/** CloseTrace's body: the varint id of the binding to drop. */
void encodeCloseTrace(std::uint64_t trace_id, ByteWriter &w);
bool decodeCloseTrace(ByteReader &r, std::uint64_t &trace_id);

// -- View / filter mutations ---------------------------------------------

/**
 * Value form of one task filter (filter/task_filter.h) — the wire
 * carries these, the server materializes a FilterSet.
 */
struct FilterSpec
{
    enum class Kind : std::uint8_t
    {
        TaskType = 0,
        Duration = 1,
        Cpu = 2,
        Interval = 3,
        NumaTarget = 4,
    };

    Kind kind = Kind::TaskType;
    std::vector<std::uint64_t> ids; ///< TaskType: types; Cpu: cpus.
    TimeStamp min = 0;              ///< Duration.
    TimeStamp max = 0;              ///< Duration.
    TimeInterval interval;          ///< Interval.
    NodeId node = 0;                ///< NumaTarget.
    bool writes = false;            ///< NumaTarget.
};

void encodeFilters(const std::vector<FilterSpec> &specs, ByteWriter &w);
bool decodeFilters(ByteReader &r, std::vector<FilterSpec> &out);

/** Build the FilterSet a list of specs describes. */
filter::FilterSet materializeFilters(const std::vector<FilterSpec> &specs);

/** Move a binding's view: the varint trace id, then two u64 bounds. */
struct SetViewRequest
{
    std::uint64_t traceId = 0;
    TimeInterval view;
};

/** Replace a binding's filters: the varint trace id, then the specs. */
struct SetFiltersRequest
{
    std::uint64_t traceId = 0;
    std::vector<FilterSpec> specs;
};

void encodeSetView(const SetViewRequest &q, ByteWriter &w);
bool decodeSetView(ByteReader &r, SetViewRequest &out);
void encodeSetFilters(const SetFiltersRequest &q, ByteWriter &w);
bool decodeSetFilters(ByteReader &r, SetFiltersRequest &out);

// -- Cancel ---------------------------------------------------------------

/** Cancel's body: the u64 request id of the request to cancel. */
void encodeCancel(std::uint64_t target, ByteWriter &w);
bool decodeCancel(ByteReader &r, std::uint64_t &target);

// -- Query requests -------------------------------------------------------

/** Shared head of every query request: the target trace binding. */
struct QueryHead
{
    std::uint64_t traceId = 0;
    WirePriority priority = WirePriority::Default;
};

struct IntervalStatsRequest
{
    QueryHead head;
    std::optional<TimeInterval> interval; ///< nullopt = current view.
    Resolution resolution;                ///< Exact | Budget | Pixels.
};

struct HistogramRequest
{
    QueryHead head;
    std::uint32_t numBins = 20;
    std::optional<TimeInterval> interval; ///< nullopt = all tasks.
    Resolution resolution;                ///< Applies when interval set.
};

struct TaskListRequest
{
    QueryHead head;
};

struct CounterExtremaRequest
{
    QueryHead head;
    CpuId cpu = 0;
    CounterId counter = 0;
    std::optional<TimeInterval> interval;
    Resolution resolution; ///< Exact | Budget | Pixels.
};

/**
 * Wire form of session::WarmupQuery. Decoding yields the counter
 * restriction sorted and without duplicates, the same set to warm-up.
 */
struct WarmupRequest
{
    QueryHead head;
    session::WarmupPolicy policy;
};

/**
 * Wire form of session::AnomalyScanQuery. The reply body is the ranked
 * list via stats::encodeAnomalies(), byte-identical to encoding a
 * local Session's scan of the same window under the same thresholds.
 */
struct AnomalyScanRequest
{
    QueryHead head;
    std::optional<TimeInterval> interval; ///< nullopt = current view.
    stats::AnomalyScanOptions options;
};

/** TimelineRenderQuery minus the process-local taskFilter pointer. */
struct TimelineRenderRequest
{
    QueryHead head;
    std::uint8_t mode = 0; ///< render::TimelineMode as its ordinal.
    TimeInterval view;     ///< Empty = the client's current view.
    TimeStamp heatmapMin = 0;
    TimeStamp heatmapMax = 0;
    std::uint32_t heatmapShades = 10;
    std::uint32_t width = 640;
    std::uint32_t height = 360;
    Resolution resolution; ///< Exact | Budget | Pixels.
};

void encodeIntervalStatsRequest(const IntervalStatsRequest &q, ByteWriter &w);
bool decodeIntervalStatsRequest(ByteReader &r, IntervalStatsRequest &out);
void encodeHistogramRequest(const HistogramRequest &q, ByteWriter &w);
bool decodeHistogramRequest(ByteReader &r, HistogramRequest &out);
void encodeTaskListRequest(const TaskListRequest &q, ByteWriter &w);
bool decodeTaskListRequest(ByteReader &r, TaskListRequest &out);
void encodeCounterExtremaRequest(const CounterExtremaRequest &q,
                                 ByteWriter &w);
bool decodeCounterExtremaRequest(ByteReader &r, CounterExtremaRequest &out);
void encodeWarmupRequest(const WarmupRequest &q, ByteWriter &w);
bool decodeWarmupRequest(ByteReader &r, WarmupRequest &out);
void encodeTimelineRenderRequest(const TimelineRenderRequest &q,
                                 ByteWriter &w);
bool decodeTimelineRenderRequest(ByteReader &r, TimelineRenderRequest &out);
void encodeAnomalyScanRequest(const AnomalyScanRequest &q, ByteWriter &w);
bool decodeAnomalyScanRequest(ByteReader &r, AnomalyScanRequest &out);

// -- Query replies --------------------------------------------------------

/** Wire form of one task instance row (trace/task.h). */
struct TaskRow
{
    TaskInstanceId id = 0;
    TaskTypeId type = 0;
    CpuId cpu = 0;
    TimeInterval interval;
};

void encodeTaskRows(const std::vector<TaskRow> &rows, ByteWriter &w);
bool decodeTaskRows(ByteReader &r, std::vector<TaskRow> &out);

void encodeWarmupStats(const session::WarmupStats &s, ByteWriter &w);
bool decodeWarmupStats(ByteReader &r, session::WarmupStats &out);

/**
 * A decoded render reply: the frame, rasterized from its lane images,
 * and the render's operation counts.
 *
 *     render-reply := width height lanes lane* stats
 *     width        := u32 LE                ; >= 1
 *     height       := u32 LE                ; >= 1, width * height
 *                                           ; <= kMaxRenderPixels
 *     lanes        := varint                ; 0 = all background
 *     lane         := 0x00 span+            ; exact: runs of columns
 *                                           ; summing to width, each
 *                                           ; drawn down the lane
 *                   | 0x01 column{width}    ; pyramid: per column
 *     column       := span+                 ; bands from the lane top,
 *                                           ; summing to lane height
 *     span         := length color
 *     length       := varint                ; >= 1
 *     color        := 0x00 r g b a          ; new palette entry (u8 x4)
 *                   | varint k              ; k >= 1: palette entry k - 1
 *     stats        := rectOps lineOps eventsVisited resolution-info
 *
 * Lane i of n fills the rows of lane i of a width x height
 * render::TimelineLayout of n lanes, in lane order; rows no lane covers
 * are background (render::rasterize). The palette holds the colors in
 * first-use order, so a frame of few colors costs about two bytes per
 * span. The decoder checks the sizes before allocating anything, and
 * rejects spans that miss their sum, unknown lane kinds and palette
 * codes past the entries sent so far.
 */
struct RenderReply
{
    render::Framebuffer fb{1, 1};
    render::RenderStats stats;
};

/** Encode a frame's lane images (the server's reply, no pixels). */
void encodeRenderReply(const render::FrameImage &image,
                       const render::RenderStats &stats, ByteWriter &w);

/**
 * Encode a drawn frame in the same grammar: one full-height lane whose
 * columns are the framebuffer's vertical runs. Equal frames encode to
 * equal bytes, whichever way they were drawn.
 */
void encodeRenderReply(const RenderReply &reply, ByteWriter &w);

/** Decode a reply and rasterize it into @p out.fb. */
bool decodeRenderReply(ByteReader &r, RenderReply &out);

// -- Response envelope ----------------------------------------------------

/** Decoded head of a Response body (status + error fields if any). */
struct ResponseHead
{
    Status status = Status::Ok;
    std::uint64_t errorOffset = 0; ///< Error only.
    std::string message;           ///< Error and Rejected.
};

/** Append a non-Ok response body. Ok bodies append the result instead. */
void encodeFailure(Status status, std::uint64_t offset,
                   const std::string &message, ByteWriter &w);

/**
 * Decode the status byte and, for non-Ok statuses, the trailing error
 * fields; on Ok the reader is left positioned at the result encoding.
 */
bool decodeResponseHead(ByteReader &r, ResponseHead &out);

} // namespace daemon
} // namespace aftermath

#endif // AFTERMATH_DAEMON_PROTOCOL_H
