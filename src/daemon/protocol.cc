#include "daemon/protocol.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace aftermath {
namespace daemon {

namespace {

/** Bound a decoded element count by the bytes actually present. */
bool
plausibleCount(ByteReader &r, std::uint64_t count,
               std::size_t min_bytes_per_element)
{
    if (!r.ok())
        return false;
    if (count > r.remaining() / min_bytes_per_element) {
        r.markFailed();
        return false;
    }
    return true;
}

/** Optional interval: u8 presence flag, then the two edges if set. */
void
writeOptionalInterval(const std::optional<TimeInterval> &interval,
                      ByteWriter &w)
{
    w.writeU8(interval ? 1 : 0);
    if (interval) {
        w.writeU64(interval->start);
        w.writeU64(interval->end);
    }
}

bool
readOptionalInterval(ByteReader &r, std::optional<TimeInterval> &out)
{
    std::uint8_t present = r.readU8();
    if (present > 1) {
        r.markFailed();
        return false;
    }
    if (present) {
        TimeInterval interval;
        interval.start = r.readU64();
        interval.end = r.readU64();
        out = interval;
    } else {
        out = std::nullopt;
    }
    return r.ok();
}

/**
 * Resolution request (protocol v2): u8 kind, then the kind's one
 * parameter as a varint — maxErrorNs for Budget, width for Pixels,
 * nothing meaningful for Exact (encoded as 0).
 */
void
writeResolution(const Resolution &res, ByteWriter &w)
{
    w.writeU8(static_cast<std::uint8_t>(res.kind));
    switch (res.kind) {
    case Resolution::Kind::Exact:
        w.writeVarint(0);
        break;
    case Resolution::Kind::Budget:
        w.writeVarint(res.maxErrorNs);
        break;
    case Resolution::Kind::Pixels:
        w.writeVarint(res.width);
        break;
    }
}

bool
readResolution(ByteReader &r, Resolution &out)
{
    std::uint8_t kind = r.readU8();
    if (!r.ok() ||
        kind > static_cast<std::uint8_t>(Resolution::Kind::Pixels)) {
        r.markFailed();
        return false;
    }
    std::uint64_t value = r.readVarint();
    if (!r.ok())
        return false;
    switch (static_cast<Resolution::Kind>(kind)) {
    case Resolution::Kind::Exact:
        out = Resolution::exact();
        break;
    case Resolution::Kind::Budget:
        out = Resolution::budget(value);
        break;
    case Resolution::Kind::Pixels:
        out = Resolution::pixels(static_cast<std::uint32_t>(value));
        break;
    }
    return true;
}

/** Resolution provenance on replies: exact flag + the two counters. */
void
writeResolutionInfo(const ResolutionInfo &info, ByteWriter &w)
{
    w.writeU8(info.exact ? 1 : 0);
    w.writeVarint(info.nodesTouched);
    w.writeVarint(info.granularityNs);
}

bool
readResolutionInfo(ByteReader &r, ResolutionInfo &out)
{
    std::uint8_t exact = r.readU8();
    if (exact > 1) {
        r.markFailed();
        return false;
    }
    out.exact = exact == 1;
    out.nodesTouched = r.readVarint();
    out.granularityNs = r.readVarint();
    return r.ok();
}

void
writeHead(const QueryHead &head, ByteWriter &w)
{
    w.writeVarint(head.traceId);
    w.writeU8(static_cast<std::uint8_t>(head.priority));
}

bool
readHead(ByteReader &r, QueryHead &out)
{
    out.traceId = r.readVarint();
    std::uint8_t priority = r.readU8();
    if (priority > static_cast<std::uint8_t>(WirePriority::Background)) {
        r.markFailed();
        return false;
    }
    out.priority = static_cast<WirePriority>(priority);
    return r.ok();
}

} // namespace

session::QueryPriority
effectivePriority(WirePriority p, session::QueryPriority fallback)
{
    switch (p) {
    case WirePriority::Interactive:
        return session::QueryPriority::Interactive;
    case WirePriority::Background:
        return session::QueryPriority::Background;
    case WirePriority::Default:
        break;
    }
    return fallback;
}

// -- Handshake -----------------------------------------------------------

void
encodeHandshake(const Handshake &h, ByteWriter &w)
{
    w.writeU32(h.magic);
    w.writeU32(h.version);
    w.writeU32(h.inflightCap);
}

bool
decodeHandshake(ByteReader &r, Handshake &out)
{
    out.magic = r.readU32();
    out.version = r.readU32();
    out.inflightCap = r.readU32();
    return r.ok();
}

// -- OpenTrace / CloseTrace ----------------------------------------------

void
encodeOpenTrace(const OpenTraceRequest &q, ByteWriter &w)
{
    if (q.bytes) {
        w.writeU8(1);
        w.writeVarint(q.bytes->size());
        w.writeBytes(q.bytes->data(), q.bytes->size());
    } else {
        w.writeU8(0);
        w.writeString(q.path);
    }
}

bool
decodeOpenTrace(ByteReader &r, OpenTraceRequest &out)
{
    out = OpenTraceRequest();
    std::uint8_t source = r.readU8();
    if (!r.ok() || source > 1) {
        r.markFailed();
        return false;
    }
    if (source == 0) {
        out.path = r.readString();
        return r.ok();
    }
    std::uint64_t size = r.readVarint();
    if (!plausibleCount(r, size, 1))
        return false;
    auto bytes = std::make_shared<std::vector<std::uint8_t>>(size);
    if (size > 0)
        r.readBytes(bytes->data(), size);
    if (!r.ok())
        return false;
    out.bytes = std::move(bytes);
    return true;
}

void
encodeOpenTraceReply(const OpenTraceReply &reply, ByteWriter &w)
{
    w.writeVarint(reply.traceId);
    w.writeVarint(reply.numCpus);
    w.writeU64(reply.span.start);
    w.writeU64(reply.span.end);
}

bool
decodeOpenTraceReply(ByteReader &r, OpenTraceReply &out)
{
    out.traceId = r.readVarint();
    out.numCpus = static_cast<std::uint32_t>(r.readVarint());
    out.span.start = r.readU64();
    out.span.end = r.readU64();
    return r.ok();
}

void
encodeCloseTrace(std::uint64_t trace_id, ByteWriter &w)
{
    w.writeVarint(trace_id);
}

bool
decodeCloseTrace(ByteReader &r, std::uint64_t &trace_id)
{
    trace_id = r.readVarint();
    return r.ok();
}

// -- Filters --------------------------------------------------------------

void
encodeFilters(const std::vector<FilterSpec> &specs, ByteWriter &w)
{
    w.writeVarint(specs.size());
    for (const FilterSpec &spec : specs) {
        w.writeU8(static_cast<std::uint8_t>(spec.kind));
        switch (spec.kind) {
        case FilterSpec::Kind::TaskType:
        case FilterSpec::Kind::Cpu:
            w.writeVarint(spec.ids.size());
            for (std::uint64_t id : spec.ids)
                w.writeVarint(id);
            break;
        case FilterSpec::Kind::Duration:
            w.writeVarint(spec.min);
            w.writeVarint(spec.max);
            break;
        case FilterSpec::Kind::Interval:
            w.writeU64(spec.interval.start);
            w.writeU64(spec.interval.end);
            break;
        case FilterSpec::Kind::NumaTarget:
            w.writeVarint(spec.node);
            w.writeU8(spec.writes ? 1 : 0);
            break;
        }
    }
}

bool
decodeFilters(ByteReader &r, std::vector<FilterSpec> &out)
{
    out.clear();
    std::uint64_t count = r.readVarint();
    if (!plausibleCount(r, count, 1))
        return false;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; i++) {
        FilterSpec spec;
        std::uint8_t kind = r.readU8();
        if (!r.ok() ||
            kind > static_cast<std::uint8_t>(FilterSpec::Kind::NumaTarget)) {
            r.markFailed();
            return false;
        }
        spec.kind = static_cast<FilterSpec::Kind>(kind);
        switch (spec.kind) {
        case FilterSpec::Kind::TaskType:
        case FilterSpec::Kind::Cpu: {
            std::uint64_t ids = r.readVarint();
            if (!plausibleCount(r, ids, 1))
                return false;
            spec.ids.reserve(ids);
            for (std::uint64_t j = 0; j < ids; j++)
                spec.ids.push_back(r.readVarint());
            break;
        }
        case FilterSpec::Kind::Duration:
            spec.min = r.readVarint();
            spec.max = r.readVarint();
            break;
        case FilterSpec::Kind::Interval:
            spec.interval.start = r.readU64();
            spec.interval.end = r.readU64();
            break;
        case FilterSpec::Kind::NumaTarget:
            spec.node = static_cast<NodeId>(r.readVarint());
            std::uint8_t writes = r.readU8();
            if (writes > 1) {
                r.markFailed();
                return false;
            }
            spec.writes = writes == 1;
            break;
        }
        if (!r.ok())
            return false;
        out.push_back(std::move(spec));
    }
    return r.ok();
}

filter::FilterSet
materializeFilters(const std::vector<FilterSpec> &specs)
{
    filter::FilterSet set;
    for (const FilterSpec &spec : specs) {
        switch (spec.kind) {
        case FilterSpec::Kind::TaskType: {
            std::unordered_set<TaskTypeId> types(spec.ids.begin(),
                                                 spec.ids.end());
            set.add(std::make_shared<filter::TaskTypeFilter>(
                std::move(types)));
            break;
        }
        case FilterSpec::Kind::Duration:
            set.add(std::make_shared<filter::DurationFilter>(spec.min,
                                                             spec.max));
            break;
        case FilterSpec::Kind::Cpu: {
            std::unordered_set<CpuId> cpus;
            for (std::uint64_t id : spec.ids)
                cpus.insert(static_cast<CpuId>(id));
            set.add(std::make_shared<filter::CpuFilter>(std::move(cpus)));
            break;
        }
        case FilterSpec::Kind::Interval:
            set.add(
                std::make_shared<filter::IntervalFilter>(spec.interval));
            break;
        case FilterSpec::Kind::NumaTarget:
            set.add(std::make_shared<filter::NumaTargetFilter>(
                spec.node, spec.writes));
            break;
        }
    }
    return set;
}

void
encodeSetView(const SetViewRequest &q, ByteWriter &w)
{
    w.writeVarint(q.traceId);
    w.writeU64(q.view.start);
    w.writeU64(q.view.end);
}

bool
decodeSetView(ByteReader &r, SetViewRequest &out)
{
    out.traceId = r.readVarint();
    out.view.start = r.readU64();
    out.view.end = r.readU64();
    return r.ok();
}

void
encodeSetFilters(const SetFiltersRequest &q, ByteWriter &w)
{
    w.writeVarint(q.traceId);
    encodeFilters(q.specs, w);
}

bool
decodeSetFilters(ByteReader &r, SetFiltersRequest &out)
{
    out.traceId = r.readVarint();
    return r.ok() && decodeFilters(r, out.specs);
}

void
encodeCancel(std::uint64_t target, ByteWriter &w)
{
    w.writeU64(target);
}

bool
decodeCancel(ByteReader &r, std::uint64_t &target)
{
    target = r.readU64();
    return r.ok();
}

// -- Query requests -------------------------------------------------------

void
encodeIntervalStatsRequest(const IntervalStatsRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
    writeOptionalInterval(q.interval, w);
    writeResolution(q.resolution, w);
}

bool
decodeIntervalStatsRequest(ByteReader &r, IntervalStatsRequest &out)
{
    return readHead(r, out.head) &&
           readOptionalInterval(r, out.interval) &&
           readResolution(r, out.resolution);
}

void
encodeHistogramRequest(const HistogramRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
    w.writeVarint(q.numBins);
    writeOptionalInterval(q.interval, w);
    writeResolution(q.resolution, w);
}

bool
decodeHistogramRequest(ByteReader &r, HistogramRequest &out)
{
    if (!readHead(r, out.head))
        return false;
    std::uint64_t bins = r.readVarint();
    // One count per bin comes back over the same transport: a bin
    // count that cannot fit a reply frame is semantically garbage.
    if (!r.ok() || bins == 0 || bins > kMaxFrameBytes) {
        r.markFailed();
        return false;
    }
    out.numBins = static_cast<std::uint32_t>(bins);
    return readOptionalInterval(r, out.interval) &&
           readResolution(r, out.resolution);
}

void
encodeTaskListRequest(const TaskListRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
}

bool
decodeTaskListRequest(ByteReader &r, TaskListRequest &out)
{
    return readHead(r, out.head);
}

void
encodeCounterExtremaRequest(const CounterExtremaRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
    w.writeVarint(q.cpu);
    w.writeVarint(q.counter);
    writeOptionalInterval(q.interval, w);
    writeResolution(q.resolution, w);
}

bool
decodeCounterExtremaRequest(ByteReader &r, CounterExtremaRequest &out)
{
    if (!readHead(r, out.head))
        return false;
    out.cpu = static_cast<CpuId>(r.readVarint());
    out.counter = static_cast<CounterId>(r.readVarint());
    return readOptionalInterval(r, out.interval) &&
           readResolution(r, out.resolution);
}

void
encodeWarmupRequest(const WarmupRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
    w.writeU8(q.policy.counterIndexes ? 1 : 0);
    w.writeU8(q.policy.intervalStats ? 1 : 0);
    w.writeU8(q.policy.taskList ? 1 : 0);
    w.writeVarint(q.policy.counters.size());
    for (CounterId counter : q.policy.counters)
        w.writeVarint(counter);
}

bool
decodeWarmupRequest(ByteReader &r, WarmupRequest &out)
{
    if (!readHead(r, out.head))
        return false;
    std::uint8_t flags[3];
    for (std::uint8_t &flag : flags) {
        flag = r.readU8();
        if (flag > 1) {
            r.markFailed();
            return false;
        }
    }
    out.policy.counterIndexes = flags[0] == 1;
    out.policy.intervalStats = flags[1] == 1;
    out.policy.taskList = flags[2] == 1;
    std::uint64_t counters = r.readVarint();
    if (!plausibleCount(r, counters, 1))
        return false;
    // Warm-up reads the restriction as a set, so it is decoded into
    // one: sorted distinct ids, so memory follows the distinct ids, not
    // the count announced or the ids sent. Compacting each time the
    // list doubles (sorting the new ids, merging them into the sorted
    // ones) keeps the decode O(n log n).
    std::vector<CounterId> &ids = out.policy.counters;
    ids.clear();
    std::size_t compacted = 0;
    auto compact = [&] {
        const auto fresh =
            ids.begin() + static_cast<std::ptrdiff_t>(compacted);
        std::sort(fresh, ids.end());
        std::inplace_merge(ids.begin(), fresh, ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        compacted = ids.size();
    };
    for (std::uint64_t i = 0; i < counters; i++) {
        ids.push_back(static_cast<CounterId>(r.readVarint()));
        if (ids.size() >= 2 * std::max<std::size_t>(compacted, 64))
            compact();
    }
    compact();
    return r.ok();
}

void
encodeTimelineRenderRequest(const TimelineRenderRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
    w.writeU8(q.mode);
    w.writeU64(q.view.start);
    w.writeU64(q.view.end);
    w.writeU64(q.heatmapMin);
    w.writeU64(q.heatmapMax);
    w.writeVarint(q.heatmapShades);
    w.writeU32(q.width);
    w.writeU32(q.height);
    writeResolution(q.resolution, w);
}

bool
decodeTimelineRenderRequest(ByteReader &r, TimelineRenderRequest &out)
{
    if (!readHead(r, out.head))
        return false;
    out.mode = r.readU8();
    if (!r.ok() ||
        out.mode > static_cast<std::uint8_t>(
                       render::TimelineMode::NumaHeatmap)) {
        r.markFailed();
        return false;
    }
    out.view.start = r.readU64();
    out.view.end = r.readU64();
    out.heatmapMin = r.readU64();
    out.heatmapMax = r.readU64();
    out.heatmapShades = static_cast<std::uint32_t>(r.readVarint());
    out.width = r.readU32();
    out.height = r.readU32();
    if (!r.ok())
        return false;
    // The reply's worst-case encoding must fit one response frame.
    std::uint64_t pixels =
        static_cast<std::uint64_t>(out.width) * out.height;
    if (out.width == 0 || out.height == 0 || pixels > kMaxRenderPixels) {
        r.markFailed();
        return false;
    }
    return readResolution(r, out.resolution);
}

void
encodeAnomalyScanRequest(const AnomalyScanRequest &q, ByteWriter &w)
{
    writeHead(q.head, w);
    writeOptionalInterval(q.interval, w);
    w.writeVarint(q.options.numIntervals);
    w.writeDouble(q.options.idleWorkerFraction);
    w.writeDouble(q.options.durationZScore);
    w.writeDouble(q.options.burstFactor);
    w.writeVarint(q.options.maxPerKind);
}

bool
decodeAnomalyScanRequest(ByteReader &r, AnomalyScanRequest &out)
{
    if (!readHead(r, out.head) || !readOptionalInterval(r, out.interval))
        return false;
    std::uint64_t intervals = r.readVarint();
    // The scan materializes one slot per sub-interval per CPU chunk: a
    // million subdivisions is already far past useful resolution.
    if (!r.ok() || intervals == 0 || intervals > 1u << 20) {
        r.markFailed();
        return false;
    }
    out.options.numIntervals = static_cast<std::uint32_t>(intervals);
    out.options.idleWorkerFraction = r.readDouble();
    out.options.durationZScore = r.readDouble();
    out.options.burstFactor = r.readDouble();
    if (!r.ok() || !std::isfinite(out.options.idleWorkerFraction) ||
        !std::isfinite(out.options.durationZScore) ||
        !std::isfinite(out.options.burstFactor)) {
        r.markFailed();
        return false;
    }
    std::uint64_t cap = r.readVarint();
    // Findings come back over the same transport; a cap past the frame
    // bound is semantically garbage.
    if (!r.ok() || cap > kMaxFrameBytes) {
        r.markFailed();
        return false;
    }
    out.options.maxPerKind = static_cast<std::size_t>(cap);
    return true;
}

// -- Query replies --------------------------------------------------------

void
encodeTaskRows(const std::vector<TaskRow> &rows, ByteWriter &w)
{
    w.writeVarint(rows.size());
    for (const TaskRow &row : rows) {
        w.writeVarint(row.id);
        w.writeVarint(row.type);
        w.writeVarint(row.cpu);
        w.writeU64(row.interval.start);
        w.writeU64(row.interval.end);
    }
}

bool
decodeTaskRows(ByteReader &r, std::vector<TaskRow> &out)
{
    out.clear();
    std::uint64_t count = r.readVarint();
    if (!plausibleCount(r, count, 19))
        return false;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; i++) {
        TaskRow row;
        row.id = r.readVarint();
        row.type = r.readVarint();
        row.cpu = static_cast<CpuId>(r.readVarint());
        row.interval.start = r.readU64();
        row.interval.end = r.readU64();
        if (!r.ok())
            return false;
        out.push_back(row);
    }
    return r.ok();
}

void
encodeWarmupStats(const session::WarmupStats &s, ByteWriter &w)
{
    w.writeVarint(s.indexesVisited);
    w.writeVarint(s.indexesBuilt);
    w.writeVarint(s.indexesSkipped);
    w.writeVarint(s.workers);
}

bool
decodeWarmupStats(ByteReader &r, session::WarmupStats &out)
{
    out.indexesVisited = r.readVarint();
    out.indexesBuilt = r.readVarint();
    out.indexesSkipped = r.readVarint();
    out.workers = static_cast<unsigned>(r.readVarint());
    return r.ok();
}

namespace {

/**
 * The colors of one render reply in first-use order: a color's first
 * use sends it (code 0, then RGBA), later uses send its 1-based code.
 */
class PaletteWriter
{
  public:
    void
    write(const render::Rgba &color, ByteWriter &w)
    {
        const std::uint32_t key = static_cast<std::uint32_t>(color.r) |
                                  static_cast<std::uint32_t>(color.g) << 8 |
                                  static_cast<std::uint32_t>(color.b) << 16 |
                                  static_cast<std::uint32_t>(color.a) << 24;
        const auto [it, fresh] = codes_.try_emplace(key, codes_.size() + 1);
        w.writeVarint(fresh ? 0 : it->second);
        if (!fresh)
            return;
        w.writeU8(color.r);
        w.writeU8(color.g);
        w.writeU8(color.b);
        w.writeU8(color.a);
    }

  private:
    std::unordered_map<std::uint32_t, std::size_t> codes_;
};

/** Read one color: a new palette entry, or a code of an earlier one. */
bool
readColor(ByteReader &r, std::vector<render::Rgba> &palette,
          render::Rgba &out)
{
    const std::uint64_t code = r.readVarint();
    if (!r.ok())
        return false;
    if (code == 0) {
        out.r = r.readU8();
        out.g = r.readU8();
        out.b = r.readU8();
        out.a = r.readU8();
        palette.push_back(out);
        return r.ok();
    }
    if (code > palette.size()) {
        r.markFailed();
        return false;
    }
    out = palette[code - 1];
    return true;
}

/**
 * Read spans until their lengths sum to @p extent exactly; a zero
 * length or one past the extent fails.
 */
bool
readSpans(ByteReader &r, std::uint32_t extent,
          std::vector<render::Rgba> &palette,
          std::vector<render::Span> &out)
{
    for (std::uint32_t filled = 0; filled < extent;) {
        const std::uint64_t length = r.readVarint();
        if (!r.ok() || length == 0 || length > extent - filled) {
            r.markFailed();
            return false;
        }
        render::Span span{static_cast<std::uint32_t>(length), {}};
        if (!readColor(r, palette, span.color))
            return false;
        out.push_back(span);
        filled += span.length;
    }
    return true;
}

/** Read the frame-image part of a render reply, validated. */
bool
readFrameImage(ByteReader &r, render::FrameImage &out)
{
    out.width = r.readU32();
    out.height = r.readU32();
    const std::uint64_t lanes = r.readVarint();
    if (!r.ok())
        return false;
    // Sizes first, before anything is allocated: the frame must be one
    // a request may ask for, and every lane takes at least three bytes
    // (kind, one span's length and color code).
    if (out.width == 0 || out.height == 0 ||
        static_cast<std::uint64_t>(out.width) * out.height >
            kMaxRenderPixels ||
        lanes > r.remaining() / 3) {
        r.markFailed();
        return false;
    }
    out.lanes.resize(lanes);
    if (lanes == 0)
        return true;
    const render::TimelineLayout layout = out.layout();
    std::vector<render::Rgba> palette;
    for (render::LaneImage &lane : out.lanes) {
        const std::uint8_t kind = r.readU8();
        if (!r.ok() || kind > 1) {
            r.markFailed();
            return false;
        }
        lane.columns = kind == 1;
        if (!lane.columns) {
            if (!readSpans(r, layout.width(), palette, lane.spans))
                return false;
            continue;
        }
        for (std::uint32_t x = 0; x < layout.width(); x++)
            if (!readSpans(r, layout.laneHeight(), palette, lane.spans))
                return false;
    }
    return true;
}

} // namespace

void
encodeRenderReply(const render::FrameImage &image,
                  const render::RenderStats &stats, ByteWriter &w)
{
    w.writeU32(image.width);
    w.writeU32(image.height);
    w.writeVarint(image.lanes.size());
    PaletteWriter palette;
    for (const render::LaneImage &lane : image.lanes) {
        w.writeU8(lane.columns ? 1 : 0);
        for (const render::Span &span : lane.spans) {
            w.writeVarint(span.length);
            palette.write(span.color, w);
        }
    }
    w.writeVarint(stats.rectOps);
    w.writeVarint(stats.lineOps);
    w.writeVarint(stats.eventsVisited);
    writeResolutionInfo(stats.resolution, w);
}

void
encodeRenderReply(const RenderReply &reply, ByteWriter &w)
{
    // One full-height lane whose columns are the framebuffer's
    // vertical runs.
    const render::Framebuffer &fb = reply.fb;
    render::FrameImage image{fb.width(), fb.height(), {{true, {}}}};
    std::vector<render::Span> &spans = image.lanes.front().spans;
    for (std::uint32_t x = 0; x < fb.width(); x++) {
        const render::Rgba *px = fb.data() + x;
        render::Span run{1, px[0]};
        for (std::uint32_t y = 1; y < fb.height(); y++) {
            const render::Rgba &color =
                px[static_cast<std::size_t>(y) * fb.width()];
            if (color == run.color) {
                run.length++;
                continue;
            }
            spans.push_back(run);
            run = {1, color};
        }
        spans.push_back(run);
    }
    encodeRenderReply(image, reply.stats, w);
}

bool
decodeRenderReply(ByteReader &r, RenderReply &out)
{
    render::FrameImage image;
    if (!readFrameImage(r, image))
        return false;
    out.stats.rectOps = r.readVarint();
    out.stats.lineOps = r.readVarint();
    out.stats.eventsVisited = r.readVarint();
    if (!readResolutionInfo(r, out.stats.resolution))
        return false;
    out.fb = render::Framebuffer(image.width, image.height,
                                 render::Framebuffer::Unfilled{});
    render::rasterize(image, out.fb);
    return true;
}

// -- Response envelope ----------------------------------------------------

void
encodeFailure(Status status, std::uint64_t offset,
              const std::string &message, ByteWriter &w)
{
    w.writeU8(static_cast<std::uint8_t>(status));
    switch (status) {
    case Status::Error:
        w.writeVarint(offset);
        w.writeString(message);
        break;
    case Status::Rejected:
        w.writeString(message);
        break;
    case Status::Ok:
    case Status::Cancelled:
        break;
    }
}

bool
decodeResponseHead(ByteReader &r, ResponseHead &out)
{
    out = ResponseHead();
    std::uint8_t status = r.readU8();
    if (!r.ok() ||
        status > static_cast<std::uint8_t>(Status::Rejected)) {
        r.markFailed();
        return false;
    }
    out.status = static_cast<Status>(status);
    switch (out.status) {
    case Status::Error:
        out.errorOffset = r.readVarint();
        out.message = r.readString();
        break;
    case Status::Rejected:
        out.message = r.readString();
        break;
    case Status::Ok:
    case Status::Cancelled:
        break;
    }
    return r.ok();
}

} // namespace daemon
} // namespace aftermath
