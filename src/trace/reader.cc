/**
 * @file
 * The two-phase trace loader (see reader.h for the contract).
 *
 * Phase 1 is one serial scan loop. Small global frames (topology,
 * descriptions, task types) decode and apply in stream order; every
 * *lane* frame — the per-CPU events plus the three bulk global tables
 * (task instances, memory regions, memory accesses) — is only skipped
 * structurally and recorded into per-lane stretches (start offset +
 * count of consecutive frames). Per frame the loop does one of three
 * things: extend the open stretch when the frame repeats the cached
 * (tag, CPU) prefix of the last lane frame (one masked 8-byte compare
 * plus a word-at-a-time varint skip), take one lane-frame step (skip,
 * CPU check, append, cache the prefix), or decode a non-lane frame.
 *
 * Phase 2 decodes the stretches with one run decoder (decodeRun) over
 * one per-frame switch (decodeLaneFrame). The scan runs the same
 * decoder on a one-frame run for a global frame that precedes the
 * topology frame, before any lane exists. With workers > 1 phase 2
 * runs *during* the scan: full batches stream to a per-lane serial
 * executor on a private base::ThreadPool (each lane has a FIFO and at
 * most one active pump, so its container fills in exact stream order
 * with its own delta registers), and the decode wall-clock hides
 * behind the scan. Without a pool the same decoder takes each lane's
 * whole run on the calling thread. Decode diagnostics merge by lowest
 * byte offset, which makes the reported error — like the trace itself
 * — independent of worker count and scheduling.
 */

#include "trace/reader.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>

#include "base/buffer.h"
#include "base/mutex.h"
#include "base/string_util.h"
#include "base/thread_annotations.h"

namespace aftermath {
namespace trace {

namespace {

/** Guard against absurd CPU/node counts from corrupt headers. */
constexpr std::uint32_t kMaxCpus = 1 << 16;
constexpr std::uint32_t kMaxNodes = 1 << 12;

/**
 * A per-CPU frame stretch: the tag byte offset of the first frame of a
 * run of *consecutive* frames on one CPU, packed with the frame count.
 * Real traces interleave coarsely (a writer flushes per-CPU buffers),
 * so stretches are long and the scan's bookkeeping amortizes to almost
 * nothing per frame; the decode phase re-walks each stretch
 * sequentially, re-reading the frame tags it dispatches on.
 */
constexpr unsigned kStretchCountShift = 48;
constexpr std::uint64_t kStretchOffsetMask =
    (std::uint64_t{1} << kStretchCountShift) - 1;
constexpr std::size_t kMaxStretchFrames =
    (std::size_t{1} << (64 - kStretchCountShift)) - 1;

std::uint64_t
packStretch(std::size_t offset, std::size_t count)
{
    return (static_cast<std::uint64_t>(offset) & kStretchOffsetMask) |
           (static_cast<std::uint64_t>(count) << kStretchCountShift);
}

/** One previous-timestamp register per delta class (one CPU's worth). */
struct DeltaRegisters
{
    TimeStamp last[static_cast<std::size_t>(DeltaClass::NumClasses)] = {};
};

/**
 * Mirrors TraceWriter's encoding decisions while decoding. One decoder
 * serves either the global frames (which never carry delta-coded
 * timestamps) or exactly one CPU's frame run: the delta registers are
 * one per class, not per (class, cpu), and live with the caller so a
 * CPU's run can decode across several batches of the pipelined reader.
 */
class FrameDecoder
{
  public:
    FrameDecoder(ByteReader &reader, Encoding encoding,
                 DeltaRegisters &registers)
        : reader_(reader), encoding_(encoding), registers_(registers)
    {}

    std::uint64_t
    readValue()
    {
        return encoding_ == Encoding::Compact ? reader_.readVarint()
                                              : reader_.readU64();
    }

    std::uint32_t
    readValue32()
    {
        if (encoding_ == Encoding::Compact) {
            std::uint64_t v = reader_.readVarint();
            if (v > std::numeric_limits<std::uint32_t>::max())
                reader_.markFailed();
            return static_cast<std::uint32_t>(v);
        }
        return reader_.readU32();
    }

    TimeStamp
    readTime(DeltaClass cls)
    {
        if (encoding_ != Encoding::Compact)
            return reader_.readU64();
        TimeStamp &last = registers_.last[static_cast<std::size_t>(cls)];
        std::int64_t delta = reader_.readSignedVarint();
        TimeStamp time = static_cast<TimeStamp>(
            static_cast<std::int64_t>(last) + delta);
        last = time;
        return time;
    }

    std::int64_t
    readCounterValue()
    {
        if (encoding_ == Encoding::Compact)
            return reader_.readSignedVarint();
        return static_cast<std::int64_t>(reader_.readU64());
    }

  private:
    ByteReader &reader_;
    Encoding encoding_;
    DeltaRegisters &registers_;
};

/**
 * The wire shape of one lane frame's payload — the single source of
 * truth the scan's structural skip derives frame boundaries from (the
 * decode switch re-reads the same fields semantically, so a layout
 * change there without a change here fails loudly in the round-trip
 * tests).
 *
 * perCpu frames start with a varint/u32 CPU id that the scan decodes;
 * the payload fields below follow it. kindByte is the comm-event u8
 * between the CPU id and the payload varints; trailingByte is the
 * mem-access is-write u8 after them. rawPayload counts every payload
 * byte after the (tag, CPU id) prefix in the Raw encoding, kind and
 * trailing bytes included.
 */
struct FrameLayout
{
    std::uint8_t payloadVarints = 0; ///< 0 = not a lane frame.
    std::uint8_t rawPayload = 0;
    bool kindByte = false;
    bool trailingByte = false;
    bool perCpu = false;
};

constexpr FrameLayout
frameLayout(FrameType type)
{
    switch (type) {
      case FrameType::StateEvent: // state, time, duration, task
        return {4, 4 + 8 + 8 + 8, false, false, true};
      case FrameType::CounterSample: // counter, time, value
        return {3, 4 + 8 + 8, false, false, true};
      case FrameType::DiscreteEvent: // type, time, payload
        return {3, 4 + 8 + 8, false, false, true};
      case FrameType::CommEvent: // kind u8, time, src, dst, size, region
        return {5, 1 + 8 + 4 + 4 + 8 + 8, true, false, true};
      case FrameType::TaskInstance: // id, type, cpu, start, duration
        return {5, 8 + 8 + 4 + 8 + 8, false, false, false};
      case FrameType::MemRegion: // id, address, size, node
        return {4, 8 + 8 + 8 + 4, false, false, false};
      case FrameType::MemAccess: // task, address, size + is-write u8
        return {3, 8 + 8 + 8 + 1, false, true, false};
      default:
        return {};
    }
}

/**
 * Skip the payload of one lane frame: everything after the tag and,
 * for per-CPU frames, the CPU id, starting at @p offset (<= the buffer
 * size). Returns the offset just past the frame, or 0 (the header
 * precedes every frame) if the frame is truncated. Value-level
 * violations (an over-long varint, a varint overflowing a 32-bit
 * field) are left for the decode phase, which re-reads every field
 * with full validation and reports the frame's offset and kind.
 * Always inlined: it is most of the scan loop's work per frame, and
 * as a call it costs the loop its registers.
 */
[[gnu::always_inline]] inline std::size_t
skipPayload(const std::vector<std::uint8_t> &bytes, std::size_t offset,
            Encoding encoding, const FrameLayout &layout)
{
    ByteReader reader(bytes.data() + offset, bytes.size() - offset);
    if (encoding == Encoding::Raw) {
        reader.skip(layout.rawPayload); // Kind and trailing bytes too.
    } else {
        if (layout.kindByte)
            reader.skip(1); // The comm kind byte.
        reader.skipVarints(layout.payloadVarints);
        if (layout.trailingByte)
            reader.skip(1); // The mem-access is-write byte.
    }
    return reader.ok() ? offset + reader.offset() : 0;
}

/**
 * Decode lanes: every CPU timeline is one lane, and the three bulk
 * global containers — task instances, memory regions, memory accesses
 * — are one lane each (lane = numCpus + k below). Frames of one lane
 * decode strictly in stream order, so each container fills exactly as
 * the serial reader would fill it; different lanes touch disjoint
 * Trace members and decode concurrently.
 */
constexpr std::size_t kNumGlobalLanes = 3;

std::size_t
globalLaneIndex(FrameType type)
{
    switch (type) {
      case FrameType::TaskInstance: return 0;
      case FrameType::MemRegion: return 1;
      default: return 2; // MemAccess
    }
}

/**
 * Decode the payload of one lane frame, whose tag the caller has read,
 * into its container: a per-CPU frame into @p timeline (re-reading the
 * CPU id the scan validated), a global table frame into @p trace.
 * Semantic validation that needs the whole trace (a task instance on
 * an out-of-range CPU) is finalize()'s job, exactly as for directly
 * populated traces. A value-level violation (an over-long varint, a
 * varint overflowing a 32-bit field) or a frame foreign to the lane
 * fails the reader and adds nothing.
 */
void
decodeLaneFrame(FrameType type, ByteReader &reader, FrameDecoder &decoder,
                Trace &trace, CpuTimeline *timeline)
{
    if (isPerCpuFrame(type) != (timeline != nullptr)) {
        reader.markFailed(); // The scan routes every frame to its lane.
        return;
    }
    if (timeline)
        decoder.readValue32(); // CPU id, validated by the scan.
    switch (type) {
      case FrameType::StateEvent: {
        StateEvent ev;
        ev.state = decoder.readValue32();
        ev.interval.start = decoder.readTime(DeltaClass::State);
        ev.interval.end = ev.interval.start + decoder.readValue();
        ev.task = decoder.readValue();
        if (reader.ok())
            timeline->addState(ev);
        break;
      }
      case FrameType::CounterSample: {
        CounterId counter = decoder.readValue32();
        CounterSample sample;
        sample.time = decoder.readTime(DeltaClass::Counter);
        sample.value = decoder.readCounterValue();
        if (reader.ok())
            timeline->addCounterSample(counter, sample);
        break;
      }
      case FrameType::DiscreteEvent: {
        DiscreteEvent ev;
        ev.type = static_cast<DiscreteType>(decoder.readValue32());
        ev.time = decoder.readTime(DeltaClass::Discrete);
        ev.payload = decoder.readValue();
        if (reader.ok())
            timeline->addDiscrete(ev);
        break;
      }
      case FrameType::CommEvent: {
        CommEvent ev;
        ev.kind = static_cast<CommKind>(reader.readU8());
        ev.time = decoder.readTime(DeltaClass::Comm);
        ev.src = decoder.readValue32();
        ev.dst = decoder.readValue32();
        ev.size = decoder.readValue();
        ev.region = decoder.readValue();
        if (reader.ok())
            timeline->addComm(ev);
        break;
      }
      case FrameType::TaskInstance: {
        TaskInstance instance;
        instance.id = decoder.readValue();
        instance.type = decoder.readValue();
        instance.cpu = decoder.readValue32();
        instance.interval.start = decoder.readValue();
        instance.interval.end = instance.interval.start +
                                decoder.readValue();
        if (reader.ok())
            trace.addTaskInstance(instance);
        break;
      }
      case FrameType::MemRegion: {
        MemRegion region;
        region.id = decoder.readValue();
        region.address = decoder.readValue();
        region.size = decoder.readValue();
        std::uint32_t node = decoder.readValue32();
        if (reader.ok()) {
            region.node = node == std::numeric_limits<std::uint32_t>::max()
                              ? kInvalidNode : node;
            trace.addMemRegion(region);
        }
        break;
      }
      case FrameType::MemAccess: {
        MemAccess access;
        access.task = decoder.readValue();
        access.address = decoder.readValue();
        access.size = decoder.readValue();
        access.isWrite = reader.readU8() != 0;
        if (reader.ok())
            trace.addMemAccess(access);
        break;
      }
      default:
        reader.markFailed();
    }
}

/**
 * One lane's decode carry across batches: its delta registers and its
 * first decode error. In the pipelined mode it is exclusively owned by
 * the lane's single active pump (at most one exists; the active flag's
 * lock hand-off makes successive pumps happen-before ordered).
 */
struct LaneDecode
{
    DeltaRegisters registers;
    std::size_t errorOffset = std::numeric_limits<std::size_t>::max();
    std::string error;

    bool failed() const
    {
        return errorOffset != std::numeric_limits<std::size_t>::max();
    }
};

/**
 * The run decoder: decode one batch of a lane's frame stretches into
 * its container, in stream order, carrying @p state across batches.
 * The scan already validated frame structure and CPU ids, so the only
 * possible failures are value-level; the first one stops the lane.
 */
void
decodeRun(const std::vector<std::uint8_t> &bytes, Encoding encoding,
          const std::vector<std::uint64_t> &stretches, Trace &trace,
          std::size_t lane, LaneDecode &state,
          const base::CancellationToken &cancel,
          std::atomic<bool> &cancelled)
{
    if (state.failed())
        return;
    CpuTimeline *timeline = lane < trace.numCpus()
                                ? &trace.cpu(static_cast<CpuId>(lane))
                                : nullptr;
    ByteReader reader(bytes);
    FrameDecoder decoder(reader, encoding, state.registers);
    std::size_t frames_seen = 0;
    for (std::uint64_t stretch : stretches) {
        reader.seek(static_cast<std::size_t>(stretch &
                                             kStretchOffsetMask));
        const std::size_t count =
            static_cast<std::size_t>(stretch >> kStretchCountShift);
        for (std::size_t k = 0; k < count; k++) {
            if ((frames_seen++ & 0x3ff) == 0 &&
                (cancelled.load(std::memory_order_relaxed) ||
                 cancel.cancelled())) {
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
            const std::size_t offset = reader.offset();
            FrameType type = static_cast<FrameType>(reader.readU8());
            decodeLaneFrame(type, reader, decoder, trace, timeline);
            if (!reader.ok()) {
                state.errorOffset = offset;
                state.error = strFormat("corrupt %s frame at offset %zu",
                                        frameTypeName(type), offset);
                return;
            }
        }
    }
}

/** Frames per batch handed from the scan to the decode workers. */
constexpr std::size_t kBatchFrames = 4096;

/**
 * The scan-to-decoder pipeline: while the serial scan walks the byte
 * stream, completed lane batches decode concurrently on the pool, so
 * decode wall-clock hides behind the scan instead of following it.
 * Without a pool (a small trace, or workers == 1) the same per-lane
 * decode state serves the run decoder on the calling thread.
 *
 * Per-lane order is preserved by a per-key serial executor: each lane
 * has a FIFO of pending batches and at most one active pump task; the
 * pump drains the FIFO, carrying the lane's LaneDecode, which only the
 * active pump touches (handoff happens-before via the mutex). The
 * mutex-shared half (LaneQueue) and the pump-owned half (LaneDecode)
 * are separate structs so the guarded accesses are exactly the queue
 * operations — the decode state needs no lock by construction.
 */
struct DecodePipeline
{
    explicit DecodePipeline(std::size_t num_lanes)
        : queues(num_lanes), decode(num_lanes)
    {}

    /** One lane's batch FIFO and pump-active flag. */
    struct LaneQueue
    {
        std::deque<std::vector<std::uint64_t>> pending;
        bool active = false;
    };

    base::Mutex mutex{base::lockrank::kDecodePipeline,
                      "decode-pipeline"};
    std::vector<LaneQueue> queues AM_GUARDED_BY(mutex);
    std::vector<LaneDecode> decode;
    std::atomic<bool> cancelled{false};
};

void
pumpLane(const std::shared_ptr<DecodePipeline> &pipeline,
         const std::vector<std::uint8_t> &bytes, Encoding encoding,
         Trace &trace, std::size_t lane,
         const base::CancellationToken &cancel)
{
    for (;;) {
        std::vector<std::uint64_t> batch;
        {
            base::MutexLock lock(pipeline->mutex);
            DecodePipeline::LaneQueue &queue = pipeline->queues[lane];
            if (queue.pending.empty() ||
                pipeline->cancelled.load(std::memory_order_relaxed)) {
                queue.active = false;
                return;
            }
            batch = std::move(queue.pending.front());
            queue.pending.pop_front();
        }
        decodeRun(bytes, encoding, batch, trace, lane,
                  pipeline->decode[lane], cancel, pipeline->cancelled);
    }
}

} // namespace

ReadResult
readTrace(const std::vector<std::uint8_t> &bytes, const ReadOptions &options)
{
    ReadResult result;
    ByteReader reader(bytes);

    std::uint32_t magic = reader.readU32();
    std::uint16_t version = reader.readU16();
    std::uint16_t encoding_raw = reader.readU16();
    std::uint64_t cpu_freq = reader.readU64();

    if (!reader.ok() || magic != kTraceMagic) {
        result.error = "not an Aftermath trace (bad magic at offset 0)";
        return result;
    }
    if (version != kTraceVersion) {
        result.error = strFormat(
            "unsupported trace version %u at offset 4", version);
        return result;
    }
    if (encoding_raw > static_cast<std::uint16_t>(Encoding::Compact)) {
        result.error =
            strFormat("unknown encoding %u at offset 6", encoding_raw);
        return result;
    }
    Encoding encoding = static_cast<Encoding>(encoding_raw);
    result.encoding = encoding;
    result.trace.setCpuFreqHz(cpu_freq);

    // ---- Phase 1: serial frame scan ------------------------------------
    DeltaRegisters scan_registers; // Unused: global frames carry no times.
    FrameDecoder decoder(reader, encoding, scan_registers);
    Trace &trace = result.trace;
    std::vector<std::vector<std::uint64_t>> runs;
    std::vector<std::size_t> frames_buffered;
    bool have_topology = false;

    const unsigned max_workers = options.workers == 0
                                     ? base::ThreadPool::defaultWorkers()
                                     : options.workers;
    std::unique_ptr<base::ThreadPool> pool;
    std::shared_ptr<DecodePipeline> pipeline;

    // Hand one lane's accumulated batch to the decode pipeline. The
    // pipeline (and its pool) starts lazily on the first full batch,
    // so small traces never pay thread start-up and decode serially.
    auto flush_batch = [&](std::size_t lane) {
        if (!pipeline) {
            const std::size_t num_lanes = runs.size();
            pipeline = std::make_shared<DecodePipeline>(num_lanes);
            pool = std::make_unique<base::ThreadPool>(
                std::min<unsigned>(max_workers,
                                   static_cast<unsigned>(num_lanes)));
        }
        bool start_pump;
        {
            base::MutexLock lock(pipeline->mutex);
            DecodePipeline::LaneQueue &queue = pipeline->queues[lane];
            queue.pending.push_back(std::move(runs[lane]));
            start_pump = !queue.active;
            if (start_pump)
                queue.active = true;
        }
        runs[lane].clear();
        frames_buffered[lane] = 0;
        if (start_pump) {
            auto p = pipeline;
            Trace *t = &trace;
            const std::vector<std::uint8_t> *b = &bytes;
            base::CancellationToken cancel = options.cancel;
            pool->submit([p, b, encoding, t, lane, cancel] {
                pumpLane(p, *b, encoding, *t, lane, cancel);
            });
        }
    };

    // The open stretch of consecutive frames on one lane; closing it
    // appends one packed entry to that lane's run.
    std::size_t stretch_lane = 0;
    std::size_t stretch_start = 0;
    std::size_t stretch_count = 0; // 0 = no open stretch.

    auto close_stretch = [&] {
        if (stretch_count == 0)
            return;
        runs[stretch_lane].push_back(
            packStretch(stretch_start, stretch_count));
        frames_buffered[stretch_lane] += stretch_count;
        stretch_count = 0;
        if (max_workers > 1 &&
            frames_buffered[stretch_lane] >= kBatchFrames)
            flush_batch(stretch_lane);
    };

    auto append_frame = [&](std::size_t lane, std::size_t offset) {
        if (stretch_count > 0 &&
            (lane != stretch_lane || stretch_count >= kMaxStretchFrames))
            close_stretch();
        if (stretch_count == 0) {
            stretch_lane = lane;
            stretch_start = offset;
        }
        stretch_count++;
    };

    // The (tag byte + encoded CPU id) prefix of the last lane frame,
    // as a masked 8-byte pattern: while consecutive frames repeat it
    // (the overwhelmingly common case), the scan extends the stretch
    // with one compare instead of re-decoding tag and id. Global lane
    // frames have a 1-byte prefix (the tag alone).
    std::uint64_t prefix_pattern = 0;
    std::uint64_t prefix_mask = 0;
    std::size_t prefix_len = 0; // 0 = no cached prefix.
    FrameType prefix_type = FrameType::StateEvent;
    FrameLayout prefix_layout;
    std::size_t prefix_lane = 0;

    const std::uint8_t *data = bytes.data();
    const std::size_t size = bytes.size();

    // The one fail path of the scan. The decode pumps hold pointers
    // into result.trace, so a failed or cancelled scan parks them
    // before `result` leaves the function.
    auto fail = [&](std::string error) {
        result.error = std::move(error);
        if (pipeline) {
            pipeline->cancelled.store(true, std::memory_order_relaxed);
            pool->wait();
        }
        return std::move(result);
    };
    auto fail_corrupt = [&](FrameType type, std::size_t offset) {
        return fail(strFormat("truncated or corrupt %s frame at offset %zu",
                              frameTypeName(type), offset));
    };

    // The scan loop, up to the end-of-trace frame. `pos` is its cursor:
    // a repeated lane frame advances it without touching the reader,
    // which is re-seated on it before decoding anything.
    std::size_t pos = reader.offset();
    std::size_t scanned = 0;
    bool done = false;
    while (!done) {
        // Every 4096 scanned frames: donate the thread, poll cancellation.
        if ((++scanned & 0xfff) == 0) {
            if (options.yield)
                options.yield();
            if (options.cancel.cancelled()) {
                result.cancelled = true;
                return fail("trace load cancelled");
            }
        }
        const std::size_t offset = pos;
        if (prefix_len != 0 && size - offset >= 8) {
            std::uint64_t head;
            std::memcpy(&head, data + offset, 8);
            if (((head ^ prefix_pattern) & prefix_mask) == 0) {
                // The cached prefix again: extend the stretch.
                pos = skipPayload(bytes, offset + prefix_len, encoding,
                                  prefix_layout);
                if (pos == 0)
                    return fail_corrupt(prefix_type, offset);
                append_frame(prefix_lane, offset);
                continue;
            }
        }
        reader.seek(offset);
        const FrameType type = static_cast<FrameType>(reader.readU8());
        if (!reader.ok())
            return fail(strFormat("truncated trace at offset %zu: "
                                  "missing end-of-trace frame",
                                  offset));
        const FrameLayout layout = frameLayout(type);

        if (layout.payloadVarints != 0) {
            // The lane-frame step: skip, check the CPU, append,
            // cache the prefix.
            const CpuId cpu = layout.perCpu ? decoder.readValue32() : 0;
            const std::size_t prefix_end = reader.offset();
            pos = reader.ok()
                      ? skipPayload(bytes, prefix_end, encoding, layout)
                      : 0;
            if (pos == 0)
                return fail_corrupt(type, offset);
            const std::size_t lane =
                layout.perCpu ? cpu
                              : trace.numCpus() + globalLaneIndex(type);
            if (!have_topology) {
                // No lane exists before the topology frame sizes
                // them, so a global frame decodes right here, as a
                // one-frame run. Only memory frames may come this
                // early; a task instance decodes first all the same,
                // so that its corruption outranks the ordering error.
                if (!layout.perCpu) {
                    LaneDecode frame;
                    std::atomic<bool> stop{false};
                    decodeRun(bytes, encoding, {packStretch(offset, 1)},
                              trace, lane, frame,
                              base::CancellationToken(), stop);
                    if (frame.failed())
                        return fail_corrupt(type, offset);
                    if (type != FrameType::TaskInstance)
                        continue;
                }
                return fail(strFormat("%s frame at offset %zu "
                                      "precedes the topology frame",
                                      frameTypeName(type), offset));
            }
            if (layout.perCpu && cpu >= trace.numCpus())
                return fail(strFormat(
                    "%s frame at offset %zu: event on cpu %u "
                    "outside topology",
                    frameTypeName(type), offset, cpu));
            // A prefix of 8 bytes or more (an over-long CPU id) or
            // in the buffer's last 8 bytes is not cached.
            prefix_len = prefix_end - offset;
            if (prefix_len >= 8 || size - offset < 8)
                prefix_len = 0;
            prefix_mask = (std::uint64_t{1} << (8 * prefix_len)) - 1;
            if (prefix_len != 0)
                std::memcpy(&prefix_pattern, data + offset, 8);
            prefix_pattern &= prefix_mask;
            prefix_type = type;
            prefix_layout = layout;
            prefix_lane = lane;
            append_frame(lane, offset);
            continue;
        }

        // A non-lane frame interrupts the byte-contiguity of the
        // open stretch; close it so decode never walks across it.
        close_stretch();
        switch (type) {
          case FrameType::Topology: {
            if (have_topology)
                return fail(strFormat(
                    "duplicate topology frame at offset %zu", offset));
            std::uint32_t num_cpus = decoder.readValue32();
            std::uint32_t num_nodes = decoder.readValue32();
            if (!reader.ok() || num_cpus == 0 || num_cpus > kMaxCpus ||
                num_nodes == 0 || num_nodes > kMaxNodes)
                return fail(strFormat(
                    "invalid topology frame at offset %zu", offset));
            std::vector<NodeId> cpu_to_node(num_cpus);
            for (auto &node : cpu_to_node) {
                node = decoder.readValue32();
                if (reader.ok() && node >= num_nodes)
                    return fail(strFormat(
                        "cpu mapped to invalid node in topology frame "
                        "at offset %zu",
                        offset));
            }
            std::vector<std::uint32_t> distances(
                static_cast<std::size_t>(num_nodes) * num_nodes);
            for (auto &d : distances)
                d = decoder.readValue32();
            if (!reader.ok())
                return fail(strFormat(
                    "truncated topology frame at offset %zu", offset));
            trace.setTopology(MachineTopology::custom(
                std::move(cpu_to_node), num_nodes,
                std::move(distances)));
            runs.resize(trace.numCpus() + kNumGlobalLanes);
            frames_buffered.resize(trace.numCpus() + kNumGlobalLanes,
                                   0);
            have_topology = true;
            break;
          }
          case FrameType::StateDescription: {
            StateDescription desc;
            desc.id = decoder.readValue32();
            desc.name = reader.readString();
            if (reader.ok())
                trace.addStateDescription(desc);
            break;
          }
          case FrameType::CounterDescription: {
            CounterDescription desc;
            desc.id = decoder.readValue32();
            desc.name = reader.readString();
            if (reader.ok())
                trace.addCounterDescription(desc);
            break;
          }
          case FrameType::TaskType: {
            TaskType task_type;
            task_type.id = decoder.readValue();
            task_type.name = reader.readString();
            if (reader.ok())
                trace.addTaskType(task_type);
            break;
          }
          case FrameType::EndOfTrace:
            if (!have_topology)
                return fail("trace contains no topology frame");
            done = true;
            break;
          default:
            return fail(strFormat("unknown frame type %u at offset %zu",
                                  static_cast<unsigned>(type), offset));
        }
        if (!reader.ok())
            return fail_corrupt(type, offset);
        pos = reader.offset();
    }

    // ---- Phase 2: decode every lane's run ------------------------------
    if (pipeline) {
        // Most batches already decoded while the scan was running; hand
        // over the partial tails and wait for the pumps to drain.
        for (std::size_t lane = 0; lane < runs.size(); lane++) {
            if (!runs[lane].empty())
                flush_batch(lane);
        }
        pool->wait();
    } else {
        // Small trace or workers == 1: the run decoder takes each whole
        // run on the calling thread. No early exit on a failed lane, so
        // the lowest-offset rule sees the same candidates as the
        // pipelined mode.
        pipeline = std::make_shared<DecodePipeline>(runs.size());
        for (std::size_t lane = 0; lane < runs.size(); lane++)
            decodeRun(bytes, encoding, runs[lane], trace, lane,
                      pipeline->decode[lane], options.cancel,
                      pipeline->cancelled);
    }
    if (pipeline->cancelled.load(std::memory_order_relaxed) ||
        options.cancel.cancelled()) {
        result.cancelled = true;
        result.error = "trace load cancelled";
        return result;
    }

    // Every lane's decode state is quiescent now (no pump is left
    // running). The lowest-offset rule keeps the reported diagnostic
    // independent of scheduling and worker count.
    const LaneDecode *first_error = nullptr;
    for (const LaneDecode &lane : pipeline->decode) {
        if (lane.failed() &&
            (!first_error || lane.errorOffset < first_error->errorOffset))
            first_error = &lane;
    }
    if (first_error) {
        result.error = first_error->error;
        return result;
    }

    std::string finalize_error;
    if (!trace.finalize(finalize_error, pool.get())) {
        result.error = "trace validation failed: " + finalize_error;
        return result;
    }
    result.bytesRead = pos;
    result.ok = true;
    return result;
}

ReadResult
readTraceFile(const std::string &path, const ReadOptions &options)
{
    ReadResult result;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        result.error = "cannot open " + path;
        return result;
    }
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        result.error = "cannot determine size of " + path;
        return result;
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size()) {
        result.error = "short read from " + path;
        return result;
    }
    return readTrace(bytes, options);
}

} // namespace trace
} // namespace aftermath
