/**
 * @file
 * Deserialization of trace files into the in-memory representation.
 *
 * The reader accepts any global interleaving of frames, validates per-CPU
 * timestamp ordering (the format's only ordering requirement), rejects
 * malformed or truncated input with a diagnostic instead of crashing, and
 * finalizes the resulting Trace so it is immediately analyzable.
 *
 * Two-phase decode contract: loading always runs in two passes.
 *
 *  1. Frame scan (serial). One loop over the byte stream validates the
 *     header, decodes the small global frames (topology, state/counter
 *     descriptions, task types) in stream order, and partitions every
 *     other frame into per-lane runs of consecutive-frame stretches
 *     without materializing them — one lane per CPU for the event
 *     frames (state, counter, discrete, comm; CPU ids are validated
 *     against the topology here) and one lane each for the bulk global
 *     tables (task instances, memory regions, memory accesses). Every
 *     lane frame takes the same structural skip, whether it repeats the
 *     previous frame's (tag, CPU) prefix or starts a new one. The scan
 *     checks frame structure and stops at the first malformed frame.
 *  2. Lane decode (parallel). One run decoder decodes each lane's
 *     stretches strictly in stream order with private delta-timestamp
 *     registers, so every container fills exactly as a serial pass
 *     would fill it. With ReadOptions::workers > 1 the decode is
 *     pipelined: batches of scanned frames stream to a base::ThreadPool
 *     while the scan is still running; otherwise the same decoder runs
 *     on the calling thread. Decode diagnostics are merged by lowest
 *     byte offset so the reported error does not depend on scheduling.
 *
 * Bit-identity guarantee: the materialized Trace, the diagnostics (which
 * carry the failing frame's byte offset and kind), and bytesRead are
 * identical at every worker count — workers only changes wall-clock
 * time. Cancellation (ReadOptions::cancel) is cooperative and observed
 * at batch boundaries in both phases; a cancelled load returns
 * ok == false with cancelled == true and no usable trace.
 */

#ifndef AFTERMATH_TRACE_READER_H
#define AFTERMATH_TRACE_READER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "trace/format.h"
#include "trace/trace.h"

namespace aftermath {
namespace trace {

/** Knobs of the two-phase trace loader. */
struct ReadOptions
{
    /**
     * Worker threads of the per-CPU decode phase; 1 decodes on the
     * calling thread, 0 uses one worker per hardware thread. The
     * result is bit-identical at every setting.
     */
    unsigned workers = 1;

    /**
     * Cooperative cancellation: requestCancel() from any thread stops
     * the load at the next frame-run boundary. The default token never
     * cancels.
     */
    base::CancellationToken cancel;

    /**
     * Invoked at the same frame-run boundaries the cancel token is
     * polled at (every 4096 scanned frames). A background trace load
     * sets this to donate its thread to queued interactive work
     * (base::ThreadPool::runOneHighPriorityTask()) so a load never
     * delays a just-submitted query by more than one scan batch. Must
     * not re-enter the reader; null means never yield.
     */
    std::function<void()> yield;
};

/** Outcome of reading a trace stream. */
struct ReadResult
{
    bool ok = false;     ///< True if the trace parsed and finalized.
    bool cancelled = false; ///< True if ReadOptions::cancel stopped the load.
    std::string error;   ///< Diagnostic when !ok (byte offset + frame kind).
    Trace trace;         ///< The materialized trace when ok.
    Encoding encoding = Encoding::Raw; ///< Encoding found in the header.
    std::size_t bytesRead = 0;         ///< Total bytes consumed.
};

/** Parse a trace from an in-memory byte buffer. */
ReadResult readTrace(const std::vector<std::uint8_t> &bytes,
                     const ReadOptions &options = {});

/** Parse a trace from a file. */
ReadResult readTraceFile(const std::string &path,
                         const ReadOptions &options = {});

} // namespace trace
} // namespace aftermath

#endif // AFTERMATH_TRACE_READER_H
