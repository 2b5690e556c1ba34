/**
 * @file
 * Export of per-task performance data for external analysis, plus the
 * binary encode/decode of the statistics value types.
 *
 * Aftermath exports performance data to files processed by external
 * statistics packages (paper section V); the filter mechanisms apply to
 * the exported data so outliers and auxiliary tasks can be excluded
 * before the analysis.
 *
 * The binary half serializes the statistics results the trace-serving
 * daemon ships over its wire protocol (src/daemon/protocol.h):
 * IntervalStats, Histogram, MinMax and ranked anomaly lists, on the
 * same ByteWriter/ByteReader varint idioms as the trace format.
 * Every encode/decode pair round-trips exactly — integer sums are
 * varints, doubles travel as IEEE-754 bits — so a result decoded on
 * the client is bit-identical to the server's local computation.
 * Decoders follow the reader's sticky-failure contract: they return
 * false on malformed input (reader failed or a structural bound
 * violated) and the reader's offset() then points at the failure.
 */

#ifndef AFTERMATH_STATS_EXPORT_H
#define AFTERMATH_STATS_EXPORT_H

#include <ostream>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "index/counter_index.h"
#include "metrics/task_attribution.h"
#include "stats/anomaly.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"

namespace aftermath {
namespace stats {

/**
 * Write per-task counter increases as tab-separated values.
 *
 * Columns: task id, task type id, cpu, duration (cycles), counter
 * increase, increase per kcycle. One header line precedes the data.
 */
void exportTaskCounterTsv(
    const std::vector<metrics::TaskCounterIncrease> &rows, std::ostream &os);

/** exportTaskCounterTsv() to a file; false (with @p error set) on failure. */
bool exportTaskCounterTsvFile(
    const std::vector<metrics::TaskCounterIncrease> &rows,
    const std::string &path, std::string &error);

// -- Binary wire serialization -------------------------------------------

/** Append @p s: interval, per-state times, task counts. */
void encodeIntervalStats(const IntervalStats &s, ByteWriter &w);

/** Decode into @p out; false on malformed input (offset() points at it). */
bool decodeIntervalStats(ByteReader &r, IntervalStats &out);

/** Append @p h: range edges (IEEE bits), per-bin counts. */
void encodeHistogram(const Histogram &h, ByteWriter &w);

/** Decode into @p out via Histogram::fromBins; false on malformed input. */
bool decodeHistogram(ByteReader &r, Histogram &out);

/** Append @p m: validity flag and signed extrema. */
void encodeMinMax(const index::MinMax &m, ByteWriter &w);

/** Decode into @p out; false on malformed input. */
bool decodeMinMax(ByteReader &r, index::MinMax &out);

/**
 * Append @p anomalies: count, then per finding the kind byte, interval
 * edges (fixed u64), cpu/task/counter varints, severity as IEEE bits
 * and the description string — so a ranked list decoded on the client
 * is byte-identical to the server's local scan when re-encoded.
 */
void encodeAnomalies(const std::vector<Anomaly> &anomalies, ByteWriter &w);

/** Decode into @p out; false on malformed input (bad kind, overrun). */
bool decodeAnomalies(ByteReader &r, std::vector<Anomaly> &out);

} // namespace stats
} // namespace aftermath

#endif // AFTERMATH_STATS_EXPORT_H
