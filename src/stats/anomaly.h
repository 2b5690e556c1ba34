/**
 * @file
 * Semi-automatic detection of interesting anomalies.
 *
 * The paper's conclusion names "semi-automatic statistical methods to
 * quickly focus the search for interesting anomalies" as ongoing work
 * (section VIII). This module implements that extension: it scans a
 * trace for the anomaly classes the paper debugs by hand — idle phases,
 * task-duration outliers, and counter bursts — and returns one ranked,
 * time-localized list of findings the user can jump to.
 *
 * ## Chunk plane
 *
 * The scan decomposes into independent chunks — one per CPU (idle
 * phases), one per kOutlierChunkTasks-long slice of the candidate tasks
 * (duration outliers), one per sampled (cpu, counter) pair (bursts) —
 * exposed through anomalyScanChunks() / runAnomalyChunk() /
 * mergeAnomalyChunks() so the asynchronous query plane
 * (session::AnomalyScanQuery) can fan them out on the shared worker
 * pool. The candidates are any task sequence holding every task that
 * overlaps the scan window: all instances for the serial
 * scanForAnomalies(), the view's range of the task index
 * (index::TraceIndex::taskOverlapRange()) for a session, so a session
 * scan reads the tasks near its view once, whatever the trace holds.
 *
 * ## Exact outlier sums
 *
 * An outlier slice returns, per task type, the exact integer moments
 * of the durations it accepts (n, S1 = sum d in 128 bits, S2 = sum d^2
 * in 192 bits) and its maxPerKind longest tasks with their ties. The
 * merge adds the moments, which is exact in any order, and scores a
 * task of duration d by z = double(n*d - S1) / sqrt(double(n*S2 -
 * S1^2)) from 256-bit integers: the population z-score, rounded from
 * exact values, so it is the same for any chunking, candidate order or
 * worker count, and no cancellation loses the spread of long
 * durations. z never falls as d rises, so the merge finds each type's
 * least outlying duration by binary search and scores only the kept
 * tasks at or above it; a dropped task ranks below a slice's kept ones
 * and cannot make the per-kind cap. The serial scanner runs the same
 * chunks through the same merge, the bit-identical reference of the
 * parallel one.
 *
 * ## Ranking
 *
 * Findings are capped per kind (maxPerKind keeps the most severe),
 * severities are normalized per kind (each kind's top finding scores
 * 1.0, so a 40x counter burst does not drown every idle phase), and
 * the kinds merge into one list under a strict total order
 * (anomalyRankedBefore): severity descending, ties broken by kind and
 * location. Descriptions keep the raw magnitudes.
 */

#ifndef AFTERMATH_STATS_ANOMALY_H
#define AFTERMATH_STATS_ANOMALY_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/time_interval.h"
#include "base/types.h"
#include "trace/trace.h"

namespace aftermath {

namespace filter {
class FilterSet;
}

namespace stats {

/** Classes of detected anomalies. */
enum class AnomalyKind : std::uint8_t {
    IdlePhase = 0,       ///< Many workers simultaneously idle (Fig 2/3).
    DurationOutlier = 1, ///< Task far longer than its type's typical run.
    CounterBurst = 2,    ///< Counter rate spike relative to the run mean.
};

/** One ranked finding. */
struct Anomaly
{
    AnomalyKind kind = AnomalyKind::IdlePhase;
    TimeInterval interval;            ///< Where to look.
    CpuId cpu = kInvalidCpu;          ///< Affected CPU (if applicable).
    TaskInstanceId task = kInvalidTaskInstance; ///< Affected task.
    CounterId counter = 0;            ///< Affected counter (bursts).
    double severity = 0.0;            ///< Normalized per kind; top = 1.0.
    std::string description;          ///< Human-readable, raw magnitudes.
};

/** Thresholds of the scanner. */
struct AnomalyScanOptions
{
    /** Subdivisions of the scan interval used for phase detection. */
    std::uint32_t numIntervals = 100;
    /** Idle phase: fraction of workers that must be idle. */
    double idleWorkerFraction = 0.5;
    /** Duration outlier: z-score threshold within the task type. */
    double durationZScore = 3.0;
    /** Counter burst: rate relative to the run's mean rate. */
    double burstFactor = 4.0;
    /** Cap on findings returned per kind. */
    std::size_t maxPerKind = 20;
};

/**
 * The strict total order of the ranked list: severity descending, then
 * kind ordinal, interval edges, cpu, task and counter ascending. Total
 * (no two distinct findings compare equal), so sorting with it is
 * deterministic regardless of the order findings were produced in.
 */
bool anomalyRankedBefore(const Anomaly &a, const Anomaly &b);

// -- Chunk plane ---------------------------------------------------------

/** Candidate tasks per outlier chunk (the last takes the rest). */
inline constexpr std::size_t kOutlierChunkTasks = 8192;

/**
 * The tasks a scan's outlier chunks read, by position. They must hold
 * every task that overlaps the scan window, in any order; the chunks
 * drop the rest.
 */
using TaskCandidates = std::span<const trace::TaskInstance *const>;

/**
 * Exact moments of a set of task durations: their count n, their sum
 * S1 (below 2^128) and the sum of their squares S2 (below 2^192, held
 * as a high 64-bit and a low 128-bit part). Adding is exact and
 * order-free.
 */
struct DurationMoments
{
    std::uint64_t count = 0;
    unsigned __int128 sum = 0;
    unsigned __int128 sumSquaresLow = 0;
    std::uint64_t sumSquaresHigh = 0;

    /** Count one duration. */
    void add(TimeStamp duration);

    /** Count every duration of @p other. */
    void add(const DurationMoments &other);
};

/** A task an outlier chunk accepted, with its duration. */
struct OutlierCandidate
{
    TimeStamp duration = 0;
    const trace::TaskInstance *task = nullptr;
};

/**
 * What one outlier chunk accepted of one task type: the moments of
 * every accepted duration, and the accepted tasks at least as long as
 * the maxPerKind-th longest (all of them if there are fewer).
 */
struct TypeDurations
{
    TaskTypeId type = 0;
    DurationMoments moments;
    std::vector<OutlierCandidate> longest; ///< In no order.
    bool dropped = false;         ///< Whether it accepted more.
    TimeStamp longestDropped = 0; ///< The longest of those.

    /** Count a task of @p duration accepted but not kept. */
    void drop(TimeStamp duration);
};

/** One independent unit of a decomposed anomaly scan. */
struct AnomalyScanChunk
{
    enum class Family : std::uint8_t {
        Idle = 0,    ///< Per-CPU idle time per sub-interval.
        Outlier = 1, ///< Task durations of one slice of the candidates.
        Burst = 2,   ///< Bursts of one (cpu, counter) pair.
    };

    Family family = Family::Idle;
    CpuId cpu = kInvalidCpu; ///< Idle and Burst chunks.
    CounterId counter = 0;   ///< Burst chunks.
    /** Outlier chunks: candidate positions [first, last). */
    std::size_t first = 0;
    std::size_t last = 0;
};

/** Partial result of one chunk. */
struct AnomalyChunkResult
{
    /**
     * Idle chunks: this CPU's idle time (exact integer cycles) in each
     * of the numIntervals subdivisions of the scan interval. Merged by
     * elementwise summation across CPUs, so the merged totals are
     * bit-identical at any execution order.
     */
    std::vector<TimeStamp> idleTime;

    /**
     * Outlier chunks: per task type with accepted candidates, in
     * ascending type order, their moments and longest tasks.
     */
    std::vector<TypeDurations> durations;

    /** Burst chunks: raw (un-normalized) findings. */
    std::vector<Anomaly> findings;
};

/**
 * The chunk decomposition of a scan over @p trace reading
 * @p candidates candidate tasks: one Idle chunk per CPU, one Outlier
 * chunk per kOutlierChunkTasks candidates, one Burst chunk per
 * (cpu, counter) pair with enough samples. The order is deterministic
 * (families in enum order, ids and positions ascending) and
 * mergeAnomalyChunks() consumes partials in exactly this order.
 */
std::vector<AnomalyScanChunk> anomalyScanChunks(const trace::Trace &trace,
                                                std::size_t candidates);

/**
 * Execute one chunk. @p scan_interval restricts the detectors to one
 * window (idle sub-intervals subdivide it, tasks must overlap it,
 * counter samples outside [start, end] are ignored); @p filters — when
 * non-null — restricts outlier detection to tasks the set accepts
 * (idle phases and counter bursts are not task-scoped and ignore it).
 * Outlier chunks read their slice of @p candidates and skip tasks of
 * types the trace does not describe.
 */
AnomalyChunkResult runAnomalyChunk(const trace::Trace &trace,
                                   const AnomalyScanChunk &chunk,
                                   TaskCandidates candidates,
                                   const AnomalyScanOptions &options,
                                   const TimeInterval &scan_interval,
                                   const filter::FilterSet *filters);

/**
 * Merge per-chunk partials (in anomalyScanChunks() order) into the
 * final ranked list: idle totals become merged phase findings, each
 * type's moments add up and score its kept tasks (a type with fewer
 * than 10 or no spread has no outliers), each kind is sorted and
 * capped at maxPerKind, severities normalize per kind, and the kinds
 * interleave under anomalyRankedBefore(). @p candidates,
 * @p scan_interval and @p filters are the chunks' own: where rounding
 * ties the z-scores of a chunk's kept and dropped tasks, the merge
 * reruns that chunk keeping every task.
 */
std::vector<Anomaly>
mergeAnomalyChunks(const trace::Trace &trace,
                   const std::vector<AnomalyScanChunk> &chunks,
                   std::vector<AnomalyChunkResult> partials,
                   TaskCandidates candidates,
                   const AnomalyScanOptions &options,
                   const TimeInterval &scan_interval,
                   const filter::FilterSet *filters);

// -- Whole-scan entry points ---------------------------------------------

/**
 * Scan @p scan_interval of @p trace for anomalies, restricted to tasks
 * @p filters accept (null = no filter). Runs every chunk serially in
 * chunk order through mergeAnomalyChunks(), with every task instance a
 * candidate, so the result is the bit-identical reference for the
 * parallel AnomalyScanQuery executor.
 */
std::vector<Anomaly> scanForAnomalies(const trace::Trace &trace,
                                      const AnomalyScanOptions &options,
                                      const TimeInterval &scan_interval,
                                      const filter::FilterSet *filters);

/** Whole-span, unfiltered scan of @p trace. */
std::vector<Anomaly> scanForAnomalies(
    const trace::Trace &trace, const AnomalyScanOptions &options = {});

} // namespace stats
} // namespace aftermath

#endif // AFTERMATH_STATS_ANOMALY_H
