/**
 * @file
 * Multi-resolution summary pyramids: O(pixels) answers at any zoom.
 *
 * Interactive queries must answer at UI latency regardless of trace
 * size, but an exact scan touches every event in the view interval —
 * at billion-event scale that is the wall (the ROADMAP's "O(pixels),
 * not O(events)" item; Traveler's aggregated task-trace navigation is
 * the exemplar). The pyramid partitions the trace span into leaves of
 * one fixed granularity g0 (the smallest power of two putting the leaf
 * count near a few thousand) and precomputes, per CPU, the state
 * occupancy of every leaf as flat cumulative columns: for each state
 * with nonzero time on the CPU, one cell (leaf, time in the state
 * through the end of that leaf) per leaf where the state occurs. The
 * time of a state over a leaf range [a, b) is prefix(b) - prefix(a),
 * two searches of its column with no tree walk, and is exact for
 * that *leaf-aligned* interval, not an approximation of it. A column
 * has cells only where its state occurs, so memory stays O(state
 * events + leaves) per CPU whatever the state ids are (they are not
 * validated, so a dense state x leaf table would let one hostile file
 * pay a table row per distinct id).
 *
 * The query plane (session/query_engine.cc) uses this as follows: a
 * query carrying Resolution::Budget or Resolution::Pixels has its
 * interval snapped outward to the coarsest power-of-two multiple of g0
 * within the error budget, and the snapped interval is answered
 * exactly — state occupancy from these columns, task counts from the
 * trace-global task index of TraceIndex (index/trace_index.h),
 * counter extrema from the per-(cpu, counter) index::CounterIndex. The
 * result reports the snapped interval and a ResolutionInfo provenance.
 *
 * Resolution::Exact reads this structure but never builds it: exact
 * interval stats take the whole leaves inside the requested interval
 * from an already-built pyramid (stats::intervalStateChunk) and scan
 * only the two partial edges, and take their task counts from the
 * task index. The answer is the scan's, bit for bit.
 *
 * One caveat for bit-identity: the exact scan records a zero-valued
 * occupancy entry for a zero-duration state event inside the interval
 * (its slice includes the event, its overlap is zero); the pyramid
 * only records states with nonzero occupancy. Pyramid (Budget/Pixels)
 * answers therefore omit such keys, and an exact query answers a CPU
 * that has zero-duration state events by the scan alone. Traces
 * without zero-duration state events — every writer in this repo —
 * are unaffected.
 */

#ifndef AFTERMATH_INDEX_SUMMARY_PYRAMID_H
#define AFTERMATH_INDEX_SUMMARY_PYRAMID_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "base/time_interval.h"
#include "base/types.h"
#include "trace/trace.h"

namespace aftermath {
namespace index {

/** The per-CPU pyramid: cumulative state-occupancy columns over leaves. */
class SummaryPyramid
{
  public:
    /**
     * Build the pyramid of @p cpu over @p trace with leaves of
     * @p leaf_granularity covering @p leaf_count slots from time 0.
     */
    SummaryPyramid(const trace::Trace &trace, CpuId cpu,
                   TimeStamp leaf_granularity, std::uint64_t leaf_count);

    TimeStamp leafGranularity() const { return g0_; }
    std::uint64_t leafCount() const { return leafCount_; }

    /**
     * True when the CPU has a zero-duration state event, whose
     * zero-valued key the exact scan records and occupancy() omits.
     */
    bool hasZeroDurationStates() const { return zeroDurationStates_; }

    /**
     * Exact state occupancy over the aligned leaf range
     * [@p first_leaf, @p last_leaf): adds time-per-state into @p into
     * (states with zero occupancy are absent) and counts the summary
     * cells read into @p cells_read.
     */
    void occupancy(std::uint64_t first_leaf, std::uint64_t last_leaf,
                   std::map<std::uint32_t, TimeStamp> &into,
                   std::uint64_t &cells_read) const;

    /**
     * Caller-owned state of occupancyOver(), reused across calls: the
     * answer, plus one cell cursor per state column. A left-to-right
     * sweep of adjacent intervals (a lane's pixel columns) then seeks
     * each column from where the previous call stopped. Any cursor
     * value is safe: one past the interval's start is ignored and the
     * column searched from its first cell.
     */
    struct Sweep
    {
        /** (state, time) of positive time, in state order. */
        std::vector<std::pair<std::uint32_t, double>> occupancy;
        std::vector<std::size_t> cursors;
    };

    /**
     * Approximate state occupancy over an *arbitrary* interval, for
     * sub-pixel render bands: whole leaves inside the interval are
     * exact; a partially covered boundary leaf contributes its
     * occupancy scaled by the covered fraction. Replaces
     * @p sweep.occupancy with the answer.
     */
    void occupancyOver(const TimeInterval &interval, Sweep &sweep,
                       std::uint64_t &cells_read) const;

  private:
    struct Cell
    {
        std::uint64_t leaf;
        TimeStamp cumulative; ///< Time in the state through this leaf.
    };

    /**
     * Index of the first cell of @p column at or after @p leaf, given
     * that every cell before @p from precedes it: a galloping search
     * forward from @p from, O(log distance).
     */
    static std::size_t seek(const std::vector<Cell> &column,
                            std::size_t from, std::uint64_t leaf);

    /** Time of @p column in the cells before index @p pos. */
    static TimeStamp
    before(const std::vector<Cell> &column, std::size_t pos)
    {
        return pos == 0 ? 0 : column[pos - 1].cumulative;
    }

    TimeStamp g0_;
    std::uint64_t leafCount_;
    bool zeroDurationStates_ = false;
    std::vector<std::uint32_t> stateIds_; ///< Sorted; slot order of columns_.
    /** One column per state, cells in increasing leaf order. */
    std::vector<std::vector<Cell>> columns_;
};

} // namespace index
} // namespace aftermath

#endif // AFTERMATH_INDEX_SUMMARY_PYRAMID_H
