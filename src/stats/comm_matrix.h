/**
 * @file
 * NUMA communication incidence matrix.
 *
 * An application-wide summary of memory locality and communication: the
 * overall proportion of communication between each pair of NUMA nodes
 * (paper Fig 15). A non-optimized execution shows uniform deep red (every
 * node talks to every node); a NUMA-optimized one shows a sharp diagonal.
 */

#ifndef AFTERMATH_STATS_COMM_MATRIX_H
#define AFTERMATH_STATS_COMM_MATRIX_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/time_interval.h"
#include "base/types.h"
#include "trace/trace.h"

namespace aftermath {
namespace stats {

/** Bytes exchanged between each ordered pair of NUMA nodes. */
class CommMatrix
{
  public:
    /**
     * Accumulate data-transfer communication events within @p interval.
     *
     * Steal/push events carry no bytes and are ignored.
     */
    static CommMatrix fromTrace(const trace::Trace &trace,
                                const TimeInterval &interval);

    /** Accumulate over the whole trace span. */
    static CommMatrix fromTrace(const trace::Trace &trace);

    /** Number of nodes (matrix is numNodes x numNodes). */
    std::uint32_t numNodes() const { return numNodes_; }

    /** Bytes moved from @p src to @p dst. */
    std::uint64_t bytes(NodeId src, NodeId dst) const;

    /** Total bytes across all pairs. */
    std::uint64_t totalBytes() const;

    /** bytes(src, dst) / totalBytes (0 when the matrix is empty). */
    double fraction(NodeId src, NodeId dst) const;

    /**
     * Fraction of all traffic that stays on its own node — the sharpness
     * of Fig 15's diagonal (1.0 = perfect locality).
     */
    double diagonalFraction() const;

    /** Largest entry, used to normalize shades when rendering. */
    std::uint64_t maxBytes() const;

    /** ASCII rendering with one shade character per cell (for reports). */
    std::string toAscii() const;

  private:
    std::uint32_t numNodes_ = 0;
    std::vector<std::uint64_t> cells_; // Row-major [src * numNodes + dst].
};

} // namespace stats
} // namespace aftermath

#endif // AFTERMATH_STATS_COMM_MATRIX_H
