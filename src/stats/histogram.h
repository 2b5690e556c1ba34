/**
 * @file
 * Histograms for the statistical views.
 *
 * The statistics group of the main window shows, among others, a histogram
 * of the distribution of task durations for a user-selected interval
 * (paper section II-A group 2, Fig 16).
 */

#ifndef AFTERMATH_STATS_HISTOGRAM_H
#define AFTERMATH_STATS_HISTOGRAM_H

#include <cstdint>
#include <optional>
#include <vector>

#include "base/resolution.h"

namespace aftermath {
namespace stats {

/** A fixed-width-bin histogram over double-valued observations. */
class Histogram
{
  public:
    /**
     * How the observation set was selected (base/resolution.h): exact
     * task-list scan, or the pyramid's tasks bucketed by start leaf over
     * a snapped interval. Bin counts themselves are always exact over
     * the selected set, which they count in any order.
     */
    ResolutionInfo resolution;

    /**
     * Build a histogram of @p values with @p num_bins equal bins.
     *
     * @param values Observations; values outside [min, max] are clamped
     *        into the first/last bin.
     * @param num_bins Number of bins (>= 1).
     * @param min Lower edge; defaults to the minimum observation.
     * @param max Upper edge; defaults to the maximum observation.
     */
    static Histogram fromValues(const std::vector<double> &values,
                                std::uint32_t num_bins,
                                std::optional<double> min = std::nullopt,
                                std::optional<double> max = std::nullopt);

    /**
     * Reconstruct a histogram from its bin counts and range — the
     * decode half of the wire serialization (stats/export.h). The
     * total is the sum of @p counts and the bin width is recomputed
     * from the range, so a histogram round-tripped through
     * encode/decode is bit-identical to the original (fromValues
     * stores post-clamp edges; the width expression is deterministic
     * on IEEE doubles).
     *
     * @param counts Per-bin observation counts (>= 1 bin).
     * @param min Lower edge of the range, as rangeMin() returned it.
     * @param max Upper edge of the range, as rangeMax() returned it.
     */
    static Histogram fromBins(std::vector<std::uint64_t> counts,
                              double min, double max);

    /** Number of bins. */
    std::uint32_t numBins() const
    {
        return static_cast<std::uint32_t>(counts_.size());
    }

    /** Count in bin @p i. */
    std::uint64_t count(std::uint32_t i) const { return counts_.at(i); }

    /** Fraction of all observations in bin @p i (0 if empty histogram). */
    double fraction(std::uint32_t i) const;

    /** Center value of bin @p i. */
    double binCenter(std::uint32_t i) const;

    /** Lower edge of bin @p i. */
    double binLow(std::uint32_t i) const;

    /** Width of each bin. */
    double binWidth() const { return width_; }

    /** Total number of observations. */
    std::uint64_t total() const { return total_; }

    /** Lower edge of the histogram range. */
    double rangeMin() const { return min_; }

    /** Upper edge of the histogram range. */
    double rangeMax() const { return max_; }

    /** Indices of local maxima (bins higher than both neighbours). */
    std::vector<std::uint32_t> peaks() const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double width_ = 0.0;
};

} // namespace stats
} // namespace aftermath

#endif // AFTERMATH_STATS_HISTOGRAM_H
