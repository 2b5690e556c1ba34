#include "index/summary_pyramid.h"

#include <algorithm>

#include "base/logging.h"

namespace aftermath {
namespace index {

SummaryPyramid::SummaryPyramid(const trace::Trace &trace, CpuId cpu,
                               TimeStamp leaf_granularity,
                               std::uint64_t leaf_count)
    : g0_(leaf_granularity), leafCount_(leaf_count)
{
    AFTERMATH_ASSERT(g0_ > 0 && leafCount_ > 0,
                     "pyramid with a degenerate leaf layout");
    const std::vector<trace::StateEvent> &states = trace.cpu(cpu).states();
    const TimeStamp domain_end = g0_ * leafCount_;
    // Zero-duration events and events past the domain have no
    // occupancy.
    auto occupies = [domain_end](const trace::StateEvent &ev) {
        return ev.interval.end > ev.interval.start &&
               ev.interval.start < domain_end;
    };
    for (const trace::StateEvent &ev : states) {
        if (occupies(ev))
            stateIds_.push_back(ev.state);
        zeroDurationStates_ |= ev.interval.end == ev.interval.start;
    }
    std::sort(stateIds_.begin(), stateIds_.end());
    stateIds_.erase(std::unique(stateIds_.begin(), stateIds_.end()),
                    stateIds_.end());
    columns_.resize(stateIds_.size());

    // Distribute each event's overlap across the leaves it spans. The
    // events are start-sorted and non-overlapping (CpuTimeline::
    // finalize), so every column receives its leaves in increasing
    // order and only its back cell can share an event's first leaf.
    for (const trace::StateEvent &ev : states) {
        if (!occupies(ev))
            continue;
        std::vector<Cell> &column = columns_[static_cast<std::size_t>(
            std::lower_bound(stateIds_.begin(), stateIds_.end(),
                             ev.state) -
            stateIds_.begin())];
        std::uint64_t first = ev.interval.start / g0_;
        std::uint64_t last =
            std::min((ev.interval.end - 1) / g0_ + 1, leafCount_);
        for (std::uint64_t leaf = first; leaf < last; leaf++) {
            TimeStamp overlap = ev.interval.overlapDuration(
                {leaf * g0_, (leaf + 1) * g0_});
            if (!column.empty() && column.back().leaf == leaf)
                column.back().cumulative += overlap;
            else
                column.push_back({leaf, overlap});
        }
    }
    for (std::vector<Cell> &column : columns_)
        for (std::size_t i = 1; i < column.size(); i++)
            column[i].cumulative += column[i - 1].cumulative;
}

std::size_t
SummaryPyramid::seek(const std::vector<Cell> &column, std::size_t from,
                     std::uint64_t leaf)
{
    // Gallop: probe from + 1, + 2, + 4, ... until a probe reaches leaf,
    // then binary-search the last doubling.
    std::size_t bound = 1;
    while (from + bound <= column.size() &&
           column[from + bound - 1].leaf < leaf)
        bound *= 2;
    auto it = std::lower_bound(
        column.begin() + static_cast<std::ptrdiff_t>(from + bound / 2),
        column.begin() + static_cast<std::ptrdiff_t>(
                             std::min(from + bound, column.size())),
        leaf,
        [](const Cell &cell, std::uint64_t l) { return cell.leaf < l; });
    return static_cast<std::size_t>(it - column.begin());
}

void
SummaryPyramid::occupancy(std::uint64_t first_leaf, std::uint64_t last_leaf,
                          std::map<std::uint32_t, TimeStamp> &into,
                          std::uint64_t &cells_read) const
{
    last_leaf = std::min(last_leaf, leafCount_);
    if (first_leaf >= last_leaf)
        return;
    for (std::size_t slot = 0; slot < columns_.size(); slot++) {
        const std::vector<Cell> &column = columns_[slot];
        const std::size_t first = seek(column, 0, first_leaf);
        const std::size_t last = seek(column, first, last_leaf);
        cells_read += 2;
        TimeStamp time = before(column, last) - before(column, first);
        if (time > 0)
            into[stateIds_[slot]] += time;
    }
}

void
SummaryPyramid::occupancyOver(const TimeInterval &interval, Sweep &sweep,
                              std::uint64_t &cells_read) const
{
    sweep.occupancy.clear();
    sweep.cursors.resize(columns_.size());
    const TimeStamp domain_end = g0_ * leafCount_;
    const TimeStamp start = std::min(interval.start, domain_end);
    const TimeStamp end = std::min(interval.end, domain_end);
    if (start >= end)
        return;

    // Leaves [lo, hi) meet the interval. A partly covered leaf at
    // either edge adds its occupancy scaled by the covered fraction;
    // the whole leaves between, [mid_lo, mid_hi), add theirs exactly.
    const std::uint64_t lo = start / g0_;
    const std::uint64_t hi = (end - 1) / g0_ + 1;
    TimeStamp lead = 0; // Covered time of a leading partial leaf.
    TimeStamp trail = 0; // Covered time of a distinct trailing one.
    if (start % g0_ != 0)
        lead = std::min(end, (lo + 1) * g0_) - start;
    if (end % g0_ != 0 && (lead == 0 || hi - lo > 1))
        trail = end - (hi - 1) * g0_;
    const std::uint64_t mid_lo = lead > 0 ? lo + 1 : lo;
    const std::uint64_t mid_hi = trail > 0 ? hi - 1 : hi;
    const double lead_fraction =
        static_cast<double>(lead) / static_cast<double>(g0_);
    const double trail_fraction =
        static_cast<double>(trail) / static_cast<double>(g0_);

    for (std::size_t slot = 0; slot < columns_.size(); slot++) {
        const std::vector<Cell> &column = columns_[slot];
        std::size_t from = std::min(sweep.cursors[slot], column.size());
        if (from > 0 && column[from - 1].leaf >= lo)
            from = 0;
        const std::size_t at_lo = seek(column, from, lo);
        const std::size_t at_mid_lo =
            lead > 0 ? seek(column, at_lo, mid_lo) : at_lo;
        const std::size_t at_mid_hi = seek(column, at_mid_lo, mid_hi);
        const std::size_t at_hi =
            trail > 0 ? seek(column, at_mid_hi, hi) : at_mid_hi;
        cells_read += 2 + (lead > 0) + (trail > 0);
        // Summed leading, trailing, whole: frames are bit-identical
        // only while this order of the double additions holds.
        double time = 0.0;
        time += static_cast<double>(before(column, at_mid_lo) -
                                    before(column, at_lo)) *
                lead_fraction;
        time += static_cast<double>(before(column, at_hi) -
                                    before(column, at_mid_hi)) *
                trail_fraction;
        time += static_cast<double>(before(column, at_mid_hi) -
                                    before(column, at_mid_lo));
        if (time > 0)
            sweep.occupancy.emplace_back(stateIds_[slot], time);
        // An adjacent next interval starts in leaf mid_hi.
        sweep.cursors[slot] = at_mid_hi;
    }
}

} // namespace index
} // namespace aftermath
