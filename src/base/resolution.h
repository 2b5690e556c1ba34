/**
 * @file
 * The resolution request and provenance types of the query plane.
 *
 * Every interval-bearing query spec (session/query.h) carries a
 * Resolution describing how much error the caller tolerates in exchange
 * for answering from the summary pyramids (index/summary_pyramid.h)
 * instead of scanning events:
 *
 *  - Exact: scan events; bit-identical to the historical behaviour.
 *    This is the default, so existing callers are unaffected.
 *  - Budget{maxErrorNs}: the engine may snap the query interval
 *    outward to the coarsest pyramid granularity not exceeding
 *    maxErrorNs and answer the snapped interval exactly from a few
 *    summary cells per state and CPU. Each interval edge moves by
 *    less than the chosen granularity.
 *  - Pixels{width}: Budget with maxErrorNs = interval.duration() /
 *    width — one pixel column of error at the caller's viewport width,
 *    the natural request for rendering and per-viewport statistics.
 *
 * Results carry a ResolutionInfo so callers (and property tests) can
 * tell approximate answers from exact ones: whether the answer is
 * exact for the *requested* interval, how many summary cells were
 * read, and the granularity the interval was snapped to. A query
 * the engine could not serve from the pyramids (granularity finer than
 * the pyramid's leaves, a filter the pyramid cannot honour) falls back
 * to the exact scan and reports exact = true, granularityNs = 0.
 */

#ifndef AFTERMATH_BASE_RESOLUTION_H
#define AFTERMATH_BASE_RESOLUTION_H

#include <cstdint>

namespace aftermath {

/** How much error a query tolerates (Exact = none, the default). */
struct Resolution
{
    enum class Kind : std::uint8_t
    {
        Exact = 0,  ///< Scan events; historical bit-identical path.
        Budget = 1, ///< Snap edges by at most maxErrorNs each.
        Pixels = 2, ///< Budget derived from a viewport width.
    };

    Kind kind = Kind::Exact;

    /** Budget only: per-edge error tolerance in trace time units. */
    std::uint64_t maxErrorNs = 0;

    /** Pixels only: viewport width in pixel columns. */
    std::uint32_t width = 0;

    static Resolution exact() { return Resolution{}; }

    static Resolution budget(std::uint64_t max_error_ns)
    {
        Resolution r;
        r.kind = Kind::Budget;
        r.maxErrorNs = max_error_ns;
        return r;
    }

    static Resolution pixels(std::uint32_t width)
    {
        Resolution r;
        r.kind = Kind::Pixels;
        r.width = width;
        return r;
    }
};

/** Provenance of one query result: how it was actually answered. */
struct ResolutionInfo
{
    /**
     * True when the result is exact for the requested interval — the
     * exact-scan path, or a pyramid answer whose snapped interval
     * equals the request.
     */
    bool exact = true;

    /**
     * Summary cells read: one per (state column, range edge) lookup of
     * the pyramids' cumulative occupancy columns. 0 on the exact-scan
     * path; > 0 on every approximate answer over a CPU with state
     * time.
     */
    std::uint64_t nodesTouched = 0;

    /** Granularity the interval was snapped to (0 = no snapping). */
    std::uint64_t granularityNs = 0;
};

} // namespace aftermath

#endif // AFTERMATH_BASE_RESOLUTION_H
