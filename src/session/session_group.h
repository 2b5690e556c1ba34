/**
 * @file
 * Aligned multi-trace comparison sessions: session::SessionGroup.
 *
 * The paper's A/B workflows (Fig 14's NUMA modes, Fig 19's branch fix)
 * analyze N trace variants of one application under the *same* filters
 * and view, and reason about differences. SessionGroup is that workflow
 * as an API: it owns one Session per labeled variant, fans aligned
 * state (filters, view, concurrency, warm-up) out to all of them, and
 * answers delta queries — interval-statistics deltas, duration
 * histograms on one shared bin grid, per-variant regression rows — plus
 * side-by-side and pixel-diff timeline rendering through one shared
 * framebuffer.
 *
 * Every variant added to a group is rewired onto one shared
 * QueryEngine (one worker pool), so group-wide work overlaps instead
 * of warming variants in sequence: warmup() submits every variant's
 * WarmupQuery before waiting on any of them, and submitAll(spec) fans
 * one query spec out to all variants and returns the tickets so
 * deltas compute concurrently. The shared engine's one worker set
 * starts on the first submission of any variant and lives as long as
 * the group. Each variant stays its own cancellation scope: the
 * group's setView() and setFilters() cancel every variant's stale
 * queries because they mutate every variant, while a mutation through
 * session(i) cancels only variant i's.
 *
 * Like Session, a group's driving side requires external
 * synchronization: one thread at a time. Tickets returned by
 * submitAll() are safe from any thread.
 */

#ifndef AFTERMATH_SESSION_SESSION_GROUP_H
#define AFTERMATH_SESSION_SESSION_GROUP_H

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "render/framebuffer.h"
#include "render/render_stats.h"
#include "render/timeline_renderer.h"
#include "session/compare.h"
#include "session/session.h"

namespace aftermath {
namespace session {

/** N labeled sessions over N trace variants with aligned state. */
class SessionGroup
{
  public:
    SessionGroup() = default;

    /**
     * Add a variant; returns its index. The label names the variant in
     * regression rows and diagnostics ("baseline", "numa-aware", ...).
     * The session is rewired onto the group's shared QueryEngine (its
     * previous engine, and any concurrency set on it, is dropped —
     * align parallelism through setConcurrency() on the group).
     * Adding invalidates references previously returned by session()
     * and label() — finish assembling the group before holding any.
     */
    std::size_t add(std::string label, Session session);

    /** Number of variants. */
    std::size_t size() const { return variants_.size(); }

    /**
     * The session of variant @p i (panics on out-of-range). The
     * reference stays valid until the next add().
     */
    Session &session(std::size_t i);
    const Session &session(std::size_t i) const;

    /** The label of variant @p i. */
    const std::string &label(std::size_t i) const;

    // -- Aligned shared state ----------------------------------------------

    /** Apply one filter set to every variant. */
    void setFilters(const filter::FilterSet &filters);

    /** Drop the filters of every variant. */
    void clearFilters();

    /** Apply one view interval to every variant. */
    void setView(const TimeInterval &view);

    /** Set the worker count of the pool every variant shares (0 = one
     *  per hardware thread). */
    void setConcurrency(unsigned workers);

    /**
     * Warm every variant up under @p policy, overlapped on the shared
     * engine pool: all WarmupQuery tickets are submitted before any is
     * waited on, so variants warm concurrently up to the pool's worker
     * count. Returns one WarmupStats per variant, in index order.
     */
    std::vector<Session::WarmupStats>
    warmup(const Session::WarmupPolicy &policy = Session::WarmupPolicy());

    // -- Asynchronous fan-out ----------------------------------------------

    /**
     * Submit @p spec to every variant and return the tickets in index
     * order, all executing concurrently on the shared pool. The spec
     * resolves per variant (a nullopt interval means each variant's own
     * current view — aligned by setView()).
     */
    template <typename Spec>
    auto
    submitAll(const Spec &spec)
        -> std::vector<decltype(std::declval<Session &>().submit(spec))>
    {
        std::vector<decltype(std::declval<Session &>().submit(spec))>
            tickets;
        tickets.reserve(variants_.size());
        for (Variant &v : variants_)
            tickets.push_back(v.session.submit(spec));
        return tickets;
    }

    /** The engine every variant shares (its worker pool). */
    const std::shared_ptr<QueryEngine> &queryEngine() const
    {
        return engine_;
    }

    // -- Delta queries -----------------------------------------------------

    /**
     * Interval-statistics delta of variant @p b minus variant @p a,
     * each over its current view.
     */
    compare::IntervalStatsDelta intervalStatsDelta(std::size_t a,
                                                   std::size_t b);

    /**
     * Duration histograms of every variant's filtered tasks on one
     * shared bin grid (aligned bins, comparable per-bin counts).
     */
    compare::PairedHistograms pairedHistograms(std::uint32_t num_bins);

    /**
     * One regression row per variant: duration distribution of the
     * filtered tasks and the least-squares fit of duration vs
     * @p counter increase per kcycle (the Fig 19 table).
     */
    std::vector<compare::RegressionRow> regressionRows(CounterId counter);

    /**
     * Cross-variant regression detection: what got worse in variant
     * @p variant relative to variant @p baseline (the paper's A/B
     * workflow, automated). Reports task types whose mean filtered
     * duration grew past options.slowdownRatio, idle phases of the
     * variant with no overlapping baseline idle phase, and counter
     * bursts of (cpu, counter) pairs quiet at the same time in the
     * baseline — ranked by compare::regressionRankedBefore() — plus
     * the variant-minus-baseline interval-statistics delta. The two
     * underlying anomaly scans overlap on the shared engine pool.
     * Deterministic: same sessions and options, same report.
     */
    compare::RegressionReport
    detectRegressions(std::size_t baseline, std::size_t variant,
                      const compare::RegressionOptions &options = {});

    // -- Rendering ---------------------------------------------------------

    /**
     * Render every variant's timeline stacked into @p fb: variant i
     * occupies the i-th horizontal band of height height/N (the
     * remainder pads the last band's bottom). Each variant renders with
     * its own session semantics (active filters and view injected when
     * the config names none). Returns the summed operation counts.
     */
    render::RenderStats renderSideBySide(
        const render::TimelineConfig &config, render::Framebuffer &fb);

    /**
     * Render the pixel diff of variants @p a and @p b into @p fb: where
     * both render the same color the pixel is dimmed to its gray level
     * (context), where they differ it is the highlight color (see
     * kDiffHighlight), making regressions and improvements pop. Returns
     * the summed operation counts of the two underlying renders.
     */
    render::RenderStats renderDiff(std::size_t a, std::size_t b,
                                   const render::TimelineConfig &config,
                                   render::Framebuffer &fb);

    /** Highlight color of differing pixels in renderDiff(). */
    static constexpr render::Rgba kDiffHighlight{255, 0, 170, 255};

  private:
    struct Variant
    {
        std::string label;
        Session session;
    };

    /** The variant at @p i; panics on out-of-range. */
    Variant &variant(std::size_t i);

    std::vector<Variant> variants_;

    /** One pool for every variant. */
    std::shared_ptr<QueryEngine> engine_ =
        std::make_shared<QueryEngine>(1);
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_SESSION_GROUP_H
