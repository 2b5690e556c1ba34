#include "session/session_group.h"

#include <algorithm>
#include <map>
#include <utility>

#include "base/logging.h"
#include "base/string_util.h"
#include "stats/regression.h"

namespace aftermath {
namespace session {

std::size_t
SessionGroup::add(std::string label, Session session)
{
    variants_.push_back({std::move(label), std::move(session)});
    // Aligned variants share one pool, so group-wide warm-up and
    // submitAll overlap instead of parking one worker set per variant.
    variants_.back().session.setQueryEngine(engine_);
    return variants_.size() - 1;
}

SessionGroup::Variant &
SessionGroup::variant(std::size_t i)
{
    AFTERMATH_ASSERT(i < variants_.size(),
                     "variant %zu outside group of %zu", i,
                     variants_.size());
    return variants_[i];
}

Session &
SessionGroup::session(std::size_t i)
{
    return variant(i).session;
}

const Session &
SessionGroup::session(std::size_t i) const
{
    AFTERMATH_ASSERT(i < variants_.size(),
                     "variant %zu outside group of %zu", i,
                     variants_.size());
    return variants_[i].session;
}

const std::string &
SessionGroup::label(std::size_t i) const
{
    AFTERMATH_ASSERT(i < variants_.size(),
                     "variant %zu outside group of %zu", i,
                     variants_.size());
    return variants_[i].label;
}

void
SessionGroup::setFilters(const filter::FilterSet &filters)
{
    for (Variant &v : variants_)
        v.session.setFilters(filters);
}

void
SessionGroup::clearFilters()
{
    for (Variant &v : variants_)
        v.session.clearFilters();
}

void
SessionGroup::setView(const TimeInterval &view)
{
    for (Variant &v : variants_)
        v.session.setView(view);
}

void
SessionGroup::setConcurrency(unsigned workers)
{
    engine_->setWorkers(workers);
}

std::vector<Session::WarmupStats>
SessionGroup::warmup(const Session::WarmupPolicy &policy)
{
    // Submit everything before waiting on anything: variants warm
    // concurrently on the shared pool instead of in sequence. The
    // caller blocks on the results, so the synchronous form runs at
    // Interactive priority like Session::warmup().
    std::vector<QueryTicket<Session::WarmupStats>> tickets = submitAll(
        WarmupQuery{{std::nullopt, QueryPriority::Interactive}, policy});
    std::vector<Session::WarmupStats> out;
    out.reserve(tickets.size());
    for (QueryTicket<Session::WarmupStats> &ticket : tickets)
        out.push_back(ticket.take());
    return out;
}

compare::IntervalStatsDelta
SessionGroup::intervalStatsDelta(std::size_t a, std::size_t b)
{
    const stats::IntervalStats &stats_a = session(a).intervalStats();
    const stats::IntervalStats &stats_b = session(b).intervalStats();
    return compare::intervalStatsDelta(stats_a, stats_b);
}

compare::PairedHistograms
SessionGroup::pairedHistograms(std::uint32_t num_bins)
{
    std::vector<std::vector<double>> observations;
    observations.reserve(variants_.size());
    for (Variant &v : variants_) {
        std::vector<double> durations;
        const auto &tasks = v.session.tasks();
        durations.reserve(tasks.size());
        for (const trace::TaskInstance *task : tasks)
            durations.push_back(static_cast<double>(task->duration()));
        observations.push_back(std::move(durations));
    }
    return compare::pairedHistograms(observations, num_bins);
}

std::vector<compare::RegressionRow>
SessionGroup::regressionRows(CounterId counter)
{
    std::vector<compare::RegressionRow> rows;
    rows.reserve(variants_.size());
    for (Variant &v : variants_) {
        compare::RegressionRow row;
        row.label = v.label;
        auto increases = v.session.taskCounterIncreases(counter);
        std::vector<double> rates, durations;
        rates.reserve(increases.size());
        durations.reserve(increases.size());
        for (const metrics::TaskCounterIncrease &inc : increases) {
            rates.push_back(inc.ratePerKcycle());
            durations.push_back(static_cast<double>(inc.duration));
        }
        row.tasks = increases.size();
        row.meanDuration = stats::mean(durations);
        row.stddevDuration = stats::stddev(durations);
        row.fit = stats::linearRegression(rates, durations);
        rows.push_back(std::move(row));
    }
    return rows;
}

compare::RegressionReport
SessionGroup::detectRegressions(std::size_t baseline, std::size_t variant,
                                const compare::RegressionOptions &options)
{
    compare::RegressionReport report;
    report.baseline = baseline;
    report.variant = variant;

    // Kick both anomaly scans off first so they overlap on the shared
    // pool while the driving thread computes the stats delta and the
    // per-type means.
    AnomalyScanQuery scan;
    scan.options = options.scan;
    scan.context.priority = QueryPriority::Interactive;
    QueryTicket<std::vector<stats::Anomaly>> scan_a =
        session(baseline).submit(scan);
    QueryTicket<std::vector<stats::Anomaly>> scan_b =
        session(variant).submit(scan);

    report.delta = intervalStatsDelta(baseline, variant);

    // Task-type slowdowns over the filtered task lists: the mean
    // duration of every type present on both sides, compared directly.
    struct TypeAgg
    {
        double sum = 0.0;
        std::size_t n = 0;
    };
    std::map<TaskTypeId, TypeAgg> agg_a, agg_b;
    for (const trace::TaskInstance *task : session(baseline).tasks()) {
        TypeAgg &agg = agg_a[task->type];
        agg.sum += static_cast<double>(task->duration());
        agg.n++;
    }
    for (const trace::TaskInstance *task : session(variant).tasks()) {
        TypeAgg &agg = agg_b[task->type];
        agg.sum += static_cast<double>(task->duration());
        agg.n++;
    }
    const auto &types = session(variant).trace().taskTypes();
    for (const auto &[type, b] : agg_b) {
        auto it = agg_a.find(type);
        if (it == agg_a.end() || it->second.n == 0 || b.n == 0)
            continue; // A type absent on one side has no ratio.
        double mean_a =
            it->second.sum / static_cast<double>(it->second.n);
        double mean_b = b.sum / static_cast<double>(b.n);
        if (mean_a <= 0)
            continue;
        double ratio = mean_b / mean_a;
        if (ratio < options.slowdownRatio)
            continue;
        auto name_it = types.find(type);
        const char *name =
            name_it != types.end() ? name_it->second.name.c_str() : "?";
        compare::RegressionFinding finding;
        finding.kind = compare::RegressionFinding::Kind::TaskTypeSlowdown;
        finding.taskType = type;
        finding.severity = ratio;
        finding.description = strFormat(
            "task type %llu (%s): mean duration %.2fx baseline "
            "(%s -> %s)",
            static_cast<unsigned long long>(type), name, ratio,
            humanCycles(static_cast<TimeStamp>(mean_a)).c_str(),
            humanCycles(static_cast<TimeStamp>(mean_b)).c_str());
        report.findings.push_back(std::move(finding));
    }

    // Variant-side anomalies with no baseline counterpart: an idle
    // phase nothing overlaps, a burst of a pair quiet at that time.
    std::vector<stats::Anomaly> base_anomalies = scan_a.take();
    for (const stats::Anomaly &a : scan_b.take()) {
        bool matched = false;
        compare::RegressionFinding finding;
        switch (a.kind) {
        case stats::AnomalyKind::IdlePhase:
            for (const stats::Anomaly &base : base_anomalies)
                matched |= base.kind == stats::AnomalyKind::IdlePhase &&
                           base.interval.overlaps(a.interval);
            finding.kind = compare::RegressionFinding::Kind::NewIdlePhase;
            break;
        case stats::AnomalyKind::CounterBurst:
            for (const stats::Anomaly &base : base_anomalies)
                matched |=
                    base.kind == stats::AnomalyKind::CounterBurst &&
                    base.cpu == a.cpu && base.counter == a.counter &&
                    base.interval.overlaps(a.interval);
            finding.kind =
                compare::RegressionFinding::Kind::NewCounterBurst;
            break;
        case stats::AnomalyKind::DurationOutlier:
            // Individual outliers don't pair across variants (task ids
            // differ); the per-type means above cover slowdowns.
            matched = true;
            break;
        }
        if (matched)
            continue;
        finding.anomaly = a;
        finding.severity = a.severity;
        finding.description =
            strFormat("variant-only %s", a.description.c_str());
        report.findings.push_back(std::move(finding));
    }

    std::sort(report.findings.begin(), report.findings.end(),
              compare::regressionRankedBefore);
    return report;
}

render::RenderStats
SessionGroup::renderSideBySide(const render::TimelineConfig &config,
                               render::Framebuffer &fb)
{
    AFTERMATH_ASSERT(!variants_.empty(),
                     "side-by-side render of an empty group");
    std::uint32_t band_height = std::max<std::uint32_t>(
        1, fb.height() / static_cast<std::uint32_t>(variants_.size()));
    render::RenderStats total;
    for (std::size_t i = 0; i < variants_.size(); i++) {
        // The last band absorbs the integer-division remainder so the
        // whole target height is covered.
        std::uint32_t top =
            static_cast<std::uint32_t>(i) * band_height;
        if (top >= fb.height())
            break; // More variants than pixel rows.
        std::uint32_t height = i + 1 == variants_.size()
            ? fb.height() - top
            : band_height;
        render::Framebuffer band(fb.width(), height);
        const render::RenderStats &stats =
            variants_[i].session.render(config, band);
        fb.blit(band, 0, top);
        total.rectOps += stats.rectOps;
        total.lineOps += stats.lineOps;
        total.eventsVisited += stats.eventsVisited;
    }
    return total;
}

render::RenderStats
SessionGroup::renderDiff(std::size_t a, std::size_t b,
                         const render::TimelineConfig &config,
                         render::Framebuffer &fb)
{
    render::Framebuffer fb_a(fb.width(), fb.height());
    render::Framebuffer fb_b(fb.width(), fb.height());
    const render::RenderStats &stats_a = session(a).render(config, fb_a);
    render::RenderStats total = stats_a;
    const render::RenderStats &stats_b = session(b).render(config, fb_b);
    total.rectOps += stats_b.rectOps;
    total.lineOps += stats_b.lineOps;
    total.eventsVisited += stats_b.eventsVisited;

    for (std::uint32_t y = 0; y < fb.height(); y++) {
        for (std::uint32_t x = 0; x < fb.width(); x++) {
            render::Rgba pa = fb_a.pixel(x, y);
            if (pa == fb_b.pixel(x, y)) {
                // Rec. 601 luma: agreement renders as gray context.
                std::uint8_t luma = static_cast<std::uint8_t>(
                    (299 * pa.r + 587 * pa.g + 114 * pa.b) / 1000);
                fb.setPixel(x, y, {luma, luma, luma, 255});
            } else {
                fb.setPixel(x, y, kDiffHighlight);
            }
        }
    }
    return total;
}

} // namespace session
} // namespace aftermath
