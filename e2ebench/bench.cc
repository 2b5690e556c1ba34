#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "daemon/protocol.h"
#include "trace/reader.h"

namespace e2e {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMib()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

// -- Samples --------------------------------------------------------------

double
Samples::sum() const
{
    double total = 0;
    for (double v : values_)
        total += v;
    return total;
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0 : sum() / static_cast<double>(size());
}

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double rank = std::ceil(q * static_cast<double>(sorted.size()));
    std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

// -- Report ---------------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::size_t n)
{
    if (!std::isfinite(value))
        value = 0.0;
    metrics_.push_back({name, value, unit, n});
}

void
Report::attempt(bool ok)
{
    attempted_++;
    if (!ok)
        failed_++;
}

void
Report::mismatch(const std::string &what)
{
    mismatches_++;
    std::fprintf(stderr, "correctness gate: %s\n", what.c_str());
}

void
Report::print() const
{
    for (const Metric &m : metrics_)
        std::printf("%-34s %14.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"frame_hash\": \"%016llx\", \"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(frameHash_));
    for (std::size_t i = 0; i < metrics_.size(); i++)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

// -- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer *tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_->enabled)
        return;
    std::int32_t parent =
        tracer_->open_.empty() ? -1 : tracer_->open_.back();
    index_ = static_cast<std::int32_t>(tracer_->spans_.size());
    tracer_->spans_.push_back({name, now(), 0.0, parent, tracer_->step});
    tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_->spans_[static_cast<std::size_t>(index_)].end = now();
    tracer_->open_.pop_back();
}

void
Tracer::absorb(const Tracer &other)
{
    auto offset = static_cast<std::int32_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += offset;
        spans_.push_back(s);
    }
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimeByLayer() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); i++)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;

    std::vector<std::pair<std::string, double>> layers;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        std::string name = spans_[i].name;
        std::string layer = name.substr(0, name.find('.'));
        auto it =
            std::find_if(layers.begin(), layers.end(),
                         [&](const auto &l) { return l.first == layer; });
        if (it == layers.end())
            layers.emplace_back(layer, self[i]);
        else
            it->second += self[i];
    }
    return layers;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "index\tname\tstart_s\tend_s\tparent\tstep\n";
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::snprintf(line, sizeof line, "%zu\t%s\t%.9f\t%.9f\t%d\t%d\n", i,
                      s.name, s.start - origin, s.end - origin, s.parent,
                      s.step);
        os << line;
    }
    return static_cast<bool>(os);
}

// -- Hashes ---------------------------------------------------------------

std::uint64_t
hashBytes(const std::vector<std::uint8_t> &bytes)
{
    // FNV-1a over 8-byte words, then the tail; plus the length.
    std::uint64_t h = 0xcbf29ce484222325ull ^ bytes.size();
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes.data() + i, 8);
        h = (h ^ word) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    for (; i < bytes.size(); i++)
        h = (h ^ bytes[i]) * 0x100000001b3ull;
    return h;
}

std::vector<std::uint8_t>
frameBytes(const render::Framebuffer &fb, const render::RenderStats &stats)
{
    daemon::RenderReply reply;
    reply.fb = fb;
    reply.stats = stats;
    return encoded<daemon::RenderReply, daemon::encodeRenderReply>(reply);
}

std::uint64_t
hashFrame(const render::Framebuffer &fb, const render::RenderStats &stats)
{
    return hashBytes(frameBytes(fb, stats));
}

std::uint64_t
countEvents(const trace::Trace &tr)
{
    std::uint64_t events = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        events += tr.cpu(c).states().size();
        for (CounterId id : tr.cpu(c).counterIds())
            events += tr.cpu(c).counterSamples(id).size();
        events += tr.cpu(c).discreteEvents().size();
        events += tr.cpu(c).commEvents().size();
    }
    return events;
}

// -- Opening a trace ------------------------------------------------------

namespace {

render::TimelineConfig
overviewConfig(const TimeInterval &span)
{
    render::TimelineConfig config;
    config.view = span;
    config.resolution = Resolution::pixels(kFrameWidth);
    return config;
}

} // namespace

bool
openLocal(const std::string &path, Tracer &tracer, LocalOpen &out,
          std::string &error)
{
    auto bench_span = tracer.span("bench.open");
    double t0 = now();
    trace::ReadResult read;
    {
        auto s = tracer.span("trace.read");
        trace::ReadOptions options;
        options.workers = kWorkers;
        read = trace::readTraceFile(path, options);
    }
    double t1 = now();
    if (!read.ok) {
        error = "cannot read " + path + ": " + read.error;
        return false;
    }
    {
        auto s = tracer.span("session.create");
        out.trace =
            std::make_shared<const trace::Trace>(std::move(read.trace));
        out.session = std::make_unique<Session>(out.trace);
        out.session->setConcurrency({kWorkers});
    }
    double t2 = now();
    {
        auto s = tracer.span("index.pyramid_build");
        auto ticket = out.session->submit(session::PyramidBuildQuery{});
        if (ticket.wait() != session::QueryStatus::Done) {
            error = "pyramid build cancelled";
            return false;
        }
    }
    double t3 = now();
    {
        auto s = tracer.span("index.warmup");
        session::WarmupPolicy policy;
        policy.intervalStats = false;
        policy.taskList = false;
        out.session->warmup(policy);
    }
    double t4 = now();
    {
        auto s = tracer.span("render.first_frame");
        out.frame = render::Framebuffer(kFrameWidth, kFrameHeight);
        out.frameStats = out.session->render(
            overviewConfig(out.trace->span()), out.frame);
    }
    double t5 = now();
    out.read = t1 - t0;
    out.pyramids = t3 - t2;
    out.warmup = t4 - t3;
    out.firstFrame = t5 - t4;
    out.total = t5 - t0;
    out.counterIndexBuilds = out.session->cacheStats().counterIndex.builds;
    return true;
}

daemon::TimelineRenderRequest
overviewRenderRequest(std::uint64_t trace_id, const TimeInterval &view)
{
    daemon::TimelineRenderRequest request;
    request.head.traceId = trace_id;
    request.view = view;
    request.width = kFrameWidth;
    request.height = kFrameHeight;
    request.resolution = Resolution::pixels(kFrameWidth);
    return request;
}

bool
openRemote(daemon::Client &client, const std::string &path, Tracer &tracer,
           RemoteOpen &out, std::string &error)
{
    auto bench_span = tracer.span("bench.open");
    double t0 = now();
    daemon::Reply<daemon::OpenTraceReply> opened;
    {
        auto s = tracer.span("daemon.open");
        daemon::OpenTraceRequest request;
        request.path = path;
        opened = client.openTrace(request);
    }
    double t1 = now();
    if (!opened.ok()) {
        error = "OpenTrace failed: " + opened.message;
        return false;
    }
    out.traceId = opened.value.traceId;
    out.span = opened.value.span;
    out.numCpus = opened.value.numCpus;
    {
        auto s = tracer.span("daemon.warmup");
        daemon::WarmupRequest request;
        request.head.traceId = out.traceId;
        request.policy.intervalStats = false;
        request.policy.taskList = false;
        auto warmed = client.warmup(request);
        if (!warmed.ok()) {
            error = "Warmup failed: " + warmed.message;
            return false;
        }
    }
    double t2 = now();
    {
        auto s = tracer.span("daemon.render");
        auto frame = client.timelineRender(
            overviewRenderRequest(out.traceId, out.span));
        if (!frame.ok()) {
            error = "TimelineRender failed: " + frame.message;
            return false;
        }
        out.frame = std::move(frame.value);
    }
    double t3 = now();
    out.open = t1 - t0;
    out.warmup = t2 - t1;
    out.firstFrame = t3 - t2;
    out.total = t3 - t0;
    return true;
}

// -- Step plans -----------------------------------------------------------

Deck::Deck(std::vector<unsigned> cards, std::uint64_t seed)
    : rng_(seed), deck_(std::move(cards)), next_(deck_.size())
{}

unsigned
Deck::draw()
{
    if (next_ == deck_.size()) {
        for (std::size_t i = deck_.size(); i > 1; i--)
            std::swap(deck_[i - 1], deck_[rng_.nextBounded(i)]);
        next_ = 0;
    }
    return deck_[next_++];
}

std::vector<unsigned>
cardsUpTo(unsigned n)
{
    std::vector<unsigned> cards(n);
    for (unsigned i = 0; i < n; i++)
        cards[i] = i;
    return cards;
}

double
stripCentre(unsigned strip, Rng &rng)
{
    return (strip + rng.nextDouble()) / kPositions;
}

TimeInterval
viewAt(const TimeInterval &span, unsigned level, double centre)
{
    TimeStamp length = span.duration();
    TimeStamp width = std::max<TimeStamp>(1, length >> level);
    double start = std::clamp(centre * static_cast<double>(length) -
                                  static_cast<double>(width) / 2,
                              0.0, static_cast<double>(length - width));
    TimeStamp begin = span.start + static_cast<TimeStamp>(start);
    return {begin, begin + width};
}

// -- Reporting ------------------------------------------------------------

void
Measured::provenance(const ResolutionInfo &info)
{
    answers++;
    if (!info.exact) {
        approxAnswers++;
        nodesPerQuery.add(static_cast<double>(info.nodesTouched));
    }
}

void
Measured::reopened(const LocalOpen &open, double file_mib, double events)
{
    reopenS.add(open.total);
    readMs.add(open.read * 1000);
    readMibS.add(file_mib / open.read);
    eventsPerS.add(events / open.read);
    pyramidMs.add(open.pyramids * 1000);
    warmupMs.add(open.warmup * 1000);
    firstFrameMs.add(open.firstFrame * 1000);
    counterIndexBuilds = open.counterIndexBuilds;
}

namespace {

double
ratio(const session::CacheCounters &c)
{
    return c.total() ? static_cast<double>(c.hits) /
                           static_cast<double>(c.total())
                     : 0.0;
}

/**
 * Amdahl's serial fraction implied by a 1- vs 2-worker time pair:
 * t2 = t1 * (s + (1 - s) / 2)  =>  s = 2 * t2 / t1 - 1. Negative when
 * the speed-up is superlinear, i.e. Amdahl's model does not fit.
 */
double
serialShare(double t1, double t2)
{
    return t1 > 0 ? 2.0 * t2 / t1 - 1.0 : 0.0;
}

/**
 * Serial shares of decode and pyramid build on @p path's trace. Only
 * the call is timed: freeing the previous trace or pyramids is not.
 */
void
reportSerialShares(const std::string &path, Report &report)
{
    constexpr int kReps = 3;
    double read_s[2] = {0, 0};
    double build_s[2] = {0, 0};
    std::shared_ptr<const trace::Trace> loaded;
    for (unsigned workers : {1u, 2u}) {
        Samples samples;
        for (int r = 0; r < kReps; r++) {
            trace::ReadOptions options;
            options.workers = workers;
            double t0 = now();
            trace::ReadResult read = trace::readTraceFile(path, options);
            samples.add(now() - t0);
            if (read.ok && !loaded)
                loaded = std::make_shared<const trace::Trace>(
                    std::move(read.trace));
        }
        read_s[workers - 1] = samples.median();
    }
    if (!loaded) {
        report.mismatch("trace unreadable in the serial-share probe");
        return;
    }
    for (unsigned workers : {1u, 2u}) {
        Samples samples;
        for (int r = 0; r < kReps; r++) {
            Session fresh(loaded);
            fresh.setConcurrency({workers});
            double t0 = now();
            fresh.submit(session::PyramidBuildQuery{}).wait();
            samples.add(now() - t0);
        }
        build_s[workers - 1] = samples.median();
    }
    report.add("trace.read_w1_ms", read_s[0] * 1000, "ms", kReps);
    report.add("trace.read_w2_ms", read_s[1] * 1000, "ms", kReps);
    report.add("trace.serial_share", serialShare(read_s[0], read_s[1]),
               "frac", kReps);
    report.add("index.build_w1_ms", build_s[0] * 1000, "ms", kReps);
    report.add("index.build_w2_ms", build_s[1] * 1000, "ms", kReps);
    report.add("index.build_serial_share",
               serialShare(build_s[0], build_s[1]), "frac", kReps);
}

/** Traced-versus-untraced step p50 difference, percent. */
double
tracingOverheadPct(const Samples &untraced, const Samples &traced)
{
    double base = untraced.median();
    return base > 0 ? 100.0 * (traced.median() - base) / base : 0.0;
}

} // namespace

void
reportMeasured(const RunArgs &args, const Measured &m, const Tracer &tracer,
               Report &report)
{
    if (!args.trace) {
        double step_s = m.stepMs.sum() / 1000.0;
        report.add("reopen_s", m.reopenS.median(), "s", m.reopenS.size());
        report.add("step_p50_ms", m.stepMs.median(), "ms", m.stepMs.size());
        report.add("step_p95_ms", m.stepMs.quantile(0.95), "ms",
                   m.stepMs.size());
        double steps = static_cast<double>(m.stepMs.size());
        report.add("steps_per_s", step_s > 0 ? steps / step_s : 0.0, "1/s",
                   m.stepMs.size());
        report.add("scan_ms", m.scanMs.median(), "ms", m.scanMs.size());
        report.add("rss_mib", peakRssMib(), "MiB");
        return;
    }

    auto timing = [&](const char *name, const Samples &s) {
        report.add(name, s.median(), "ms", s.size());
    };
    timing("trace.read_ms", m.readMs);
    report.add("trace.read_mib_s", m.readMibS.median(), "MiB/s",
               m.readMibS.size());
    report.add("trace.events_per_s", m.eventsPerS.median(), "1/s",
               m.eventsPerS.size());
    timing("index.pyramid_build_ms", m.pyramidMs);
    timing("index.warmup_ms", m.warmupMs);
    report.add("index.nodes_per_query", m.nodesPerQuery.mean(), "count",
               m.nodesPerQuery.size());
    report.add("index.approx_share",
               m.answers ? static_cast<double>(m.approxAnswers) /
                               static_cast<double>(m.answers)
                         : 0.0,
               "frac", m.answers);
    timing("render.first_frame_ms", m.firstFrameMs);
    timing("render.frame_ms", m.frameMs);
    report.add("render.events_visited", m.eventsVisited.mean(), "count",
               m.eventsVisited.size());
    report.add("render.rect_ops", m.rectOps.mean(), "count",
               m.rectOps.size());
    timing("stats.interval_ms", m.intervalMs);
    timing("stats.histogram_ms", m.histogramMs);
    timing("filter.apply_ms", m.filterMs);
    report.add("session.stats_memo_hit_ratio", ratio(m.statsMemo), "frac",
               m.statsMemo.total());
    report.add("session.stats_memo_lookups",
               static_cast<double>(m.statsMemo.total()), "count");
    report.add("session.renderer_reuse_ratio", ratio(m.renderer), "frac",
               m.renderer.total());
    report.add("session.renderer_leases",
               static_cast<double>(m.renderer.total()), "count");
    report.add("session.counter_index_builds",
               static_cast<double>(m.counterIndexBuilds), "count");
    timing("daemon.open_ms", m.daemonOpenMs);
    timing("daemon.render_rtt_ms", m.renderRttMs);
    timing("daemon.query_rtt_ms", m.queryRttMs);
    double reply_mib = m.replyBytes / 1048576.0;
    report.add("daemon.reply_mib_s",
               m.replySeconds > 0 ? reply_mib / m.replySeconds : 0.0,
               "MiB/s", m.renderRttMs.size());
    timing("daemon.wire_ms", m.wireMs);
    report.add("daemon.rejected", static_cast<double>(m.rejected), "count");
    report.add("daemon.protocol_errors",
               static_cast<double>(m.protocolErrors), "count");

    // Self time per layer, as a share of all top-level span time.
    double top = 0;
    for (const Tracer::Span &s : tracer.spans())
        if (s.parent < 0)
            top += s.end - s.start;
    auto layers = tracer.selfTimeByLayer();
    for (const char *layer :
         {"trace", "index", "render", "stats", "filter", "session",
          "daemon"}) {
        double self = 0;
        for (const auto &[name, seconds] : layers)
            if (name == layer)
                self = seconds;
        report.add(std::string(layer) + ".self_pct",
                   top > 0 ? 100.0 * self / top : 0.0, "%");
    }
    report.add("bench.tracing_overhead_pct",
               tracingOverheadPct(m.stepMs, m.tracedStepMs), "%",
               m.tracedStepMs.size());
    reportSerialShares(args.input, report);
    if (!args.spansPath.empty() && !tracer.write(args.spansPath))
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spansPath.c_str());
}

} // namespace e2e
