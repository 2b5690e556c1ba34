/**
 * @file
 * Shared plumbing of the scripted-session benchmark (e2e_session):
 * clocks and sample sets, the metric report, the in-memory span
 * tracer, content hashes for the correctness gates, the seeded input
 * generators, and the open-to-first-frame paths every workload shares.
 *
 * Every layer is measured from outside, by timing calls into the
 * library's public API on one driving thread. See README.md for the
 * workloads and the per-layer -> end-to-end map.
 */

#ifndef AFTERMATH_E2EBENCH_BENCH_H
#define AFTERMATH_E2EBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/rng.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "render/framebuffer.h"
#include "render/render_stats.h"
#include "session/session.h"
#include "trace/trace.h"

namespace e2e {

using namespace aftermath;

/** Engine workers and decode workers of every measured session. */
inline constexpr unsigned kWorkers = 2;

/** The viewport every frame is rendered into. */
inline constexpr std::uint32_t kFrameWidth = 1920;
inline constexpr std::uint32_t kFrameHeight = 1080;

/** Seconds on the steady clock since an arbitrary epoch. */
double now();

/** Peak resident set of this process, MiB. */
double peakRssMib();

/** A set of timing or count samples. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    double sum() const;
    double mean() const;

    /** Nearest-rank quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    std::vector<double> values_;
};

/**
 * The metrics of one run. The last stdout line is one JSON object
 * (correct / attempted / failed / metrics); a table with sample
 * counts goes before it for people.
 */
class Report
{
  public:
    /** Add a metric; @p n is the sample count shown in the table. */
    void add(const std::string &name, double value, const std::string &unit,
             std::size_t n = 1);

    /** Count an operation; @p ok false counts it as failed. */
    void attempt(bool ok);

    /** Record a correctness-gate mismatch (fails the run). */
    void mismatch(const std::string &what);

    bool correct() const { return mismatches_ == 0; }

    /**
     * The first frame's hash, carried in the JSON line so run.py can
     * check it against the fresh processes' first frames.
     */
    void setFrameHash(std::uint64_t hash) { frameHash_ = hash; }

    /** Print the table and the final JSON line. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        std::size_t n;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t mismatches_ = 0;
    std::uint64_t frameHash_ = 0;
};

/**
 * In-memory span recorder for the traced run. Spans carry a name
 * ("layer.call"), start, end, parent span and step id; they are kept
 * in memory and written out when the run ends. One tracer per thread.
 * When disabled, scopes cost one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start;
        double end;
        std::int32_t parent;
        std::int32_t step;
    };

    /** RAII span; closes when destroyed. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::int32_t index_ = -1;
    };

    bool enabled = false;

    /** Step id stamped on spans opened from now on (-1 = none). */
    std::int32_t step = -1;

    Scope span(const char *name) { return Scope(this, name); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Append @p other's spans (re-parented into this list). */
    void absorb(const Tracer &other);

    /**
     * Self time (duration minus child spans) per layer, where the
     * layer is the span name up to its first dot; seconds.
     */
    std::vector<std::pair<std::string, double>> selfTimeByLayer() const;

    /** Write every span as TSV; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** The wire encoding of @p value through @p Encode (gate comparisons). */
template <typename T, void (*Encode)(const T &, ByteWriter &)>
std::vector<std::uint8_t>
encoded(const T &value)
{
    ByteWriter w;
    Encode(value, w);
    return w.take();
}

/** A frame's wire encoding (daemon::encodeRenderReply), stats included. */
std::vector<std::uint8_t> frameBytes(const render::Framebuffer &fb,
                                     const render::RenderStats &stats);

/** 64-bit content hash (gate comparisons). */
std::uint64_t hashBytes(const std::vector<std::uint8_t> &bytes);

/** hashBytes(frameBytes(fb, stats)). */
std::uint64_t hashFrame(const render::Framebuffer &fb,
                        const render::RenderStats &stats);

/** Wait for @p ticket and move its result out; false if cancelled. */
template <typename R>
bool
finish(session::QueryTicket<R> ticket, R &out)
{
    if (ticket.wait() != session::QueryStatus::Done)
        return false;
    out = ticket.take();
    return true;
}

// -- Inputs ---------------------------------------------------------------

/** The simulated seidel run (192 CPUs), varied by @p seed. */
trace::Trace makeSeidelTrace(std::uint64_t seed);

/**
 * A synthetic trace with few, long lanes: 24 CPUs, ~100k states each,
 * four task types, two counters on every CPU, plus one idle phase,
 * some slow tasks and a counter burst placed by @p seed.
 */
trace::Trace makeSyntheticTrace(std::uint64_t seed);

/** Events the reader materializes (states, samples, discrete, comm). */
std::uint64_t countEvents(const trace::Trace &tr);

// -- Opening a trace ------------------------------------------------------

/** A trace opened through to its first frame on a local session. */
struct LocalOpen
{
    std::shared_ptr<const trace::Trace> trace;
    std::unique_ptr<Session> session;
    render::Framebuffer frame{1, 1};
    render::RenderStats frameStats;

    double total = 0; ///< Open to first frame, seconds.
    double read = 0;
    double pyramids = 0;
    double warmup = 0;
    double firstFrame = 0;
    std::uint64_t counterIndexBuilds = 0;
};

/**
 * readTraceFile -> Session -> PyramidBuildQuery -> counter-index
 * warm-up -> first whole-span Pixels(1920) frame. False on a failed
 * read (with @p error).
 */
bool openLocal(const std::string &path, Tracer &tracer, LocalOpen &out,
               std::string &error);

/** A trace opened through a daemon connection to its first frame. */
struct RemoteOpen
{
    std::uint64_t traceId = 0;
    TimeInterval span;
    std::uint32_t numCpus = 0;
    daemon::RenderReply frame;

    double total = 0; ///< OpenTrace sent to first frame decoded, seconds.
    double open = 0;
    double warmup = 0;
    double firstFrame = 0;
};

/** OpenTrace by path -> Warmup -> first whole-span TimelineRender. */
bool openRemote(daemon::Client &client, const std::string &path,
                Tracer &tracer, RemoteOpen &out, std::string &error);

/** The whole-span Pixels(1920) render of the first frame. */
daemon::TimelineRenderRequest
overviewRenderRequest(std::uint64_t trace_id, const TimeInterval &view);

// -- Workloads ------------------------------------------------------------

struct RunArgs
{
    std::string workload;
    std::string input;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath; ///< Where the traced run writes its spans.
};

/**
 * What a run measured. Every workload fills the fields its layers
 * touch; the rest stay empty and report as zero, so every run prints
 * the same metric names.
 */
struct Measured
{
    // End to end (setup_s comes from fresh processes that run.py
    // starts).
    Samples reopenS; ///< Later opens in this process, seconds.
    Samples stepMs;  ///< Untraced pan / zoom / filter steps.
    Samples scanMs;  ///< Anomaly scans, submit to ranked list.

    // Per layer (traced run).
    Samples tracedStepMs; ///< Traced steps (tracing overhead).
    Samples readMs, readMibS, eventsPerS;
    Samples pyramidMs, warmupMs, firstFrameMs;
    Samples frameMs, eventsVisited, rectOps;
    Samples nodesPerQuery; ///< Pyramid nodes per approximate answer.
    std::uint64_t answers = 0, approxAnswers = 0;
    Samples intervalMs, histogramMs, filterMs;
    session::CacheCounters statsMemo, renderer;
    std::uint64_t counterIndexBuilds = 0;
    Samples daemonOpenMs, renderRttMs, queryRttMs, wireMs;
    double replyBytes = 0, replySeconds = 0;
    std::uint64_t rejected = 0, protocolErrors = 0;

    /** Count one answer's provenance toward index.approx_share. */
    void provenance(const ResolutionInfo &info);

    /** Record a later open (never the process's first). */
    void reopened(const LocalOpen &open, double file_mib, double events);
};

/** Minimum measured steps per run: p95 has ten samples beyond it. */
inline constexpr std::size_t kMinSteps = 200;

/**
 * Steps replayed before measuring starts, so renderer and allocator
 * caches are warm; they are counted as operations, not timed.
 */
inline constexpr std::size_t kWarmupSteps = 20;

/**
 * Deals @p cards in seeded, stratified order: every block of
 * cards.size() consecutive draws holds each card once, so the step mix
 * of a run (zoom levels, positions, step kinds) is fixed while its
 * order depends on the seed.
 */
class Deck
{
  public:
    Deck(std::vector<unsigned> cards, std::uint64_t seed);
    unsigned draw();

  private:
    Rng rng_;
    std::vector<unsigned> deck_;
    std::size_t next_ = 0;
};

/** Cards 0 .. n-1. */
std::vector<unsigned> cardsUpTo(unsigned n);

/**
 * Zoom levels of a drill-down, level l showing span / 2^l: one card
 * per level, from the whole span (0) to 1/16384 of it (14), where a
 * lane of the synthetic trace's 100k states shows a handful of them.
 */
inline const std::vector<unsigned> kZoomLevels = cardsUpTo(15);

/** Positions a zoom step jumps to: the centre of one of eight strips. */
inline constexpr unsigned kPositions = 8;

/** Centre (fraction of the span) of a jump to strip @p strip. */
double stripCentre(unsigned strip, Rng &rng);

/**
 * The view at zoom @p level (span / 2^level wide) centred at fraction
 * @p centre of the span, shifted to stay inside it.
 */
TimeInterval viewAt(const TimeInterval &span, unsigned level,
                    double centre);

void runIngestSeidel(const RunArgs &args, Report &report, Measured &m,
                     Tracer &tracer);
void runDrillExact(const RunArgs &args, Report &report, Measured &m,
                   Tracer &tracer);
void runServeOverview(const RunArgs &args, Report &report, Measured &m,
                      Tracer &tracer);

/**
 * Report @p m: the end-to-end metrics (with this process's peak
 * resident memory), or with args.trace the per-layer ones — including
 * self-time shares from @p tracer and the serial shares of trace
 * decode and pyramid build implied by their 1- vs 2-worker times on
 * the run's input.
 */
void reportMeasured(const RunArgs &args, const Measured &m,
                    const Tracer &tracer, Report &report);

} // namespace e2e

#endif // AFTERMATH_E2EBENCH_BENCH_H
