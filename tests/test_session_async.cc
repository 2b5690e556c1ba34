/**
 * @file
 * Tests of the asynchronous query plane: Session::submit() tickets,
 * cancellation and generation semantics (stale in-flight queries report
 * Cancelled), bit-identity between submitted queries and the
 * synchronous wrappers, the queued-cancel contract every query kind
 * shares, and SessionGroup's submitAll fan-out. Built with TSan in CI to keep the concurrency
 * race-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "filter/task_filter.h"
#include "index/summary_pyramid.h"
#include "render/framebuffer.h"
#include "render/timeline_renderer.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "session/session.h"
#include "session/session_group.h"
#include "trace/state.h"
#include "trace_builder.h"

namespace aftermath {
namespace session {
namespace {

constexpr std::uint32_t kExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);
constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);

/** Dense multi-CPU trace; @p scale varies values between variants. */
trace::Trace
denseTrace(std::uint32_t cpus = 6, std::uint32_t counters = 2,
           int samples = 1'500, std::int64_t scale = 1)
{
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(2, (cpus + 1) / 2));
    for (CounterId id = 0; id < counters; id++)
        tr.addCounterDescription({id, "ctr"});
    tr.addTaskType({0xa, "w"});
    Rng rng(42);
    for (CpuId c = 0; c < cpus; c++) {
        TimeStamp task_end = 100 + 40 * (c % 5) * scale;
        tr.addTaskInstance({c, 0xa, c, {0, task_end}});
        tr.cpu(c).addState({{0, task_end}, kExec, c});
        tr.cpu(c).addState(
            {{task_end, task_end + 50}, kIdle, kInvalidTaskInstance});
        for (CounterId id = 0; id < counters; id++) {
            TimeStamp t = 0;
            std::int64_t v = 0;
            for (int i = 0; i < samples; i++) {
                t += 1 + rng.nextBounded(3);
                v += (static_cast<std::int64_t>(rng.nextBounded(201)) -
                      100) * scale;
                tr.cpu(c).addCounterSample(id, {t, v});
            }
        }
    }
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/** The original serial interval-statistics scan, as ground truth. */
stats::IntervalStats
serialIntervalStats(const trace::Trace &tr, const TimeInterval &interval)
{
    stats::IntervalStats out;
    out.interval = interval;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        const auto &states = tr.cpu(c).states();
        trace::SliceRange slice = tr.cpu(c).stateSlice(interval);
        for (std::size_t i = slice.first; i < slice.last; i++)
            out.timeInState[states[i].state] +=
                states[i].interval.overlapDuration(interval);
    }
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        if (task.interval.overlaps(interval)) {
            out.tasksOverlapping++;
            if (interval.contains(task.interval.start))
                out.tasksStarted++;
        }
    }
    return out;
}

/** A gate that parks the engine's (sole) worker until released. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<bool> entered{false};

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }

    void
    block()
    {
        entered.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }
};

/**
 * Park the engine's (sole) worker behind @p gate, and wait until it is
 * parked: a worker still finishing earlier work would otherwise take a
 * later High submission ahead of the queued Normal gate task.
 */
void
occupyWorker(Session &session, const std::shared_ptr<Gate> &gate)
{
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([gate] { gate->block(); });
    });
    while (!gate->entered.load(std::memory_order_acquire))
        std::this_thread::yield();
}

TEST(CancellationToken, CopiesShareOneFlag)
{
    base::CancellationToken token;
    base::CancellationToken copy = token;
    EXPECT_FALSE(copy.cancelled());
    token.requestCancel();
    EXPECT_TRUE(copy.cancelled());
}

TEST(SessionAsync, SubmitIntervalStatsBitIdenticalToSyncAndSerial)
{
    trace::Trace tr = denseTrace();
    TimeInterval iv{10, 230};
    stats::IntervalStats expect = serialIntervalStats(tr, iv);

    for (unsigned workers : {1u, 4u}) {
        Session async_session = Session::view(tr);
        async_session.setConcurrency({workers});
        stats::IntervalStats got =
            async_session.submit(IntervalStatsQuery{iv}).take();

        Session sync_session = Session::view(tr);
        sync_session.setConcurrency({workers});
        const stats::IntervalStats &wrapper =
            sync_session.intervalStats(iv);

        EXPECT_EQ(got.interval, expect.interval) << workers;
        EXPECT_EQ(got.timeInState, expect.timeInState) << workers;
        EXPECT_EQ(got.tasksOverlapping, expect.tasksOverlapping);
        EXPECT_EQ(got.tasksStarted, expect.tasksStarted);
        EXPECT_EQ(wrapper.timeInState, expect.timeInState) << workers;
        EXPECT_EQ(wrapper.tasksOverlapping, expect.tasksOverlapping);
        EXPECT_EQ(wrapper.tasksStarted, expect.tasksStarted);
    }
}

TEST(SessionAsync, SubmitWithoutIntervalUsesTheCurrentView)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    session.setView({0, 90});
    stats::IntervalStats got =
        session.submit(IntervalStatsQuery{}).take();
    EXPECT_EQ(got.interval, TimeInterval(0, 90));
    EXPECT_EQ(got.timeInState,
              serialIntervalStats(tr, {0, 90}).timeInState);
}

TEST(SessionAsync, SubmitHistogramAndTaskListMatchSyncWrappers)
{
    trace::Trace tr = denseTrace();
    Session a = Session::view(tr);
    Session b = Session::view(tr);

    auto list_ticket = a.submit(TaskListQuery{});
    auto task_list = list_ticket.take();
    EXPECT_EQ(task_list, b.tasks());

    stats::Histogram async_h = a.submit(HistogramQuery{{}, 9}).take();
    stats::Histogram sync_h = b.histogram(9);
    ASSERT_EQ(async_h.numBins(), sync_h.numBins());
    EXPECT_EQ(async_h.rangeMin(), sync_h.rangeMin());
    EXPECT_EQ(async_h.rangeMax(), sync_h.rangeMax());
    for (std::uint32_t bin = 0; bin < sync_h.numBins(); bin++)
        EXPECT_EQ(async_h.count(bin), sync_h.count(bin)) << bin;
}

TEST(SessionAsync, SubmitCounterExtremaMatchesSync)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    Rng rng(3);
    TimeStamp max_t = tr.span().end;
    for (int trial = 0; trial < 10; trial++) {
        CpuId cpu = static_cast<CpuId>(rng.nextBounded(tr.numCpus()));
        TimeStamp start = rng.nextBounded(max_t);
        TimeInterval iv{start, start + 1 + rng.nextBounded(max_t / 2)};
        index::MinMax sync = session.counterExtrema(cpu, 1, iv);
        index::MinMax async =
            session.submit(CounterExtremaQuery{{iv}, cpu, 1}).take();
        ASSERT_EQ(async.valid, sync.valid);
        if (sync.valid) {
            EXPECT_EQ(async.min, sync.min);
            EXPECT_EQ(async.max, sync.max);
        }
    }
    // nullopt interval = the current view, like the sync overload.
    session.setView({0, 77});
    index::MinMax sync_view = session.counterExtrema(0, 0);
    index::MinMax async_view =
        session.submit(CounterExtremaQuery{{std::nullopt}, 0, 0}).take();
    EXPECT_EQ(async_view.valid, sync_view.valid);
    EXPECT_EQ(async_view.min, sync_view.min);
    EXPECT_EQ(async_view.max, sync_view.max);
}

TEST(SessionAsync, UnsampledCounterExtremaDoNotGrowIndexCache)
{
    trace::Trace tr = denseTrace(); // Counters 0 and 1 are sampled.
    Session session = Session::view(tr);
    const CounterIndexCache &cache = *session.sharedCaches().counterIndexes;
    const TimeInterval span = tr.span();

    std::vector<QueryTicket<index::MinMax>> tickets;
    for (CounterId counter = 2; counter < 10'002; counter++)
        tickets.push_back(
            session.submit(CounterExtremaQuery{{span}, 0, counter}));
    for (QueryTicket<index::MinMax> &ticket : tickets)
        EXPECT_FALSE(ticket.take().valid);
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 0u);
    EXPECT_EQ(cache.size(), 0u);

    for (int repeat = 0; repeat < 2; repeat++)
        EXPECT_TRUE(
            session.submit(CounterExtremaQuery{{span}, 0, 1}).take().valid);
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SessionAsync, CancelWhileQueuedReportsCancelledAndBuildsNothing)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr); // 1 worker by default.
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    auto ticket = session.submit(IntervalStatsQuery{TimeInterval{0, 50}});
    EXPECT_EQ(ticket.status(), QueryStatus::Pending);
    ticket.cancel();
    gate->release();
    EXPECT_EQ(ticket.wait(), QueryStatus::Cancelled);
    EXPECT_TRUE(ticket.done());
    // Nothing was published for the abandoned interval.
    EXPECT_EQ(session.cacheStats().intervalStats.builds, 0u);
}

TEST(SessionAsync, GenerationBumpCancelsStaleInFlightQueries)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    auto stale = session.submit(IntervalStatsQuery{TimeInterval{0, 60}});
    std::uint64_t old_generation = stale.generation();
    session.setView({100, 200}); // The user moved on: bump.
    gate->release();
    EXPECT_EQ(stale.wait(), QueryStatus::Cancelled);

    // A fresh submit under the new generation completes normally.
    auto fresh = session.submit(IntervalStatsQuery{TimeInterval{0, 60}});
    EXPECT_GT(fresh.generation(), old_generation);
    EXPECT_EQ(fresh.wait(), QueryStatus::Done);
    EXPECT_EQ(fresh.result().timeInState,
              serialIntervalStats(tr, {0, 60}).timeInState);
}

/** A submitted query of any kind, as the cancel-contract table sees it. */
struct SubmittedQuery
{
    std::function<QueryStatus()> status;
    std::function<void()> cancel;
    std::function<void(std::function<void(QueryStatus)>)> onComplete;
};

/** A table row's submit step: submit @p spec, type-erase the ticket. */
template <typename Spec>
std::function<SubmittedQuery(Session &)>
submitting(Spec spec)
{
    return [spec](Session &session) {
        auto ticket = session.submit(spec);
        return SubmittedQuery{
            [ticket] { return ticket.status(); },
            [ticket]() mutable { ticket.cancel(); },
            [ticket](std::function<void(QueryStatus)> fn) mutable {
                ticket.onComplete(std::move(fn));
            }};
    };
}

TEST(SessionAsync, QueuedQueriesCancelInstantly)
{
    trace::Trace tr = denseTrace();
    const TimeInterval span = tr.span();
    const QueryContext pixels{span, QueryPriority::Interactive,
                              Resolution::pixels(16)};
    // The Pixels rows must take the pyramid path.
    ASSERT_GT(Session::view(tr).sharedCaches().pyramids->granularityFor(
                  pixels.resolution, span),
              0u);
    const std::vector<
        std::pair<const char *, std::function<SubmittedQuery(Session &)>>>
        rows = {
            {"exact interval stats", submitting(IntervalStatsQuery{{span}})},
            {"pixels interval stats", submitting(IntervalStatsQuery{pixels})},
            {"task list", submitting(TaskListQuery{})},
            {"exact histogram", submitting(HistogramQuery{{span}, 8})},
            {"pixels histogram", submitting(HistogramQuery{pixels, 8})},
            {"counter extrema",
             submitting(CounterExtremaQuery{{span}, 0, 1})},
            {"render", submitting(TimelineRenderQuery{})},
            {"warm-up", submitting(WarmupQuery{})},
            {"pyramid build", submitting(PyramidBuildQuery{})},
            {"anomaly scan", submitting(AnomalyScanQuery{})},
        };
    for (const auto &[name, submit] : rows) {
        SCOPED_TRACE(name);
        Session session = Session::view(tr); // 1 worker by default.
        auto gate = std::make_shared<Gate>();
        occupyWorker(session, gate);

        SubmittedQuery query = submit(session);
        ASSERT_EQ(query.status(), QueryStatus::Pending);
        auto fired = std::make_shared<std::atomic<int>>(0);
        query.onComplete([fired](QueryStatus status) {
            EXPECT_EQ(status, QueryStatus::Cancelled);
            fired->fetch_add(1);
        });
        // Cancelled is observable, and the callback has run, while the
        // sole worker is still parked.
        query.cancel();
        EXPECT_EQ(query.status(), QueryStatus::Cancelled);
        EXPECT_EQ(fired->load(), 1);

        gate->release();
        session.queryEngine()->drain();
        EXPECT_EQ(query.status(), QueryStatus::Cancelled);
        EXPECT_EQ(fired->load(), 1);
        const SessionCacheStats stats = session.cacheStats();
        EXPECT_EQ(stats.counterIndex.builds, 0u);
        EXPECT_EQ(stats.intervalStats.builds, 0u);
        EXPECT_EQ(session.sharedCaches().pyramids->size(), 0u);
    }
}

TEST(SessionAsync, ViewBumpDoesNotCancelFilterKeyedQueries)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    // Task list and histogram are view-independent: panning must not
    // cancel them...
    auto list = session.submit(TaskListQuery{});
    auto histogram = session.submit(HistogramQuery{{}, 8});
    session.setView({10, 40});
    gate->release();
    EXPECT_EQ(list.wait(), QueryStatus::Done);
    EXPECT_EQ(histogram.wait(), QueryStatus::Done);
    EXPECT_EQ(list.result().size(), tr.taskInstances().size());

    // ...but a filter change does cancel them.
    auto filter_gate = std::make_shared<Gate>();
    occupyWorker(session, filter_gate);
    auto stale = session.submit(HistogramQuery{{}, 8});
    filter::FilterSet none_pass;
    none_pass.add(std::make_shared<filter::DurationFilter>(0, 1));
    session.setFilters(none_pass);
    filter_gate->release();
    EXPECT_EQ(stale.wait(), QueryStatus::Cancelled);
}

TEST(SessionAsync, WarmupTicketSurvivesGenerationBumps)
{
    trace::Trace tr = denseTrace(4, 2, 400);
    Session session = Session::view(tr);
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    auto warmup = session.submit(WarmupQuery{});
    session.setView({0, 150}); // Bumps the generation...
    gate->release();
    // ...but warm-up products are view-independent or keyed, so the
    // ticket still completes.
    EXPECT_EQ(warmup.wait(), QueryStatus::Done);
    EXPECT_EQ(warmup.result().indexesVisited, 4u * 2u);
    EXPECT_EQ(session.cacheStats().counterIndex.builds, 4u * 2u);

    // An explicit cancel is still honoured while queued.
    Session other = Session::view(tr);
    auto other_gate = std::make_shared<Gate>();
    occupyWorker(other, other_gate);
    auto cancelled = other.submit(WarmupQuery{});
    cancelled.cancel();
    other_gate->release();
    EXPECT_EQ(cancelled.wait(), QueryStatus::Cancelled);
}

TEST(SessionAsync, AsyncWarmupMatchesSyncWarmup)
{
    trace::Trace tr = denseTrace(4, 2, 400);
    Session sync_session = Session::view(tr);
    Session async_session = Session::view(tr);
    async_session.setConcurrency({3});

    Session::WarmupStats sync_stats = sync_session.warmup();
    Session::WarmupStats async_stats =
        async_session.submit(WarmupQuery{}).take();
    EXPECT_EQ(async_stats.indexesVisited, sync_stats.indexesVisited);
    EXPECT_EQ(async_stats.indexesBuilt, sync_stats.indexesBuilt);
    EXPECT_EQ(async_stats.workers, 3u);

    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (CounterId id = 0; id < 2; id++) {
            index::MinMax a = sync_session.counterExtrema(c, id, {5, 900});
            index::MinMax b =
                async_session.counterExtrema(c, id, {5, 900});
            ASSERT_EQ(a.valid, b.valid);
            if (a.valid) {
                EXPECT_EQ(a.min, b.min);
                EXPECT_EQ(a.max, b.max);
            }
        }
    }
}

/** Assert @p a and @p b hold the same pixels, naming the first
 *  differing one. */
void
expectSameFrame(const render::Framebuffer &a, const render::Framebuffer &b,
                const std::string &what)
{
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    const std::size_t n = static_cast<std::size_t>(a.width()) * a.height();
    const auto mismatch = std::mismatch(a.data(), a.data() + n, b.data());
    if (mismatch.first != a.data() + n) {
        const std::size_t at =
            static_cast<std::size_t>(mismatch.first - a.data());
        FAIL() << what << ": pixel (" << at % a.width() << ", "
               << at / a.width() << ") differs";
    }
}

/** Assert two renders of one frame counted the same work. */
void
expectSameRenderStats(const render::RenderStats &a,
                      const render::RenderStats &b, const std::string &what)
{
    EXPECT_EQ(a.rectOps, b.rectOps) << what;
    EXPECT_EQ(a.lineOps, b.lineOps) << what;
    EXPECT_EQ(a.eventsVisited, b.eventsVisited) << what;
    EXPECT_EQ(a.resolution.nodesTouched, b.resolution.nodesTouched) << what;
    EXPECT_EQ(a.resolution.exact, b.resolution.exact) << what;
    EXPECT_EQ(a.resolution.granularityNs, b.resolution.granularityNs)
        << what;
}

TEST(SessionAsync, SubmitRenderMatchesSynchronousRender)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    render::TimelineConfig config;

    render::Framebuffer sync_fb(80, 30);
    const render::RenderStats sync_stats = session.render(config, sync_fb);

    TimelineRenderQuery query;
    query.config = config;
    query.width = 80;
    query.height = 30;
    TimelineRenderResult result = session.submit(query).take();
    expectSameFrame(result.fb, sync_fb, "submit vs render");
    expectSameRenderStats(result.stats, sync_stats, "submit vs render");
    EXPECT_GT(result.stats.totalOps(), 0u);
}

/**
 * The render equality matrix: Session::render, submit(TimelineRenderQuery)
 * and a direct serial TimelineRenderer::render of the same effective
 * config draw byte-identical frames with equal counts, in every mode, at
 * Exact and Pixels resolution, with and without a task filter, at 1/2/4/8
 * workers. The 5-row frame stacks the 8 lanes on shared rows.
 */
TEST(SessionAsync, RenderPathsAgreeAcrossModesFiltersAndWorkers)
{
    test_support::RandomTraceOptions options;
    options.cpus = 8;
    options.statesPerCpu = 120;
    const trace::Trace tr = test_support::buildRandomTrace(11, options);
    const TimeInterval span = tr.span();
    const TimeInterval view{span.start + span.duration() / 8,
                            span.end - span.duration() / 5};
    filter::FilterSet alpha;
    alpha.add(std::make_shared<filter::TaskTypeFilter>(
        std::unordered_set<TaskTypeId>{0x1000}));

    constexpr std::uint32_t kWidth = 97;
    constexpr int kModes =
        static_cast<int>(render::TimelineMode::NumaHeatmap) + 1;
    std::size_t pyramid_frames = 0;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        Session session = Session::view(tr);
        session.setConcurrency({workers});
        session.setView(view);
        for (bool filtered : {false, true}) {
            session.setFilters(filtered ? alpha : filter::FilterSet());
            for (int m = 0; m < kModes; m++) {
                const auto mode = static_cast<render::TimelineMode>(m);
                for (bool pixels : {false, true}) {
                    for (std::uint32_t height : {64u, 5u}) {
                        const std::uint32_t width = kWidth;
                        const std::string what =
                            "workers " + std::to_string(workers) +
                            (filtered ? " filtered" : "") + " mode " +
                            std::to_string(m) +
                            (pixels ? " Pixels " : " Exact ") +
                            std::to_string(width) + "x" +
                            std::to_string(height);
                        const Resolution res = pixels
                            ? Resolution::pixels(width)
                            : Resolution{};
                        render::TimelineConfig config;
                        config.mode = mode;
                        config.resolution = res;

                        render::Framebuffer direct_fb(width, height);
                        render::TimelineConfig direct_config = config;
                        direct_config.view = view;
                        direct_config.taskFilter =
                            filtered ? &alpha : nullptr;
                        direct_config.pyramids = session.pyramids().get();
                        render::TimelineRenderer direct(tr);
                        direct.render(direct_config, direct_fb);

                        render::Framebuffer sync_fb(width, height);
                        const render::RenderStats sync_stats =
                            session.render(config, sync_fb);

                        TimelineRenderQuery query;
                        query.config.mode = mode;
                        query.context.resolution = res;
                        query.width = width;
                        query.height = height;
                        TimelineRenderResult async =
                            session.submit(query).take();

                        expectSameFrame(sync_fb, direct_fb,
                                        what + ": render vs direct");
                        expectSameFrame(async.fb, direct_fb,
                                        what + ": submit vs direct");
                        expectSameRenderStats(sync_stats, direct.stats(),
                                              what + ": render vs direct");
                        expectSameRenderStats(async.stats, direct.stats(),
                                              what + ": submit vs direct");
                        if (!direct.stats().resolution.exact)
                            pyramid_frames++;
                    }
                }
            }
        }
    }
    // Unfiltered State frames at Pixels take the pyramid path: one per
    // frame size and worker count.
    EXPECT_EQ(pyramid_frames, 2u * 4u);
}

/**
 * Accepts every task; its first call bumps @p domain's generation, as a
 * view change would, while the render that consults it draws a lane.
 */
class BumpOnFirstMatch : public filter::TaskFilter
{
  public:
    explicit BumpOnFirstMatch(std::shared_ptr<GenerationDomain> domain)
        : domain_(std::move(domain))
    {}

    bool
    matches(const trace::Trace &,
            const trace::TaskInstance &) const override
    {
        if (!bumped_.exchange(true))
            domain_->bumpGeneration();
        return true;
    }

    std::string describe() const override { return "bump on first match"; }

  private:
    std::shared_ptr<GenerationDomain> domain_;
    mutable std::atomic<bool> bumped_{false};
};

TEST(SessionAsync, RenderGoingStaleBetweenLanesPublishesNoFrame)
{
    test_support::RandomTraceOptions options;
    options.cpus = 8;
    const trace::Trace tr = test_support::buildRandomTrace(5, options);
    for (unsigned workers : {1u, 2u, 4u}) {
        Session session = Session::view(tr);
        session.setConcurrency({workers});
        BumpOnFirstMatch bump(session.generationDomain());
        TimelineRenderQuery query;
        query.config.taskFilter = &bump;
        query.width = 120;
        query.height = 64;
        auto ticket = session.submit(query);
        std::atomic<int> callbacks{0};
        std::atomic<bool> cancelled{false};
        ticket.onComplete([&](QueryStatus status) {
            cancelled.store(status == QueryStatus::Cancelled);
            callbacks.fetch_add(1);
        });
        EXPECT_EQ(ticket.wait(), QueryStatus::Cancelled)
            << "workers " << workers;
        // The callback runs after the terminal transition wakes wait().
        while (callbacks.load() == 0)
            std::this_thread::yield();
        EXPECT_EQ(callbacks.load(), 1);
        EXPECT_TRUE(cancelled.load());

        // The session no longer changes: a sync render draws it whole.
        render::Framebuffer fb(120, 64);
        const render::RenderStats stats = session.render({}, fb);
        render::Framebuffer direct_fb(120, 64);
        render::TimelineRenderer direct(tr);
        direct.render({}, direct_fb);
        expectSameFrame(fb, direct_fb, "after the cancelled render");
        expectSameRenderStats(stats, direct.stats(),
                              "after the cancelled render");
    }
}

TEST(SessionAsync, SyncRenderOnAnUnchangedSessionReturnsTheFullFrame)
{
    test_support::RandomTraceOptions options;
    options.cpus = 8;
    const trace::Trace tr = test_support::buildRandomTrace(9, options);
    render::TimelineConfig config;
    config.mode = render::TimelineMode::Heatmap;
    render::Framebuffer direct_fb(150, 40);
    render::TimelineRenderer direct(tr);
    direct.render(config, direct_fb);

    Session session = Session::view(tr);
    session.setConcurrency({2});
    // Background work on the same engine yields to the render's lanes
    // and never cancels them.
    auto scan = session.submit(AnomalyScanQuery{});
    auto warmup = session.submit(WarmupQuery{});
    for (int i = 0; i < 10; i++) {
        render::Framebuffer fb(150, 40);
        const render::RenderStats stats = session.render(config, fb);
        expectSameFrame(fb, direct_fb, "sync render " + std::to_string(i));
        expectSameRenderStats(stats, direct.stats(),
                              "sync render " + std::to_string(i));
    }
    scan.wait();
    warmup.wait();
}

TEST(SessionGroupAsync, VariantsShareTheGroupEngine)
{
    trace::Trace base = denseTrace(4, 2, 300, 1);
    trace::Trace variant = denseTrace(4, 2, 300, 3);
    SessionGroup group;
    group.add("base", Session::view(base));
    group.add("variant", Session::view(variant));
    EXPECT_EQ(group.session(0).queryEngine(), group.queryEngine());
    EXPECT_EQ(group.session(1).queryEngine(), group.queryEngine());
    group.setConcurrency({2});
    EXPECT_EQ(group.queryEngine()->workers(), 2u);
}

TEST(SessionGroupAsync, SubmitAllDeliversPerVariantResults)
{
    trace::Trace base = denseTrace(4, 2, 300, 1);
    trace::Trace variant = denseTrace(4, 2, 300, 3);
    SessionGroup group;
    group.add("base", Session::view(base));
    group.add("variant", Session::view(variant));
    group.setConcurrency({2});
    group.setView({0, 200});

    auto tickets = group.submitAll(IntervalStatsQuery{});
    ASSERT_EQ(tickets.size(), 2u);
    stats::IntervalStats got_base = tickets[0].take();
    stats::IntervalStats got_variant = tickets[1].take();
    EXPECT_EQ(got_base.timeInState,
              serialIntervalStats(base, {0, 200}).timeInState);
    EXPECT_EQ(got_variant.timeInState,
              serialIntervalStats(variant, {0, 200}).timeInState);

    // Overlapped group warm-up reports per-variant stats in order.
    std::vector<Session::WarmupStats> warm = group.warmup();
    ASSERT_EQ(warm.size(), 2u);
    for (const Session::WarmupStats &w : warm) {
        EXPECT_EQ(w.indexesVisited, 4u * 2u);
        EXPECT_EQ(w.workers, 2u);
    }
}

} // namespace
} // namespace session
} // namespace aftermath
