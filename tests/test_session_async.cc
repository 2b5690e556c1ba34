/**
 * @file
 * Tests of the asynchronous query plane: Session::submit() tickets,
 * cancellation and generation semantics (stale in-flight queries report
 * Cancelled), bit-identity between submitted queries and the
 * synchronous wrappers, thread-pool task handles, and SessionGroup's
 * submitAll fan-out. Built with TSan in CI to keep the concurrency
 * race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "render/framebuffer.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "session/session.h"
#include "session/session_group.h"
#include "trace/state.h"

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

TEST(TaskHandle, TrackedTaskRunsAndReportsDone)
{
    base::ThreadPool pool(2);
    std::atomic<bool> ran{false};
    base::TaskHandle handle = pool.submitTracked(
        [&] { ran.store(true, std::memory_order_relaxed); });
    handle.wait();
    EXPECT_TRUE(handle.done());
    EXPECT_FALSE(handle.skipped());
    EXPECT_TRUE(ran.load());
    // A finished task can no longer be cancelled.
    EXPECT_FALSE(handle.tryCancel());
}

TEST(TaskHandle, TryCancelWhileQueuedSkipsTheTask)
{
    base::ThreadPool pool(1);
    auto gate = std::make_shared<Gate>();
    pool.submit([gate] { gate->block(); });
    std::atomic<bool> ran{false};
    base::TaskHandle handle = pool.submitTracked(
        [&] { ran.store(true, std::memory_order_relaxed); });
    EXPECT_TRUE(handle.tryCancel());
    EXPECT_TRUE(handle.skipped());
    EXPECT_TRUE(handle.done());
    gate->release();
    pool.wait();
    EXPECT_FALSE(ran.load());
    EXPECT_FALSE(handle.tryCancel()); // Already skipped.
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

TEST(SessionAsync, AsyncResultWarmsTheSyncMemo)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    TimeInterval iv{5, 150};
    session.submit(IntervalStatsQuery{iv}).wait();
    EXPECT_EQ(session.cacheStats().intervalStats.builds, 1u);
    // The synchronous wrapper now hits: no rebuild.
    session.intervalStats(iv);
    EXPECT_EQ(session.cacheStats().intervalStats.builds, 1u);
    EXPECT_GE(session.cacheStats().intervalStats.hits, 1u);
    // And a second submit answers as an already-Done ticket.
    auto ticket = session.submit(IntervalStatsQuery{iv});
    EXPECT_EQ(ticket.status(), QueryStatus::Done);
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

TEST(SessionAsync, SingleTaskQueriesCancelInstantlyWhileQueued)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    // Tracked single-task queries dequeue on cancel: Cancelled is
    // observable before the worker is even free again.
    auto ticket = session.submit(TaskListQuery{});
    ticket.cancel();
    EXPECT_EQ(ticket.status(), QueryStatus::Cancelled);
    gate->release();
    session.queryEngine()->drain();
    EXPECT_EQ(session.cacheStats().taskList.builds, 0u);
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

TEST(SessionAsync, TraceSwapDoesNotLetStaleExecutorsPoisonCaches)
{
    trace::Trace before = denseTrace(4, 2, 300, 1);
    trace::Trace after = denseTrace(4, 2, 300, 3);
    Session session = Session::view(before);
    auto gate = std::make_shared<Gate>();
    occupyWorker(session, gate);

    // A generation-immune warm-up of the old trace is in flight when
    // the trace is swapped: it must complete against the *old* trace's
    // structures without leaking anything into the new trace's caches.
    auto warmup = session.submit(WarmupQuery{});
    auto old_stats = session.submit(IntervalStatsQuery{TimeInterval{0, 90}});
    session.setTrace(
        std::shared_ptr<const trace::Trace>(
            std::shared_ptr<const trace::Trace>(), &after));
    gate->release();
    EXPECT_EQ(warmup.wait(), QueryStatus::Done);
    old_stats.wait(); // Cancelled (stale) either way; must not publish.

    // The new trace's caches start cold and serve new-trace data.
    EXPECT_EQ(session.intervalStats({0, 90}).timeInState,
              serialIntervalStats(after, {0, 90}).timeInState);
    const trace::TaskInstance *first = after.taskInstances().data();
    const trace::TaskInstance *last =
        first + after.taskInstances().size();
    for (const trace::TaskInstance *task : session.tasks()) {
        EXPECT_GE(task, first);
        EXPECT_LT(task, last);
    }
    // And warm-up of the new trace is not skipped by stale bookkeeping.
    Session::WarmupStats rewarm = session.warmup();
    EXPECT_EQ(rewarm.indexesVisited, 4u * 2u);
    EXPECT_EQ(rewarm.indexesSkipped, 0u);
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

TEST(SessionAsync, SubmitRenderMatchesSynchronousRender)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    render::TimelineConfig config;

    render::Framebuffer sync_fb(80, 30);
    session.render(config, sync_fb);

    TimelineRenderQuery query;
    query.config = config;
    query.width = 80;
    query.height = 30;
    TimelineRenderResult result = session.submit(query).take();
    ASSERT_EQ(result.fb.width(), 80u);
    ASSERT_EQ(result.fb.height(), 30u);
    for (std::uint32_t y = 0; y < 30; y += 2) {
        for (std::uint32_t x = 0; x < 80; x += 3)
            ASSERT_EQ(result.fb.pixel(x, y), sync_fb.pixel(x, y))
                << "(" << x << ", " << y << ")";
    }
    EXPECT_GT(result.stats.totalOps(), 0u);
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
