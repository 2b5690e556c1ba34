/**
 * @file
 * Tests of the two-level priority scheduler, the idle worker
 * lifecycle, and session renders: High tasks overtake queued Normal
 * tasks, background drainers yield to interactive work without
 * corrupting results (bit-identity vs a serial scan), the engine's
 * idle timeout parks-then-joins its workers and the next submission
 * restarts them, and sync and async renders draw the same frame, also
 * after a trace swap. Built with TSan and ASan in CI to keep the
 * concurrency race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/buffer.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "index/summary_pyramid.h"
#include "render/framebuffer.h"
#include "render/timeline_renderer.h"
#include "session/query.h"
#include "session/query_engine.h"
#include "session/session.h"
#include "session/session_group.h"
#include "stats/anomaly.h"
#include "stats/export.h"
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

void
expectStatsEqual(const stats::IntervalStats &a,
                 const stats::IntervalStats &b)
{
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.timeInState, b.timeInState);
    EXPECT_EQ(a.tasksOverlapping, b.tasksOverlapping);
    EXPECT_EQ(a.tasksStarted, b.tasksStarted);
}

/** Wire bytes of a ranked anomaly list: bit-for-bit comparison. */
std::vector<std::uint8_t>
bytesOf(const std::vector<stats::Anomaly> &findings)
{
    ByteWriter w;
    stats::encodeAnomalies(findings, w);
    return w.take();
}

/**
 * Every CPU's pyramid in @p built is already constructed and answers
 * occupancy queries exactly like a fresh serial build over the same
 * trace.
 */
void
expectPyramidsBuiltAndIdentical(const trace::Trace &tr,
                                index::TracePyramids &built)
{
    index::TracePyramids fresh(tr);
    const std::uint64_t leaves = fresh.leafCount();
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, leaves}, {leaves / 3, 2 * leaves / 3}, {leaves / 2, leaves}};
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        bool constructed = true;
        const index::SummaryPyramid &got = built.get(c, &constructed);
        EXPECT_FALSE(constructed) << "cpu " << c << " was left unbuilt";
        const index::SummaryPyramid &want = fresh.get(c);
        for (const auto &[first, last] : ranges) {
            std::uint64_t nodes = 0;
            std::map<std::uint32_t, TimeStamp> got_occ, want_occ;
            got.occupancy(first, last, got_occ, nodes);
            want.occupancy(first, last, want_occ, nodes);
            EXPECT_EQ(got_occ, want_occ) << "cpu " << c;
        }
    }
}

/** A gate that parks a worker until released; records entry. */
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

    /** Spin until a worker is inside block(). */
    void
    awaitEntered() const
    {
        while (!entered.load(std::memory_order_acquire))
            std::this_thread::yield();
    }
};

/** Thread-safe completion-order ledger. */
struct Ledger
{
    std::mutex mutex;
    std::vector<std::string> order;

    void
    record(const std::string &id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(id);
    }

    std::vector<std::string>
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return order;
    }
};

// -- ThreadPool priority semantics ---------------------------------------

TEST(ThreadPoolPriority, HighOvertakesQueuedNormal)
{
    base::ThreadPool pool(1);
    auto gate = std::make_shared<Gate>();
    auto ledger = std::make_shared<Ledger>();
    pool.submit([gate] { gate->block(); });
    gate->awaitEntered(); // The sole worker is parked: queues are ours.
    pool.submit([ledger] { ledger->record("normal-1"); });
    pool.submit([ledger] { ledger->record("normal-2"); });
    pool.submit([ledger] { ledger->record("high"); },
                base::TaskPriority::High);
    gate->release();
    pool.wait();
    EXPECT_EQ(ledger->snapshot(),
              (std::vector<std::string>{"high", "normal-1", "normal-2"}));
}

TEST(ThreadPoolPriority, HasHighPriorityWorkTracksQueuedHighTasks)
{
    base::ThreadPool pool(1);
    auto gate = std::make_shared<Gate>();
    pool.submit([gate] { gate->block(); });
    gate->awaitEntered();
    EXPECT_FALSE(pool.hasHighPriorityWork());
    pool.submit([] {}, base::TaskPriority::High);
    EXPECT_TRUE(pool.hasHighPriorityWork());
    gate->release();
    pool.wait();
    EXPECT_FALSE(pool.hasHighPriorityWork());
}

TEST(ThreadPoolPriority, TrackedHighTaskCancelsWhileQueued)
{
    base::ThreadPool pool(1);
    auto gate = std::make_shared<Gate>();
    pool.submit([gate] { gate->block(); });
    gate->awaitEntered();
    std::atomic<bool> ran{false};
    base::TaskHandle handle = pool.submitTracked(
        [&ran] { ran.store(true); }, base::TaskPriority::High);
    EXPECT_TRUE(handle.tryCancel());
    gate->release();
    pool.wait();
    EXPECT_FALSE(ran.load());
    EXPECT_TRUE(handle.skipped());
}

/** State of the deterministic yield handshake below. */
struct YieldState
{
    base::ThreadPool *pool = nullptr;
    std::shared_ptr<Gate> highQueued = std::make_shared<Gate>();
    std::shared_ptr<Ledger> ledger = std::make_shared<Ledger>();
    std::atomic<bool> started{false};
    std::atomic<bool> yielded{false};
    std::atomic<bool> sawHighWork{false};
};

/**
 * A chunked background task using exactly the executors' yield
 * protocol: on its first run it waits for the test to queue a High
 * task, polls hasHighPriorityWork(), re-submits its continuation at
 * Normal priority and returns; the continuation finishes the work.
 */
void
runYieldingTask(const std::shared_ptr<YieldState> &state)
{
    if (!state->yielded.load(std::memory_order_acquire)) {
        state->started.store(true, std::memory_order_release);
        state->highQueued->block(); // Until the High task is queued.
        state->sawHighWork.store(state->pool->hasHighPriorityWork(),
                                 std::memory_order_release);
        state->yielded.store(true, std::memory_order_release);
        state->pool->submit([state] { runYieldingTask(state); },
                            base::TaskPriority::Normal);
        return; // Worker freed; the High task runs next.
    }
    state->ledger->record("background-finish");
}

TEST(ThreadPoolPriority, YieldHandsWorkerToHighTaskThenResumes)
{
    base::ThreadPool pool(1);
    auto state = std::make_shared<YieldState>();
    state->pool = &pool;
    pool.submit([state] { runYieldingTask(state); });
    while (!state->started.load(std::memory_order_acquire))
        std::this_thread::yield();
    auto ledger = state->ledger;
    pool.submit([ledger] { ledger->record("interactive"); },
                base::TaskPriority::High);
    state->highQueued->release();
    pool.wait();
    EXPECT_TRUE(state->sawHighWork.load());
    EXPECT_EQ(ledger->snapshot(),
              (std::vector<std::string>{"interactive",
                                        "background-finish"}));
}

TEST(ThreadPoolPriority, IdleForTracksQuiescence)
{
    base::ThreadPool pool(2);
    // Fresh pools count as idle since construction.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GT(pool.idleFor().count(), 0);
    auto gate = std::make_shared<Gate>();
    pool.submit([gate] { gate->block(); });
    gate->awaitEntered();
    EXPECT_EQ(pool.idleFor().count(), 0);
    gate->release();
    pool.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GT(pool.idleFor().count(), 0);
}

// -- Query priorities on the engine --------------------------------------

TEST(QueryPriorityDefaults, SpecsCarryTheirRole)
{
    EXPECT_EQ(IntervalStatsQuery{}.context.priority,
              QueryPriority::Interactive);
    EXPECT_EQ(HistogramQuery{}.context.priority,
              QueryPriority::Interactive);
    EXPECT_EQ(TaskListQuery{}.context.priority,
              QueryPriority::Interactive);
    EXPECT_EQ(CounterExtremaQuery{}.context.priority,
              QueryPriority::Interactive);
    EXPECT_EQ(TimelineRenderQuery{}.context.priority,
              QueryPriority::Interactive);
    EXPECT_EQ(WarmupQuery{}.context.priority, QueryPriority::Background);
    EXPECT_EQ(TraceLoadQuery{}.context.priority,
              QueryPriority::Background);
}

TEST(QueryPriorityTest, InteractiveOvertakesBackgroundStorm)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr); // One worker by default.
    TimeInterval span = tr.span();

    // Park the sole worker, then stage: a Normal barrier, a storm of
    // Background scans, one Interactive query. On release the worker
    // must pop the Interactive query first — the storm stays queued
    // behind the barrier, so the ordering assertion is deterministic.
    auto gate1 = std::make_shared<Gate>();
    auto gate2 = std::make_shared<Gate>();
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([gate1] { gate1->block(); });
    });
    gate1->awaitEntered();
    session.queryEngine()->withPool([&](base::ThreadPool &pool) {
        pool.submit([gate2] { gate2->block(); });
    });

    std::vector<QueryTicket<stats::IntervalStats>> storm;
    for (TimeStamp k = 1; k <= 4; k++)
        storm.push_back(session.submit(IntervalStatsQuery{
            {TimeInterval{span.start, span.end - k},
             QueryPriority::Background}}));
    QueryTicket<stats::IntervalStats> interactive =
        session.submit(IntervalStatsQuery{
            TimeInterval{span.start + 1, span.end}});
    EXPECT_TRUE(session.queryEngine()->hasInteractiveWork());

    gate1->release();
    EXPECT_EQ(interactive.wait(), QueryStatus::Done);
    EXPECT_FALSE(session.queryEngine()->hasInteractiveWork());
    expectStatsEqual(
        interactive.result(),
        serialIntervalStats(tr, {span.start + 1, span.end}));
    // The worker went straight from the Interactive query to the
    // barrier: every Background scan is still waiting.
    for (const auto &ticket : storm)
        EXPECT_EQ(ticket.status(), QueryStatus::Pending);

    gate2->release();
    for (std::size_t k = 0; k < storm.size(); k++) {
        EXPECT_EQ(storm[k].wait(), QueryStatus::Done);
        expectStatsEqual(
            storm[k].result(),
            serialIntervalStats(
                tr, {span.start,
                     span.end - static_cast<TimeStamp>(k + 1)}));
    }
}

TEST(QueryPriorityTest, BackgroundYieldKeepsResultsBitIdentical)
{
    trace::Trace tr = denseTrace(16, 2, 2'000);
    TimeInterval span = tr.span();
    for (int rep = 0; rep < 3; rep++) {
        Session session = Session::view(tr);
        session.setConcurrency({2});
        TimeInterval interval{span.start,
                              span.end - 1 - static_cast<TimeStamp>(rep)};
        auto background = session.submit(
            IntervalStatsQuery{{interval, QueryPriority::Background}});
        // The other chunked Background jobs share the same yield path.
        auto scan = session.submit(AnomalyScanQuery{
            {std::nullopt, QueryPriority::Background}, {}});
        auto build = session.submit(
            PyramidBuildQuery{{std::nullopt, QueryPriority::Background}});
        // Interactive flood racing the background jobs: every arrival
        // is a potential yield point for the background drainers.
        std::vector<QueryTicket<index::MinMax>> flood;
        for (CpuId c = 0; c < tr.numCpus(); c++)
            flood.push_back(session.submit(CounterExtremaQuery{
                {span}, c, static_cast<CounterId>(c % 2)}));
        for (auto &ticket : flood)
            EXPECT_EQ(ticket.wait(), QueryStatus::Done);
        ASSERT_EQ(background.wait(), QueryStatus::Done);
        expectStatsEqual(background.result(),
                         serialIntervalStats(tr, interval));
        ASSERT_EQ(scan.wait(), QueryStatus::Done);
        EXPECT_EQ(bytesOf(scan.result()),
                  bytesOf(stats::scanForAnomalies(tr)));
        ASSERT_EQ(build.wait(), QueryStatus::Done);
        EXPECT_EQ(build.result().cpusBuilt, tr.numCpus());
        expectPyramidsBuiltAndIdentical(tr, *session.pyramids());
    }
}

TEST(QueryPriorityTest, BackgroundWarmupYieldsAndStillWarmsEverything)
{
    trace::Trace tr = denseTrace(12, 3);
    Session session = Session::view(tr);
    session.setConcurrency({2});
    auto warmup = session.submit(WarmupQuery{}); // Background default.
    std::vector<QueryTicket<stats::Histogram>> flood;
    for (unsigned i = 0; i < 8; i++)
        flood.push_back(session.submit(HistogramQuery{{}, 10u + i}));
    for (auto &ticket : flood)
        EXPECT_EQ(ticket.wait(), QueryStatus::Done);
    ASSERT_EQ(warmup.wait(), QueryStatus::Done);
    // Every sampled (cpu, counter) pair was visited despite the
    // yields; a re-warm-up finds nothing left to do.
    Session::WarmupStats again = session.warmup();
    EXPECT_EQ(again.indexesVisited, 0u);
    EXPECT_EQ(again.indexesSkipped,
              warmup.result().indexesVisited +
                  warmup.result().indexesSkipped);
}

// -- Idle lifecycle -------------------------------------------------------

/** Poll @p engine until its workers parked or @p deadline passed. */
bool
awaitParked(QueryEngine &engine,
            std::chrono::milliseconds deadline =
                std::chrono::milliseconds(5'000))
{
    auto start = std::chrono::steady_clock::now();
    while (engine.liveWorkers() != 0) {
        if (std::chrono::steady_clock::now() - start > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

TEST(IdleLifecycle, IdleTimeoutJoinsWorkersAndNextSubmitRestarts)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    TimeInterval span = tr.span();
    std::shared_ptr<QueryEngine> engine = session.queryEngine();
    EXPECT_EQ(engine->liveWorkers(), 0u); // Lazy: no query yet.

    engine->setIdleTimeout(std::chrono::milliseconds(25));
    const stats::IntervalStats first = session.intervalStats();
    expectStatsEqual(first, serialIntervalStats(tr, span));
    EXPECT_TRUE(awaitParked(*engine))
        << "idle timeout never joined the workers";

    // A long timeout keeps the restarted pool observable.
    engine->setIdleTimeout(std::chrono::seconds(600));
    auto ticket = session.submit(
        IntervalStatsQuery{TimeInterval{span.start, span.end - 1}});
    EXPECT_EQ(ticket.wait(), QueryStatus::Done);
    EXPECT_EQ(engine->liveWorkers(), 1u);
    expectStatsEqual(ticket.result(),
                     serialIntervalStats(tr, {span.start, span.end - 1}));
}

TEST(IdleLifecycle, ExplicitShutdownReleasesWorkersAndRestartsLazily)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    TimeInterval span = tr.span();
    std::shared_ptr<QueryEngine> engine = session.queryEngine();

    session.intervalStats();
    EXPECT_EQ(engine->liveWorkers(), 1u);
    engine->shutdown();
    EXPECT_EQ(engine->liveWorkers(), 0u);

    auto ticket = session.submit(
        IntervalStatsQuery{TimeInterval{span.start, span.end - 2}});
    EXPECT_EQ(ticket.wait(), QueryStatus::Done);
    EXPECT_EQ(engine->liveWorkers(), 1u);
    expectStatsEqual(ticket.result(),
                     serialIntervalStats(tr, {span.start, span.end - 2}));
}

TEST(IdleLifecycle, ShutdownDrainsQueuedBackgroundWorkFirst)
{
    trace::Trace tr = denseTrace();
    Session session = Session::view(tr);
    TimeInterval span = tr.span();
    auto ticket = session.submit(IntervalStatsQuery{
        {TimeInterval{span.start, span.end - 3},
         QueryPriority::Background}});
    session.queryEngine()->shutdown();
    // Drained, not abandoned: the ticket completed before the join.
    EXPECT_EQ(ticket.status(), QueryStatus::Done);
    expectStatsEqual(ticket.result(),
                     serialIntervalStats(tr, {span.start, span.end - 3}));
}

TEST(IdleLifecycle, GroupSharedEngineParksAndRestarts)
{
    trace::Trace tr_a = denseTrace(4, 2, 800, 1);
    trace::Trace tr_b = denseTrace(4, 2, 800, 3);
    SessionGroup group;
    group.add("a", Session::view(tr_a));
    group.add("b", Session::view(tr_b));
    group.setConcurrency({2});
    group.warmup();

    std::shared_ptr<QueryEngine> engine = group.queryEngine();
    EXPECT_GE(engine->liveWorkers(), 1u);
    engine->setIdleTimeout(std::chrono::milliseconds(25));
    EXPECT_TRUE(awaitParked(*engine))
        << "shared engine never parked its workers";

    engine->setIdleTimeout(std::chrono::seconds(600));
    TimeInterval span = tr_a.span();
    auto tickets = group.submitAll(
        IntervalStatsQuery{TimeInterval{span.start, span.end - 1}});
    ASSERT_EQ(tickets.size(), 2u);
    EXPECT_EQ(tickets[0].wait(), QueryStatus::Done);
    EXPECT_EQ(tickets[1].wait(), QueryStatus::Done);
    EXPECT_GE(engine->liveWorkers(), 1u);
    expectStatsEqual(
        tickets[0].result(),
        serialIntervalStats(tr_a, {span.start, span.end - 1}));
    expectStatsEqual(
        tickets[1].result(),
        serialIntervalStats(tr_b, {span.start, span.end - 1}));
}

// -- Session renders ------------------------------------------------------

void
expectFramesEqual(const render::Framebuffer &a,
                  const render::Framebuffer &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    for (std::uint32_t y = 0; y < a.height(); y++) {
        for (std::uint32_t x = 0; x < a.width(); x++) {
            ASSERT_EQ(a.pixel(x, y), b.pixel(x, y))
                << "pixel (" << x << ", " << y << ") differs";
        }
    }
}

TEST(SessionRenderTest, SyncAndAsyncRendersMatch)
{
    Session session(denseTrace(4, 1, 300));
    render::TimelineConfig config;

    render::Framebuffer fb_sync(64, 48);
    session.render(config, fb_sync);
    render::Framebuffer fb_again(64, 48);
    session.render(config, fb_again);
    expectFramesEqual(fb_sync, fb_again);

    TimelineRenderQuery query;
    query.config = config;
    query.width = 64;
    query.height = 48;
    auto ticket = session.submit(query);
    ASSERT_EQ(ticket.wait(), QueryStatus::Done);
    expectFramesEqual(fb_sync, ticket.result().fb);

    auto second = session.submit(query);
    ASSERT_EQ(second.wait(), QueryStatus::Done);
    expectFramesEqual(fb_sync, second.result().fb);
}

TEST(SessionRenderTest, TraceSwapRendersNewTrace)
{
    Session session(denseTrace(4, 1, 300, 1));
    render::TimelineConfig config;
    render::Framebuffer fb_old(48, 32);
    session.render(config, fb_old);

    auto fresh =
        std::make_shared<const trace::Trace>(denseTrace(4, 1, 300, 2));
    session.setTrace(fresh);
    render::Framebuffer fb_new(48, 32);
    session.render(config, fb_new);
    render::Framebuffer fb_direct(48, 32);
    render::TimelineRenderer direct(*fresh);
    direct.render(config, fb_direct);
    expectFramesEqual(fb_direct, fb_new);
}

// -- drain() vs concurrent submitters -------------------------------------

/**
 * drain() must neither race nor serialize against clients that are
 * still submitting: submitter threads (one session each, all on one
 * shared engine — the daemon's shape) push distinct-interval queries
 * while another thread drains in a tight loop. Every ticket must
 * complete Done with the exact serial result; TSan (CI) checks the
 * drain path's handoff of the pool handle. Before drain() copied the
 * pool handle out of the engine lock, this test parked every
 * submitter behind each quiescence wait.
 */
TEST(QueryPriorityTest, DrainRacesConcurrentSubmitters)
{
    trace::Trace tr = denseTrace(6, 2, 1'200);
    const TimeInterval span = tr.span();
    auto engine = std::make_shared<QueryEngine>(2);

    constexpr int kSubmitters = 4;
    constexpr int kQueriesEach = 32;
    std::atomic<bool> done{false};
    std::atomic<int> completed{0};

    std::thread drainer([&] {
        while (!done.load(std::memory_order_acquire))
            engine->drain();
    });

    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; t++) {
        submitters.emplace_back([&, t] {
            Session session = Session::view(tr);
            session.setQueryEngine(engine);
            std::vector<QueryTicket<stats::IntervalStats>> tickets;
            tickets.reserve(kQueriesEach);
            for (int i = 0; i < kQueriesEach; i++) {
                // Distinct per (thread, i): every query misses the
                // memo and really reaches the pool.
                const TimeStamp skew =
                    static_cast<TimeStamp>(t * kQueriesEach + i + 1);
                IntervalStatsQuery query;
                query.context.interval =
                    TimeInterval{span.start, span.end - skew};
                query.context.priority = (i % 2) != 0
                    ? QueryPriority::Background
                    : QueryPriority::Interactive;
                tickets.push_back(session.submit(query));
            }
            for (std::size_t i = 0; i < tickets.size(); i++) {
                EXPECT_EQ(tickets[i].wait(), QueryStatus::Done);
                const TimeStamp skew = static_cast<TimeStamp>(
                    t * kQueriesEach + static_cast<int>(i) + 1);
                expectStatsEqual(
                    tickets[i].result(),
                    serialIntervalStats(tr, {span.start, span.end - skew}));
                completed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &thread : submitters)
        thread.join();
    done.store(true, std::memory_order_release);
    drainer.join();
    EXPECT_EQ(completed.load(), kSubmitters * kQueriesEach);
    engine->drain(); // Final quiescence: nothing left behind.
}

/**
 * The harder interleaving: drain() overlapping pool *teardown* (idle
 * reaping via a tiny timeout plus explicit shutdown churn) while a
 * submitter keeps restarting the pool. The join may land on whichever
 * thread drops the last pool handle; results must stay exact.
 */
TEST(QueryPriorityTest, DrainRacesTeardownChurn)
{
    trace::Trace tr = denseTrace(4, 2, 600);
    const TimeInterval span = tr.span();
    auto engine = std::make_shared<QueryEngine>(2);
    engine->setIdleTimeout(std::chrono::milliseconds(1));

    std::atomic<bool> done{false};
    std::thread drainer([&] {
        while (!done.load(std::memory_order_acquire))
            engine->drain();
    });
    std::thread churner([&] {
        while (!done.load(std::memory_order_acquire)) {
            engine->shutdown();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    Session session = Session::view(tr);
    session.setQueryEngine(engine);
    for (int i = 0; i < 60; i++) {
        const TimeStamp skew = static_cast<TimeStamp>(i + 1);
        IntervalStatsQuery query;
        query.context.interval =
            TimeInterval{span.start, span.end - skew};
        auto ticket = session.submit(query);
        ASSERT_EQ(ticket.wait(), QueryStatus::Done);
        expectStatsEqual(
            ticket.result(),
            serialIntervalStats(tr, {span.start, span.end - skew}));
    }
    done.store(true, std::memory_order_release);
    drainer.join();
    churner.join();
}

} // namespace
} // namespace session
} // namespace aftermath
