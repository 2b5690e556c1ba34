/**
 * @file
 * The reference oracle of exact interval statistics, the exact
 * interval-restricted histogram, counter extrema and the filtered task
 * list: a naive serial computation over the raw trace arrays (no
 * cache, pyramid, index, memo or pool), compared by encoded bytes,
 * provenance included, with every path the query plane answers by —
 * exact queries over cold, half-built and fully built pyramids at
 * 1/2/4/8 workers, the synchronous wrappers, through the in-process
 * daemon, and racing a pyramid build (run under TSan in CI) — and,
 * with zero keys dropped, with Budget/Pixels answers over their
 * snapped interval.
 *
 * Traces: zero-duration states and tasks, zero-duration tasks on leaf
 * boundaries, tasks whose end wrapped below their start, and a span
 * ending at 2^64 - 1. Intervals: leaf-aligned, unaligned, inside one
 * leaf, zero-length, inverted and past the pyramid domain. Counter
 * queries also name unknown CPUs and unsampled counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/resolution.h"
#include "base/rng.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "filter/task_filter.h"
#include "index/counter_index.h"
#include "index/summary_pyramid.h"
#include "session/query.h"
#include "session/session.h"
#include "stats/export.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "trace_builder.h"

namespace aftermath {
namespace session {
namespace {

using test_support::buildRandomTrace;
using test_support::RandomTraceOptions;

using Bytes = std::vector<std::uint8_t>;

/**
 * The oracle: every state event the interval's slice holds (end past
 * its start, start before its end) adds its overlap under its state,
 * zero included; tasksOverlapping counts TimeInterval::overlaps() and
 * tasksStarted counts TimeInterval::contains(start).
 */
stats::IntervalStats
oracleStats(const trace::Trace &tr, const TimeInterval &interval)
{
    stats::IntervalStats out;
    out.interval = interval;
    for (CpuId c = 0; c < tr.numCpus(); c++)
        for (const trace::StateEvent &ev : tr.cpu(c).states())
            if (ev.interval.end > interval.start &&
                ev.interval.start < interval.end)
                out.timeInState[ev.state] +=
                    ev.interval.overlapDuration(interval);
    for (const trace::TaskInstance &task : tr.taskInstances()) {
        if (task.interval.overlaps(interval))
            out.tasksOverlapping++;
        if (interval.contains(task.interval.start))
            out.tasksStarted++;
    }
    return out;
}

/** The oracle histogram: tasks starting inside the interval, filtered. */
stats::Histogram
oracleHistogram(const trace::Trace &tr, const filter::FilterSet &filters,
                const TimeInterval &interval, std::uint32_t bins)
{
    std::vector<double> durations;
    for (const trace::TaskInstance &task : tr.taskInstances())
        if (interval.contains(task.interval.start) &&
            filters.matches(tr, task))
            durations.push_back(static_cast<double>(task.duration()));
    return stats::Histogram::fromValues(durations, bins);
}

/** The oracle extrema: the samples of @p counter in [a, b) on @p cpu. */
index::MinMax
oracleExtrema(const trace::Trace &tr, CpuId cpu, CounterId counter,
              const TimeInterval &interval)
{
    index::MinMax out;
    if (!tr.hasCpu(cpu))
        return out;
    for (const trace::CounterSample &sample :
         tr.cpu(cpu).counterSamples(counter)) {
        if (sample.time < interval.start || sample.time >= interval.end)
            continue;
        out.min = out.valid ? std::min(out.min, sample.value) : sample.value;
        out.max = out.valid ? std::max(out.max, sample.value) : sample.value;
        out.valid = true;
    }
    return out;
}

/** The oracle task list: a filtered scan in insertion order. */
std::vector<const trace::TaskInstance *>
oracleTasks(const trace::Trace &tr, const filter::FilterSet &filters)
{
    std::vector<const trace::TaskInstance *> out;
    for (const trace::TaskInstance &task : tr.taskInstances())
        if (filters.matches(tr, task))
            out.push_back(&task);
    return out;
}

Bytes
bytesOf(const stats::IntervalStats &s)
{
    ByteWriter w;
    stats::encodeIntervalStats(s, w);
    return w.take();
}

Bytes
bytesOf(const stats::Histogram &h)
{
    ByteWriter w;
    stats::encodeHistogram(h, w);
    return w.take();
}

Bytes
bytesOf(const index::MinMax &m)
{
    ByteWriter w;
    stats::encodeMinMax(m, w);
    return w.take();
}

Bytes
bytesOf(const std::vector<daemon::TaskRow> &rows)
{
    ByteWriter w;
    daemon::encodeTaskRows(rows, w);
    return w.take();
}

/** The wire rows of @p tasks. */
std::vector<daemon::TaskRow>
rowsOf(const std::vector<const trace::TaskInstance *> &tasks)
{
    std::vector<daemon::TaskRow> rows;
    for (const trace::TaskInstance *task : tasks)
        rows.push_back({task->id, task->type, task->cpu, task->interval});
    return rows;
}

/** @p s without its zero-valued state keys and its provenance. */
stats::IntervalStats
withoutZeroKeys(stats::IntervalStats s)
{
    std::erase_if(s.timeInState,
                  [](const auto &entry) { return entry.second == 0; });
    s.resolution = ResolutionInfo();
    return s;
}

std::string
describe(const TimeInterval &iv)
{
    return "[" + std::to_string(iv.start) + ", " + std::to_string(iv.end) +
           ")";
}

/** One named trace of the matrix, and its bytes for the daemon. */
struct Case
{
    std::string name;
    std::shared_ptr<const trace::Trace> trace;
    std::shared_ptr<const Bytes> bytes;
};

/**
 * Random traces with zero-duration states and tasks (one with a state
 * that has only zero-duration events), one with zero-duration and
 * boundary-hugging tasks on leaf boundaries, one with wrapped tasks,
 * and the top-of-time trace.
 */
std::vector<Case>
traceMatrix()
{
    std::vector<Case> out;
    auto add = [&](std::string name, const Bytes &bytes) {
        trace::ReadResult read = trace::readTrace(bytes);
        EXPECT_TRUE(read.ok) << name << ": " << read.error;
        out.push_back(
            {std::move(name),
             std::make_shared<const trace::Trace>(std::move(read.trace)),
             std::make_shared<const Bytes>(bytes)});
    };
    auto write = [](const trace::Trace &tr) {
        return trace::writeTrace(tr, trace::Encoding::Raw);
    };

    RandomTraceOptions zero;
    zero.cpus = 5;
    zero.statesPerCpu = 700;
    zero.zeroDurationProbability = 0.2;
    add("zero-duration states", write(buildRandomTrace(3, zero)));
    // A state with events but no time: only the scan records its key.
    zero.zeroDurationState = 9;
    add("zero-time state", write(buildRandomTrace(4, zero)));

    // Tasks on leaf boundaries; all inside the base span, so the leaf
    // layout is the base trace's.
    RandomTraceOptions dense;
    dense.cpus = 3;
    dense.statesPerCpu = 2000;
    trace::Trace base = buildRandomTrace(19, dense);
    const TimeStamp g0 = index::TracePyramids(base).leafGranularity();
    const TimeStamp span_end = base.span().end;
    Rng rng(19);
    std::vector<trace::TaskInstance> extra;
    TaskInstanceId next_id = base.taskInstances().size();
    const TaskTypeId type = base.taskInstances().front().type;
    for (int i = 0; i < 80; i++) {
        const TimeStamp at = rng.nextBounded(span_end / g0) * g0;
        const TimeStamp len = 1 + rng.nextBounded(3 * g0);
        const CpuId cpu = static_cast<CpuId>(rng.nextBounded(dense.cpus));
        extra.push_back({next_id++, type, cpu, {at, at}});
        extra.push_back(
            {next_id++, type, cpu, {at, std::min(at + len, span_end)}});
        extra.push_back({next_id++, type, cpu, {at > len ? at - len : 0, at}});
    }
    add("leaf-boundary tasks", write(test_support::withTasks(base, extra)));

    add("wrapped tasks",
        test_support::wrappedTaskTraceBytes(buildRandomTrace(61)));
    add("top of time", write(test_support::buildTopOfTimeTrace()));
    return out;
}

/**
 * Intervals over @p tr's pyramid domain: leaf-aligned, unaligned,
 * inside one leaf, zero-length, inverted, past the domain end and the
 * whole span.
 */
std::vector<TimeInterval>
intervalMatrix(const trace::Trace &tr, std::uint64_t seed)
{
    const index::TracePyramids pyramids(tr);
    const TimeStamp g0 = pyramids.leafGranularity();
    const std::uint64_t leaves = pyramids.leafCount();
    const TimeStamp dom = pyramids.domainEnd();
    Rng rng(seed);
    auto leaf = [&] { return rng.nextBounded(leaves) * g0; };
    std::vector<TimeInterval> out = {tr.span(), {0, dom}};
    for (int i = 0; i < 6; i++) {
        TimeStamp a = leaf();
        TimeStamp b = leaf();
        if (a > b)
            std::swap(a, b);
        out.push_back({a, b + g0});                 // Aligned.
        out.push_back({a + rng.nextBounded(g0), b + rng.nextBounded(g0)});
        out.push_back({a + 1, a + g0 - 1});         // Inside one leaf.
        out.push_back({a, a});                      // Zero-length, aligned.
        out.push_back({a + 1, a + 1});              // Zero-length.
        out.push_back({b + g0, a});                 // Inverted.
        out.push_back({b + g0 - 1, a + 1});         // Inverted, unaligned.
    }
    out.push_back({dom - 1, dom + 1});              // Past the domain.
    out.push_back({dom, dom + 5 * g0});
    out.push_back({dom / 2 + 1, ~TimeStamp{0}});
    out.push_back({~TimeStamp{0}, ~TimeStamp{0}});
    out.push_back({~TimeStamp{0}, 0});
    return out;
}

/** A filter keeping about half the tasks of every trace above. */
filter::FilterSet
shortTasks()
{
    filter::FilterSet filters;
    filters.add(std::make_shared<filter::DurationFilter>(0, 50));
    return filters;
}

/**
 * The (cpu, counter) pairs a counter query names on @p tr: every
 * counter sampled on each CPU plus one never sampled, on every CPU and
 * on two unknown ones.
 */
std::vector<std::pair<CpuId, CounterId>>
counterPairs(const trace::Trace &tr)
{
    constexpr CounterId kUnsampled = 999;
    std::vector<std::pair<CpuId, CounterId>> out;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (CounterId id : tr.cpu(c).counterIds())
            out.emplace_back(c, id);
        out.emplace_back(c, kUnsampled);
    }
    out.emplace_back(tr.numCpus(), 0);
    out.emplace_back(kInvalidCpu, 0);
    return out;
}

/** True if @p tr samples @p counter on @p cpu. */
bool
sampled(const trace::Trace &tr, CpuId cpu, CounterId counter)
{
    return tr.hasCpu(cpu) && !tr.cpu(cpu).counterSamples(counter).empty();
}

/** The task-filter sets the task-list oracle cycles through. */
std::vector<std::vector<daemon::FilterSpec>>
filterSpecs()
{
    daemon::FilterSpec short_tasks;
    short_tasks.kind = daemon::FilterSpec::Kind::Duration;
    short_tasks.min = 0;
    short_tasks.max = 50;
    daemon::FilterSpec cpus;
    cpus.kind = daemon::FilterSpec::Kind::Cpu;
    cpus.ids = {0, 2};
    return {{}, {short_tasks}, {short_tasks, cpus}, {cpus}, {}};
}

/** How many of @p tr's pyramids a session builds before querying. */
enum class Built
{
    None,
    Half,
    All,
};

TEST(QueryOracle, ExactMatchesOracleOverEveryPyramidStateAndWorkerCount)
{
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        const std::vector<TimeInterval> intervals = intervalMatrix(tr, 5);
        std::vector<Bytes> stats;
        std::vector<Bytes> hists;
        for (const TimeInterval &iv : intervals) {
            stats.push_back(bytesOf(oracleStats(tr, iv)));
            hists.push_back(
                bytesOf(oracleHistogram(tr, shortTasks(), iv, 12)));
        }
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            for (Built built : {Built::None, Built::Half, Built::All}) {
                Session session(c.trace);
                session.setConcurrency({workers});
                session.setFilters(shortTasks());
                if (built == Built::Half)
                    for (CpuId cpu = 0; cpu < tr.numCpus(); cpu += 2)
                        session.pyramids()->get(cpu);
                if (built == Built::All)
                    session.submit(PyramidBuildQuery{}).take();
                const std::size_t pyramids = session.pyramids()->size();
                for (std::size_t i = 0; i < intervals.size(); i++) {
                    const TimeInterval &iv = intervals[i];
                    EXPECT_EQ(bytesOf(session
                                          .submit(IntervalStatsQuery{{iv}})
                                          .take()),
                              stats[i])
                        << c.name << " " << describe(iv) << " workers "
                        << workers << " built " << static_cast<int>(built);
                    EXPECT_EQ(bytesOf(session
                                          .submit(HistogramQuery{{iv}, 12})
                                          .take()),
                              hists[i])
                        << c.name << " " << describe(iv) << " workers "
                        << workers;
                }
                // Exact queries read the pyramids there are; they never
                // build one.
                EXPECT_EQ(session.pyramids()->size(), pyramids) << c.name;
            }
        }
    }
}

TEST(QueryOracle, DaemonExactMatchesOracle)
{
    daemon::Server server(daemon::Server::Options{2, 16});
    daemon::Client client;
    std::string error;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;
    for (const Case &c : traceMatrix()) {
        daemon::OpenTraceRequest open;
        open.bytes = c.bytes;
        daemon::Reply<daemon::OpenTraceReply> opened =
            client.openTrace(open);
        ASSERT_TRUE(opened.ok()) << c.name << ": " << opened.message;
        const trace::Trace &tr = *c.trace;
        for (const TimeInterval &iv : intervalMatrix(tr, 7)) {
            daemon::IntervalStatsRequest request;
            request.head.traceId = opened.value.traceId;
            request.interval = iv;
            daemon::Reply<stats::IntervalStats> remote =
                client.intervalStats(request);
            ASSERT_TRUE(remote.ok()) << remote.message;
            EXPECT_EQ(bytesOf(remote.value), bytesOf(oracleStats(tr, iv)))
                << c.name << " " << describe(iv);

            daemon::HistogramRequest hist;
            hist.head.traceId = opened.value.traceId;
            hist.numBins = 9;
            hist.interval = iv;
            daemon::Reply<stats::Histogram> remote_hist =
                client.histogram(hist);
            ASSERT_TRUE(remote_hist.ok()) << remote_hist.message;
            EXPECT_EQ(bytesOf(remote_hist.value),
                      bytesOf(oracleHistogram(tr, filter::FilterSet(), iv,
                                              9)))
                << c.name << " " << describe(iv);
        }
        client.closeTrace(opened.value.traceId);
    }
}

TEST(QueryOracle, ExactRacingAPyramidBuildMatchesOracle)
{
    for (const Case &c : traceMatrix()) {
        const std::vector<TimeInterval> intervals =
            intervalMatrix(*c.trace, 11);
        std::vector<Bytes> expect;
        for (const TimeInterval &iv : intervals)
            expect.push_back(bytesOf(oracleStats(*c.trace, iv)));
        for (int round = 0; round < 3; round++) {
            Session session(c.trace);
            session.setConcurrency({4});
            auto build = session.submit(PyramidBuildQuery{});
            std::vector<QueryTicket<stats::IntervalStats>> tickets;
            for (const TimeInterval &iv : intervals)
                tickets.push_back(session.submit(IntervalStatsQuery{{iv}}));
            for (std::size_t i = 0; i < intervals.size(); i++)
                EXPECT_EQ(bytesOf(tickets[i].take()), expect[i])
                    << c.name << " " << describe(intervals[i]);
            EXPECT_EQ(build.take().cpusBuilt, c.trace->numCpus());
        }
    }
}

TEST(QueryOracle, BudgetAndPixelsMatchOracleOfSnappedInterval)
{
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        Session session(c.trace);
        session.setConcurrency({2});
        const index::TracePyramids &pyramids = *session.pyramids();
        Rng rng(13);
        for (const TimeInterval &iv : intervalMatrix(tr, 13)) {
            const std::vector<Resolution> resolutions = {
                Resolution::budget(pyramids.leafGranularity()),
                Resolution::budget(
                    1 + rng.nextBounded(std::max<TimeStamp>(iv.duration(), 1))),
                Resolution::pixels(1 + static_cast<std::uint32_t>(
                                           rng.nextBounded(64)))};
            for (const Resolution &res : resolutions) {
                const QueryContext context{iv, QueryPriority::Interactive,
                                           res};
                stats::IntervalStats got =
                    session.submit(IntervalStatsQuery{context}).take();
                stats::Histogram hist =
                    session.submit(HistogramQuery{context, 12}).take();
                const TimeStamp g = pyramids.granularityFor(res, iv);
                if (g == 0) {
                    // Exact fallback: the exact bytes.
                    EXPECT_EQ(bytesOf(got), bytesOf(oracleStats(tr, iv)))
                        << c.name << " " << describe(iv);
                    EXPECT_EQ(bytesOf(hist),
                              bytesOf(oracleHistogram(
                                  tr, filter::FilterSet(), iv, 12)))
                        << c.name << " " << describe(iv);
                    continue;
                }
                const TimeInterval snapped = pyramids.snap(iv, g);
                EXPECT_EQ(got.interval, snapped);
                EXPECT_EQ(got.resolution.exact, snapped == iv);
                EXPECT_EQ(got.resolution.granularityNs, g);
                EXPECT_EQ(bytesOf(withoutZeroKeys(got)),
                          bytesOf(withoutZeroKeys(oracleStats(tr, snapped))))
                    << c.name << " " << describe(iv) << " snapped to "
                    << describe(snapped);
                stats::Histogram expect = oracleHistogram(
                    tr, filter::FilterSet(), snapped, 12);
                expect.resolution = hist.resolution;
                EXPECT_EQ(bytesOf(hist), bytesOf(expect))
                    << c.name << " " << describe(iv);
                EXPECT_EQ(hist.resolution.exact, snapped == iv);
            }
        }
    }
}

TEST(QueryOracle, CounterExtremaMatchOracleAtEveryResolution)
{
    std::size_t valid_answers = 0;
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        const std::vector<TimeInterval> intervals = intervalMatrix(tr, 17);
        const auto pairs = counterPairs(tr);
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            Session session(c.trace);
            session.setConcurrency({workers});
            const index::TracePyramids &pyramids = *session.pyramids();
            Rng rng(17);
            for (const TimeInterval &iv : intervals) {
                for (const auto &[cpu, counter] : pairs) {
                    const std::string where =
                        c.name + " cpu " + std::to_string(cpu) +
                        " counter " + std::to_string(counter) + " " +
                        describe(iv) + " workers " + std::to_string(workers);
                    const index::MinMax oracle =
                        oracleExtrema(tr, cpu, counter, iv);
                    valid_answers += oracle.valid ? 1 : 0;
                    const Bytes expect = bytesOf(oracle);
                    EXPECT_EQ(bytesOf(session
                                          .submit(CounterExtremaQuery{
                                              {iv}, cpu, counter})
                                          .take()),
                              expect)
                        << where;
                    EXPECT_EQ(bytesOf(session.counterExtrema(cpu, counter,
                                                             iv)),
                              expect)
                        << where;
                    for (const Resolution &res :
                         {Resolution::budget(1 + rng.nextBounded(
                                                     std::max<TimeStamp>(
                                                         iv.duration(), 1))),
                          Resolution::pixels(1 + static_cast<std::uint32_t>(
                                                     rng.nextBounded(64)))}) {
                        const TimeStamp g = pyramids.granularityFor(res, iv);
                        const TimeInterval answered =
                            g == 0 ? iv : pyramids.snap(iv, g);
                        EXPECT_EQ(bytesOf(session
                                              .submit(CounterExtremaQuery{
                                                  {iv,
                                                   QueryPriority::Interactive,
                                                   res},
                                                  cpu, counter})
                                              .take()),
                                  bytesOf(oracleExtrema(tr, cpu, counter,
                                                        answered)))
                            << where << " snapped to " << describe(answered);
                    }
                }
            }
            // Unknown CPUs and unsampled counters built nothing: one
            // index per sampled pair at most.
            std::size_t sampled_pairs = 0;
            for (const auto &[cpu, counter] : pairs)
                sampled_pairs += sampled(tr, cpu, counter) ? 1 : 0;
            EXPECT_EQ(session.sharedCaches().counterIndexes->size(),
                      sampled_pairs)
                << c.name;
            EXPECT_EQ(session.cacheStats().counterIndex.builds,
                      sampled_pairs)
                << c.name;
        }
    }
    // The matrix holds sampled counters, not only invalid answers.
    EXPECT_GT(valid_answers, 1000u);
}

TEST(QueryOracle, TaskListMatchesOracleAcrossFilterChanges)
{
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            Session session(c.trace);
            session.setConcurrency({workers});
            int step = 0;
            for (const auto &specs : filterSpecs()) {
                session.setFilters(daemon::materializeFilters(specs));
                const auto expect = oracleTasks(tr, session.filters());
                const std::string where = c.name + " step " +
                                          std::to_string(step++) +
                                          " workers " +
                                          std::to_string(workers);
                // Cold submit, then the sync wrapper (memo hit), then a
                // submit answered from the memo.
                EXPECT_EQ(session.submit(TaskListQuery{}).take(), expect)
                    << where;
                EXPECT_EQ(session.tasks(), expect) << where;
                EXPECT_EQ(session.submit(TaskListQuery{}).take(), expect)
                    << where;
            }
            // A warm-up's task list is the same list.
            session.setFilters(daemon::materializeFilters(filterSpecs()[1]));
            WarmupPolicy policy;
            policy.counterIndexes = false;
            session.warmup(policy);
            EXPECT_EQ(session.tasks(), oracleTasks(tr, session.filters()))
                << c.name;
        }
    }
}

TEST(QueryOracle, DaemonCounterExtremaAndTaskListMatchOracle)
{
    daemon::Server server(daemon::Server::Options{2, 16});
    daemon::Client client;
    std::string error;
    ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;
    for (const Case &c : traceMatrix()) {
        daemon::OpenTraceRequest open;
        open.bytes = c.bytes;
        daemon::Reply<daemon::OpenTraceReply> opened =
            client.openTrace(open);
        ASSERT_TRUE(opened.ok()) << c.name << ": " << opened.message;
        const std::uint64_t id = opened.value.traceId;
        const trace::Trace &tr = *c.trace;
        const index::TracePyramids pyramids(tr);
        for (const TimeInterval &iv : intervalMatrix(tr, 19)) {
            for (const auto &[cpu, counter] : counterPairs(tr)) {
                for (const Resolution &res :
                     {Resolution(), Resolution::pixels(32)}) {
                    daemon::CounterExtremaRequest request;
                    request.head.traceId = id;
                    request.cpu = cpu;
                    request.counter = counter;
                    request.interval = iv;
                    request.resolution = res;
                    daemon::Reply<index::MinMax> remote =
                        client.counterExtrema(request);
                    ASSERT_TRUE(remote.ok()) << remote.message;
                    const TimeStamp g = pyramids.granularityFor(res, iv);
                    const TimeInterval answered =
                        g == 0 ? iv : pyramids.snap(iv, g);
                    EXPECT_EQ(bytesOf(remote.value),
                              bytesOf(oracleExtrema(tr, cpu, counter,
                                                    answered)))
                        << c.name << " cpu " << cpu << " counter "
                        << counter << " " << describe(iv);
                }
            }
        }
        for (const auto &specs : filterSpecs()) {
            ASSERT_TRUE(client.setFilters(id, specs).ok()) << c.name;
            daemon::TaskListRequest request;
            request.head.traceId = id;
            daemon::Reply<std::vector<daemon::TaskRow>> remote =
                client.taskList(request);
            ASSERT_TRUE(remote.ok()) << remote.message;
            EXPECT_EQ(bytesOf(remote.value),
                      bytesOf(rowsOf(oracleTasks(
                          tr, daemon::materializeFilters(specs)))))
                << c.name << " " << specs.size() << " filters";
        }
        client.closeTrace(id);
    }
}

TEST(QueryOracle, ExactCountsAZeroDurationTaskStartingAtTheIntervalStart)
{
    RandomTraceOptions opts;
    opts.statesPerCpu = 3000; // Leaves wider than one time unit.
    trace::Trace base = buildRandomTrace(5, opts);
    const TimeStamp g0 = index::TracePyramids(base).leafGranularity();
    ASSERT_GT(g0, 1u);
    const TimeStamp t = base.span().end / g0 / 2 * g0;
    const trace::TaskInstance zero{base.taskInstances().size(),
                                   base.taskInstances().front().type,
                                   0,
                                   {t, t}};
    auto tr = std::make_shared<const trace::Trace>(
        test_support::withTasks(base, {zero}));
    const TimeInterval interval{t, t + 4 * g0};
    const stats::IntervalStats expect = oracleStats(*tr, interval);
    // The task starts inside the interval and overlaps none of it.
    EXPECT_EQ(expect.tasksStarted,
              oracleStats(base, interval).tasksStarted + 1);
    EXPECT_EQ(expect.tasksOverlapping,
              oracleStats(base, interval).tasksOverlapping);

    Session session(tr);
    stats::IntervalStats exact =
        session.submit(IntervalStatsQuery{{interval}}).take();
    EXPECT_EQ(bytesOf(exact), bytesOf(expect));
    stats::IntervalStats budget =
        session
            .submit(IntervalStatsQuery{{interval,
                                        QueryPriority::Interactive,
                                        Resolution::budget(g0)}})
            .take();
    EXPECT_TRUE(budget.resolution.exact);
    EXPECT_EQ(budget.interval, interval);
    EXPECT_EQ(budget.tasksStarted, exact.tasksStarted);
    EXPECT_EQ(budget.tasksOverlapping, exact.tasksOverlapping);
}

} // namespace
} // namespace session
} // namespace aftermath
