/**
 * @file
 * The reference oracle of exact interval statistics, the exact
 * histogram with and without an interval, counter extrema and the
 * filtered task list: a naive serial computation over the raw trace
 * arrays (no cache, pyramid, index or pool), compared by encoded bytes,
 * provenance included, with every path the query plane answers by —
 * exact queries over cold, half-built and fully built pyramids at
 * 1/2/4/8 workers, the synchronous wrappers, through the in-process
 * daemon, and racing a pyramid build (run under TSan in CI) — and,
 * with zero keys dropped, with Budget/Pixels answers over their
 * snapped interval. Timeline frames have a per-pixel oracle of their
 * own (oracleFrame()), checked against sync, async and daemon-decoded
 * frames at 1/2/4/8 workers. The anomaly scan has one too
 * (oracleAnomalies()), checked by encoded bytes against the serial
 * scanner and the sync, Interactive, Background and daemon scans at
 * 1/2/4/8 workers, under two sets of thresholds and every filter step.
 *
 * Traces: zero-duration states and tasks, zero-duration tasks on leaf
 * boundaries, tasks whose end wrapped below their start, and a span
 * ending at 2^64 - 1. Intervals: leaf-aligned, unaligned, inside one
 * leaf, zero-length, inverted and past the pyramid domain. Counter
 * queries also name unknown CPUs and unsampled counters. The anomaly
 * scan also reads enough tasks for several outlier chunks, a task
 * spanning the whole trace, durations near 2^63, a type with fewer
 * than 10 tasks and one with no spread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/buffer.h"
#include "base/resolution.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "filter/task_filter.h"
#include "index/counter_index.h"
#include "index/trace_index.h"
#include "render/color.h"
#include "render/framebuffer.h"
#include "render/layout.h"
#include "render/timeline_renderer.h"
#include "session/query.h"
#include "session/session.h"
#include "stats/anomaly.h"
#include "stats/export.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "trace/numa.h"
#include "trace/reader.h"
#include "trace/state.h"
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

/** The oracle histogram of every task @p filters accept. */
stats::Histogram
oracleHistogram(const trace::Trace &tr, const filter::FilterSet &filters,
                std::uint32_t bins)
{
    std::vector<double> durations;
    for (const trace::TaskInstance &task : tr.taskInstances())
        if (filters.matches(tr, task))
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

/** A nonnegative integer of any size: 32-bit limbs, least first. */
using BigInt = std::vector<std::uint32_t>;

BigInt
bigOf(unsigned __int128 v)
{
    BigInt out;
    for (; v != 0; v >>= 32)
        out.push_back(static_cast<std::uint32_t>(v));
    return out;
}

BigInt
bigAdd(const BigInt &a, const BigInt &b)
{
    BigInt out;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < std::max(a.size(), b.size()) || carry; i++) {
        carry += std::uint64_t{i < a.size() ? a[i] : 0} +
                 std::uint64_t{i < b.size() ? b[i] : 0};
        out.push_back(static_cast<std::uint32_t>(carry));
        carry >>= 32;
    }
    return out;
}

BigInt
bigMul(const BigInt &a, const BigInt &b)
{
    std::vector<std::uint64_t> acc(a.size() + b.size() + 1, 0);
    for (std::size_t i = 0; i < a.size(); i++) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < b.size(); j++) {
            carry += acc[i + j] + std::uint64_t{a[i]} * b[j];
            acc[i + j] = carry & 0xffffffffu;
            carry >>= 32;
        }
        for (std::size_t k = i + b.size(); carry; k++) {
            carry += acc[k];
            acc[k] = carry & 0xffffffffu;
            carry >>= 32;
        }
    }
    BigInt out(acc.begin(), acc.end());
    while (!out.empty() && out.back() == 0)
        out.pop_back();
    return out;
}

/** -1, 0 or 1 as @p a is below, equal to or above @p b. */
int
bigCompare(BigInt a, BigInt b)
{
    while (!a.empty() && a.back() == 0)
        a.pop_back();
    while (!b.empty() && b.back() == 0)
        b.pop_back();
    if (a.size() != b.size())
        return a.size() < b.size() ? -1 : 1;
    for (std::size_t i = a.size(); i-- > 0;)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

/** @p a - @p b, for a >= b. */
BigInt
bigSub(const BigInt &a, const BigInt &b)
{
    BigInt out;
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < a.size(); i++) {
        std::int64_t d = std::int64_t{a[i]} -
                         (i < b.size() ? std::int64_t{b[i]} : 0) - borrow;
        borrow = d < 0 ? 1 : 0;
        out.push_back(static_cast<std::uint32_t>(d + (borrow << 32)));
    }
    return out;
}

/** @p v rounded to the nearest double, by strtod of its decimal form. */
double
bigToDouble(BigInt v)
{
    std::string digits;
    while (bigCompare(v, {}) != 0) {
        std::uint64_t rem = 0;
        for (std::size_t i = v.size(); i-- > 0;) {
            const std::uint64_t cur = (rem << 32) | v[i];
            v[i] = static_cast<std::uint32_t>(cur / 10);
            rem = cur % 10;
        }
        digits.insert(digits.begin(), static_cast<char>('0' + rem));
    }
    return digits.empty() ? 0.0 : std::strtod(digits.c_str(), nullptr);
}

/** The ranked order: severity descending, then the location. */
bool
oracleRankedBefore(const stats::Anomaly &a, const stats::Anomaly &b)
{
    return std::make_tuple(-a.severity, a.kind, a.interval.start,
                           a.interval.end, a.cpu, a.task, a.counter) <
           std::make_tuple(-b.severity, b.kind, b.interval.start,
                           b.interval.end, b.cpu, b.task, b.counter);
}

/**
 * One kind's raw oracle findings ranked, cut to maxPerKind and scaled
 * so the top one scores 1.
 */
void
oracleFinishKind(std::vector<stats::Anomaly> findings,
                 const stats::AnomalyScanOptions &options,
                 std::vector<stats::Anomaly> &out)
{
    std::sort(findings.begin(), findings.end(), oracleRankedBefore);
    if (findings.size() > options.maxPerKind)
        findings.resize(options.maxPerKind);
    if (!findings.empty() && findings.front().severity > 0) {
        const double top = findings.front().severity;
        for (stats::Anomaly &a : findings)
            a.severity /= top;
    }
    out.insert(out.end(), findings.begin(), findings.end());
}

/**
 * The oracle anomaly scan: one serial pass per detector over the raw
 * trace arrays, with no chunk, index or pool.
 *  - Idle phases: the Idle-state time of every CPU in each of
 *    numIntervals equal parts of @p scan (the last takes the rest);
 *    each run of non-empty parts idling at least idleWorkerFraction of
 *    the CPUs on average is one phase, widened by half a part on each
 *    side within @p scan, its severity the peak share of idle CPUs.
 *  - Duration outliers: per task type, the tasks that overlap @p scan
 *    and pass @p filters (null: all), if at least 10 with nonzero
 *    spread; each at least durationZScore population deviations above
 *    the type mean is one, its z the severity. From the exact sums n,
 *    S1 of d and S2 of d^2 (unbounded integers), a task's z is
 *    double(n*d - S1) / sqrt(double(n*S2 - S1^2)), each double the
 *    decimal form's strtod.
 *  - Counter bursts: per counter and CPU, the samples in
 *    [start, end]; the mean rate of their increasing steps, and each
 *    step at least burstFactor times it, its ratio the severity.
 * Each kind is ranked and cut by oracleFinishKind(), and the kinds
 * ranked together.
 */
std::vector<stats::Anomaly>
oracleAnomalies(const trace::Trace &tr,
                const stats::AnomalyScanOptions &options,
                const TimeInterval &scan, const filter::FilterSet *filters)
{
    if (scan.empty() || options.numIntervals == 0)
        return {};
    constexpr std::uint32_t kIdle =
        static_cast<std::uint32_t>(trace::CoreState::Idle);
    std::vector<stats::Anomaly> phases, outliers, bursts;

    const std::uint32_t parts = options.numIntervals;
    const TimeStamp width = scan.duration() / parts;
    auto part = [&](std::uint32_t i) {
        const TimeStamp start = scan.start + i * width;
        return TimeInterval{start, i + 1 == parts ? scan.end : start + width};
    };
    std::vector<TimeStamp> idle(parts, 0);
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (const trace::StateEvent &ev : tr.cpu(c).states()) {
            if (ev.state != kIdle || !ev.interval.overlaps(scan))
                continue;
            // From the part holding the event's first instant in the
            // scan, through the part holding its last.
            std::uint32_t i =
                width == 0
                    ? parts - 1
                    : static_cast<std::uint32_t>(std::min<TimeStamp>(
                          (std::max(ev.interval.start, scan.start) -
                           scan.start) / width,
                          parts - 1));
            for (; i < parts; i++) {
                idle[i] += ev.interval.overlapDuration(part(i));
                if (part(i).end >= ev.interval.end)
                    break;
            }
        }
    }
    const double cpus = static_cast<double>(tr.numCpus());
    const double threshold = options.idleWorkerFraction * cpus;
    std::vector<double> level(parts, -1.0); // -1: not in a phase.
    for (std::uint32_t i = 0; i < parts; i++) {
        if (part(i).empty())
            continue;
        const double v = static_cast<double>(idle[i]) /
                         static_cast<double>(part(i).duration());
        if (!(v < threshold))
            level[i] = v;
    }
    const TimeStamp half = width / 2;
    for (std::uint32_t i = 0; i < parts;) {
        if (level[i] < 0) {
            i++;
            continue;
        }
        const TimeStamp start = part(i).start;
        double peak = 0.0;
        for (; i < parts && level[i] >= 0; i++)
            peak = std::max(peak, level[i]);
        const TimeStamp end = part(i - 1).end;
        stats::Anomaly a;
        a.kind = stats::AnomalyKind::IdlePhase;
        a.interval = {start - scan.start >= half ? start - half : scan.start,
                      scan.end - end >= half ? end + half : scan.end};
        a.severity = peak / cpus;
        a.description = strFormat(
            "idle phase: up to %.0f of %u workers idle for %s", peak,
            tr.numCpus(), humanCycles(a.interval.duration()).c_str());
        phases.push_back(a);
    }

    for (const auto &[type, info] : tr.taskTypes()) {
        std::vector<const trace::TaskInstance *> tasks;
        for (const trace::TaskInstance &task : tr.taskInstances())
            if (task.type == type && task.interval.overlaps(scan) &&
                (!filters || filters->matches(tr, task)))
                tasks.push_back(&task);
        const BigInt n = bigOf(tasks.size());
        BigInt s1, s2;
        for (const trace::TaskInstance *task : tasks) {
            const BigInt d = bigOf(task->duration());
            s1 = bigAdd(s1, d);
            s2 = bigAdd(s2, bigMul(d, d));
        }
        const BigInt ns2 = bigMul(n, s2);
        const BigInt s1s1 = bigMul(s1, s1);
        if (tasks.size() < 10 || bigCompare(ns2, s1s1) == 0)
            continue;
        const double spread = std::sqrt(bigToDouble(bigSub(ns2, s1s1)));
        std::map<TimeStamp, double> z_of; // By duration.
        for (const trace::TaskInstance *task : tasks) {
            const TimeStamp d = task->duration();
            if (!z_of.count(d)) {
                const BigInt nd = bigMul(n, bigOf(d));
                z_of[d] = (bigCompare(nd, s1) >= 0
                               ? bigToDouble(bigSub(nd, s1))
                               : -bigToDouble(bigSub(s1, nd))) /
                          spread;
            }
            const double z = z_of[d];
            if (z < options.durationZScore)
                continue;
            stats::Anomaly a;
            a.kind = stats::AnomalyKind::DurationOutlier;
            a.interval = task->interval;
            a.cpu = task->cpu;
            a.task = task->id;
            a.severity = z;
            a.description = strFormat(
                "task %llu (%s) ran %s, %.1f sigma above its type mean",
                static_cast<unsigned long long>(task->id),
                info.name.c_str(), humanCycles(task->duration()).c_str(),
                z);
            outliers.push_back(a);
        }
    }

    for (const auto &[counter, name] : tr.counters()) {
        for (CpuId c = 0; c < tr.numCpus(); c++) {
            std::vector<trace::CounterSample> window;
            for (const trace::CounterSample &s :
                 tr.cpu(c).counterSamples(counter))
                if (s.time >= scan.start && s.time <= scan.end)
                    window.push_back(s);
            if (window.size() < 3)
                continue;
            // Value steps in 128 bits, so no pair of values overflows.
            auto step = [&](std::size_t i) {
                return static_cast<__int128>(window[i].value) -
                       window[i - 1].value;
            };
            __int128 total_dv = 0;
            unsigned __int128 total_dt = 0;
            for (std::size_t i = 1; i < window.size(); i++) {
                const TimeStamp dt = window[i].time - window[i - 1].time;
                if (dt > 0 && step(i) > 0) {
                    total_dv += step(i);
                    total_dt += dt;
                }
            }
            if (total_dt == 0)
                continue;
            const double mean_rate = static_cast<double>(total_dv) /
                                     static_cast<double>(total_dt);
            for (std::size_t i = 1; i < window.size(); i++) {
                const TimeStamp dt = window[i].time - window[i - 1].time;
                if (dt == 0 || step(i) <= 0)
                    continue;
                const double rate = static_cast<double>(step(i)) /
                                    static_cast<double>(dt);
                if (rate < options.burstFactor * mean_rate)
                    continue;
                stats::Anomaly a;
                a.kind = stats::AnomalyKind::CounterBurst;
                a.interval = {window[i - 1].time, window[i].time};
                a.cpu = c;
                a.counter = counter;
                a.severity = rate / mean_rate;
                a.description =
                    strFormat("cpu %u: %s rate %.1fx the run average", c,
                              name.c_str(), a.severity);
                bursts.push_back(a);
            }
        }
    }

    std::vector<stats::Anomaly> out;
    oracleFinishKind(phases, options, out);
    oracleFinishKind(outliers, options, out);
    oracleFinishKind(bursts, options, out);
    std::sort(out.begin(), out.end(), oracleRankedBefore);
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

Bytes
bytesOf(const std::vector<stats::Anomaly> &findings)
{
    ByteWriter w;
    stats::encodeAnomalies(findings, w);
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
    const TimeStamp g0 = index::TraceIndex(base).leafGranularity();
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
    const index::TraceIndex pyramids(tr);
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

/**
 * The trace matrix plus traces that give every detector work and its
 * edge cases: outliers of two types among enough tasks for several
 * outlier chunks; one task spanning the whole trace; durations near
 * 2^63 (their squares need 127 bits, and outliers tie in z) beside a
 * type of 9 tasks and one of 20 equal durations.
 */
std::vector<Case>
anomalyMatrix()
{
    std::vector<Case> out = traceMatrix();
    auto add = [&](std::string name, const trace::Trace &tr) {
        const Bytes bytes = trace::writeTrace(tr, trace::Encoding::Raw);
        trace::ReadResult read = trace::readTrace(bytes);
        EXPECT_TRUE(read.ok) << name << ": " << read.error;
        out.push_back(
            {std::move(name),
             std::make_shared<const trace::Trace>(std::move(read.trace)),
             std::make_shared<const Bytes>(bytes)});
    };

    RandomTraceOptions many;
    many.cpus = 8;
    many.statesPerCpu = 3000;
    many.taskProbability = 0.9;
    trace::Trace base = buildRandomTrace(29, many);
    Rng rng(29);
    std::vector<trace::TaskInstance> extra;
    TaskInstanceId next_id = base.taskInstances().size();
    for (int i = 0; i < 60; i++) {
        const TimeStamp at = rng.nextBounded(base.span().end);
        extra.push_back({next_id++, i % 3 ? 0x1000u : 0x2000u,
                         static_cast<CpuId>(rng.nextBounded(many.cpus)),
                         {at, at + 300 + rng.nextBounded(3000)}});
    }
    add("outliers among many tasks", test_support::withTasks(base, extra));

    trace::Trace small = buildRandomTrace(23);
    add("whole-span task",
        test_support::withTasks(
            small, {{small.taskInstances().size(), 0x2000, 1,
                     {0, small.span().end}}}));

    constexpr std::uint32_t kIdle =
        static_cast<std::uint32_t>(trace::CoreState::Idle);
    trace::Trace huge;
    huge.setTopology(trace::MachineTopology::uniform(1, 4));
    huge.addTaskType({0x1, "huge"});
    huge.addTaskType({0x2, "few"});
    huge.addTaskType({0x3, "flat"});
    TaskInstanceId id = 0;
    // 92 tasks near 2^63 and 8 outliers 2^62 longer, one cycle apart:
    // their z-scores round alike, so they tie and rank by start. The
    // shortest starts first, so a chunk that keeps only its longest
    // tasks misses the first 7.
    for (TimeStamp i = 0; i < 100; i++) {
        const TimeStamp d = (TimeStamp{1} << 63) + (i % 3) * 4096;
        const TimeStamp outlier = i >= 92 ? (TimeStamp{1} << 62) + i - 92 : 0;
        const TimeStamp start = i >= 92 ? (i - 92) * 10 : 100 + i * 1000;
        huge.addTaskInstance({id++, 0x1, 0, {start, start + d + outlier}});
    }
    for (TimeStamp i = 0; i < 9; i++)
        huge.addTaskInstance(
            {id++, 0x2, 1, {i * 100, i * 100 + (i == 4 ? 90000 : 50)}});
    for (TimeStamp i = 0; i < 20; i++)
        huge.addTaskInstance({id++, 0x3, 2, {i * 70, i * 70 + 60}});
    huge.cpu(3).addState({{0, TimeStamp{1} << 62}, kIdle,
                          kInvalidTaskInstance});
    std::string err;
    EXPECT_TRUE(huge.finalize(err)) << err;
    add("durations near 2^63", huge);
    return out;
}

/**
 * Scan windows over @p tr: the span, the whole pyramid domain, an
 * eighth of the span, random windows, a zero-length and an inverted
 * one (no findings), windows reaching past the domain end, and one
 * from a counter sample to another.
 */
std::vector<TimeInterval>
anomalyViews(const trace::Trace &tr, std::uint64_t seed)
{
    const TimeStamp dom = index::TraceIndex(tr).domainEnd();
    const TimeInterval span = tr.span();
    const TimeStamp eighth = span.duration() / 8;
    Rng rng(seed);
    std::vector<TimeInterval> out = {
        span, {0, dom}, {span.start + 3 * eighth, span.start + 4 * eighth}};
    for (int i = 0; i < 2; i++) {
        TimeStamp a = rng.nextBounded(dom);
        TimeStamp b = rng.nextBounded(dom);
        if (a > b)
            std::swap(a, b);
        out.push_back({a, b + 1});
        if (i == 0) {
            out.push_back({a, a});
            out.push_back({b + 1, a});
        }
    }
    out.push_back({dom - 1, dom + 1});
    out.push_back({dom / 2 + 1, ~TimeStamp{0}});
    // Edges on counter samples: a burst window is closed at both ends.
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        for (CounterId id : tr.cpu(c).counterIds()) {
            const auto &samples = tr.cpu(c).counterSamples(id);
            if (samples.size() >= 8) {
                out.push_back({samples[samples.size() / 4].time,
                               samples[samples.size() / 2].time});
                return out;
            }
        }
    }
    return out;
}

/** Scanner thresholds the oracle is checked under. */
std::vector<stats::AnomalyScanOptions>
anomalyOptions()
{
    stats::AnomalyScanOptions loose;
    loose.numIntervals = 37;
    loose.idleWorkerFraction = 0.25;
    loose.durationZScore = 2.0;
    loose.burstFactor = 2.0;
    loose.maxPerKind = 7;
    return {stats::AnomalyScanOptions(), loose};
}

/** An expected frame: its pixels and the operations drawing it takes. */
struct OracleFrame
{
    render::Framebuffer fb{1, 1};
    std::uint64_t rectOps = 0;
    bool pyramids = false;
};

constexpr std::uint32_t kExecState =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);

render::Rgba
laneBackground(CpuId cpu)
{
    return (cpu % 2) ? render::kBackgroundAlt : render::kBackground;
}

/** The task-coloured modes' colour of task @p id (nullopt: none). */
std::optional<render::Rgba>
oracleTaskColor(const trace::Trace &tr, const render::TimelineConfig &config,
                TaskInstanceId id)
{
    const trace::TaskInstance *task = tr.taskInstance(id);
    if (!task)
        return std::nullopt;
    switch (config.mode) {
    case render::TimelineMode::Heatmap:
        return render::heatmapShade(task->duration(), config.heatmapMin,
                                    config.heatmapMax, config.heatmapShades);
    case render::TimelineMode::TypeMap: {
        std::size_t index = 0;
        for (const auto &[type, info] : tr.taskTypes()) {
            if (type == task->type)
                return render::taskTypeColor(index);
            index++;
        }
        return render::taskTypeColor(0);
    }
    default: {
        const NodeId node =
            trace::summarizeTaskAccesses(
                tr, id, config.mode == render::TimelineMode::NumaWrite)
                .dominantNode();
        return node == kInvalidNode ? render::Rgba{120, 120, 120, 255}
                                    : render::numaNodeColor(node);
    }
    }
}

/** Share of a task's accessed bytes on nodes other than @p cpu's. */
double
oracleRemoteFraction(const trace::Trace &tr, TaskInstanceId id, CpuId cpu)
{
    const trace::NumaAccessSummary reads =
        trace::summarizeTaskAccesses(tr, id, false);
    const trace::NumaAccessSummary writes =
        trace::summarizeTaskAccesses(tr, id, true);
    const NodeId local = tr.topology().nodeOfCpu(cpu);
    const std::uint64_t total = reads.totalBytes() + writes.totalBytes();
    if (total == 0)
        return 0.0;
    std::uint64_t local_bytes = 0;
    if (local < reads.bytesPerNode.size())
        local_bytes += reads.bytesPerNode[local];
    if (local < writes.bytesPerNode.size())
        local_bytes += writes.bytesPerNode[local];
    return static_cast<double>(total - local_bytes) /
           static_cast<double>(total);
}

/**
 * The colour of one pixel of an exact frame: every event of the lane
 * is read, and the predominant state (State), the remote fraction
 * weighted by coverage (NumaHeatmap) or the predominant visible task
 * (the task-coloured modes) decides. Ties go to the first to reach the
 * winning time; filtered-out task executions count as uncovered.
 */
render::Rgba
oraclePixel(const trace::Trace &tr, const render::TimelineConfig &config,
            CpuId cpu, const TimeInterval &pixel)
{
    const render::Rgba background = laneBackground(cpu);
    if (pixel.empty())
        return background;
    auto visible = [&](TaskInstanceId id) {
        if (!config.taskFilter)
            return true;
        const trace::TaskInstance *task = tr.taskInstance(id);
        return task && config.taskFilter->matches(tr, *task);
    };
    std::map<std::uint32_t, TimeStamp> per_state;
    std::uint32_t best_state = 0;
    TaskInstanceId best_task = kInvalidTaskInstance;
    TimeStamp best = 0;
    double weight = 0.0, remote = 0.0;
    for (const trace::StateEvent &ev : tr.cpu(cpu).states()) {
        const TimeStamp overlap = ev.interval.overlapDuration(pixel);
        if (overlap == 0)
            continue;
        const bool exec =
            ev.state == kExecState && ev.task != kInvalidTaskInstance;
        if (exec && !visible(ev.task))
            continue;
        if (config.mode == render::TimelineMode::State) {
            TimeStamp &time = per_state[ev.state];
            time += overlap;
            if (time > best) {
                best = time;
                best_state = ev.state;
            }
        } else if (!exec) {
            continue;
        } else if (config.mode == render::TimelineMode::NumaHeatmap) {
            weight += static_cast<double>(overlap);
            remote += static_cast<double>(overlap) *
                      oracleRemoteFraction(tr, ev.task, cpu);
        } else if (overlap > best) {
            best = overlap;
            best_task = ev.task;
        }
    }
    switch (config.mode) {
    case render::TimelineMode::State:
        return best == 0 ? background : render::stateColor(best_state);
    case render::TimelineMode::NumaHeatmap:
        return weight == 0.0 ? background
                             : render::numaHeatShade(remote / weight);
    default:
        if (best_task == kInvalidTaskInstance)
            return background;
        return oracleTaskColor(tr, config, best_task).value_or(background);
    }
}

/**
 * The bands of one pyramid column: the column's occupancy recomputed
 * from the events (naiveOccupancyOver), each state's share of the lane
 * height in state order, rows by largest-remainder rounding of the
 * covered share, and lane background below.
 */
std::vector<std::pair<std::uint32_t, render::Rgba>>
oracleBands(const trace::Trace &tr, CpuId cpu, TimeStamp g0,
            TimeStamp domain_end, const TimeInterval &pixel,
            std::uint32_t height)
{
    std::vector<std::pair<std::uint32_t, render::Rgba>> out;
    if (pixel.empty()) {
        out.emplace_back(height, laneBackground(cpu));
        return out;
    }
    const auto occupancy =
        test_support::naiveOccupancyOver(tr, cpu, g0, domain_end, pixel);
    const double total = static_cast<double>(pixel.duration());
    const double lane = static_cast<double>(height);
    std::vector<double> exact;
    std::vector<std::uint32_t> rows;
    double covered = 0.0;
    for (const auto &[state, time] : occupancy) {
        const double share = std::min((time / total) * lane, lane);
        exact.push_back(share);
        rows.push_back(static_cast<std::uint32_t>(share));
        covered += share;
    }
    const auto covered_rows =
        static_cast<std::uint32_t>(std::min(covered + 0.5, lane));
    std::uint32_t assigned = 0;
    for (std::uint32_t r : rows)
        assigned += r;
    while (assigned < covered_rows && !rows.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < rows.size(); i++)
            if (exact[i] - rows[i] > exact[best] - rows[best])
                best = i;
        rows[best]++;
        assigned++;
    }
    std::uint32_t y = 0;
    for (std::size_t i = 0; i < rows.size(); i++) {
        const std::uint32_t n = std::min(rows[i], height - y);
        if (n == 0)
            continue;
        out.emplace_back(n, render::stateColor(occupancy[i].first));
        y += n;
    }
    if (y < height)
        out.emplace_back(height - y, laneBackground(cpu));
    return out;
}

/**
 * The frame @p config draws on @p tr at @p width x @p height, pixel by
 * pixel and lane by lane in lane order (lanes sharing rows overwrite),
 * with its rectOps: one per run of equal pixels of an exact lane, one
 * per band of a pyramid column. An unfiltered State frame at a
 * non-Exact resolution whose pixels span a pyramid leaf or more is a
 * pyramid frame. An adaptive heatmap range spans the visible tasks
 * overlapping the view.
 */
OracleFrame
oracleFrame(const trace::Trace &tr, render::TimelineConfig config,
            std::uint32_t width, std::uint32_t height)
{
    OracleFrame out;
    out.fb = render::Framebuffer(width, height, render::kBackground);
    const TimeInterval view = config.view.empty() ? tr.span() : config.view;
    if (view.empty())
        return out;
    if (config.mode == render::TimelineMode::Heatmap &&
        config.heatmapMax == 0) {
        bool any = false;
        TimeStamp lo = 0, hi = 1;
        for (const trace::TaskInstance &task : tr.taskInstances()) {
            if (!task.interval.overlaps(view) ||
                (config.taskFilter &&
                 !config.taskFilter->matches(tr, task)))
                continue;
            lo = any ? std::min(lo, task.duration()) : task.duration();
            hi = any ? std::max(hi, task.duration()) : task.duration();
            any = true;
        }
        config.heatmapMin = lo;
        config.heatmapMax = std::max(hi, lo + 1);
    }
    const render::TimelineLayout layout(view, width, height, tr.numCpus());
    const index::TraceIndex pyramids(tr);
    out.pyramids = config.mode == render::TimelineMode::State &&
                   !config.taskFilter &&
                   config.resolution.kind != Resolution::Kind::Exact &&
                   view.duration() / width >= pyramids.leafGranularity();
    for (CpuId cpu = 0; cpu < tr.numCpus(); cpu++) {
        const std::uint32_t top = layout.laneTop(cpu);
        const std::uint32_t lane = layout.laneHeight();
        std::optional<render::Rgba> previous;
        for (std::uint32_t x = 0; x < width; x++) {
            const TimeInterval pixel = layout.pixelInterval(x);
            if (out.pyramids) {
                std::uint32_t y = top;
                for (const auto &[rows, color] :
                     oracleBands(tr, cpu, pyramids.leafGranularity(),
                                 pyramids.domainEnd(), pixel, lane)) {
                    out.fb.fillRect(x, y, 1, rows, color);
                    out.rectOps++;
                    y += rows;
                }
                continue;
            }
            const render::Rgba color = oraclePixel(tr, config, cpu, pixel);
            out.fb.fillRect(x, top, 1, lane, color);
            if (color != previous)
                out.rectOps++;
            previous = color;
        }
    }
    return out;
}

/** The first pixel where @p got differs from @p expect, or "". */
std::string
firstDifference(const render::Framebuffer &got,
                const render::Framebuffer &expect)
{
    if (got.width() != expect.width() || got.height() != expect.height())
        return "size " + std::to_string(got.width()) + "x" +
               std::to_string(got.height());
    for (std::uint32_t y = 0; y < got.height(); y++)
        for (std::uint32_t x = 0; x < got.width(); x++)
            if (got.pixel(x, y) != expect.pixel(x, y))
                return "pixel (" + std::to_string(x) + ", " +
                       std::to_string(y) + ")";
    return "";
}

/** One frame request of the frame matrix. */
struct FrameCase
{
    render::TimelineMode mode;
    bool filtered;
    bool pixels; ///< Pixels(width) resolution, else Exact.
    TimeInterval view;
    std::uint32_t width;
    std::uint32_t height;

    std::string name() const;
};

std::string
FrameCase::name() const
{
    return "mode " + std::to_string(static_cast<int>(mode)) +
           (filtered ? " filtered" : "") + (pixels ? " Pixels " : " Exact ") +
           describe(view) + " " + std::to_string(width) + "x" +
           std::to_string(height);
}

/**
 * Every mode, filtered and not, Exact and Pixels, over the whole span,
 * its middle third and a 40-unit deep zoom (pixels finer than a leaf),
 * at 61x23 (rows no lane covers) and 61x3 (lanes stacked on shared
 * rows).
 */
std::vector<FrameCase>
frameMatrix(const trace::Trace &tr)
{
    const TimeInterval span = tr.span();
    const TimeStamp third = span.duration() / 3;
    const std::vector<TimeInterval> views = {
        span,
        {span.start + third, span.start + 2 * third},
        {span.start + third, span.start + third + 40}};
    constexpr int kModes =
        static_cast<int>(render::TimelineMode::NumaHeatmap) + 1;
    std::vector<FrameCase> out;
    for (bool filtered : {false, true})
        for (int m = 0; m < kModes; m++)
            for (bool pixels : {false, true})
                for (const TimeInterval &view : views)
                    for (std::uint32_t height : {23u, 3u})
                        out.push_back({static_cast<render::TimelineMode>(m),
                                       filtered, pixels, view, 61, height});
    return out;
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
                session.setConcurrency(workers);
                session.setFilters(shortTasks());
                if (built == Built::Half)
                    for (CpuId cpu = 0; cpu < tr.numCpus(); cpu += 2)
                        session.traceIndex()->get(cpu);
                if (built == Built::All)
                    session.submit(PyramidBuildQuery{}).take();
                const std::size_t pyramids =
                    session.traceIndex()->counts().pyramids;
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
                EXPECT_EQ(session.traceIndex()->counts().pyramids, pyramids)
                    << c.name;
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
            session.setConcurrency(4);
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
        session.setConcurrency(2);
        const index::TraceIndex &pyramids = *session.traceIndex();
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
            session.setConcurrency(workers);
            const index::TraceIndex &pyramids = *session.traceIndex();
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
            EXPECT_EQ(session.traceIndex()->counts().counterIndexes,
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
            session.setConcurrency(workers);
            int step = 0;
            for (const auto &specs : filterSpecs()) {
                session.setFilters(daemon::materializeFilters(specs));
                const auto expect = oracleTasks(tr, session.filters());
                const std::string where = c.name + " step " +
                                          std::to_string(step++) +
                                          " workers " +
                                          std::to_string(workers);
                // Async, then the sync wrapper, then async again.
                EXPECT_EQ(session.submit(TaskListQuery{}).take(), expect)
                    << where;
                EXPECT_EQ(session.tasks(), expect) << where;
                EXPECT_EQ(session.submit(TaskListQuery{}).take(), expect)
                    << where;
            }
            // A warm-up, which prefetches no task list, leaves it alone.
            session.setFilters(daemon::materializeFilters(filterSpecs()[1]));
            WarmupPolicy policy;
            policy.counterIndexes = false;
            session.warmup(policy);
            EXPECT_EQ(session.tasks(), oracleTasks(tr, session.filters()))
                << c.name;
        }
    }
}

TEST(QueryOracle, HistogramWithoutIntervalMatchesOracleAcrossFilterChanges)
{
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            Session session(c.trace);
            session.setConcurrency(workers);
            int step = 0;
            for (const auto &specs : filterSpecs()) {
                session.setFilters(daemon::materializeFilters(specs));
                const Bytes expect =
                    bytesOf(oracleHistogram(tr, session.filters(), 11));
                const std::string where = c.name + " step " +
                                          std::to_string(step++) +
                                          " workers " +
                                          std::to_string(workers);
                EXPECT_EQ(bytesOf(session.histogram(11)), expect) << where;
                EXPECT_EQ(bytesOf(session.submit(HistogramQuery{{}, 11})
                                      .take()),
                          expect)
                    << where;
            }
        }
    }
}

TEST(QueryOracle, FinishedFilterKeyedAnswersBelongToTheirSubmitFilters)
{
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            Session session(c.trace);
            session.setConcurrency(workers);
            // Submit under every filter set in turn without waiting, so
            // later steps overtake (and cancel) the earlier tickets.
            std::vector<QueryTicket<std::vector<const trace::TaskInstance *>>>
                lists;
            std::vector<QueryTicket<stats::Histogram>> hists;
            std::vector<filter::FilterSet> submitted;
            for (const auto &specs : filterSpecs()) {
                session.setFilters(daemon::materializeFilters(specs));
                submitted.push_back(session.filters());
                lists.push_back(session.submit(TaskListQuery{}));
                hists.push_back(session.submit(HistogramQuery{{}, 7}));
            }
            for (std::size_t i = 0; i < submitted.size(); i++) {
                const std::string where = c.name + " step " +
                                          std::to_string(i) + " workers " +
                                          std::to_string(workers);
                if (lists[i].wait() == QueryStatus::Done)
                    EXPECT_EQ(lists[i].result(),
                              oracleTasks(tr, submitted[i]))
                        << where;
                else
                    EXPECT_EQ(lists[i].status(), QueryStatus::Cancelled)
                        << where;
                if (hists[i].wait() == QueryStatus::Done)
                    EXPECT_EQ(bytesOf(hists[i].result()),
                              bytesOf(oracleHistogram(tr, submitted[i], 7)))
                        << where;
                else
                    EXPECT_EQ(hists[i].status(), QueryStatus::Cancelled)
                        << where;
            }
            // Nothing moved the filters after the last step.
            EXPECT_EQ(lists.back().status(), QueryStatus::Done) << c.name;
            EXPECT_EQ(hists.back().status(), QueryStatus::Done) << c.name;
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
        const index::TraceIndex pyramids(tr);
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

            daemon::HistogramRequest hist;
            hist.head.traceId = id;
            hist.numBins = 13;
            daemon::Reply<stats::Histogram> remote_hist =
                client.histogram(hist);
            ASSERT_TRUE(remote_hist.ok()) << remote_hist.message;
            EXPECT_EQ(bytesOf(remote_hist.value),
                      bytesOf(oracleHistogram(
                          tr, daemon::materializeFilters(specs), 13)))
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
    const TimeStamp g0 = index::TraceIndex(base).leafGranularity();
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

/** Assert @p fb and @p stats are the frame @p expect, naming @p what. */
void
expectOracleFrame(const render::Framebuffer &fb,
                  const render::RenderStats &stats, const OracleFrame &expect,
                  const std::string &what)
{
    EXPECT_EQ(firstDifference(fb, expect.fb), "") << what;
    EXPECT_EQ(stats.rectOps, expect.rectOps) << what;
    EXPECT_EQ(stats.resolution.exact, !expect.pyramids) << what;
}

TEST(QueryOracle, LocalFramesMatchOracleAtEveryWorkerCount)
{
    const filter::FilterSet filters =
        daemon::materializeFilters(filterSpecs()[1]);
    for (const Case &c : traceMatrix()) {
        const trace::Trace &tr = *c.trace;
        const std::vector<FrameCase> frames = frameMatrix(tr);
        std::vector<OracleFrame> expect;
        std::size_t pyramid_frames = 0;
        for (const FrameCase &f : frames) {
            render::TimelineConfig config;
            config.mode = f.mode;
            config.view = f.view;
            config.taskFilter = f.filtered ? &filters : nullptr;
            if (f.pixels)
                config.resolution = Resolution::pixels(f.width);
            expect.push_back(oracleFrame(tr, config, f.width, f.height));
            pyramid_frames += expect.back().pyramids;
        }
        // Both frame sizes at the two wider views take the pyramids.
        EXPECT_EQ(pyramid_frames, 4u) << c.name;
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            Session session(c.trace);
            session.setConcurrency(workers);
            for (std::size_t i = 0; i < frames.size(); i++) {
                const FrameCase &f = frames[i];
                const std::string what = c.name + " " + f.name() +
                                         " workers " +
                                         std::to_string(workers);
                session.setFilters(f.filtered ? filters
                                              : filter::FilterSet());
                render::TimelineConfig config;
                config.mode = f.mode;
                config.view = f.view;
                if (f.pixels)
                    config.resolution = Resolution::pixels(f.width);
                render::Framebuffer sync(f.width, f.height,
                                         render::Rgba{1, 2, 3, 4});
                const render::RenderStats sync_stats =
                    session.render(config, sync);
                expectOracleFrame(sync, sync_stats, expect[i],
                                  what + " sync");

                TimelineRenderQuery query;
                query.config = config;
                query.width = f.width;
                query.height = f.height;
                TimelineRenderResult async = session.submit(query).take();
                expectOracleFrame(async.fb, async.stats, expect[i],
                                  what + " async");
            }
        }
    }
}

TEST(QueryOracle, DaemonFramesMatchOracleAtEveryWorkerCount)
{
    const std::vector<daemon::FilterSpec> specs = filterSpecs()[1];
    const filter::FilterSet filters = daemon::materializeFilters(specs);
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        daemon::Server server(daemon::Server::Options{workers, 16});
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
            bool filtered = false;
            for (const FrameCase &f : frameMatrix(*c.trace)) {
                const std::string what = c.name + " " + f.name() +
                                         " workers " +
                                         std::to_string(workers);
                if (f.filtered != filtered) {
                    filtered = f.filtered;
                    ASSERT_TRUE(client
                                    .setFilters(id, filtered
                                                        ? specs
                                                        : std::vector<
                                                              daemon::
                                                                  FilterSpec>())
                                    .ok());
                }
                daemon::TimelineRenderRequest request;
                request.head.traceId = id;
                request.mode = static_cast<std::uint8_t>(f.mode);
                request.view = f.view;
                request.width = f.width;
                request.height = f.height;
                if (f.pixels)
                    request.resolution = Resolution::pixels(f.width);
                daemon::Reply<daemon::RenderReply> remote =
                    client.timelineRender(request);
                ASSERT_TRUE(remote.ok()) << what << ": " << remote.message;

                render::TimelineConfig config;
                config.mode = f.mode;
                config.view = f.view;
                config.taskFilter = f.filtered ? &filters : nullptr;
                config.resolution = request.resolution;
                expectOracleFrame(remote.value.fb, remote.value.stats,
                                  oracleFrame(*c.trace, config, f.width,
                                              f.height),
                                  what + " daemon");
            }
            client.closeTrace(id);
        }
        server.stop();
    }
}

TEST(QueryOracle, AnomalyScanMatchesOracleOnEveryLocalPathAndWorkerCount)
{
    std::map<std::string, std::set<stats::AnomalyKind>> seen;
    for (const Case &c : anomalyMatrix()) {
        const trace::Trace &tr = *c.trace;
        const std::vector<TimeInterval> views = anomalyViews(tr, 3);
        // expect[o][f][v]: options o, filter step f, view v.
        std::vector<std::vector<std::vector<Bytes>>> expect;
        for (const stats::AnomalyScanOptions &options : anomalyOptions()) {
            expect.emplace_back();
            for (const auto &specs : filterSpecs()) {
                const filter::FilterSet filters =
                    daemon::materializeFilters(specs);
                expect.back().emplace_back();
                for (const TimeInterval &view : views) {
                    const std::vector<stats::Anomaly> findings =
                        oracleAnomalies(tr, options, view, &filters);
                    for (const stats::Anomaly &a : findings)
                        seen[c.name].insert(a.kind);
                    const Bytes want = bytesOf(findings);
                    EXPECT_EQ(bytesOf(stats::scanForAnomalies(
                                  tr, options, view, &filters)),
                              want)
                        << c.name << " serial " << describe(view);
                    expect.back().back().push_back(want);
                }
            }
        }
        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            Session session(c.trace);
            session.setConcurrency(workers);
            for (std::size_t o = 0; o < anomalyOptions().size(); o++) {
                for (std::size_t f = 0; f < filterSpecs().size(); f++) {
                    session.setFilters(
                        daemon::materializeFilters(filterSpecs()[f]));
                    for (std::size_t v = 0; v < views.size(); v++) {
                        const std::string where =
                            c.name + " options " + std::to_string(o) +
                            " step " + std::to_string(f) + " " +
                            describe(views[v]) + " workers " +
                            std::to_string(workers);
                        AnomalyScanQuery query;
                        query.options = anomalyOptions()[o];
                        query.context.interval = views[v];
                        EXPECT_EQ(bytesOf(session.submit(query).take()),
                                  expect[o][f][v])
                            << where << " background";
                        query.context.priority = QueryPriority::Interactive;
                        EXPECT_EQ(bytesOf(session.submit(query).take()),
                                  expect[o][f][v])
                            << where << " interactive";
                        // The synchronous wrapper scans the view; an
                        // empty one stands for the span.
                        if (views[v].empty())
                            continue;
                        session.setView(views[v]);
                        EXPECT_EQ(bytesOf(session.scanForAnomalies(
                                      anomalyOptions()[o])),
                                  expect[o][f][v])
                            << where << " sync";
                    }
                }
            }
        }
    }
    // The matrix gives every detector findings to compare.
    const std::set<stats::AnomalyKind> outliers_and_bursts = {
        stats::AnomalyKind::DurationOutlier,
        stats::AnomalyKind::CounterBurst};
    EXPECT_EQ(seen["outliers among many tasks"], outliers_and_bursts);
    const std::set<stats::AnomalyKind> idle_and_outliers = {
        stats::AnomalyKind::IdlePhase, stats::AnomalyKind::DurationOutlier};
    EXPECT_EQ(seen["durations near 2^63"], idle_and_outliers);
    EXPECT_TRUE(seen["whole-span task"].count(
        stats::AnomalyKind::DurationOutlier));
}

TEST(QueryOracle, DaemonAnomalyScanMatchesOracleAtEveryWorkerCount)
{
    const stats::AnomalyScanOptions options = anomalyOptions()[1];
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        daemon::Server server(daemon::Server::Options{workers, 16});
        daemon::Client client;
        std::string error;
        ASSERT_TRUE(client.adopt(server.connectInProcess(), error)) << error;
        for (const Case &c : anomalyMatrix()) {
            daemon::OpenTraceRequest open;
            open.bytes = c.bytes;
            daemon::Reply<daemon::OpenTraceReply> opened =
                client.openTrace(open);
            ASSERT_TRUE(opened.ok()) << c.name << ": " << opened.message;
            const std::uint64_t id = opened.value.traceId;
            const trace::Trace &tr = *c.trace;
            for (const auto &specs : filterSpecs()) {
                ASSERT_TRUE(client.setFilters(id, specs).ok()) << c.name;
                const filter::FilterSet filters =
                    daemon::materializeFilters(specs);
                for (const TimeInterval &view : anomalyViews(tr, 5)) {
                    daemon::AnomalyScanRequest request;
                    request.head.traceId = id;
                    request.interval = view;
                    request.options = options;
                    daemon::Reply<std::vector<stats::Anomaly>> remote =
                        client.anomalyScan(request);
                    ASSERT_TRUE(remote.ok()) << remote.message;
                    EXPECT_EQ(bytesOf(remote.value),
                              bytesOf(oracleAnomalies(tr, options, view,
                                                      &filters)))
                        << c.name << " " << specs.size() << " filters "
                        << describe(view) << " workers " << workers;
                }
            }
            // Without an interval the scan covers the connection's view.
            const TimeInterval strip = anomalyViews(tr, 5)[2];
            ASSERT_TRUE(client.setView(id, strip).ok()) << c.name;
            daemon::AnomalyScanRequest request;
            request.head.traceId = id;
            request.options = options;
            daemon::Reply<std::vector<stats::Anomaly>> remote =
                client.anomalyScan(request);
            ASSERT_TRUE(remote.ok()) << remote.message;
            const filter::FilterSet last =
                daemon::materializeFilters(filterSpecs().back());
            EXPECT_EQ(bytesOf(remote.value),
                      bytesOf(oracleAnomalies(tr, options, strip, &last)))
                << c.name << " view " << describe(strip);
            client.closeTrace(id);
        }
        server.stop();
    }
}

} // namespace
} // namespace session
} // namespace aftermath
