/**
 * @file
 * Shared seeded trace generators and deep-equality helpers for tests.
 *
 * Every test that needs a synthetic trace builds it here instead of
 * hand-rolling one: buildRandomTrace() produces a randomized but valid
 * trace (CPU count, event/counter density and the task/discrete/comm
 * mix are knobs), buildDenseTrace() produces the counter-heavy trace
 * the session warm-up tests exercise, withTasks() and
 * wrappedTaskTraceBytes() append ordinary or hostile tasks to a trace,
 * and expectTracesEqual() asserts
 * two traces are identical record by record — the round-trip oracle of
 * the format and reader tests.
 */

#ifndef AFTERMATH_TESTS_TRACE_BUILDER_H
#define AFTERMATH_TESTS_TRACE_BUILDER_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "trace/state.h"
#include "trace/reader.h"
#include "trace/topology.h"
#include "trace/trace.h"
#include "trace/writer.h"

namespace aftermath {
namespace test_support {

/** Knobs of buildRandomTrace(). */
struct RandomTraceOptions
{
    /** Exact CPU count of the topology. */
    std::uint32_t cpus = 4;

    /** NUMA nodes (clamped to the CPU count). */
    std::uint32_t nodes = 2;

    /** Distinct counters sampled (0 = no counter samples). */
    std::uint32_t counters = 2;

    /** State events per CPU (0 = no per-CPU events at all). */
    int statesPerCpu = 50;

    /** Probability a state event covers a task execution. */
    double taskProbability = 0.6;

    /**
     * Probability a state event has zero duration. At 0 (the default)
     * no draw is made, so existing seeds keep their traces.
     */
    double zeroDurationProbability = 0.0;

    /**
     * When nonzero, the state id of every zero-duration event that is
     * not a task execution: a state that then has events but never
     * any time.
     */
    std::uint32_t zeroDurationState = 0;

    /** Probability of a discrete event per state. */
    double discreteProbability = 0.3;

    /** Probability of a comm event per state. */
    double commProbability = 0.3;

    /** Emit one memory region + access per task. */
    bool memory = true;
};

/**
 * A randomized but valid (finalizable) trace: dense states, counter
 * samples with signed deltas, task instances with memory accesses, and
 * a sprinkling of discrete/comm events. Equal seeds and options yield
 * equal traces.
 */
inline trace::Trace
buildRandomTrace(std::uint64_t seed, const RandomTraceOptions &options = {})
{
    Rng rng(seed);
    trace::Trace tr;

    std::uint32_t nodes =
        std::max<std::uint32_t>(1, std::min(options.nodes, options.cpus));
    std::vector<NodeId> cpu_to_node(options.cpus);
    for (CpuId c = 0; c < options.cpus; c++)
        cpu_to_node[c] = c % nodes;
    std::vector<std::uint32_t> distances(
        static_cast<std::size_t>(nodes) * nodes);
    for (NodeId a = 0; a < nodes; a++)
        for (NodeId b = 0; b < nodes; b++)
            distances[static_cast<std::size_t>(a) * nodes + b] =
                a == b ? 10 : 20;
    tr.setTopology(trace::MachineTopology::custom(std::move(cpu_to_node),
                                                  nodes,
                                                  std::move(distances)));
    tr.setCpuFreqHz(2'400'000'000);
    for (const auto &desc : trace::coreStateDescriptions())
        tr.addStateDescription(desc);
    for (CounterId id = 0; id < options.counters; id++)
        tr.addCounterDescription({id, "ctr_" + std::to_string(id)});
    tr.addTaskType({0x1000, "work_alpha"});
    tr.addTaskType({0x2000, "work_beta"});

    TaskInstanceId next_task = 0;
    for (CpuId c = 0; c < tr.numCpus(); c++) {
        TimeStamp t = rng.nextBounded(50);
        std::int64_t ctr = 0;
        for (int i = 0; i < options.statesPerCpu; i++) {
            TimeStamp end = t + 1 + rng.nextBounded(100);
            if (options.zeroDurationProbability > 0 &&
                rng.nextBool(options.zeroDurationProbability))
                end = t;
            bool is_task = rng.nextBool(options.taskProbability);
            TaskInstanceId task = kInvalidTaskInstance;
            if (is_task) {
                task = next_task++;
                tr.addTaskInstance(
                    {task, rng.nextBool(0.5) ? 0x1000ull : 0x2000ull, c,
                     {t, end}});
                if (options.memory)
                    tr.addMemAccess({task, 0x100000 + task * 0x1000, 64,
                                     rng.nextBool(0.5)});
            }
            std::uint32_t state =
                is_task ? 0u
                        : static_cast<std::uint32_t>(1 + rng.nextBounded(4));
            if (!is_task && end == t && options.zeroDurationState != 0)
                state = options.zeroDurationState;
            tr.cpu(c).addState({{t, end}, state, task});
            if (options.counters > 0) {
                ctr += static_cast<std::int64_t>(rng.nextBounded(1000)) -
                       200;
                tr.cpu(c).addCounterSample(
                    static_cast<CounterId>(
                        rng.nextBounded(options.counters)),
                    {t, ctr});
            }
            if (rng.nextBool(options.discreteProbability)) {
                tr.cpu(c).addDiscrete(
                    {t, trace::DiscreteType::TaskCreated, task});
            }
            if (rng.nextBool(options.commProbability)) {
                tr.cpu(c).addComm(
                    {t, trace::CommKind::DataRead,
                     static_cast<std::uint32_t>(rng.nextBounded(nodes)),
                     static_cast<std::uint32_t>(rng.nextBounded(nodes)),
                     rng.nextBounded(4096), 0});
            }
            t = end + rng.nextBounded(10);
        }
    }
    if (options.memory) {
        for (TaskInstanceId id = 0; id < next_task; id++)
            tr.addMemRegion({id, 0x100000 + id * 0x1000, 0x1000,
                             static_cast<NodeId>(id % nodes)});
    }
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/** Knobs of buildDenseTrace(). */
struct DenseTraceOptions
{
    std::uint32_t cpus = 8;

    /** Counters sampled densely on every CPU. */
    std::uint32_t counters = 3;

    /** Samples per (cpu, counter). */
    int samples = 2'000;

    /** Varies counter values and task lengths across variants. */
    std::int64_t scale = 1;
};

/**
 * A counter-heavy trace: every CPU samples every counter densely, plus
 * states and one task per CPU. The warm-up and index-cache tests use it
 * because its cost is dominated by index construction.
 */
inline trace::Trace
buildDenseTrace(const DenseTraceOptions &options = {})
{
    constexpr std::uint32_t kExec =
        static_cast<std::uint32_t>(trace::CoreState::TaskExec);
    constexpr std::uint32_t kIdle =
        static_cast<std::uint32_t>(trace::CoreState::Idle);
    trace::Trace tr;
    tr.setTopology(
        trace::MachineTopology::uniform(2, (options.cpus + 1) / 2));
    for (CounterId id = 0; id < options.counters; id++)
        tr.addCounterDescription({id, "ctr"});
    tr.addTaskType({0xa, "w"});
    Rng rng(42);
    for (CpuId c = 0; c < options.cpus; c++) {
        TimeStamp task_end = 100 + 40 * (c % 5) * options.scale;
        tr.addTaskInstance({c, 0xa, c, {0, task_end}});
        tr.cpu(c).addState({{0, task_end}, kExec, c});
        tr.cpu(c).addState(
            {{task_end, task_end + 50}, kIdle, kInvalidTaskInstance});
        for (CounterId id = 0; id < options.counters; id++) {
            TimeStamp t = 0;
            std::int64_t v = 0;
            for (int i = 0; i < options.samples; i++) {
                t += 1 + rng.nextBounded(3);
                v += (static_cast<std::int64_t>(rng.nextBounded(201)) -
                      100) * options.scale;
                tr.cpu(c).addCounterSample(id, {t, v});
            }
        }
    }
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/**
 * A two-CPU trace whose span ends at 2^64 - 1, the last representable
 * timestamp: CPU 0 executes one task {10, 2^64 - 1}, CPU 1 a short one
 * and then idles. Hostile input for every layout derived from the
 * span end.
 */
inline trace::Trace
buildTopOfTimeTrace()
{
    constexpr std::uint32_t kExec =
        static_cast<std::uint32_t>(trace::CoreState::TaskExec);
    constexpr std::uint32_t kIdle =
        static_cast<std::uint32_t>(trace::CoreState::Idle);
    constexpr TimeStamp kLast = ~TimeStamp{0};
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 2));
    tr.addTaskType({0xa, "w"});
    tr.addTaskInstance({0, 0xa, 0, {10, kLast}});
    tr.addTaskInstance({1, 0xa, 1, {0, 1000}});
    tr.cpu(0).addState({{0, 10}, kIdle, kInvalidTaskInstance});
    tr.cpu(0).addState({{10, kLast}, kExec, 0});
    tr.cpu(1).addState({{0, 1000}, kExec, 1});
    tr.cpu(1).addState({{1000, 5000}, kIdle, kInvalidTaskInstance});
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/**
 * A copy of @p base's topology, state descriptions, task types,
 * counters (descriptions and samples), state events and task instances
 * with @p extra appended after them, finalized. Discrete, comm and
 * memory records are not copied: no query the oracle checks reads them.
 */
inline trace::Trace
withTasks(const trace::Trace &base,
          const std::vector<trace::TaskInstance> &extra)
{
    trace::Trace tr;
    tr.setTopology(base.topology());
    for (const auto &desc : trace::coreStateDescriptions())
        tr.addStateDescription(desc);
    for (const auto &[id, type] : base.taskTypes())
        tr.addTaskType(type);
    for (const auto &[id, name] : base.counters())
        tr.addCounterDescription({id, name});
    for (CpuId c = 0; c < base.numCpus(); c++) {
        for (const trace::StateEvent &ev : base.cpu(c).states())
            tr.cpu(c).addState(ev);
        for (CounterId id : base.cpu(c).counterIds())
            for (const trace::CounterSample &sample :
                 base.cpu(c).counterSamples(id))
                tr.cpu(c).addCounterSample(id, sample);
    }
    for (const trace::TaskInstance &task : base.taskInstances())
        tr.addTaskInstance(task);
    for (const trace::TaskInstance &task : extra)
        tr.addTaskInstance(task);
    std::string err;
    EXPECT_TRUE(tr.finalize(err)) << err;
    return tr;
}

/** Tasks buildWrappedTaskTrace() adds. */
constexpr std::size_t kWrappedTasks = 4;

/**
 * Trace bytes holding @p base plus kWrappedTasks tasks whose end wraps
 * below their start, a shape only hostile bytes produce: the reader
 * computes a task's end as start + duration. Writes marker tasks and
 * patches their raw start and duration fields into wrapping ones, so
 * the bytes do not depend on how the writer encodes such a task. The wrapped tasks end at 50, 0, 7 and @p base's span
 * end, and start far past it.
 */
inline std::vector<std::uint8_t>
wrappedTaskTraceBytes(const trace::Trace &base)
{
    struct Patch
    {
        TimeStamp start;
        TimeStamp duration;
    };
    const Patch patches[kWrappedTasks] = {
        {~0ull - 100, 151},
        {~0ull, 1},
        {1ull << 63, (1ull << 63) + 7},
        {~0ull - 5, 5 + 1 + base.span().end},
    };
    std::vector<trace::TaskInstance> markers;
    TaskInstanceId next_id = base.taskInstances().size();
    for (std::size_t i = 0; i < kWrappedTasks; i++) {
        const TimeStamp start = 0x5a5a5a5a00000000ull + i;
        markers.push_back({next_id++, base.taskInstances().front().type, 0,
                           {start, start + 0x1234 + i}});
    }
    std::vector<std::uint8_t> bytes = trace::writeTrace(
        withTasks(base, markers), trace::Encoding::Raw);
    auto le = [](TimeStamp v) {
        std::vector<std::uint8_t> out(8);
        for (int b = 0; b < 8; b++)
            out[static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(v >> (8 * b));
        return out;
    };
    for (std::size_t i = 0; i < kWrappedTasks; i++) {
        std::vector<std::uint8_t> field = le(markers[i].interval.start);
        std::vector<std::uint8_t> duration =
            le(markers[i].interval.duration());
        field.insert(field.end(), duration.begin(), duration.end());
        auto at = std::search(bytes.begin(), bytes.end(), field.begin(),
                              field.end());
        if (at == bytes.end()) {
            ADD_FAILURE() << "marker " << i << " not found";
            return bytes;
        }
        std::vector<std::uint8_t> patched = le(patches[i].start);
        duration = le(patches[i].duration);
        patched.insert(patched.end(), duration.begin(), duration.end());
        std::copy(patched.begin(), patched.end(), at);
    }
    return bytes;
}

/** The trace of wrappedTaskTraceBytes(@p base), read back. */
inline trace::Trace
buildWrappedTaskTrace(const trace::Trace &base)
{
    trace::ReadResult read = trace::readTrace(wrappedTaskTraceBytes(base));
    EXPECT_TRUE(read.ok) << read.error;
    return std::move(read.trace);
}

/** Assert every record of @p a equals the corresponding one of @p b. */
inline void
expectTracesEqual(const trace::Trace &a, const trace::Trace &b)
{
    ASSERT_EQ(a.numCpus(), b.numCpus());
    EXPECT_EQ(a.topology().numNodes(), b.topology().numNodes());
    for (CpuId c = 0; c < a.numCpus(); c++)
        EXPECT_EQ(a.topology().nodeOfCpu(c), b.topology().nodeOfCpu(c));
    EXPECT_EQ(a.cpuFreqHz(), b.cpuFreqHz());
    EXPECT_EQ(a.span(), b.span());
    EXPECT_EQ(a.states(), b.states());
    EXPECT_EQ(a.counters(), b.counters());
    ASSERT_EQ(a.taskTypes().size(), b.taskTypes().size());
    for (const auto &[id, type] : a.taskTypes()) {
        ASSERT_TRUE(b.taskTypes().count(id));
        EXPECT_EQ(type.name, b.taskTypes().at(id).name);
    }
    ASSERT_EQ(a.taskInstances().size(), b.taskInstances().size());
    for (std::size_t i = 0; i < a.taskInstances().size(); i++) {
        const trace::TaskInstance &x = a.taskInstances()[i];
        const trace::TaskInstance &y = b.taskInstances()[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.type, y.type);
        EXPECT_EQ(x.cpu, y.cpu);
        EXPECT_EQ(x.interval, y.interval);
    }
    ASSERT_EQ(a.memRegions().size(), b.memRegions().size());
    for (std::size_t i = 0; i < a.memRegions().size(); i++) {
        EXPECT_EQ(a.memRegions()[i].id, b.memRegions()[i].id);
        EXPECT_EQ(a.memRegions()[i].address, b.memRegions()[i].address);
        EXPECT_EQ(a.memRegions()[i].size, b.memRegions()[i].size);
        EXPECT_EQ(a.memRegions()[i].node, b.memRegions()[i].node);
    }
    ASSERT_EQ(a.memAccesses().size(), b.memAccesses().size());
    for (std::size_t i = 0; i < a.memAccesses().size(); i++) {
        EXPECT_EQ(a.memAccesses()[i].task, b.memAccesses()[i].task);
        EXPECT_EQ(a.memAccesses()[i].address, b.memAccesses()[i].address);
        EXPECT_EQ(a.memAccesses()[i].size, b.memAccesses()[i].size);
        EXPECT_EQ(a.memAccesses()[i].isWrite, b.memAccesses()[i].isWrite);
    }
    for (CpuId c = 0; c < a.numCpus(); c++) {
        const trace::CpuTimeline &x = a.cpu(c);
        const trace::CpuTimeline &y = b.cpu(c);
        ASSERT_EQ(x.states().size(), y.states().size()) << "cpu " << c;
        for (std::size_t i = 0; i < x.states().size(); i++) {
            EXPECT_EQ(x.states()[i].interval, y.states()[i].interval);
            EXPECT_EQ(x.states()[i].state, y.states()[i].state);
            EXPECT_EQ(x.states()[i].task, y.states()[i].task);
        }
        ASSERT_EQ(x.counterIds(), y.counterIds()) << "cpu " << c;
        for (CounterId id : x.counterIds()) {
            const auto &sx = x.counterSamples(id);
            const auto &sy = y.counterSamples(id);
            ASSERT_EQ(sx.size(), sy.size()) << "cpu " << c;
            for (std::size_t i = 0; i < sx.size(); i++) {
                EXPECT_EQ(sx[i].time, sy[i].time);
                EXPECT_EQ(sx[i].value, sy[i].value);
            }
        }
        ASSERT_EQ(x.discreteEvents().size(), y.discreteEvents().size())
            << "cpu " << c;
        for (std::size_t i = 0; i < x.discreteEvents().size(); i++) {
            EXPECT_EQ(x.discreteEvents()[i].time,
                      y.discreteEvents()[i].time);
            EXPECT_EQ(x.discreteEvents()[i].type,
                      y.discreteEvents()[i].type);
            EXPECT_EQ(x.discreteEvents()[i].payload,
                      y.discreteEvents()[i].payload);
        }
        ASSERT_EQ(x.commEvents().size(), y.commEvents().size())
            << "cpu " << c;
        for (std::size_t i = 0; i < x.commEvents().size(); i++) {
            EXPECT_EQ(x.commEvents()[i].time, y.commEvents()[i].time);
            EXPECT_EQ(x.commEvents()[i].kind, y.commEvents()[i].kind);
            EXPECT_EQ(x.commEvents()[i].src, y.commEvents()[i].src);
            EXPECT_EQ(x.commEvents()[i].dst, y.commEvents()[i].dst);
            EXPECT_EQ(x.commEvents()[i].size, y.commEvents()[i].size);
            EXPECT_EQ(x.commEvents()[i].region, y.commEvents()[i].region);
        }
    }
}

} // namespace test_support
} // namespace aftermath

#endif // AFTERMATH_TESTS_TRACE_BUILDER_H
