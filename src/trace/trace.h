/**
 * @file
 * The complete in-memory representation of one execution trace.
 *
 * A Trace holds the machine topology, per-CPU event timelines, task types
 * and instances, memory regions with their NUMA placement, and the
 * descriptions of states and counters. It is the object every analysis,
 * filter, derived metric, statistic and renderer in this library operates
 * on, and is what TraceReader materializes from a trace file.
 */

#ifndef AFTERMATH_TRACE_TRACE_H
#define AFTERMATH_TRACE_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/time_interval.h"
#include "base/types.h"
#include "trace/counter.h"
#include "trace/cpu_timeline.h"
#include "trace/memory.h"
#include "trace/state.h"
#include "trace/task.h"
#include "trace/topology.h"

namespace aftermath {

namespace base {
class ThreadPool;
}

namespace trace {

/**
 * One execution trace of a task-parallel program.
 *
 * Populate with the add/set methods (in any order; per-CPU arrays must be
 * appended time-ordered), then call finalize() exactly once before
 * analysis. finalize() validates ordering invariants, sorts the region
 * table by address and builds the per-task memory-access index.
 */
class Trace
{
  public:
    // -- Population ------------------------------------------------------

    /** Set the machine topology; resizes the per-CPU timeline table. */
    void setTopology(MachineTopology topo);

    /** Set the clock frequency used to convert cycles to seconds. */
    void setCpuFreqHz(std::uint64_t freq) { cpuFreqHz_ = freq; }

    /** Register a state description. */
    void addStateDescription(const StateDescription &desc);

    /** Register a counter description. */
    void addCounterDescription(const CounterDescription &desc);

    /** Register a task type (work function). */
    void addTaskType(const TaskType &type);

    /** Record one task execution. */
    void addTaskInstance(const TaskInstance &instance);

    /** Register a memory region with its NUMA placement. */
    void addMemRegion(const MemRegion &region);

    /** Record a task-level memory access. */
    void addMemAccess(const MemAccess &access);

    /** Mutable timeline of CPU @p cpu (topology must be set first). */
    CpuTimeline &cpu(CpuId cpu);

    /**
     * Validate and index the trace. Its units — one ordering validation
     * per CPU and three index builds — run on @p pool when one is given
     * (the trace reader passes its decode pool), else on the calling
     * thread. Which violation is reported does not depend on that:
     * every CPU validates independently and the lowest-numbered failing
     * CPU wins.
     *
     * @param error Receives a description of the first violation.
     * @return true on success; the trace is unusable for analysis if
     *         validation fails.
     */
    bool finalize(std::string &error, base::ThreadPool *pool = nullptr);

    // -- Access ----------------------------------------------------------

    /** The machine topology. */
    const MachineTopology &topology() const { return topology_; }

    /** Clock frequency in Hz (cycles per second). */
    std::uint64_t cpuFreqHz() const { return cpuFreqHz_; }

    /** Number of CPUs (workers) in the trace. */
    std::uint32_t numCpus() const { return topology_.numCpus(); }

    /** True if @p cpu is a valid CPU id of this trace's topology. */
    bool hasCpu(CpuId cpu) const { return cpu < cpus_.size(); }

    /**
     * Read-only timeline of CPU @p cpu; panics on out-of-range ids.
     * Callers with untrusted ids should use cpuOrNull() instead.
     */
    const CpuTimeline &cpu(CpuId cpu) const;

    /** Timeline of CPU @p cpu, or nullptr if @p cpu is out of range. */
    const CpuTimeline *cpuOrNull(CpuId cpu) const;

    /** [0, end) interval covering every event in the trace. */
    TimeInterval span() const { return {0, lastTime_}; }

    /** Name of state @p id, or a placeholder if undescribed. */
    std::string stateName(std::uint32_t id) const;

    /** Name of counter @p id, or a placeholder if undescribed. */
    std::string counterName(CounterId id) const;

    /** All registered state descriptions, by id. */
    const std::map<std::uint32_t, std::string> &states() const
    {
        return stateNames_;
    }

    /** All registered counter descriptions, by id. */
    const std::map<CounterId, std::string> &counters() const
    {
        return counterNames_;
    }

    /** All registered task types, keyed by work-function address. */
    const std::map<TaskTypeId, TaskType> &taskTypes() const
    {
        return taskTypes_;
    }

    /** All task instances, in insertion order. */
    const std::vector<TaskInstance> &taskInstances() const
    {
        return taskInstances_;
    }

    /** The task instance with id @p id, or nullptr. */
    const TaskInstance *taskInstance(TaskInstanceId id) const;

    /** All memory regions, sorted by address after finalize(). */
    const std::vector<MemRegion> &memRegions() const { return memRegions_; }

    /** The region containing @p address, or nullptr. */
    const MemRegion *regionContaining(std::uint64_t address) const;

    /** The region with id @p id, or nullptr. */
    const MemRegion *region(RegionId id) const;

    /** All memory accesses, grouped by task after finalize(). */
    const std::vector<MemAccess> &memAccesses() const { return memAccesses_; }

    /**
     * The accesses performed by task instance @p id as an iterator pair
     * [first, second). Unknown ids yield a well-defined empty range
     * (both iterators equal); the pair is always safe to iterate.
     */
    std::pair<std::vector<MemAccess>::const_iterator,
              std::vector<MemAccess>::const_iterator>
    accessRange(TaskInstanceId id) const;

    /** First access of task @p id; accessRange(id).first. */
    std::vector<MemAccess>::const_iterator accessesBegin(
        TaskInstanceId id) const;

    /** Past-the-end access of task @p id; accessRange(id).second. */
    std::vector<MemAccess>::const_iterator accessesEnd(
        TaskInstanceId id) const;

    /** True once finalize() has succeeded. */
    bool finalized() const { return finalized_; }

  private:
    MachineTopology topology_;
    std::uint64_t cpuFreqHz_ = 2'000'000'000;
    std::vector<CpuTimeline> cpus_;

    std::map<std::uint32_t, std::string> stateNames_;
    std::map<CounterId, std::string> counterNames_;
    std::map<TaskTypeId, TaskType> taskTypes_;

    std::vector<TaskInstance> taskInstances_;
    std::unordered_map<TaskInstanceId, std::size_t> instanceIndex_;

    std::vector<MemRegion> memRegions_;
    std::unordered_map<RegionId, std::size_t> regionIndex_;

    std::vector<MemAccess> memAccesses_;
    std::unordered_map<TaskInstanceId,
                       std::pair<std::size_t, std::size_t>> accessRanges_;

    TimeStamp lastTime_ = 0;
    bool finalized_ = false;
};

} // namespace trace
} // namespace aftermath

#endif // AFTERMATH_TRACE_TRACE_H
