#include "trace/trace.h"

#include <algorithm>

#include "base/logging.h"
#include "base/string_util.h"
#include "base/thread_pool.h"

namespace aftermath {
namespace trace {

void
Trace::setTopology(MachineTopology topo)
{
    topology_ = std::move(topo);
    cpus_.resize(topology_.numCpus());
}

void
Trace::addStateDescription(const StateDescription &desc)
{
    stateNames_[desc.id] = desc.name;
}

void
Trace::addCounterDescription(const CounterDescription &desc)
{
    counterNames_[desc.id] = desc.name;
}

void
Trace::addTaskType(const TaskType &type)
{
    taskTypes_[type.id] = type;
}

void
Trace::addTaskInstance(const TaskInstance &instance)
{
    // The id -> index map is built by finalize() (parallelizable and
    // off the reader's serial scan); appends stay O(1) plain.
    taskInstances_.push_back(instance);
}

void
Trace::addMemRegion(const MemRegion &region)
{
    // The id -> index map is rebuilt by finalize() after sorting.
    memRegions_.push_back(region);
}

void
Trace::addMemAccess(const MemAccess &access)
{
    memAccesses_.push_back(access);
}

CpuTimeline &
Trace::cpu(CpuId cpu)
{
    AFTERMATH_ASSERT(cpu < cpus_.size(),
                     "cpu %u outside topology (%zu cpus)", cpu, cpus_.size());
    return cpus_[cpu];
}

const CpuTimeline &
Trace::cpu(CpuId cpu) const
{
    AFTERMATH_ASSERT(cpu < cpus_.size(),
                     "cpu %u outside topology (%zu cpus)", cpu, cpus_.size());
    return cpus_[cpu];
}

const CpuTimeline *
Trace::cpuOrNull(CpuId cpu) const
{
    return cpu < cpus_.size() ? &cpus_[cpu] : nullptr;
}

bool
Trace::finalize(std::string &error, base::ThreadPool *pool)
{
    if (finalized_) {
        error = "trace already finalized";
        return false;
    }
    if (!topology_.valid()) {
        error = "trace has no machine topology";
        return false;
    }

    // Region table sorted by address for O(log n) address lookups; the
    // NUMA placement of a region is stored once and found per access
    // through this index (paper section VI-A).
    std::string region_error;
    auto build_region_index = [&] {
        auto by_address = [](const MemRegion &a, const MemRegion &b) {
            return a.address < b.address;
        };
        if (!std::is_sorted(memRegions_.begin(), memRegions_.end(),
                            by_address))
            std::sort(memRegions_.begin(), memRegions_.end(), by_address);
        regionIndex_.clear();
        regionIndex_.reserve(memRegions_.size());
        for (std::size_t i = 0; i < memRegions_.size(); i++) {
            if (i > 0 &&
                memRegions_[i].address < memRegions_[i - 1].address +
                                             memRegions_[i - 1].size &&
                memRegions_[i].size > 0 && memRegions_[i - 1].size > 0) {
                region_error = strFormat(
                    "memory regions %llu and %llu overlap",
                    static_cast<unsigned long long>(memRegions_[i - 1].id),
                    static_cast<unsigned long long>(memRegions_[i].id));
                return;
            }
            regionIndex_[memRegions_[i].id] = i;
        }
    };

    // Group accesses by task instance so per-task locality queries are
    // a range scan rather than a full pass. Traces written after a
    // finalize (every file round-trip) arrive already grouped; the
    // is_sorted probe makes their reload O(n) instead of O(n log n).
    auto build_access_ranges = [&] {
        auto by_task = [](const MemAccess &a, const MemAccess &b) {
            return a.task < b.task;
        };
        if (!std::is_sorted(memAccesses_.begin(), memAccesses_.end(),
                            by_task))
            std::stable_sort(memAccesses_.begin(), memAccesses_.end(),
                             by_task);
        accessRanges_.clear();
        accessRanges_.reserve(taskInstances_.size());
        std::size_t begin = 0;
        for (std::size_t i = 0; i <= memAccesses_.size(); i++) {
            if (i == memAccesses_.size() ||
                (i > begin &&
                 memAccesses_[i].task != memAccesses_[begin].task)) {
                if (i > begin)
                    accessRanges_[memAccesses_[begin].task] = {begin, i};
                begin = i;
            }
        }
    };

    // Task-instance id -> index (insertion order, last duplicate wins,
    // matching the behaviour of indexing on append).
    auto build_instance_index = [&] {
        instanceIndex_.clear();
        instanceIndex_.reserve(taskInstances_.size());
        for (std::size_t i = 0; i < taskInstances_.size(); i++)
            instanceIndex_[taskInstances_[i].id] = i;
    };

    // Independent units: one ordering validation per CPU plus the three
    // index builds (they touch disjoint members), on the pool or on the
    // calling thread. The lowest-numbered failing CPU is reported.
    const std::size_t n = cpus_.size();
    std::vector<std::string> cpu_errors(n);
    std::vector<std::uint8_t> cpu_failed(n, 0);
    auto run_unit = [&](std::size_t unit) {
        if (unit < n) {
            if (!cpus_[unit].finalize(cpu_errors[unit]))
                cpu_failed[unit] = 1;
        } else if (unit == n) {
            build_region_index();
        } else if (unit == n + 1) {
            build_access_ranges();
        } else {
            build_instance_index();
        }
    };
    if (pool) {
        pool->parallelFor(n + 3, run_unit);
    } else {
        for (std::size_t unit = 0; unit < n + 3; unit++)
            run_unit(unit);
    }
    lastTime_ = 0;
    for (CpuId c = 0; c < n; c++) {
        if (cpu_failed[c]) {
            error = strFormat("cpu %u: %s", c, cpu_errors[c].c_str());
            return false;
        }
        lastTime_ = std::max(lastTime_, cpus_[c].lastTime());
    }

    for (const TaskInstance &instance : taskInstances_) {
        if (instance.cpu >= cpus_.size()) {
            error = strFormat("task instance %llu on invalid cpu %u",
                              static_cast<unsigned long long>(instance.id),
                              instance.cpu);
            return false;
        }
        lastTime_ = std::max(lastTime_, instance.interval.end);
    }

    if (!region_error.empty()) {
        error = region_error;
        return false;
    }

    finalized_ = true;
    return true;
}

std::string
Trace::stateName(std::uint32_t id) const
{
    auto it = stateNames_.find(id);
    if (it != stateNames_.end())
        return it->second;
    return strFormat("state_%u", id);
}

std::string
Trace::counterName(CounterId id) const
{
    auto it = counterNames_.find(id);
    if (it != counterNames_.end())
        return it->second;
    return strFormat("counter_%u", id);
}

const TaskInstance *
Trace::taskInstance(TaskInstanceId id) const
{
    auto it = instanceIndex_.find(id);
    return it == instanceIndex_.end() ? nullptr : &taskInstances_[it->second];
}

const MemRegion *
Trace::regionContaining(std::uint64_t address) const
{
    // First region starting beyond the address; its predecessor is the
    // only candidate since regions are sorted and non-overlapping.
    auto it = std::upper_bound(
        memRegions_.begin(), memRegions_.end(), address,
        [](std::uint64_t addr, const MemRegion &r) {
            return addr < r.address;
        });
    if (it == memRegions_.begin())
        return nullptr;
    --it;
    return it->contains(address) ? &*it : nullptr;
}

const MemRegion *
Trace::region(RegionId id) const
{
    auto it = regionIndex_.find(id);
    return it == regionIndex_.end() ? nullptr : &memRegions_[it->second];
}

std::pair<std::vector<MemAccess>::const_iterator,
          std::vector<MemAccess>::const_iterator>
Trace::accessRange(TaskInstanceId id) const
{
    auto it = accessRanges_.find(id);
    if (it == accessRanges_.end())
        return {memAccesses_.end(), memAccesses_.end()};
    return {memAccesses_.begin() +
                static_cast<std::ptrdiff_t>(it->second.first),
            memAccesses_.begin() +
                static_cast<std::ptrdiff_t>(it->second.second)};
}

std::vector<MemAccess>::const_iterator
Trace::accessesBegin(TaskInstanceId id) const
{
    return accessRange(id).first;
}

std::vector<MemAccess>::const_iterator
Trace::accessesEnd(TaskInstanceId id) const
{
    return accessRange(id).second;
}

} // namespace trace
} // namespace aftermath
