#include "session/counter_index_cache.h"

#include "base/logging.h"

namespace aftermath {
namespace session {

CounterIndexCache::CounterIndexCache(const trace::Trace &trace,
                                     std::uint32_t arity)
    : trace_(trace), arity_(arity), shards_(trace.numCpus())
{}

const index::CounterIndex &
CounterIndexCache::get(CpuId cpu, CounterId counter, bool *built)
{
    AFTERMATH_ASSERT(trace_.hasCpu(cpu),
                     "counter index for cpu %u outside topology (%u cpus)",
                     cpu, trace_.numCpus());
    Shard &shard = shards_[cpu];
    // The build runs under the shard lock: only same-CPU queries wait on
    // it, and they would have to wait for the index anyway. Entries are
    // never evicted, so the reference is stable after the lock drops.
    base::MutexLock lock(shard.mutex);
    auto it = shard.entries.find(counter);
    if (it != shard.entries.end()) {
        shard.counters.hits++;
        if (built)
            *built = false;
        return *it->second;
    }
    shard.counters.builds++;
    if (built)
        *built = true;
    auto index = std::make_unique<index::CounterIndex>(
        trace_.cpu(cpu).counterSamples(counter), arity_);
    return *shard.entries.emplace(counter, std::move(index))
                .first->second;
}

index::MinMax
CounterIndexCache::query(CpuId cpu, CounterId counter,
                         const TimeInterval &interval)
{
    // An unsampled counter has no extrema: answer it without building
    // or inserting an index, so queries over arbitrary counter ids
    // (a daemon client's, say) cannot grow the store.
    if (!trace_.hasCpu(cpu) || trace_.cpu(cpu).counterSamples(counter).empty())
        return index::MinMax{};
    return get(cpu, counter).query(interval);
}

bool
CounterIndexCache::contains(CpuId cpu, CounterId counter) const
{
    if (!trace_.hasCpu(cpu))
        return false;
    const Shard &shard = shards_[cpu];
    base::MutexLock lock(shard.mutex);
    return shard.entries.count(counter) != 0;
}

std::size_t
CounterIndexCache::size() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        base::MutexLock lock(shard.mutex);
        total += shard.entries.size();
    }
    return total;
}

CacheCounters
CounterIndexCache::counters() const
{
    CacheCounters total;
    for (const Shard &shard : shards_) {
        base::MutexLock lock(shard.mutex);
        total.hits += shard.counters.hits;
        total.builds += shard.counters.builds;
    }
    return total;
}

} // namespace session
} // namespace aftermath
