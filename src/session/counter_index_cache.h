/**
 * @file
 * Lazy per-(CPU, counter) store of n-ary min/max counter indexes.
 *
 * The paper precomputes one search tree per performance counter and per
 * core so any interval's extrema cost O(arity * log n) instead of a
 * rescan (section VI-B.c). This cache builds each tree on first query
 * and keeps it for the lifetime of the trace, so no consumer — renderer,
 * statistics, export — ever rebuilds an index the session already paid
 * for. Used by session::Session; usable standalone wherever one trace
 * outlives many extrema queries.
 *
 * The store is sharded per CPU with one lock per shard: lookups and
 * builds for different CPUs never contend, which is what lets
 * Session::warmup() construct the indexes of a many-core trace
 * concurrently. Every method is safe to call from multiple threads;
 * references returned by get() stay valid for the cache's lifetime.
 */

#ifndef AFTERMATH_SESSION_COUNTER_INDEX_CACHE_H
#define AFTERMATH_SESSION_COUNTER_INDEX_CACHE_H

#include <map>
#include <memory>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "index/counter_index.h"
#include "session/query_cache.h"
#include "trace/trace.h"

namespace aftermath {
namespace session {

/** Lazily built, memoized CounterIndex per (cpu, counter) pair. */
class CounterIndexCache
{
  public:
    /**
     * A cache over @p trace, which must stay alive and unchanged.
     *
     * @param arity Group size of every built index (the paper uses 100).
     */
    explicit CounterIndexCache(
        const trace::Trace &trace,
        std::uint32_t arity = index::CounterIndex::kDefaultArity);

    /**
     * The index of @p counter on @p cpu, built on first use. Panics on
     * out-of-range CPU ids; a counter never sampled on the CPU yields an
     * index over an empty array (every query invalid). The returned
     * reference stays valid until clear(). Thread-safe; concurrent
     * callers of the same (cpu, counter) build at most one index. When
     * @p built is non-null it is set to whether *this* call constructed
     * the index — exact even under concurrency (decided under the shard
     * lock), which is what lets a warm-up attribute its own builds
     * while other queries build concurrently.
     */
    const index::CounterIndex &get(CpuId cpu, CounterId counter,
                                   bool *built = nullptr);

    /**
     * Extrema of @p counter on @p cpu within @p interval through the
     * cached index; invalid for unknown CPUs or unsampled counters,
     * which neither build nor insert an index.
     */
    index::MinMax query(CpuId cpu, CounterId counter,
                        const TimeInterval &interval);

    /** Number of indexes currently built. */
    std::size_t size() const;

    /**
     * Aggregated hit/build accounting across every shard; builds counts
     * CounterIndex constructions.
     */
    CacheCounters counters() const;

    /** The arity used for every built index. */
    std::uint32_t arity() const { return arity_; }

  private:
    /**
     * One CPU's slice of the store, guarded by its own lock. Shards
     * share one rank (kCounterIndexShard) because no code path ever
     * holds two of them at once — size()/counters() visit
     * them strictly one at a time.
     */
    struct Shard
    {
        mutable base::Mutex mutex{base::lockrank::kCounterIndexShard,
                                  "counter-index-shard"};
        // unique_ptr because CounterIndex pins a reference to its
        // sample array and is neither copyable nor movable.
        std::map<CounterId, std::unique_ptr<index::CounterIndex>> entries
            AM_GUARDED_BY(mutex);
        CacheCounters counters AM_GUARDED_BY(mutex);
    };

    const trace::Trace &trace_;
    std::uint32_t arity_;
    std::vector<Shard> shards_; ///< One per CPU; never resized.
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_COUNTER_INDEX_CACHE_H
