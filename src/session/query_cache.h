/**
 * @file
 * Generic memoization primitives for the session query facade.
 *
 * Every cache inside session::Session follows the same discipline: build
 * on first use, serve repeated queries from memory, and count hits and
 * builds so tests (and users tuning an interactive frontend) can observe
 * cache behaviour instead of guessing. MemoCache is that discipline in
 * one reusable type, with an opt-in LRU capacity bound for callers whose
 * key stream is unbounded (continuous zooming queries a never-repeating
 * sequence of intervals).
 *
 * MemoCache itself is not synchronized: every instance lives behind an
 * externally held lock (SessionMemo's caches under SessionMemo::mutex,
 * annotated AM_GUARDED_BY so the thread-safety analysis enforces the
 * contract at the member level). Keeping the lock outside means one
 * acquisition covers a tryGet()/insertOrGet() pair instead of two.
 */

#ifndef AFTERMATH_SESSION_QUERY_CACHE_H
#define AFTERMATH_SESSION_QUERY_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <utility>

namespace aftermath {
namespace session {

/** Cumulative hit/build/eviction counters of one memoization cache. */
struct CacheCounters
{
    /** Queries answered from the cache. */
    std::uint64_t hits = 0;

    /** Queries that had to construct the value. */
    std::uint64_t builds = 0;

    /** Entries dropped by the LRU capacity bound (0 when unbounded). */
    std::uint64_t evictions = 0;

    /** Total queries observed. */
    std::uint64_t total() const { return hits + builds; }
};

/**
 * An ordered-map memoization cache with hit/build accounting and an
 * optional LRU capacity bound.
 *
 * Unbounded by default: values are built at most once per key until
 * clear(), and references returned by getOrBuild() stay valid until
 * clear(). With setCapacity(n > 0) the cache keeps only the n most
 * recently used entries; a returned reference then stays valid only
 * until the entry's eviction (at the earliest, n getOrBuild() calls
 * with other keys later). Counters are cumulative across clear() so
 * invalidation (filter changes) remains observable from the outside.
 */
template <typename Key, typename Value>
class MemoCache
{
  public:
    /** The cached value for @p key, built with @p build() on miss. */
    template <typename Builder>
    const Value &
    getOrBuild(const Key &key, Builder &&build)
    {
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            counters_.hits++;
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            return it->second.value;
        }
        counters_.builds++;
        Value value = build();
        lru_.push_front(key);
        it = entries_.emplace(key, Entry{std::move(value), lru_.begin()})
                 .first;
        // The new entry is most-recently-used; with capacity >= 1 the
        // trim below can never evict it, so the reference stays valid.
        trimToCapacity();
        return it->second.value;
    }

    /**
     * The cached value for @p key, or nullptr on a miss. A hit counts
     * and refreshes the entry's LRU position; a miss counts nothing
     * (pair with insertOrGet(), which counts the build, when the caller
     * computes the value out of line — the async query engine computes
     * on a worker between the two calls).
     */
    const Value *
    tryGet(const Key &key)
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            return nullptr;
        counters_.hits++;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return &it->second.value;
    }

    /**
     * Insert @p value for @p key (counting one build) and return the
     * cached copy. If the key is already present — another computation
     * of the same query published first — the existing entry wins and
     * nothing is counted, so racing producers never double-count.
     */
    const Value &
    insertOrGet(const Key &key, Value &&value)
    {
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            return it->second.value;
        }
        counters_.builds++;
        lru_.push_front(key);
        it = entries_.emplace(key, Entry{std::move(value), lru_.begin()})
                 .first;
        trimToCapacity();
        return it->second.value;
    }

    /**
     * Bound the cache to the @p capacity most recently used entries;
     * 0 restores the default unbounded mode. Shrinking below the
     * current size evicts immediately.
     */
    void
    setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        trimToCapacity();
    }

    /** Drop every entry; counters are preserved. */
    void
    clear()
    {
        entries_.clear();
        lru_.clear();
    }

    /** Number of live entries. */
    std::size_t size() const { return entries_.size(); }

    /** Cumulative hit/build/eviction counters. */
    const CacheCounters &counters() const { return counters_; }

  private:
    struct Entry
    {
        Value value;
        typename std::list<Key>::iterator lruIt;
    };

    void
    trimToCapacity()
    {
        if (capacity_ == 0)
            return;
        while (entries_.size() > capacity_) {
            entries_.erase(lru_.back());
            lru_.pop_back();
            counters_.evictions++;
        }
    }

    std::map<Key, Entry> entries_;
    std::list<Key> lru_; ///< Front = most recently used.
    std::size_t capacity_ = 0; ///< 0 = unbounded.
    CacheCounters counters_;
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_QUERY_CACHE_H
