/**
 * @file
 * The memoization primitive of the session query facade.
 *
 * A session memoizes one thing per driving context: the task list of
 * the live filter generation. MemoCache is that memo as one keyed
 * slot that counts hits and builds, so tests (and users tuning an
 * interactive frontend) can observe cache behaviour instead of
 * guessing. A new key replaces the slot's entry; the session clears
 * the slot on every filter change, so it never holds a stale list.
 *
 * MemoCache itself is not synchronized: every instance lives behind an
 * externally held lock (SessionMemo's cache under SessionMemo::mutex,
 * annotated AM_GUARDED_BY so the thread-safety analysis enforces the
 * contract at the member level). Keeping the lock outside means one
 * acquisition covers a tryGet()/insertOrGet() pair instead of two.
 */

#ifndef AFTERMATH_SESSION_QUERY_CACHE_H
#define AFTERMATH_SESSION_QUERY_CACHE_H

#include <cstdint>
#include <optional>
#include <utility>

namespace aftermath {
namespace session {

/** Cumulative hit/build counters of one memoization cache. */
struct CacheCounters
{
    /** Queries answered from the cache. */
    std::uint64_t hits = 0;

    /** Queries that had to construct the value. */
    std::uint64_t builds = 0;

    /** Total queries observed. */
    std::uint64_t total() const { return hits + builds; }
};

/**
 * A one-entry memo with hit/build accounting: the value of the last
 * key inserted, until clear() or an insert under another key.
 * References it returns stay valid until then. Counters are cumulative
 * across clear() so invalidation (filter changes) remains observable
 * from the outside.
 */
template <typename Key, typename Value>
class MemoCache
{
  public:
    /**
     * The cached value for @p key, or nullptr on a miss. A hit counts;
     * a miss counts nothing (pair with insertOrGet(), which counts the
     * build, when the caller computes the value out of line — the
     * async query engine computes on a worker between the two calls).
     */
    const Value *
    tryGet(const Key &key)
    {
        if (!entry_ || entry_->first != key)
            return nullptr;
        counters_.hits++;
        return &entry_->second;
    }

    /**
     * Store @p value under @p key (counting one build) and return the
     * cached copy. If the key is already present — another computation
     * of the same query published first — the existing entry wins and
     * nothing is counted, so racing producers never double-count.
     */
    const Value &
    insertOrGet(const Key &key, Value &&value)
    {
        if (!entry_ || entry_->first != key) {
            counters_.builds++;
            entry_.emplace(key, std::move(value));
        }
        return entry_->second;
    }

    /** Drop the entry; counters are preserved. */
    void clear() { entry_.reset(); }

    /** Cumulative hit/build counters. */
    const CacheCounters &counters() const { return counters_; }

  private:
    std::optional<std::pair<Key, Value>> entry_;
    CacheCounters counters_;
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_QUERY_CACHE_H
