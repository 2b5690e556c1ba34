/**
 * @file
 * The asynchronous query plane behind session::Session::submit().
 *
 * Session::submit(spec) returns a QueryTicket immediately and executes
 * the query on the QueryEngine's shared base::ThreadPool as one fan-out
 * job (see query_engine.cc). A ticket is a future with a status and a
 * cancel: wait()/result() block until the query finished; cancel()
 * completes a still-queued query Cancelled at once and stops a running
 * one at its next chunk boundary; and every view or filter mutation
 * bumps the session's generation counters so its stale in-flight
 * queries cancel at the next chunk boundary instead of wasting cores
 * on a view the user already left. Each session is its own
 * cancellation scope: sessions sharing one engine (a SessionGroup's
 * variants, the daemon's clients) share its pool, never each other's
 * cancellations.
 *
 * The two-queue contract: every spec carries a QueryPriority, and the
 * engine drains the Interactive queue strictly before the Background
 * queue. Interactive work (render, stats, histogram, task list,
 * extrema) jumps ahead of every queued Background task, and running
 * Background fan-out jobs (warm-up, background stats prefetches) poll
 * base::ThreadPool::hasHighPriorityWork() at their chunk boundaries —
 * the same boundaries at which they poll the cancellation token — and
 * yield their worker by re-submitting their continuation at Background
 * priority. A background warm-up storm therefore delays a
 * just-submitted interactive query by at most one chunk (one index
 * build, one per-CPU scan), never by the whole storm. The claim-cursor
 * protocol makes yielding invisible in the results: continuations
 * resume exactly where the job left off, and the merged output stays
 * bit-identical to a serial run.
 *
 * Pool lifetime: the pool starts lazily on the first submission — a
 * session that never queries, or whose engine a daemon binding
 * replaces, starts no thread — and lives until setWorkers() resizes it
 * or the engine dies.
 *
 * Executors never touch the Session object itself — they capture shared
 * ownership of everything they read (the trace, the sharded index
 * store, a filter snapshot) so sessions stay movable and destruction is
 * safe with queries in flight (the engine's pool drains before it
 * dies). The index store (counter indexes, pyramids, task index) is
 * shareable across every client viewing one trace. No
 * answer is remembered: interval statistics, histograms and task lists
 * are computed on every query from the trace and its indexes, and a
 * filter-keyed answer reads the filter snapshot taken at submit.
 *
 * ## Lock order
 *
 * The query plane's global lock order (enforced at runtime by the
 * lock-rank checker; registry in base/mutex.h):
 *
 *   daemon::Server (kDaemonServer, 40)
 *     -> daemon connection state (kDaemonConnection, 50)
 *       -> QueryEngine::poolMutex_ (kQueryEngine, 100)
 *         -> base::ThreadPool::mutex_ (kThreadPool, 400)
 *
 * The engine->pool edge is the only real nesting inside the plane:
 * withPool() holds poolMutex_ across lazy start + enqueue, and
 * setWorkers() holds it across the old pool's drain and join. The
 * daemon ranks sit below it because a connection's request handler
 * holds its connection lock while submitting into the engine; ticket
 * completion callbacks run with *no* lock held (they fire after
 * TicketState::mutex is released), so a callback may re-enter the
 * daemon's low-ranked locks to enqueue a response without inverting
 * the order. Every other mutex in the plane — the index::TraceIndex
 * shards (kTraceIndexShard, 300), one per CPU, each guarding that
 * CPU's pyramid and counter indexes, and the leaf completion state
 * TicketState (kTicketState, 500) — is acquired on its own or strictly
 * after the ones above it in rank order, never the other way around.
 */

#ifndef AFTERMATH_SESSION_QUERY_ENGINE_H
#define AFTERMATH_SESSION_QUERY_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "base/logging.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/thread_pool.h"
#include "base/time_interval.h"
#include "base/types.h"

namespace aftermath {
namespace session {

/** Lifecycle of one submitted query. */
enum class QueryStatus
{
    /** Queued; no worker picked it up yet. */
    Pending,

    /** A worker is executing it. */
    Running,

    /** Finished; the result is available. */
    Done,

    /** Abandoned — cancel() or a generation bump; no result. */
    Cancelled,
};

namespace detail {

/**
 * Shared completion state of one query: the future's storage, the
 * cooperative cancellation token, the optional completion callback,
 * and the generation snapshot checked against the session's live
 * counter. Shared between the ticket, the executor tasks, and nothing
 * else.
 */
template <typename Result>
struct TicketState
{
    mutable base::Mutex mutex{base::lockrank::kTicketState, "ticket"};
    base::CondVar cv;
    QueryStatus status AM_GUARDED_BY(mutex) = QueryStatus::Pending;
    std::optional<Result> result AM_GUARDED_BY(mutex);
    base::CancellationToken cancel;

    /**
     * Invoked exactly once on the terminal transition (Done or
     * Cancelled), *after* the state mutex is released — so a callback
     * may acquire low-ranked locks (the daemon enqueues the wire
     * response here) without inverting the lock order. Runs on the
     * completing thread (an engine worker, or the caller of cancel()).
     */
    std::function<void(QueryStatus)> callback AM_GUARDED_BY(mutex);

    /** Generation at submit; the query is stale once live differs.
     *  Written before the query is published, then read-only. */
    std::uint64_t generation = 0;

    /** The session's live counter; null = generation-immune (warm-up).
     *  Written before the query is published, then read-only. */
    std::shared_ptr<const std::atomic<std::uint64_t>> live;

    /** True once the query should stop: cancelled or stale. */
    bool
    stale() const
    {
        if (cancel.cancelled())
            return true;
        return live &&
               live->load(std::memory_order_acquire) != generation;
    }

    /** Transition Pending -> Running (first worker in). */
    void
    markRunning()
    {
        base::MutexLock lock(mutex);
        if (status == QueryStatus::Pending)
            status = QueryStatus::Running;
    }

    /** Deliver the result unless the ticket was already cancelled. */
    void
    complete(Result value)
    {
        std::function<void(QueryStatus)> cb;
        {
            base::MutexLock lock(mutex);
            if (status == QueryStatus::Done ||
                status == QueryStatus::Cancelled)
                return;
            result.emplace(std::move(value));
            status = QueryStatus::Done;
            cv.notifyAll();
            cb = std::move(callback);
            callback = nullptr;
        }
        if (cb)
            cb(QueryStatus::Done);
    }

    /** Terminal Cancelled transition (idempotent, loses to Done). */
    void
    completeCancelled()
    {
        std::function<void(QueryStatus)> cb;
        {
            base::MutexLock lock(mutex);
            if (status == QueryStatus::Done ||
                status == QueryStatus::Cancelled)
                return;
            status = QueryStatus::Cancelled;
            cv.notifyAll();
            cb = std::move(callback);
            callback = nullptr;
        }
        if (cb)
            cb(QueryStatus::Cancelled);
    }
};

} // namespace detail

/**
 * The future half of one Session::submit() call: status observation,
 * blocking wait, result access, and cooperative cancellation. Tickets
 * are cheap shared handles — copy and pass them freely; all methods are
 * safe from any thread. A default-constructed ticket is inert.
 */
template <typename Result>
class QueryTicket
{
  public:
    QueryTicket() = default;

    /** Internal: wraps the shared state created by Session::submit. */
    explicit QueryTicket(
        std::shared_ptr<detail::TicketState<Result>> state)
        : state_(std::move(state))
    {}

    /** True if the ticket tracks a submitted query. */
    bool valid() const { return state_ != nullptr; }

    /** Current lifecycle state. */
    QueryStatus
    status() const
    {
        AFTERMATH_ASSERT(state_ != nullptr, "status() on an empty ticket");
        base::MutexLock lock(state_->mutex);
        return state_->status;
    }

    /** The session generation this query was submitted under. */
    std::uint64_t
    generation() const
    {
        AFTERMATH_ASSERT(state_ != nullptr,
                         "generation() on an empty ticket");
        return state_->generation;
    }

    /**
     * Request cancellation. A query no worker picked up yet completes
     * Cancelled before this returns (its queued drainers later see the
     * token and run nothing); a running query stops at its next chunk
     * boundary. A query that already completed keeps its result.
     */
    void
    cancel()
    {
        AFTERMATH_ASSERT(state_ != nullptr, "cancel() on an empty ticket");
        state_->cancel.requestCancel();
        if (status() == QueryStatus::Pending)
            state_->completeCancelled();
    }

    /** Block until the query is Done or Cancelled; returns which. */
    QueryStatus
    wait() const
    {
        AFTERMATH_ASSERT(state_ != nullptr, "wait() on an empty ticket");
        base::MutexLock lock(state_->mutex);
        while (state_->status != QueryStatus::Done &&
               state_->status != QueryStatus::Cancelled)
            state_->cv.wait(lock);
        return state_->status;
    }

    /** True once wait() would not block. */
    bool
    done() const
    {
        QueryStatus s = status();
        return s == QueryStatus::Done || s == QueryStatus::Cancelled;
    }

    /**
     * Wait and return the result. Panics on a cancelled query — call
     * sites that may race a cancellation should wait() and check.
     * The reference is stable: Done is terminal and the result is
     * never written again, so reading through it without the lock is
     * safe once this returns.
     */
    const Result &
    result() const
    {
        QueryStatus s = wait();
        AFTERMATH_ASSERT(s == QueryStatus::Done,
                         "result() on a cancelled query");
        base::MutexLock lock(state_->mutex);
        return *state_->result;
    }

    /** Wait and move the result out (panics on a cancelled query). */
    Result
    take()
    {
        QueryStatus s = wait();
        AFTERMATH_ASSERT(s == QueryStatus::Done,
                         "take() on a cancelled query");
        base::MutexLock lock(state_->mutex);
        return std::move(*state_->result);
    }

    /**
     * Register @p fn to run once, on the terminal transition (Done or
     * Cancelled). If the query already finished, @p fn runs inline
     * before returning; otherwise it runs on the completing thread
     * (an engine worker, or the caller of cancel()), with no ticket
     * lock held — acquiring other locks inside is safe. One callback
     * per ticket; a second registration replaces an unfired first.
     * The daemon's push path: completion encodes and enqueues the
     * response frame here instead of parking a thread per request.
     */
    void
    onComplete(std::function<void(QueryStatus)> fn)
    {
        AFTERMATH_ASSERT(state_ != nullptr,
                         "onComplete() on an empty ticket");
        QueryStatus terminal;
        {
            base::MutexLock lock(state_->mutex);
            if (state_->status != QueryStatus::Done &&
                state_->status != QueryStatus::Cancelled) {
                state_->callback = std::move(fn);
                return;
            }
            terminal = state_->status;
        }
        fn(terminal);
    }

  private:
    std::shared_ptr<detail::TicketState<Result>> state_;
};

/**
 * The shared execution substrate of one or more sessions: a lazily
 * started base::ThreadPool with a two-level priority queue, and
 * nothing else — cancellation scopes belong to the sessions. A
 * SessionGroup points every variant at one engine so group-wide work
 * (overlapped warm-up, submitAll) shares one pool instead of parking
 * workers per variant.
 *
 * Every method is safe from any thread: the daemon's connection
 * threads submit into one shared engine while setWorkers() may resize
 * its pool. The pool is never exposed by reference, because a resize
 * replaces it; every enqueue goes through withPool(), which holds
 * poolMutex_ across lazy start + enqueue.
 */
class QueryEngine
{
  public:
    /** An engine whose pool will run @p workers threads (0 = one per
     *  hardware thread). The pool starts on the first submit, and
     *  drains both queues before it dies with the engine. */
    explicit QueryEngine(unsigned workers = 1);

    QueryEngine(const QueryEngine &) = delete;
    QueryEngine &operator=(const QueryEngine &) = delete;

    /** Effective worker count of the (possibly not yet started) pool. */
    unsigned
    workers() const AM_EXCLUDES(poolMutex_)
    {
        base::MutexLock lock(poolMutex_);
        return workers_;
    }

    /**
     * Resize the pool; takes effect immediately (a live pool drains its
     * queues, queued background work included, and joins before the
     * new size applies; the next submission starts the new pool).
     */
    void setWorkers(unsigned workers);

    /**
     * Run @p body with the live pool (started on first use) while
     * holding poolMutex_, so a concurrent setWorkers() cannot replace
     * the pool between the start and the body's enqueues. The submit
     * path of every executor — and the only way to reach the pool. The
     * body must only enqueue — calling back into the engine deadlocks.
     */
    void withPool(const std::function<void(base::ThreadPool &)> &body)
        AM_EXCLUDES(poolMutex_);

    /**
     * Block until both of the pool's queues are empty and no task is
     * running. A pool not yet started counts as drained.
     */
    void drain() AM_EXCLUDES(poolMutex_);

    /**
     * Worker threads currently alive: 0 until the first submission
     * starts the pool (and between a setWorkers() resize and the next
     * submission), workers() otherwise. The probe of the lazy start.
     */
    unsigned liveWorkers() const;

  private:
    /** Start the pool if it is not running. */
    base::ThreadPool &ensurePoolLocked() AM_REQUIRES(poolMutex_);

    /**
     * Guards the pool handle: daemon connection threads submit
     * concurrently (the first one starts the pool), and setWorkers()
     * may replace the pool meanwhile. The outermost lock of the plane
     * (lockrank::kQueryEngine): withPool() and setWorkers() hold it
     * while acquiring the pool's own mutex underneath.
     */
    mutable base::Mutex poolMutex_{base::lockrank::kQueryEngine,
                                   "query-engine"};

    unsigned workers_ AM_GUARDED_BY(poolMutex_) = 1;
    /**
     * shared_ptr, not unique_ptr: drain() copies the handle and waits
     * on it *outside* poolMutex_, so concurrent submitters never queue
     * behind a full quiescence wait. A resize racing such a drain
     * defers the old pool's join to whichever thread drops the last
     * reference.
     */
    std::shared_ptr<base::ThreadPool> pool_ AM_GUARDED_BY(poolMutex_);
};

} // namespace session
} // namespace aftermath

#endif // AFTERMATH_SESSION_QUERY_ENGINE_H
