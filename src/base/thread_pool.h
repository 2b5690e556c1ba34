/**
 * @file
 * A small fixed-size worker pool with two-level priority scheduling.
 *
 * The paper's interactivity hinges on building the per-(CPU, counter)
 * search structures before the user needs them (section VI-B) *and* on
 * never letting that background construction delay a just-submitted
 * interactive query. ThreadPool is the substrate for both: a fixed
 * worker count, a high-priority queue drained strictly before the
 * normal queue, a blocking parallelFor() — no work stealing, no
 * dynamic resizing. Long-running normal-priority tasks can poll
 * hasHighPriorityWork() at chunk boundaries and yield their worker by
 * re-submitting themselves (the session query engine's background
 * drainers do exactly that). Session queries and warm-up drive it; it
 * is usable standalone for any independent-chunk computation.
 */

#ifndef AFTERMATH_BASE_THREAD_POOL_H
#define AFTERMATH_BASE_THREAD_POOL_H

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace aftermath {
namespace base {

/**
 * Scheduling class of one submitted task. High tasks are popped
 * strictly before Normal tasks; within one class the order is FIFO.
 * The session query engine maps interactive queries to High and
 * background queries (warm-up, pyramid builds, anomaly scans) to
 * Normal.
 */
enum class TaskPriority
{
    High,
    Normal,
};

/**
 * A copyable flag for cooperative cancellation.
 *
 * Copies share one flag: the producer hands a copy to the running task,
 * keeps one itself, and requestCancel() from any holder is visible to
 * all of them. Tasks poll cancelled() at convenient points (chunk
 * boundaries) and abandon their work; cancellation is a request, never
 * preemption. Both operations are safe from any thread.
 */
class CancellationToken
{
  public:
    CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    /** Ask every holder of this token's work to stop. */
    void
    requestCancel() const
    {
        flag_->store(true, std::memory_order_release);
    }

    /** True once any copy of this token requested cancellation. */
    bool
    cancelled() const
    {
        return flag_->load(std::memory_order_acquire);
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/**
 * Fixed-size thread pool with a two-level priority queue.
 *
 * Tasks must not throw: an exception escaping a task terminates the
 * process (the pool runs analysis kernels that report failure through
 * their results, not through exceptions). submit()/parallelFor() may be
 * called from any thread, including from inside a pool task — but
 * parallelFor() must not, as a task waiting for sibling tasks on the
 * same pool can deadlock. Destruction drains both queues, then joins.
 *
 * Cooperative yielding: hasHighPriorityWork() is a lock-free probe a
 * running Normal task can poll at chunk boundaries; when it reports
 * queued High work, the task re-submits its continuation at Normal
 * priority and returns, freeing its worker for the High task. The pool
 * never preempts — yielding is entirely the task's choice.
 *
 * A queued task cannot be withdrawn: a task whose work may be abandoned
 * checks its own CancellationToken when it runs and returns at once if
 * it was cancelled (the session query engine's fan-out drainers do).
 */
class ThreadPool
{
  public:
    /**
     * Start @p num_workers worker threads; 0 picks defaultWorkers().
     */
    explicit ThreadPool(unsigned num_workers);

    /** Drains every queued task (both priorities), then joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution at @p priority. */
    void submit(std::function<void()> task,
                TaskPriority priority = TaskPriority::Normal);

    /**
     * True while High tasks are queued and waiting for a worker (a
     * running High task no longer counts). Lock-free; the yield probe
     * of background chunk loops.
     */
    bool
    hasHighPriorityWork() const
    {
        return highQueued_.load(std::memory_order_acquire) > 0;
    }

    /** Block until both queues are empty and no task is running. */
    void wait();

    /**
     * Run body(i) for every i in [0, n), distributing indexes across
     * the workers, and block until all calls returned. The calling
     * thread participates, so a pool is never idle-waited on from a
     * thread that could work. Chunking is by single index: bodies are
     * expected to be coarse (an index build, a per-CPU scan), where
     * scheduling overhead is noise. Helpers run at Normal priority.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Number of worker threads (>= 1). */
    unsigned numWorkers() const { return static_cast<unsigned>(workers_.size()); }

    /** Hardware concurrency, clamped to at least 1. */
    static unsigned defaultWorkers();

  private:
    /** Worker main loop: pop (High first) and run until drained. */
    void workerLoop();

    /** Written by the constructor only, then read-only (numWorkers()
     *  and parallelFor() read it without the lock). */
    std::vector<std::thread> workers_;

    mutable Mutex mutex_{lockrank::kThreadPool, "thread-pool"};
    CondVar wake_; ///< Signals queued work / shutdown.
    CondVar idle_; ///< Signals queues drained + all idle.

    /** Popped first. */
    std::deque<std::function<void()>> highQueue_ AM_GUARDED_BY(mutex_);

    /** Normal priority. */
    std::deque<std::function<void()>> queue_ AM_GUARDED_BY(mutex_);

    std::atomic<std::size_t> highQueued_{0}; ///< Mirror of highQueue_.size().

    /** Tasks currently executing. */
    std::size_t running_ AM_GUARDED_BY(mutex_) = 0;

    bool stopping_ AM_GUARDED_BY(mutex_) = false;
};

} // namespace base
} // namespace aftermath

#endif // AFTERMATH_BASE_THREAD_POOL_H
