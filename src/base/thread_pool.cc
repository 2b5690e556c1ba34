#include "base/thread_pool.h"

#include <algorithm>

namespace aftermath {
namespace base {

unsigned
ThreadPool::defaultWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_workers)
{
    if (num_workers == 0)
        num_workers = defaultWorkers();
    workers_.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_.notifyAll();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task, TaskPriority priority)
{
    {
        MutexLock lock(mutex_);
        if (priority == TaskPriority::High) {
            highQueue_.push_back(std::move(task));
            // Published under the lock, read lock-free by yield probes:
            // the count only needs to be eventually visible, and the
            // release pairs with hasHighPriorityWork()'s acquire.
            highQueued_.fetch_add(1, std::memory_order_release);
        } else {
            queue_.push_back(std::move(task));
        }
    }
    wake_.notifyOne();
}

void
ThreadPool::wait()
{
    MutexLock lock(mutex_);
    while (!highQueue_.empty() || !queue_.empty() || running_ > 0)
        idle_.wait(lock);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stopping_ && highQueue_.empty() && queue_.empty())
                wake_.wait(lock);
            if (highQueue_.empty() && queue_.empty())
                return; // stopping_ with drained queues.
            if (!highQueue_.empty()) {
                task = std::move(highQueue_.front());
                highQueue_.pop_front();
                highQueued_.fetch_sub(1, std::memory_order_release);
            } else {
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            running_++;
        }
        task();
        {
            MutexLock lock(mutex_);
            running_--;
            if (highQueue_.empty() && queue_.empty() && running_ == 0)
                idle_.notifyAll();
        }
    }
}

namespace {

/** Completion gate for one parallelFor call: helpers still inside. */
struct ForState
{
    std::atomic<std::size_t> next{0}; ///< Next unclaimed index.
    Mutex mutex{lockrank::kTaskState, "parallel-for"};
    CondVar done;
    std::size_t active AM_GUARDED_BY(mutex) = 0; ///< Still draining.
};

} // namespace

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (n == 1 || workers_.size() < 2) {
        for (std::size_t i = 0; i < n; i++)
            body(i);
        return;
    }

    // One shared cursor; every participant pulls the next index until
    // the range is exhausted. The caller runs the same loop, so the
    // range completes even on a pool whose workers are all busy, and
    // waits until the last helper left the body — the state (and the
    // caller's body reference) outlives every access.
    auto state = std::make_shared<ForState>();
    auto drain = [state, n, &body] {
        for (;;) {
            std::size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            body(i);
        }
    };

    std::size_t helpers = std::min<std::size_t>(workers_.size(), n - 1);
    {
        MutexLock lock(state->mutex);
        state->active = helpers;
    }
    for (std::size_t h = 0; h < helpers; h++) {
        submit([state, drain] {
            drain();
            MutexLock lock(state->mutex);
            if (--state->active == 0)
                state->done.notifyAll();
        });
    }
    drain();

    MutexLock lock(state->mutex);
    while (state->active != 0)
        state->done.wait(lock);
}

} // namespace base
} // namespace aftermath
