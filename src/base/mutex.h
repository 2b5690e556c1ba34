/**
 * @file
 * Annotated mutex primitives plus the debug lock-rank deadlock checker.
 *
 * base::Mutex / base::MutexLock / base::CondVar wrap the std primitives
 * with two layers the library's concurrency contract rests on:
 *
 *  1. Clang Thread Safety attributes (base/thread_annotations.h), so
 *     every AM_GUARDED_BY member access is compile-checked under
 *     -Werror=thread-safety. The analysis proves "no guarded access
 *     without the lock" on *all* paths, not just the schedules a TSan
 *     run happens to exercise.
 *
 *  2. A runtime lock-rank checker for what annotations cannot express:
 *     deadlock freedom. Every Mutex may carry a rank from the registry
 *     below; a thread-local stack of held ranked locks detects
 *     out-of-order acquisition the moment it happens — before the
 *     schedule that actually deadlocks ever runs — and aborts with both
 *     acquisition sites. Enabled when the library is compiled with
 *     AFTERMATH_LOCK_RANK_CHECKS=1 (the default of the CMake option;
 *     see Mutex::rankChecksEnabled()).
 *
 * ## The global lock order (rank registry)
 *
 * Lower rank = acquired earlier. A thread may only acquire a ranked
 * mutex whose rank is strictly greater than that of every ranked mutex
 * it already holds; acquiring an equal rank (including re-entry on the
 * same mutex) aborts too. Unranked mutexes (the default constructor)
 * are exempt — use a rank for any mutex that can nest with another.
 *
 *   kDaemonServer (40)      daemon::Server::mutex_ — connection list +
 *                           shared-trace registry; held while opening a
 *                           trace entry, before any connection or
 *                           session lock.
 *   kDaemonConnection (50)  one daemon connection's state: in-flight
 *                           request map + response send queue. Held by
 *                           request handlers across submit() (every
 *                           session/engine lock ranks higher) and by
 *                           completion callbacks enqueueing responses.
 *   kDaemonClient (60)      daemon::Client::mutex_ — pending-reply map
 *                           of the client library (never nests with
 *                           server-side locks in one thread; ranked for
 *                           in-process loopback tests).
 *   kQueryEngine (100)      session::QueryEngine::poolMutex_ — the
 *                           outermost lock of the query plane: held
 *                           across lazy pool start + enqueue
 *                           (withPool) and across a resize's drain
 *                           and join (setWorkers).
 *   kTraceIndexShard (300)  one index::TraceIndex per-CPU shard (that
 *                           CPU's pyramid and counter indexes); shards
 *                           never nest with each other.
 *   kThreadPool (400)       base::ThreadPool::mutex_ — every enqueue
 *                           path ends here, so everything above must
 *                           rank lower.
 *   kTicketState (500)      per-query completion state (TicketState).
 *   kTaskState (510)        base::ThreadPool::parallelFor join gates.
 *
 * The registry is the one place the order lives; the acquisition-order
 * rationale is documented with the owning classes. When adding a new
 * mutex: find every lock that can be held while yours is acquired and
 * every lock acquired while yours is held, pick a rank strictly between
 * them, and add it here with a one-line owner note.
 */

#ifndef AFTERMATH_BASE_MUTEX_H
#define AFTERMATH_BASE_MUTEX_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "base/thread_annotations.h"

namespace aftermath {
namespace base {

/** The lock-rank registry; see the file comment for the full order. */
namespace lockrank {

/** Unranked: exempt from order checking (leaf locks that never nest). */
inline constexpr int kNone = -1;

inline constexpr int kDaemonServer = 40;
inline constexpr int kDaemonConnection = 50;
inline constexpr int kDaemonClient = 60;
inline constexpr int kQueryEngine = 100;
inline constexpr int kTraceIndexShard = 300;
inline constexpr int kThreadPool = 400;
inline constexpr int kTicketState = 500;
inline constexpr int kTaskState = 510;

} // namespace lockrank

/**
 * A std::mutex with a thread-safety capability attribute and an
 * optional lock rank. Prefer MutexLock over manual lock()/unlock().
 * Same cost as std::mutex when rank checks are compiled out; with
 * checks on, ranked mutexes pay a thread-local stack push/pop.
 */
class AM_CAPABILITY("mutex") Mutex
{
  public:
    /** An unranked mutex (no order checking; for leaf locks only). */
    Mutex() : Mutex(lockrank::kNone, "unranked") {}

    /**
     * A ranked mutex named @p name (shown in violation reports). Pick
     * @p rank from the lockrank registry above.
     */
    explicit Mutex(int rank, const char *name)
        : rank_(rank), name_(name)
    {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /**
     * Acquire. The default arguments capture the call site for the
     * rank checker's violation report; never pass them explicitly.
     */
    void lock(const char *file = __builtin_FILE(),
              int line = __builtin_LINE()) AM_ACQUIRE();

    /** Release. */
    void unlock() AM_RELEASE();

    /**
     * Acquire without blocking; true on success. A try-lock cannot
     * deadlock, so it skips the order check but still records the held
     * lock for later blocking acquisitions to check against.
     */
    bool tryLock(const char *file = __builtin_FILE(),
                 int line = __builtin_LINE()) AM_TRY_ACQUIRE(true);

    /** This mutex's rank (lockrank::kNone when unranked). */
    int rank() const { return rank_; }

    /** The registry name given at construction. */
    const char *name() const { return name_; }

    /** True when the library was compiled with rank checking on. */
    static bool rankChecksEnabled();

    /**
     * Ranked locks the calling thread currently holds (0 when checks
     * are compiled out). Test observability only.
     */
    static std::size_t heldRankedLocks();

  private:
    friend class CondVar;

    /** Rank-checker hooks around a CondVar wait (see mutex.cc). */
    void noteWaitRelease();
    void noteWaitReacquire();

    std::mutex impl_;
    const int rank_;
    const char *const name_;
};

/**
 * RAII lock over a base::Mutex, annotated as a scoped capability so
 * the analysis credits the whole scope with the lock. Not movable: a
 * lock's scope is its lifetime.
 */
class AM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex,
                       const char *file = __builtin_FILE(),
                       int line = __builtin_LINE()) AM_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex.lock(file, line);
    }

    ~MutexLock() AM_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;

    Mutex &mutex_;
};

/**
 * Condition variable over base::Mutex. wait() atomically releases the
 * lock while sleeping and re-acquires before returning — including the
 * rank-checker bookkeeping, so a thread that waits while holding a
 * lower-ranked lock is caught on wake-up exactly like a fresh
 * out-of-order acquisition.
 *
 * No predicate overloads on purpose: write the condition as an
 * explicit `while (!cond) cv.wait(lock);` loop in the locked scope, so
 * the guarded reads of the condition sit where the thread-safety
 * analysis can see the held capability (a predicate lambda would be
 * opaque to it).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Release, sleep until notified, re-acquire. Spurious wake-ups
     *  happen; always re-check the condition in a loop. */
    void wait(MutexLock &lock);

    /** wait() with a timeout; std::cv_status::timeout on expiry. */
    template <typename Rep, typename Period>
    std::cv_status
    waitFor(MutexLock &lock,
            const std::chrono::duration<Rep, Period> &timeout)
    {
        Mutex &mutex = lock.mutex_;
        mutex.noteWaitRelease();
        std::unique_lock<std::mutex> relock(mutex.impl_, std::adopt_lock);
        std::cv_status status = cv_.wait_for(relock, timeout);
        relock.release(); // MutexLock keeps ownership.
        mutex.noteWaitReacquire();
        return status;
    }

    /** Wake one waiter. */
    void notifyOne() { cv_.notify_one(); }

    /** Wake every waiter. */
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace base
} // namespace aftermath

#endif // AFTERMATH_BASE_MUTEX_H
