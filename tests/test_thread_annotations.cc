/**
 * @file
 * Tests of the concurrency-contract primitives in base/mutex.h: Mutex
 * and MutexLock semantics, CondVar wait/notify and timeout, and the
 * runtime lock-rank checker — correct-order nesting succeeds, while
 * out-of-order and same-rank acquisitions abort with a violation
 * report (death tests). The compile-time half of the contract (the
 * AM_* thread-safety attributes) is exercised by the clang-only
 * compile-fail harness in tests/compile_fail/.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace aftermath {
namespace base {
namespace {

/** A counter whose guarded access the tests hammer from many threads. */
struct Shared
{
    Mutex mutex;
    int value AM_GUARDED_BY(mutex) = 0;
    bool ready AM_GUARDED_BY(mutex) = false;
    CondVar cv;
};

TEST(Mutex, MutexLockProvidesMutualExclusion)
{
    Shared shared;
    constexpr int kThreads = 4;
    constexpr int kIncrements = 20'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&shared] {
            for (int i = 0; i < kIncrements; i++) {
                MutexLock lock(shared.mutex);
                shared.value++;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    MutexLock lock(shared.mutex);
    EXPECT_EQ(shared.value, kThreads * kIncrements);
}

TEST(Mutex, TryLockFailsWhileHeldAndSucceedsWhenFree)
{
    Mutex mutex;
    mutex.lock();
    // Probe from another thread: tryLock on one's own held std::mutex
    // is undefined behaviour, cross-thread it must simply fail.
    std::thread prober([&mutex] {
        bool locked = mutex.tryLock();
        EXPECT_FALSE(locked);
        if (locked)
            mutex.unlock();
    });
    prober.join();
    mutex.unlock();

    bool locked = mutex.tryLock();
    EXPECT_TRUE(locked);
    if (locked)
        mutex.unlock();
}

TEST(CondVar, WaitWakesOnNotify)
{
    Shared shared;
    std::thread producer([&shared] {
        MutexLock lock(shared.mutex);
        shared.ready = true;
        shared.value = 42;
        shared.cv.notifyAll();
    });
    {
        MutexLock lock(shared.mutex);
        while (!shared.ready)
            shared.cv.wait(lock);
        EXPECT_EQ(shared.value, 42);
    }
    producer.join();
}

TEST(CondVar, WaitForTimesOutAndKeepsTheLock)
{
    Shared shared;
    MutexLock lock(shared.mutex);
    std::cv_status status =
        shared.cv.waitFor(lock, std::chrono::milliseconds(5));
    EXPECT_EQ(status, std::cv_status::timeout);
    // The lock is still held after the timeout: the guarded write is
    // legal (and the scoped release in ~MutexLock stays balanced).
    shared.value = 1;
}

// -- The lock-rank checker -----------------------------------------------

TEST(LockRank, RanksAndNamesAreObservable)
{
    Mutex ranked(lockrank::kThreadPool, "test-pool");
    Mutex unranked;
    EXPECT_EQ(ranked.rank(), lockrank::kThreadPool);
    EXPECT_STREQ(ranked.name(), "test-pool");
    EXPECT_EQ(unranked.rank(), lockrank::kNone);
}

TEST(LockRank, CorrectOrderNestsAndIsTracked)
{
    Mutex outer(lockrank::kQueryEngine, "test-outer");
    Mutex inner(lockrank::kThreadPool, "test-inner");
    const std::size_t tracked = Mutex::rankChecksEnabled() ? 1 : 0;
    EXPECT_EQ(Mutex::heldRankedLocks(), 0u);
    {
        MutexLock outer_lock(outer);
        EXPECT_EQ(Mutex::heldRankedLocks(), tracked);
        {
            MutexLock inner_lock(inner);
            EXPECT_EQ(Mutex::heldRankedLocks(), 2 * tracked);
        }
        EXPECT_EQ(Mutex::heldRankedLocks(), tracked);
    }
    EXPECT_EQ(Mutex::heldRankedLocks(), 0u);
}

TEST(LockRank, UnrankedMutexesAreExemptInEitherOrder)
{
    // One pair per nesting order: nesting the same two mutexes both
    // ways would be a real lock-order inversion (and TSan reports it).
    Mutex ranked(lockrank::kThreadPool, "test-ranked");
    Mutex unranked;
    Mutex ranked_outer(lockrank::kThreadPool, "test-ranked-outer");
    Mutex unranked_inner;
    {
        // Ranked inside unranked…
        MutexLock a(unranked);
        MutexLock b(ranked);
        EXPECT_EQ(Mutex::heldRankedLocks(),
                  Mutex::rankChecksEnabled() ? 1u : 0u);
    }
    {
        // …and unranked inside ranked: both fine, by design.
        MutexLock a(ranked_outer);
        MutexLock b(unranked_inner);
    }
}

TEST(LockRank, WaitingWhileHoldingALowerRankIsAllowed)
{
    // A wait nested under the engine lock: a holder of kQueryEngine
    // sleeps on a condition of a higher-ranked mutex; the wake-up
    // re-acquisition must pass the order check.
    Mutex outer(lockrank::kQueryEngine, "test-outer");
    Mutex inner(lockrank::kThreadPool, "test-inner");
    CondVar cv;
    MutexLock outer_lock(outer);
    MutexLock inner_lock(inner);
    std::cv_status status =
        cv.waitFor(inner_lock, std::chrono::milliseconds(1));
    EXPECT_EQ(status, std::cv_status::timeout);
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts)
{
    if (!Mutex::rankChecksEnabled())
        GTEST_SKIP() << "lock-rank checks compiled out";
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Mutex inner(lockrank::kThreadPool, "test-inner");
    Mutex outer(lockrank::kQueryEngine, "test-outer");
    // The report names both mutexes: the one being acquired and the
    // held one that outranks it.
    EXPECT_DEATH(
        {
            MutexLock inner_lock(inner);
            MutexLock outer_lock(outer);
        },
        "lock-rank violation.*test-outer.*test-inner");
}

TEST(LockRankDeathTest, SameRankAcquisitionAborts)
{
    if (!Mutex::rankChecksEnabled())
        GTEST_SKIP() << "lock-rank checks compiled out";
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Two distinct mutexes of one rank model the shard-vs-shard trap
    // that visiting shards one at a time avoids: nesting them is an
    // abort, whichever is first.
    Mutex first(lockrank::kTraceIndexShard, "test-shard-a");
    Mutex second(lockrank::kTraceIndexShard, "test-shard-b");
    EXPECT_DEATH(
        {
            MutexLock a(first);
            MutexLock b(second);
        },
        "lock-rank violation");
}

TEST(LockRankDeathTest, TryLockSkipsTheCheckButStillCounts)
{
    if (!Mutex::rankChecksEnabled())
        GTEST_SKIP() << "lock-rank checks compiled out";
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Mutex inner(lockrank::kThreadPool, "test-inner");
    Mutex outer(lockrank::kQueryEngine, "test-outer");
    {
        // Out-of-order tryLock cannot deadlock, so it is allowed…
        MutexLock inner_lock(inner);
        bool locked = outer.tryLock();
        EXPECT_TRUE(locked);
        EXPECT_EQ(Mutex::heldRankedLocks(), 2u);
        if (locked)
            outer.unlock();
    }
    // …but the recorded hold still outranks later blocking
    // acquisitions, which must abort.
    EXPECT_DEATH(
        {
            bool locked = inner.tryLock();
            EXPECT_TRUE(locked);
            MutexLock outer_lock(outer);
            if (locked)
                inner.unlock();
        },
        "lock-rank violation");
}

/**
 * Deliberately violates the contract to probe the checker's release
 * bookkeeping. The thread-safety analysis would (rightly) reject the
 * unbalanced release at compile time, which is exactly what the
 * runtime checker must catch when the analysis is not looking — hence
 * the opt-out.
 */
void
releaseUnheld(Mutex &mutex) AM_NO_THREAD_SAFETY_ANALYSIS
{
    mutex.unlock();
}

TEST(LockRankDeathTest, ReleasingAnUnheldRankedMutexAborts)
{
    if (!Mutex::rankChecksEnabled())
        GTEST_SKIP() << "lock-rank checks compiled out";
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Mutex mutex(lockrank::kTaskState, "test-unheld");
    EXPECT_DEATH(releaseUnheld(mutex), "does not hold");
}

} // namespace
} // namespace base
} // namespace aftermath
