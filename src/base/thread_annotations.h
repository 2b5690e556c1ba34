/**
 * @file
 * Clang Thread Safety Analysis attribute macros.
 *
 * The locking discipline of the parallel subsystems (engine, caches,
 * pool) is compiler-checked: every guarded member carries
 * AM_GUARDED_BY, every lock-requiring helper carries AM_REQUIRES, and
 * clang builds run with -Wthread-safety -Werror=thread-safety, so a
 * forgotten lock is a compile error instead of a TSan roll of the dice.
 * The macros expand to clang's capability attributes and to nothing on
 * other compilers, so GCC builds are unaffected.
 *
 * Use the annotated wrappers in base/mutex.h (base::Mutex,
 * base::MutexLock, base::CondVar) rather than the std primitives —
 * std::mutex carries no capability attributes, so the analysis cannot
 * see through it, and the wrappers add the debug lock-rank deadlock
 * checker the static analysis cannot express.
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */

#ifndef AFTERMATH_BASE_THREAD_ANNOTATIONS_H
#define AFTERMATH_BASE_THREAD_ANNOTATIONS_H

#if defined(__clang__)
#define AM_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define AM_THREAD_ANNOTATION__(x) // no-op outside clang
#endif

/** Marks a type as a lockable capability (base::Mutex). */
#define AM_CAPABILITY(x) AM_THREAD_ANNOTATION__(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define AM_SCOPED_CAPABILITY AM_THREAD_ANNOTATION__(scoped_lockable)

/** Member readable/writable only while holding the named capability. */
#define AM_GUARDED_BY(x) AM_THREAD_ANNOTATION__(guarded_by(x))

/** Pointer member whose *pointee* is guarded by the named capability. */
#define AM_PT_GUARDED_BY(x) AM_THREAD_ANNOTATION__(pt_guarded_by(x))

/** Function that must be called with the capabilities held. */
#define AM_REQUIRES(...) \
    AM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/** Function that must be called with the capabilities held shared. */
#define AM_REQUIRES_SHARED(...) \
    AM_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/** Function that acquires the capability and does not release it. */
#define AM_ACQUIRE(...) \
    AM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/** Function that releases a held capability. */
#define AM_RELEASE(...) \
    AM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/** Function that acquires the capability iff it returns @p ret. */
#define AM_TRY_ACQUIRE(ret, ...) \
    AM_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))

/** Function that must be called with the capabilities NOT held. */
#define AM_EXCLUDES(...) AM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/** Declares that this capability must be acquired before the others. */
#define AM_ACQUIRED_BEFORE(...) \
    AM_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

/** Declares that this capability must be acquired after the others. */
#define AM_ACQUIRED_AFTER(...) \
    AM_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/** Function returning a reference to the named capability. */
#define AM_RETURN_CAPABILITY(x) AM_THREAD_ANNOTATION__(lock_returned(x))

/** Assert (at runtime) that the capability is held; informs analysis. */
#define AM_ASSERT_CAPABILITY(x) \
    AM_THREAD_ANNOTATION__(assert_capability(x))

/**
 * Escape hatch: disable the analysis for one function. Every use needs
 * a one-line justification comment, exactly like a NOLINT.
 */
#define AM_NO_THREAD_SAFETY_ANALYSIS \
    AM_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif // AFTERMATH_BASE_THREAD_ANNOTATIONS_H
