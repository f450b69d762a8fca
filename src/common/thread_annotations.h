// Clang thread-safety analysis macros (see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
//
// Under Clang the build adds -Wthread-safety -Werror=thread-safety, so a
// GUARDED_BY member read without its mutex held, or a REQUIRES function
// called without the capability, is a compile error. Under other compilers
// the macros expand to nothing and serve as checked documentation.
//
// Conventions used across the runtime:
//  * every mutex-protected member is declared with GUARDED_BY(mu_);
//  * private helpers that assume the lock is held are suffixed `Locked` and
//    annotated REQUIRES(mu_);
//  * code takes locks through the annotated skadi::Mutex / skadi::MutexLock
//    wrappers in src/common/mutex.h, never through std::mutex directly
//    (enforced by tools/lint.py).
#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SKADI_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SKADI_THREAD_ANNOTATION_(x)  // no-op
#endif

// A type that acts as a lock/capability (e.g. a mutex wrapper).
#define CAPABILITY(x) SKADI_THREAD_ANNOTATION_(capability(x))

// An RAII type that acquires a capability in its constructor and releases it
// in its destructor.
#define SCOPED_CAPABILITY SKADI_THREAD_ANNOTATION_(scoped_lockable)

// Data member protected by the given capability.
#define GUARDED_BY(x) SKADI_THREAD_ANNOTATION_(guarded_by(x))

// Pointer member whose pointee is protected by the given capability.
#define PT_GUARDED_BY(x) SKADI_THREAD_ANNOTATION_(pt_guarded_by(x))

// Function requires the capability (caller must hold it).
#define REQUIRES(...) SKADI_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SKADI_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// Function acquires/releases the capability.
#define ACQUIRE(...) SKADI_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SKADI_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) SKADI_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SKADI_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

// Function attempts to acquire the capability; first argument is the return
// value that indicates success.
#define TRY_ACQUIRE(...) \
  SKADI_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (catches self-deadlock).
#define EXCLUDES(...) SKADI_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Declares ordering between capabilities (documentation for the analyzer;
// TSan's deadlock detector checks ordering dynamically).
#define ACQUIRED_BEFORE(...) SKADI_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) SKADI_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) SKADI_THREAD_ANNOTATION_(lock_returned(x))

// Asserts at runtime that the calling thread holds the capability; informs
// the analysis without acquiring.
#define ASSERT_CAPABILITY(x) SKADI_THREAD_ANNOTATION_(assert_capability(x))

// Escape hatch: disables analysis for one function. Use sparingly, with a
// comment explaining why the function is safe.
#define NO_THREAD_SAFETY_ANALYSIS SKADI_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_
