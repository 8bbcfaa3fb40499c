#ifndef TEMPORADB_COMMON_THREAD_ANNOTATIONS_H_
#define TEMPORADB_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis support (-Wthread-safety), plus annotated
// mutex/condition-variable wrappers over the standard library.
//
// temporadb's concurrency correctness rests on lock discipline in exactly
// one place — the WAL group-commit queue (`CommitQueue`) — and on a
// *single-writer* contract everywhere else (the embedded Database, its
// version stores, and the WAL writer are externally synchronized; every
// scan runs on its calling thread, the writer's under a captured mutation
// epoch and a snapshot reader's under its pin, see version_store.h).  TSAN
// checks the lock discipline dynamically, on the interleavings a test
// happens to hit; these annotations let the clang frontend prove it on
// every build:
//
//   cmake -B build -S . -DTDB_ANALYZE=ON  # clang only; -Wthread-safety -Werror
//
// Every mutex in the tree must be a `Mutex` from this header, declared
// with `TDB_GUARDED_BY` on each member it protects; `tools/tdb_lint.py`
// rejects bare `std::mutex` / `std::lock_guard` / `std::unique_lock` /
// `std::condition_variable` outside this file, so the analysis cannot be
// bypassed by accident.
//
// The macro set mirrors the standard vocabulary (Abseil, LevelDB ports):
// under compilers without the capability attributes (GCC) every macro
// expands to nothing and the wrappers degrade to zero-cost shims over
// `std::mutex`.

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define TDB_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define TDB_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Declares a class to be a lockable capability ("mutex").
#define TDB_CAPABILITY(x) TDB_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define TDB_SCOPED_CAPABILITY TDB_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// The annotated member may only be accessed while holding `x`.
#define TDB_GUARDED_BY(x) TDB_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// The annotated pointer may be dereferenced only while holding `x`.
#define TDB_PT_GUARDED_BY(x) TDB_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// The calling thread must hold `...` to call the annotated function.
#define TDB_REQUIRES(...) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define TDB_ACQUIRE(...) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// The function releases the capability (which must be held on entry).
#define TDB_RELEASE(...) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// The caller must NOT hold `...` (deadlock prevention: the function
/// acquires it itself, or acquires something ordered before it).
#define TDB_EXCLUDES(...) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Global lock-ordering declarations (DESIGN.md §11).  Checked by clang
/// under `-Wthread-safety-beta`; under plain `-Wthread-safety` they are
/// accepted and serve as machine-readable documentation.
#define TDB_ACQUIRED_BEFORE(...) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define TDB_ACQUIRED_AFTER(...) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function returns a reference to the capability `x`.
#define TDB_RETURN_CAPABILITY(x) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Asserts (to the analysis) that the capability is held.
#define TDB_ASSERT_CAPABILITY(x) \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// Escape hatch: disables analysis of one function.  Every use must carry
/// a comment explaining why the analysis cannot see the invariant.
#define TDB_NO_THREAD_SAFETY_ANALYSIS \
  TDB_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace temporadb {

class CondVar;

/// An annotated mutex.  Functionally `std::mutex`; the capability
/// attribute is what lets clang track which locks protect which members.
class TDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TDB_ACQUIRE() { mu_.lock(); }
  void Unlock() TDB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock over `Mutex` — the only sanctioned way to hold one for a
/// scope.  Supports mid-scope `Unlock`/`Lock` pairs for the drop-the-lock-
/// around-I/O pattern (the group-commit leader, a worker draining morsels);
/// the destructor releases only if still held.
class TDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TDB_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }
  ~MutexLock() TDB_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex before scope end (e.g. to perform I/O).
  void Unlock() TDB_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  /// Reacquires after a mid-scope `Unlock`.
  void Lock() TDB_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_;
};

/// Condition variable bound to a `Mutex` (LevelDB-port style).
///
/// `Wait` must be called with the mutex held; it atomically releases the
/// mutex while blocked and reacquires it before returning.  The analysis
/// treats the capability as held across the call — which is exactly the
/// invariant guarded members rely on: they may only be *observed* with the
/// lock held, and `Wait` never returns without it.  Callers therefore use
/// the classic `while (!predicate()) cv.Wait();` shape rather than the
/// `std::condition_variable` predicate overload (a lambda would escape the
/// analysis).
class CondVar {
 public:
  explicit CondVar(Mutex* mu) : mu_(mu) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified.  The associated mutex must be held.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
  Mutex* const mu_;
};

}  // namespace temporadb

#endif  // TEMPORADB_COMMON_THREAD_ANNOTATIONS_H_
