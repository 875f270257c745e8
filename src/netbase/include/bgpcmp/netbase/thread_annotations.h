// Compile-time concurrency contracts (docs/TOOLING.md, "Static contracts").
//
// The deterministic-parallelism rules in docs/PARALLELISM.md used to live in
// comments and an after-the-fact runtime audit. This header turns them into
// declarations the compiler checks:
//
//   * BGPCMP_GUARDED_BY / BGPCMP_REQUIRES / BGPCMP_EXCLUDES wrap Clang's
//     Thread Safety Analysis attributes (no-ops elsewhere), enforced with
//     -Werror=thread-safety on every Clang configuration;
//   * Mutex / MutexLock are thin annotated wrappers over std::mutex —
//     libstdc++'s std::mutex carries no capability attributes, so a bare
//     guarded_by(std::mutex) member could never be satisfied.
//
// Shared read-only state needs no marker: it is complete when constructed
// and read through const methods, and detlint D2 rejects any mutable member
// that is not atomic, a Mutex or BGPCMP_GUARDED_BY, so a const read path
// cannot write unsynchronized state.
#pragma once

#include <mutex>

// Clang exposes the analysis through GNU-style attributes; every other
// compiler sees empty token soup. The __has_attribute probe keeps ancient
// Clangs (and Clang-imitating frontends without TSA) harmless.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define BGPCMP_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef BGPCMP_THREAD_ANNOTATION_
#define BGPCMP_THREAD_ANNOTATION_(x)
#endif

/// Declares a type to be a lockable capability ("mutex" in diagnostics).
#define BGPCMP_CAPABILITY(x) BGPCMP_THREAD_ANNOTATION_(capability(x))
/// Declares an RAII type that acquires in its constructor, releases in its
/// destructor.
#define BGPCMP_SCOPED_CAPABILITY BGPCMP_THREAD_ANNOTATION_(scoped_lockable)
/// Data member readable/writable only while holding `x`.
#define BGPCMP_GUARDED_BY(x) BGPCMP_THREAD_ANNOTATION_(guarded_by(x))
/// Pointer member whose pointee is guarded by `x`.
#define BGPCMP_PT_GUARDED_BY(x) BGPCMP_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function that must be called with the listed capabilities held.
#define BGPCMP_REQUIRES(...) \
  BGPCMP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function that must be called with the listed capabilities NOT held.
#define BGPCMP_EXCLUDES(...) BGPCMP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Function that acquires the listed capabilities (the implicit `this` for a
/// capability type when the list is empty).
#define BGPCMP_ACQUIRE(...) \
  BGPCMP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function that releases them.
#define BGPCMP_RELEASE(...) \
  BGPCMP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function that acquires on a given return value.
#define BGPCMP_TRY_ACQUIRE(...) \
  BGPCMP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Escape hatch for code the analysis cannot model; use sparingly and say why.
#define BGPCMP_NO_THREAD_SAFETY_ANALYSIS \
  BGPCMP_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Ordering contracts (tools/detlint rules D6/D9/D10). These expand to nothing
// for the compiler; detlint reads them as facts.

/// Empty, and read by no rule: construction is the warm step, so nothing is
/// left to declare. Kept only because bench/pipeline/serve.cpp still names it.
#define BGPCMP_REQUIRES_WARMED(...)

/// Declares a function pure in its explicit inputs at chunk granularity: no
/// mutable function-local statics and no writes through unannotated
/// namespace-scope globals. This is the machine-readable form of the "pure
/// in (world, config, chunk)" comments on run_scale_chunk and the shard
/// codec: detlint D10 chases every reachable call and fails on shared state
/// the chunk did not build for itself, and D9 additionally rejects raw draws
/// on an unforked root Rng in the body. Expands to nothing.
#define BGPCMP_PURE_CHUNK

/// Ranks a Mutex in the global acquisition order. detlint D6 builds the
/// acquisition graph from MutexLock/.lock() sites (including locks reached
/// through calls made while a lock is held) and fails on any cycle; where
/// both mutexes carry ranks, it additionally requires ranks to strictly
/// increase along every acquisition chain, which documents the intended
/// hierarchy even before a cycle exists.
#define BGPCMP_ACQUIRES_ORDER(n)

namespace bgpcmp {

/// std::mutex with Clang Thread Safety Analysis attributes. Drop-in for the
/// repo's internal locks; BasicLockable, so it also works directly with
/// std::condition_variable_any (thread_pool.cpp relies on this).
class BGPCMP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BGPCMP_ACQUIRE() { mu_.lock(); }
  void unlock() BGPCMP_RELEASE() { mu_.unlock(); }
  bool try_lock() BGPCMP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex, the annotated analogue of std::lock_guard.
class BGPCMP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BGPCMP_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() BGPCMP_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace bgpcmp
