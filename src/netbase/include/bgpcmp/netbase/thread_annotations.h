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
//     guarded_by(std::mutex) member could never be satisfied;
//   * BGPCMP_SINGLE_THREAD marks types (or members) whose lazy mutable state
//     is deliberately unsynchronized. The marker expands to nothing; it is a
//     machine-readable contract consumed by tools/detlint (rule D2) and
//     backed at runtime by OwningThread below.
#pragma once

#include <atomic>
#include <mutex>
#include <thread>

#include "bgpcmp/netbase/check.h"

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

/// Marks a type or data member as single-thread-only by contract: its lazy
/// mutable state is unsynchronized on purpose (WeightedCdf's sort cache).
/// Expands to nothing — the value is that tools/detlint rule D2 accepts
/// marked members and flags unmarked mutable state, and reviewers can grep
/// for every such waiver. Pair with an
/// OwningThread runtime assertion so the contract also trips in builds
/// without Clang TSA (see BGPCMP_ASSERT_SINGLE_THREAD).
#define BGPCMP_SINGLE_THREAD

// ---------------------------------------------------------------------------
// Phase and ordering contracts (tools/detlint rules D5/D6).
//
// The deterministic-parallelism architecture is build -> warm -> read-only
// serve (docs/PARALLELISM.md, "warm-then-plan"). These markers expand to
// nothing for the compiler; detlint reads them as facts and checks them over
// an include-graph-wide call graph, so the contract that used to live in the
// comment atop route_cache.h is now machine-enforced.

/// Declares which phase a function belongs to: `build` constructs worlds and
/// tables, `warm` precomputes shared read-only state (route tables, CSR edge
/// indexes), `serve` reads that state — possibly from many threads at once.
/// detlint D5 fails a serve-phase function that transitively performs warm or
/// build work: serving must stay read-only.
#define BGPCMP_PHASE(p)

/// Names the warm step(s) that must complete before this serve-phase function
/// runs inside a parallel region. detlint D5 walks every
/// parallel_for/parallel_map region and requires a dominating call to the
/// named function — earlier in the enclosing function, on the call chain into
/// the region, or performed by a constructor of the named function's class
/// (a fully-warmed object handed to the pool). Violations are reported with
/// the offending call chain.
#define BGPCMP_REQUIRES_WARMED(...)

/// Declares a function pure in its explicit inputs at chunk granularity: no
/// mutable function-local statics, no writes through unannotated namespace-
/// scope globals, and every BGPCMP_REQUIRES_WARMED callee dominated by a
/// per-chunk warm (or constructor discharge) inside the function itself.
/// This is the machine-readable form of the "pure in (world, config, chunk)"
/// comments on run_scale_chunk and the shard codec: detlint D10 chases every
/// reachable call and fails on shared state the chunk did not build for
/// itself, and D9 additionally rejects raw draws on an unforked root Rng in
/// the body. Expands to nothing.
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

/// Runtime backstop for BGPCMP_SINGLE_THREAD: remembers the first thread
/// that exercises a lazy mutation path and BGPCMP_CHECKs that every later
/// one is the same thread. The pin happens on first check(), not at
/// construction, so build-on-thread-A-then-render-on-thread-B handoffs stay
/// legal as long as all *mutation* stays on one side; call reset() before a
/// deliberate handoff of the mutation role.
///
/// Copies and moves start unpinned: a copied container lives wherever the
/// copy lives, and its owner is whoever touches it next.
class OwningThread {
 public:
  OwningThread() = default;
  OwningThread(const OwningThread&) noexcept {}
  OwningThread& operator=(const OwningThread&) noexcept {
    reset();
    return *this;
  }

  /// Pin on first call; fail on any call from a different thread. `what`
  /// names the violated contract in the diagnostic.
  void check(const char* what) const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first use: this thread is now the owner
    }
    BGPCMP_CHECK(expected == self, what,
                 ": BGPCMP_SINGLE_THREAD type mutated from a second thread");
  }

  /// Forget the owner (deliberate handoff between sequential phases).
  void reset() { owner_.store(std::thread::id{}, std::memory_order_relaxed); }

 private:
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace bgpcmp

// Owning-thread assertions are compiled in when BGPCMP_THREAD_CHECKS is 1:
// on by default in -DNDEBUG-less builds, forced on in the asan/tsan presets
// (CMakePresets.json), and overridable with -DBGPCMP_THREAD_CHECKS=0/1. The
// guarded sites are lazy-miss paths (a sort, a route-table build), so the
// CAS is noise even when enabled.
#ifndef BGPCMP_THREAD_CHECKS
#ifdef NDEBUG
#define BGPCMP_THREAD_CHECKS 0
#else
#define BGPCMP_THREAD_CHECKS 1
#endif
#endif

#if BGPCMP_THREAD_CHECKS
#define BGPCMP_ASSERT_SINGLE_THREAD(owner, what) (owner).check(what)
#else
#define BGPCMP_ASSERT_SINGLE_THREAD(owner, what) ((void)0)
#endif
