// Deterministic parallel execution (docs/PARALLELISM.md).
//
// A fixed-size thread pool with parallel_for / parallel_map primitives. Work
// is chunked over the index range [0, n); every item writes only its own
// result slot, and results are collected in submission order, so the output
// is byte-identical for any thread count — the determinism audit compares
// threads=1 against threads=N and must stay green.
//
// The contract a loop body must honor to run here:
//   * item i reads shared state built before the call and writes only state
//     owned by item i (its result slot, its locals);
//   * randomness comes from an Rng forked per item (Rng::fork is const and
//     does not advance the parent), never from a generator shared across
//     items;
//   * lazily-populated caches reached from the body are internally
//     synchronized (CongestionField) or pre-warmed (AnycastCdn,
//     bgp::RouteCache::warm) before the fan-out.
//
// Calls from inside a pool worker run inline on the calling thread: nested
// parallelism never deadlocks the fixed-size pool, and the outermost loop
// keeps all workers busy.
//
// The pool's own locking discipline is compiler-checked: its mutexes are
// bgpcmp::Mutex with BGPCMP_GUARDED_BY annotations
// (bgpcmp/netbase/thread_annotations.h), built with -Werror=thread-safety
// under Clang, and the lazy-cache side of the contract is linted by
// tools/detlint.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace bgpcmp::exec {

class ThreadPool {
 public:
  /// `threads` <= 0 selects default_thread_count(). One thread means every
  /// parallel_for runs inline on the caller.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Run body(i) for every i in [0, n), blocking until all items finish.
  /// Items are claimed in contiguous chunks; the caller participates, so no
  /// thread idles while work remains. If bodies throw, the exception of the
  /// lowest-indexed failing item is rethrown — the same exception for any
  /// thread count (later items may or may not still be attempted; treat a
  /// throwing body as fatal, not as control flow).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  struct Impl;
  int size_ = 1;
  std::unique_ptr<Impl> impl_;  // absent when size_ == 1
};

/// Default pool width: the BGPCMP_THREADS environment variable if it is a
/// whole decimal integer in [1, INT_MAX], else
/// std::thread::hardware_concurrency() (min 1).
[[nodiscard]] int default_thread_count();

/// The process-wide pool used by the free parallel_map below.
/// Created on first use with default_thread_count() threads.
[[nodiscard]] ThreadPool& global_pool();

/// Replace the global pool with one of `n` threads (<= 0 restores the
/// default). Must not be called while a parallel loop is in flight.
void set_thread_count(int n);

/// Width of the global pool (creating it if needed).
[[nodiscard]] int thread_count();

/// Consume a `--threads N` argument from an argv-style vector (anywhere
/// after argv[0]) and apply it via set_thread_count. argc/argv are compacted
/// in place so downstream positional parsing is undisturbed. N must be a
/// whole decimal integer in [1, INT_MAX]; anything else ("2x", "0") fails a
/// BGPCMP_CHECK that quotes it, before any pool is built. Benches and tools
/// call this first thing in main().
void apply_thread_flag(int& argc, char** argv);

/// Map [0, n) through `fn` on `pool`, returning results in index order.
/// `fn` must be callable with a std::size_t and return a movable value.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn) {
  using T = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<std::optional<T>> slots(n);
  pool.parallel_for(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// parallel_map on the global pool.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn) {
  return parallel_map(global_pool(), n, std::forward<Fn>(fn));
}

/// Run body(begin, end) over contiguous chunks of [0, n), `chunk` items per
/// chunk (the last one truncated; chunk 0 behaves as 1). Batch pipelines
/// (the serving layer's query batches) amortize per-item dispatch overhead
/// this way while keeping the index-addressed-slot discipline: each chunk
/// owns exactly its index range, so output is byte-identical at any pool
/// width. tools/detlint treats parallel_chunks as a parallel region like
/// parallel_for/parallel_map, so its region rules (D7, D9) cover chunked
/// bodies.
template <typename Body>
void parallel_chunks(ThreadPool& pool, std::size_t n, std::size_t chunk, Body&& body) {
  const std::size_t width = chunk == 0 ? 1 : chunk;
  const std::size_t groups = (n + width - 1) / width;
  pool.parallel_for(groups, [&](std::size_t g) {
    const std::size_t begin = g * width;
    const std::size_t end = begin + width < n ? begin + width : n;
    body(begin, end);
  });
}

}  // namespace bgpcmp::exec
