#include "bgpcmp/exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/parse.h"
#include "bgpcmp/netbase/thread_annotations.h"

namespace bgpcmp::exec {

namespace {

thread_local bool tl_on_worker = false;

/// Shared state of one parallel_for call, owned by shared_ptr: runner tasks
/// may still sit in the queue after the loop completed (the submitter waits
/// on items finished, not runners started, so a busy pool never stalls it);
/// such stale runners find no work and drop their reference. Chunks are
/// claimed through an atomic cursor; which thread runs which chunk varies,
/// but every item writes only its own slot, so the collected output does not.
struct Batch {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::function<void(std::size_t)> body;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  // Innermost lock of the pool hierarchy (g_pool_mutex -> Impl -> Batch):
  // held only to publish errors and for the completion handshake.
  Mutex mutex BGPCMP_ACQUIRES_ORDER(30);
  std::condition_variable_any all_done;
  std::exception_ptr error BGPCMP_GUARDED_BY(mutex);
  std::size_t error_index BGPCMP_GUARDED_BY(mutex) = 0;

  void run_chunks() {
    for (;;) {
      const std::size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + grain, n);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          body(i);
        } catch (...) {
          const MutexLock lock{mutex};
          if (!error || i < error_index) {
            error = std::current_exception();
            error_index = i;
          }
        }
      }
      const std::size_t done =
          finished.fetch_add(end - begin, std::memory_order_acq_rel) +
          (end - begin);
      if (done == n) {
        // Lock before notifying so the submitter cannot check the predicate,
        // wake, and return between our fetch_add and notify_all; the batch
        // itself stays alive through this task's shared_ptr.
        const MutexLock lock{mutex};
        all_done.notify_all();
      }
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  // Queue lock; may be acquired while g_pool_mutex is held (pool teardown in
  // set_thread_count joins workers), never while a Batch::mutex is held.
  Mutex mutex BGPCMP_ACQUIRES_ORDER(20);
  std::condition_variable_any wake;
  std::deque<std::function<void()>> queue BGPCMP_GUARDED_BY(mutex);
  bool stopping BGPCMP_GUARDED_BY(mutex) = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    tl_on_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        // Explicit wait loop instead of the predicate overload: the analysis
        // sees the guarded reads directly under the held capability, where a
        // predicate lambda would be analyzed as an unlocked function.
        MutexLock lock{mutex};
        while (!stopping && queue.empty()) wake.wait(mutex);
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int threads) {
  size_ = threads > 0 ? threads : default_thread_count();
  if (size_ <= 1) {
    size_ = 1;
    return;  // inline-only pool: no workers, no queue
  }
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(static_cast<std::size_t>(size_) - 1);
  // size_ - 1 workers: the thread calling parallel_for is the size_-th lane.
  for (int i = 0; i < size_ - 1; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    const MutexLock lock{impl_->mutex};
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  BGPCMP_CHECK(body, "parallel_for needs a callable body");
  if (n == 0) return;
  // Inline paths: single-lane pool, trivial loop, or a nested call from a
  // worker (re-entering the queue from a worker can deadlock a fixed pool).
  // tl_on_worker is a per-thread dispatch flag: it picks inline vs. queued
  // execution, never a value, so chunk purity (detlint D10) is unaffected.
  if (!impl_ || n == 1 || tl_on_worker) {  // lint:allow(D10)
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->body = body;
  // ~4 chunks per lane balances skewed item costs against queue traffic.
  batch->grain =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(size_) * 4));
  const std::size_t chunks = (n + batch->grain - 1) / batch->grain;
  const int runners = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(size_) - 1, chunks));

  {
    const MutexLock lock{impl_->mutex};
    for (int r = 0; r < runners; ++r) {
      impl_->queue.emplace_back([batch] { batch->run_chunks(); });
    }
  }
  impl_->wake.notify_all();

  batch->run_chunks();  // the submitting thread is a full lane

  std::exception_ptr error;
  {
    MutexLock lock{batch->mutex};
    while (batch->finished.load(std::memory_order_acquire) != n) {
      batch->all_done.wait(batch->mutex);
    }
    error = batch->error;  // read under the lock the writers hold
  }
  if (error) std::rethrow_exception(error);
}

namespace {

// `text` as a thread count in [1, INT_MAX] (parse_number's whole-string
// rule), else nullopt.
std::optional<int> parse_thread_count(std::string_view text) {
  const auto n = parse_number<int>(text);
  if (!n || *n < 1) return std::nullopt;
  return n;
}

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("BGPCMP_THREADS")) {
    if (const auto n = parse_thread_count(env)) return *n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// Outermost lock of the pool hierarchy: replacing the global pool joins the
// old workers (which take Impl::mutex) while this is held.
Mutex g_pool_mutex BGPCMP_ACQUIRES_ORDER(10);
std::unique_ptr<ThreadPool> g_pool BGPCMP_GUARDED_BY(g_pool_mutex);

}  // namespace

ThreadPool& global_pool() {
  const MutexLock lock{g_pool_mutex};
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_thread_count(int n) {
  const MutexLock lock{g_pool_mutex};
  const int want = n > 0 ? n : default_thread_count();
  if (g_pool && g_pool->size() == want) return;
  g_pool.reset();  // join the old workers before standing up the new pool
  g_pool = std::make_unique<ThreadPool>(want);
}

int thread_count() { return global_pool().size(); }

void apply_thread_flag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} != "--threads") continue;
    BGPCMP_CHECK(i + 1 < argc, "--threads requires a value");
    const auto n = parse_thread_count(argv[i + 1]);
    BGPCMP_CHECK(n.has_value(), "--threads needs an integer in [1, 2147483647], got '",
                 argv[i + 1], "'");
    set_thread_count(*n);
    for (int j = i + 2; j < argc; ++j) argv[j - 2] = argv[j];
    argc -= 2;
    return;
  }
}

}  // namespace bgpcmp::exec
