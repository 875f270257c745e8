#include "bgpcmp/netbase/thread_annotations.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace bgpcmp {
namespace {

TEST(MutexTest, MutexLockSerializesWriters) {
  Mutex mu;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const MutexLock lock{mu};
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  mu.lock();
  bool acquired = true;
  std::thread probe([&] { acquired = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.unlock();

  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

// The ordering contract macros are declarations to tools/detlint and nothing
// to the compiler: a fully annotated type must compile and behave exactly like
// its unannotated twin on every toolchain.
class AnnotatedFixture {
 public:
  explicit AnnotatedFixture(int upto) {
    for (int i = 0; i < upto; ++i) values_.push_back(i * 2);
  }

  [[nodiscard]] int find(int key) const { return values_.at(key); }

  BGPCMP_PURE_CHUNK
  [[nodiscard]] int sum(int begin, int end) const {
    int total = 0;
    for (int i = begin; i < end; ++i) total += find(i);
    return total;
  }

 private:
  std::vector<int> values_;
  Mutex table_mu_ BGPCMP_ACQUIRES_ORDER(90);
};

TEST(PhaseContractTest, AnnotationsExpandToNothing) {
  const AnnotatedFixture fixture{4};
  EXPECT_EQ(fixture.find(3), 6);
  EXPECT_EQ(fixture.sum(0, 4), 12);
}

}  // namespace
}  // namespace bgpcmp
