// The exec layer's contract: submission-order results, thread-count
// independence, exception propagation, and safe nesting. This suite is part
// of the tsan CI job — every assertion here must also hold under
// ThreadSanitizer (cmake --preset tsan).
#include "bgpcmp/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::exec {
namespace {

TEST(ThreadPoolTest, ZeroItemsIsANoop) {
  ThreadPool pool{4};
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleItemRunsInline) {
  ThreadPool pool{4};
  std::size_t seen = 123;
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t i) {
    seen = i;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelMapPreservesSubmissionOrder) {
  ThreadPool pool{4};
  const auto out =
      parallel_map(pool, 500, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ResultsIdenticalAcrossThreadCounts) {
  auto body = [](std::size_t i) {
    // Enough arithmetic that a scheduling-dependent result would show.
    double acc = static_cast<double>(i);
    for (int k = 0; k < 50; ++k) acc = acc * 1.25 + static_cast<double>(k);
    return acc;
  };
  ThreadPool one{1};
  ThreadPool eight{8};
  const auto a = parallel_map(one, 777, body);
  const auto b = parallel_map(eight, 777, body);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bitwise: same items, same order, same values
  }
}

TEST(ThreadPoolTest, PropagatesLowestIndexException) {
  ThreadPool pool{4};
  // Items 100, 350, and 600 throw; index 100 must win at any thread count.
  auto body = [](std::size_t i) {
    if (i == 100 || i == 350 || i == 600) {
      throw std::runtime_error{"boom at " + std::to_string(i)};
    }
  };
  try {
    pool.parallel_for(1000, body);
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 100");
  }
  ThreadPool single{1};
  try {
    single.parallel_for(1000, body);
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 100");
  }
}

TEST(ThreadPoolTest, NestedCallsRunInlineOnWorkers) {
  ThreadPool pool{4};
  std::vector<int> inner_sums(32, 0);
  pool.parallel_for(inner_sums.size(), [&](std::size_t i) {
    // A nested loop must not re-enter the queue (deadlock risk) and must
    // still produce its items in place.
    int sum = 0;
    pool.parallel_for(10, [&](std::size_t j) { sum += static_cast<int>(j); });
    inner_sums[i] = sum;
  });
  for (const int s : inner_sums) EXPECT_EQ(s, 45);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyLoops) {
  ThreadPool pool{3};
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> total{0};
    pool.parallel_for(100, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 4950);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  // setenv over getenv is process-global but tests in this binary run
  // sequentially; restore to avoid leaking into later suites.
  ASSERT_EQ(setenv("BGPCMP_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3);
  ASSERT_EQ(unsetenv("BGPCMP_THREADS"), 0);
  const int hardware = default_thread_count();
  EXPECT_GE(hardware, 1);
  // Bad text falls back to hardware concurrency: no prefix parse, no wrap,
  // and no narrowing of an out-of-range count into a huge pool.
  for (const char* bad : {"not-a-number", "2x", "0", "-3", "99999999999", ""}) {
    ASSERT_EQ(setenv("BGPCMP_THREADS", bad, 1), 0);
    EXPECT_EQ(default_thread_count(), hardware) << "BGPCMP_THREADS=" << bad;
  }
  ASSERT_EQ(unsetenv("BGPCMP_THREADS"), 0);
}

TEST(ThreadPoolTest, ApplyThreadFlagConsumesArguments) {
  std::string a0 = "bench";
  std::string a1 = "--threads";
  std::string a2 = "2";
  std::string a3 = "5.0";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data()};
  int argc = 4;
  apply_thread_flag(argc, argv);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "5.0");
  EXPECT_EQ(thread_count(), 2);
  set_thread_count(0);  // restore the default-width global pool
}

TEST(ThreadPoolTest, ApplyThreadFlagRejectsMalformedCounts) {
  // Each value fails the check before set_thread_count runs, so no pool of
  // the (mis)parsed width is ever built and argv is left as it was.
  ScopedCheckThrows guard;
  for (std::string value : {"2x", "abc", "0", "-3", "99999999999"}) {
    std::string a0 = "bench";
    std::string a1 = "--threads";
    char* argv[] = {a0.data(), a1.data(), value.data()};
    int argc = 3;
    try {
      apply_thread_flag(argc, argv);
      ADD_FAILURE() << "--threads " << value << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + value + "'"), std::string::npos) << e.what();
    }
    EXPECT_EQ(argc, 3);
  }
}

TEST(ThreadPoolTest, SetThreadCountResizesGlobalPool) {
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2);
  set_thread_count(5);
  EXPECT_EQ(thread_count(), 5);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), default_thread_count());
}

}  // namespace
}  // namespace bgpcmp::exec
