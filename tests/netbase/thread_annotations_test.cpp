#include "bgpcmp/netbase/thread_annotations.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bgpcmp/netbase/check.h"

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

TEST(OwningThreadTest, RepeatedChecksFromOwnerPass) {
  OwningThread owner;
  owner.check("first use pins");
  owner.check("second use, same thread");
  owner.check("third use, same thread");
}

TEST(OwningThreadTest, SecondThreadTripsCheck) {
  const ScopedCheckThrows guard;
  OwningThread owner;
  owner.check("pin on the main thread");
  bool tripped = false;
  std::thread intruder([&] {
    try {
      owner.check("mutation from a second thread");
    } catch (const CheckError&) {
      tripped = true;
    }
  });
  intruder.join();
  EXPECT_TRUE(tripped);
  owner.check("owner remains valid afterwards");
}

TEST(OwningThreadTest, ResetHandsOffOwnership) {
  const ScopedCheckThrows guard;
  OwningThread owner;
  owner.check("pin on the main thread");
  owner.reset();
  bool tripped = false;
  std::thread successor([&] {
    try {
      owner.check("first use after reset re-pins here");
    } catch (const CheckError&) {
      tripped = true;
    }
  });
  successor.join();
  EXPECT_FALSE(tripped);
}

// The phase/ordering contract macros are declarations to tools/detlint and
// nothing to the compiler: a fully annotated type must compile and behave
// exactly like its unannotated twin on every toolchain.
class BGPCMP_SINGLE_THREAD AnnotatedPhaseFixture {
 public:
  BGPCMP_PHASE(warm)
  void warm(int upto) {
    for (int i = static_cast<int>(warmed_.size()); i < upto; ++i) {
      warmed_.push_back(i * 2);
    }
  }

  BGPCMP_PHASE(serve)
  BGPCMP_REQUIRES_WARMED(warm)
  [[nodiscard]] int find(int key) const { return warmed_.at(key); }

  /// Lazy path: covered by the class waiver + runtime pin, not by phase
  /// annotations (the WeightedCdf sort-cache pattern).
  [[nodiscard]] int toward(int key) {
    BGPCMP_ASSERT_SINGLE_THREAD(lazy_owner_, "AnnotatedPhaseFixture::toward");
    while (static_cast<int>(warmed_.size()) <= key) {
      warmed_.push_back(static_cast<int>(warmed_.size()) * 2);
    }
    return warmed_[key];
  }

 private:
  std::vector<int> warmed_;
  Mutex table_mu_ BGPCMP_ACQUIRES_ORDER(90);
  OwningThread lazy_owner_;
};

TEST(PhaseContractTest, AnnotationsExpandToNothing) {
  AnnotatedPhaseFixture fixture;
  fixture.warm(4);
  EXPECT_EQ(fixture.find(3), 6);
  EXPECT_EQ(fixture.toward(5), 10);
}

TEST(PhaseContractTest, WaivedLazyPathStillPinsItsThread) {
  // The waiver trades the phase contract for the OwningThread runtime pin:
  // warmed find() reads are fine from any thread, but the lazy toward()
  // mutation path must stay on the thread that first used it.
  const ScopedCheckThrows guard;
  AnnotatedPhaseFixture fixture;
  fixture.warm(8);
  EXPECT_EQ(fixture.toward(2), 4);  // pins the lazy path to this thread

  int from_reader = 0;
  bool lazy_tripped = false;
  std::thread reader([&] {
    from_reader = fixture.find(7);  // serve-phase read: legal anywhere
    try {
      (void)fixture.toward(30);  // lazy miss from a second thread: caught
    } catch (const CheckError&) {
      lazy_tripped = true;
    }
  });
  reader.join();
  EXPECT_EQ(from_reader, 14);
#if BGPCMP_THREAD_CHECKS
  EXPECT_TRUE(lazy_tripped);
#endif
}

TEST(OwningThreadTest, CopiesStartUnpinned) {
  const ScopedCheckThrows guard;
  OwningThread original;
  original.check("pin the original on the main thread");
  OwningThread copy{original};
  bool tripped = false;
  std::thread elsewhere([&] {
    try {
      copy.check("a copy belongs to whoever touches it first");
    } catch (const CheckError&) {
      tripped = true;
    }
  });
  elsewhere.join();
  EXPECT_FALSE(tripped);

  OwningThread assigned;
  assigned.check("pin before assignment");
  assigned = original;
  bool tripped2 = false;
  std::thread elsewhere2([&] {
    try {
      assigned.check("assignment resets the pin");
    } catch (const CheckError&) {
      tripped2 = true;
    }
  });
  elsewhere2.join();
  EXPECT_FALSE(tripped2);
}

}  // namespace
}  // namespace bgpcmp
