// detlint fixture: rule D2 (mutable members without a concurrency contract).
//
// A mutable member must be atomic, a mutex type, or BGPCMP_GUARDED_BY-
// annotated: anything else is a cache a const read path could write
// unsynchronized. Deliberately NOT compiled; the macro below stands in for
// bgpcmp/netbase/thread_annotations.h so the fixture reads like real code.
#include <atomic>
#include <mutex>
#include <vector>

#define BGPCMP_GUARDED_BY(x)

namespace fixture {

class LazyStats {
 public:
  double mean() const;

 private:
  mutable std::vector<double> scratch_;  // expect: D2
  mutable bool dirty_ = true;  // expect: D2
  mutable std::atomic<long> hits_{0};
  mutable std::mutex mu_;
  mutable std::vector<double> guarded_ BGPCMP_GUARDED_BY(mu_);
  mutable long instrumented_ = 0;  // lint:allow(D2): perf counter, torn reads fine
};

// A lazily sorted cache behind const queries: the shape WeightedCdf had
// before it sorted in its constructor.
class LazySorted {
 public:
  double quantile(double q) const;

 private:
  mutable std::vector<double> sorted_;  // expect: D2
  mutable bool fresh_ = false;  // expect: D2
};

inline int lambda_mutable_ok(int x) {
  // `mutable` on a lambda is a value-capture detail, not shared state.
  auto bump = [x]() mutable { return ++x; };
  return bump();
}

inline int parenless_lambda_mutable_ok(int x) {
  // The parameter list is optional: `[x] mutable` is still a lambda.
  auto bump = [x] mutable { return ++x; };
  return bump();
}

}  // namespace fixture
