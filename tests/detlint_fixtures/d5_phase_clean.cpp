// detlint fixture: rule D5 (phase contracts), clean cases — every discharge
// path the rule accepts. No expect markers: a finding here is a regression.
#define BGPCMP_PHASE(p)
#define BGPCMP_REQUIRES_WARMED(...)
#define BGPCMP_SINGLE_THREAD

namespace fixture_d5_clean {

template <typename Body>
void parallel_for(unsigned long n, Body body);

// (1) Textual dominance: warm before the fan-out, in the same function.
class PhaseCacheE {
 public:
  BGPCMP_PHASE(warm)
  void warm_e();

  BGPCMP_PHASE(serve)
  BGPCMP_REQUIRES_WARMED(warm_e)
  int find_e(int key) const;
};

inline void warmed_fanout(PhaseCacheE& cache) {
  cache.warm_e();
  parallel_for(8, [&](unsigned long i) {
    (void)cache.find_e(static_cast<int>(i));
  });
}

// (2) Dominance through the call chain: the callee warms internally before
// its own parallel region (the run_pop_study pattern).
inline void warm_then_fan(PhaseCacheE& cache) {
  cache.warm_e();
  parallel_for(8, [&](unsigned long i) {
    (void)cache.find_e(static_cast<int>(i));
  });
}

inline void outer_driver(PhaseCacheE& cache) {
  parallel_for(2, [&](unsigned long) { warm_then_fan(cache); });
}

// (3) Constructor discharge: the warm step runs in the constructor, so any
// constructed object is warmed by definition (the AnycastCdn pattern).
class WarmOnBuildF {
 public:
  WarmOnBuildF() { warm_f(); }

  BGPCMP_PHASE(warm)
  void warm_f();

  BGPCMP_PHASE(serve)
  BGPCMP_REQUIRES_WARMED(warm_f)
  int serve_f(int key) const;
};

inline void ctor_discharged(const WarmOnBuildF& store) {
  parallel_for(8, [&](unsigned long i) {
    (void)store.serve_f(static_cast<int>(i));
  });
}

// (4) Requirement naming the class itself: "construction IS the warm step"
// (the CloudTiers pattern).
class BuiltWarmG {
 public:
  BuiltWarmG();

  BGPCMP_PHASE(serve)
  BGPCMP_REQUIRES_WARMED(BuiltWarmG)
  int serve_g(int key) const;
};

inline void class_requirement_ok(const BuiltWarmG& tiers) {
  parallel_for(8, [&](unsigned long i) {
    (void)tiers.serve_g(static_cast<int>(i));
  });
}

// (5) Single-thread waiver: unannotated methods of a BGPCMP_SINGLE_THREAD
// class are accepted without a phase annotation — their contract is the
// OwningThread runtime pin (WeightedCdf's sort cache).
class BGPCMP_SINGLE_THREAD LazyCdfH {
 public:
  double quantile_h(double q) const;

 private:
  mutable double cache_ = 0.0;
};

inline void waived_lazy(LazyCdfH& cdf) {
  parallel_for(4, [&](unsigned long i) {
    (void)cdf.quantile_h(static_cast<double>(i) / 4.0);
  });
}

}  // namespace fixture_d5_clean
