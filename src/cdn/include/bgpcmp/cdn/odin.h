// Odin-style client measurement beacons.
//
// Microsoft's study injected JavaScript into Bing results to measure each
// client against the anycast address and several nearby unicast front-ends.
// This module reproduces that measurement stream on the simulated substrate:
// a beacon yields one paired (anycast, per-front-end unicast) sample with
// realistic fetch noise.
#pragma once

#include <vector>

#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::cdn {

struct OdinConfig {
  std::size_t unicast_candidates = 8;  ///< nearby front-ends per beacon
  int probes_per_target = 2;           ///< fetches per target per beacon
};

struct BeaconResult {
  traffic::PrefixId client = 0;
  PopId catchment = kNoPop;              ///< anycast landed here
  Milliseconds anycast{0.0};
  std::vector<std::pair<PopId, Milliseconds>> unicast;  ///< per candidate FE

  /// Lowest unicast latency observed (requires !unicast.empty()).
  [[nodiscard]] Milliseconds best_unicast() const;
  [[nodiscard]] PopId best_unicast_pop() const;
};

/// The deterministic half of one beacon: routes resolved and base RTTs
/// computed, no noise drawn yet. Safe to build in parallel (one plan per
/// item) and replay serially through sample() to keep the draw order of the
/// historical all-in-one measure().
struct BeaconPlan {
  traffic::PrefixId client = 0;
  bool reachable = false;        ///< anycast route valid; false => zero draws
  PopId catchment = kNoPop;
  Milliseconds anycast_base{0.0};
  std::vector<std::pair<PopId, Milliseconds>> unicast_base;  ///< valid FEs only
};

class OdinBeacons {
 public:
  OdinBeacons(const AnycastCdn* cdn, const lat::LatencyModel* latency,
              const traffic::ClientBase* clients, OdinConfig config = {})
      : cdn_(cdn), latency_(latency), clients_(clients), config_(config) {}

  /// Run one beacon for a client at time `t`. Returns false (and leaves
  /// `result` partially filled) only if the client cannot reach the anycast
  /// prefix at all. Equivalent to sample(plan(client, t), rng, result).
  [[nodiscard]] bool measure(traffic::PrefixId client, SimTime t, Rng& rng,
                             BeaconResult& result) const;

  /// Deterministic half of a beacon: resolve routes and base RTTs, drawing no
  /// randomness. Thread-safe against concurrent plan() calls: this is the
  /// half studies fan out over the pool, plan-then-sample.
  [[nodiscard]] BeaconPlan plan(traffic::PrefixId client, SimTime t) const;

  /// Apply fetch noise to a plan, drawing exactly the sequence measure()
  /// would for the same beacon. Returns measure()'s verdict. A pure
  /// function of the plan plus the caller's Rng.
  [[nodiscard]] bool sample(const BeaconPlan& plan, Rng& rng,
                            BeaconResult& result) const;

  [[nodiscard]] const OdinConfig& config() const { return config_; }

 private:
  const AnycastCdn* cdn_;
  const lat::LatencyModel* latency_;
  const traffic::ClientBase* clients_;
  OdinConfig config_;
  lat::RttSampler sampler_;
};

}  // namespace bgpcmp::cdn
