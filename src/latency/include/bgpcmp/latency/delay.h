// RTT composition: geography + processing + queueing + shared access delay.
#pragma once

#include "bgpcmp/latency/congestion.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/netbase/geo.h"

namespace bgpcmp::lat {

/// Last-mile characteristics of a client population (DSL/cable/fiber mix).
struct AccessProfile {
  double base_rtt_ms = 8.0;  ///< fixed last-mile RTT component
};

/// Snapshot wire fields (world_snapshot.h), in declaration order.
template <class A>
void fields(A& a, AccessProfile& p) { a(p.base_rtt_ms); }

struct RttBreakdown {
  Milliseconds propagation;  ///< 2x one-way fiber delay over the inflated path
  Milliseconds processing;   ///< per-AS-crossing router/serialization cost
  Milliseconds queueing;     ///< bottleneck-direction queueing on crossed links
  Milliseconds access;       ///< last mile + shared destination-side congestion

  [[nodiscard]] Milliseconds total() const {
    return propagation + processing + queueing + access;
  }
};

struct LatencyConfig {
  double per_hop_processing_ms = 0.3;  ///< RTT cost per inter-AS crossing
};

/// Deterministic baseline RTT of a realized path at an instant (the
/// measurement-noise layer lives in rtt_sampler.h).
class LatencyModel {
 public:
  LatencyModel(const AsGraph* graph, const CityDb* cities,
               const CongestionField* congestion, LatencyConfig config = {})
      : graph_(graph), cities_(cities), congestion_(congestion), config_(config) {}

  /// RTT of a path at time `t` for clients with the given access profile.
  /// `access_as`/`access_city` identify the client's access network — the end
  /// of the path where the shared last-mile sits (the path's last AS when the
  /// provider sends toward clients, its first AS when clients fetch from a
  /// front-end). Shared access congestion is keyed on it, so it is identical
  /// across alternate routes — the degrade-together mechanism of §3.1.1.
  [[nodiscard]] RttBreakdown rtt(const GeoPath& path, SimTime t,
                                 const AccessProfile& profile, AsIndex access_as,
                                 CityId access_city) const;

  /// Available bandwidth of a path right now: the tightest crossed link's
  /// headroom (capacity x (1 - utilization)). Paths that cross no
  /// inter-AS link are access-limited; `access_cap_gbps` bounds those.
  /// Backs the paper's "qualitatively similar results for bandwidth
  /// (not shown)" claim (§3.1).
  [[nodiscard]] GigabitsPerSecond available_bandwidth(
      const GeoPath& path, SimTime t, double access_cap_gbps = 10.0) const;

  [[nodiscard]] const LatencyConfig& config() const { return config_; }
  [[nodiscard]] const CongestionField& congestion() const { return *congestion_; }

 private:
  const AsGraph* graph_;
  const CityDb* cities_;
  const CongestionField* congestion_;
  LatencyConfig config_;
};

}  // namespace bgpcmp::lat
