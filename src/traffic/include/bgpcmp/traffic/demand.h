// Traffic demand: how many bytes each client prefix pulls in each window.
//
// Volume across prefixes is heavy-tailed (Zipf-modulated user weights) and
// varies diurnally in the client's local time — Fig 1 weighs route
// performance differences by exactly this per-window byte volume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgpcmp/netbase/simtime.h"
#include "bgpcmp/netbase/units.h"
#include "bgpcmp/traffic/clients.h"

namespace bgpcmp::traffic {

struct DemandConfig {
  std::uint64_t seed = 11;
  double zipf_exponent = 0.8;    ///< popularity skew across prefixes
  double mean_bytes_per_window = 1.0e9;  ///< scale; only relative weight matters
  double diurnal_amplitude = 0.5;  ///< peak-vs-trough swing of demand
};

/// Bytes served during the window around `t` by a prefix with the given
/// static popularity, located at longitude `lon_deg`. The single definition
/// of the diurnal volume curve: DemandModel::volume and the Fig 1 pair
/// measurement (core/pop_pair.h) both call it.
[[nodiscard]] Bytes diurnal_volume(const DemandConfig& config, double popularity,
                                   double lon_deg, SimTime t);

/// Deterministic per-(prefix, window) demand model.
class DemandModel {
 public:
  /// Popularities come from one traffic::DemandStream pass over `clients`
  /// (client_stream.h), the one definition of the popularity draw.
  DemandModel(const ClientBase* clients, const topo::CityDb* cities,
              const DemandConfig& config);

  /// Bytes served to `prefix` during the window around `t`.
  [[nodiscard]] Bytes volume(PrefixId prefix, SimTime t) const;

  /// Static popularity weight of a prefix (no diurnal term).
  [[nodiscard]] double popularity(PrefixId prefix) const;
  /// Every prefix's popularity, indexed by PrefixId.
  [[nodiscard]] std::span<const double> popularities() const { return popularity_; }

 private:
  const ClientBase* clients_;
  const topo::CityDb* cities_;
  DemandConfig config_;
  std::vector<double> popularity_;  ///< per-prefix static weight
};

}  // namespace bgpcmp::traffic
