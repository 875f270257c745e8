#include "bgpcmp/traffic/demand.h"

#include <cmath>

#include "bgpcmp/traffic/client_stream.h"

namespace bgpcmp::traffic {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
}

DemandModel::DemandModel(const ClientBase* clients, const topo::CityDb* cities,
                         const DemandConfig& config)
    : clients_(clients),
      cities_(cities),
      config_(config),
      popularity_(DemandStream{config}.next(0, clients->prefixes())) {}

double DemandModel::popularity(PrefixId prefix) const {
  return popularity_.at(prefix);
}

Bytes diurnal_volume(const DemandConfig& config, double popularity, double lon_deg,
                     SimTime t) {
  const double local_hour = std::fmod(t.hour_of_day() + lon_deg / 15.0 + 48.0, 24.0);
  // Demand peaks in the local evening (~21:00).
  const double diurnal =
      1.0 + config.diurnal_amplitude * std::sin(kTwoPi * (local_hour - 15.0) / 24.0);
  return Bytes{config.mean_bytes_per_window * popularity * diurnal};
}

Bytes DemandModel::volume(PrefixId prefix, SimTime t) const {
  const auto& client = clients_->at(prefix);
  const double lon = cities_->at(client.city).location.lon_deg;
  return diurnal_volume(config_, popularity_.at(prefix), lon, t);
}

}  // namespace bgpcmp::traffic
