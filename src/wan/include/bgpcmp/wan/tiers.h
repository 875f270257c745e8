// Two-tier cloud networking (§2.3.3): Premium rides the private WAN from an
// edge PoP near the client to the data center; Standard is announced only
// near the data center and rides the public Internet the rest of the way.
#pragma once

#include <optional>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/traffic/clients.h"
#include "bgpcmp/wan/backbone.h"

namespace bgpcmp::wan {

using cdn::ContentProvider;
using cdn::PopId;
using topo::Internet;

struct CloudTiersConfig {
  /// Metro hosting the data center (the paper's US-Central region; Kansas
  /// City is the nearest metro in the city database).
  std::string_view dc_city = "Kansas City";
  BackboneConfig backbone;
};

/// One tier's route for one client.
struct TierRoute {
  lat::GeoPath access_path;        ///< client -> cloud ingress (public Internet)
  Milliseconds wan_rtt{0.0};       ///< round-trip time spent on the private WAN
  PopId entry_pop = cdn::kNoPop;   ///< where traffic enters the cloud
  int intermediate_ases = 0;       ///< ASes between the client AS and the cloud
  bool direct_entry = false;       ///< client AS peers directly with the cloud

  [[nodiscard]] bool valid() const { return access_path.valid(); }
};

class CloudTiers {
 public:
  /// `internet`/`provider` must outlive this object. The provider's PoPs act
  /// as WAN edge sites; the PoP nearest `dc_city` hosts the data center.
  /// The constructor is the warm step: both tier route tables are computed
  /// here (over the pool), so a constructed CloudTiers serves read-only.
  CloudTiers(const Internet* internet, const ContentProvider* provider,
             const CloudTiersConfig& config = {});

  [[nodiscard]] CityId dc_city() const { return dc_city_; }
  [[nodiscard]] PopId dc_pop() const { return dc_pop_; }
  [[nodiscard]] const Backbone& backbone() const { return backbone_; }

  // Raw routing state, for analyses that re-realize paths under different
  // exit strategies (single-WAN hypothesis, E9).
  [[nodiscard]] const bgp::RouteTable& premium_table() const { return *premium_table_; }
  [[nodiscard]] const bgp::RouteTable& standard_table() const { return *standard_table_; }
  [[nodiscard]] const bgp::OriginSpec& premium_spec() const { return premium_spec_; }
  [[nodiscard]] const bgp::OriginSpec& standard_spec() const { return standard_spec_; }

  /// Premium: BGP anycast to the nearest edge announcement, then the WAN.
  /// A const read over the tables the constructor computed.
  [[nodiscard]] TierRoute premium(const traffic::ClientPrefix& client) const;
  /// Standard: BGP toward an announcement scoped to the DC PoP's sessions.
  [[nodiscard]] TierRoute standard(const traffic::ClientPrefix& client) const;

  /// Full model RTT of a tier route (access path + WAN backhaul).
  [[nodiscard]] Milliseconds rtt(const TierRoute& route,
                                 const lat::LatencyModel& latency, SimTime t,
                                 const traffic::ClientPrefix& client) const;

  /// Distance from the client to where the traffic enters the cloud network —
  /// the paper's "traceroutes enter Google's network within 400 km" statistic.
  [[nodiscard]] Kilometers ingress_distance(const TierRoute& route,
                                            const traffic::ClientPrefix& client) const;

 private:
  [[nodiscard]] TierRoute realize(const bgp::RouteTable& table,
                                  const bgp::OriginSpec& spec,
                                  const traffic::ClientPrefix& client,
                                  bool backhaul_on_wan) const;

  const Internet* internet_;
  const ContentProvider* provider_;
  CityId dc_city_ = topo::kNoCity;
  PopId dc_pop_ = cdn::kNoPop;
  Backbone backbone_;
  bgp::OriginSpec premium_spec_;
  bgp::OriginSpec standard_spec_;
  std::optional<bgp::RouteTable> premium_table_;
  std::optional<bgp::RouteTable> standard_table_;
};

}  // namespace bgpcmp::wan
